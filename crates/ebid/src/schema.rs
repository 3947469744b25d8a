//! eBid's database schema and dataset generator.
//!
//! Persistent state in eBid "consists of user account information, item
//! information, bid/buy/sell activity, etc." (Section 3.3), held in MySQL
//! through nine entity beans. The paper's dataset is 132 K items, 1.5 M
//! bids and 10 K users; [`DatasetSpec::default`] generates a 1:100-scaled
//! dataset with the same proportions (the simulation's recovery behaviour
//! does not depend on absolute dataset size, and the DB recovery-cost
//! model scales with rows).

use simcore::SimRng;
use statestore::db::TableDef;
use statestore::{Database, Value};

/// Column layout of each table (index 0 is always the integer pk).
pub fn schema() -> Vec<TableDef> {
    vec![
        TableDef {
            name: "users",
            // rating counts feedback; balance in cents.
            columns: &["id", "nickname", "rating", "balance", "region_id"],
        },
        TableDef {
            name: "items",
            columns: &[
                "id",
                "name",
                "seller_id",
                "category_id",
                "region_id",
                "quantity",
                "max_bid",
                "nb_bids",
                "buy_now_price",
            ],
        },
        TableDef {
            name: "old_items",
            columns: &["id", "name", "seller_id", "final_price"],
        },
        TableDef {
            name: "bids",
            columns: &["id", "user_id", "item_id", "amount"],
        },
        TableDef {
            name: "buy_now",
            columns: &["id", "buyer_id", "item_id", "quantity"],
        },
        TableDef {
            name: "categories",
            columns: &["id", "name"],
        },
        TableDef {
            name: "regions",
            columns: &["id", "name"],
        },
        TableDef {
            name: "comments",
            columns: &["id", "from_user", "to_user", "rating", "text_len"],
        },
    ]
}

/// Returns the position of `column` in `table`'s rows.
///
/// # Panics
///
/// Panics if the schema has no such table or column — a definition bug.
pub fn column(table: &str, column: &str) -> usize {
    let schema = schema();
    let def = schema
        .iter()
        .find(|t| t.name == table)
        .unwrap_or_else(|| panic!("no table {table} in the eBid schema"));
    def.columns
        .iter()
        .position(|c| *c == column)
        .unwrap_or_else(|| panic!("no column {column} in table {table}"))
}

/// The `(table, column)` pairs eBid's handlers select on by equality
/// (`Database::scan_eq`); [`DatasetSpec::generate`] indexes each.
pub const INDEXES: &[(&str, &str)] = &[
    ("items", "seller_id"),
    ("items", "category_id"),
    ("items", "region_id"),
    ("bids", "user_id"),
    ("bids", "item_id"),
    ("buy_now", "buyer_id"),
    ("comments", "to_user"),
];

/// Size parameters for dataset generation.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Registered users (paper: 10,000).
    pub users: i64,
    /// Active auction items (paper: 132,000).
    pub items: i64,
    /// Finished auctions.
    pub old_items: i64,
    /// Bids across active items (paper: 1,500,000).
    pub bids: i64,
    /// Completed buy-now purchases.
    pub buys: i64,
    /// Feedback comments.
    pub comments: i64,
    /// Item categories (RUBiS: 20).
    pub categories: i64,
    /// Geographic regions (RUBiS: 62).
    pub regions: i64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        // The paper's dataset scaled 1:100.
        DatasetSpec {
            users: 100,
            items: 1_320,
            old_items: 400,
            bids: 15_000,
            buys: 150,
            comments: 300,
            categories: 20,
            regions: 62,
        }
    }
}

impl DatasetSpec {
    /// A tiny dataset for fast unit tests.
    pub fn tiny() -> Self {
        DatasetSpec {
            users: 10,
            items: 50,
            old_items: 10,
            bids: 200,
            buys: 5,
            comments: 10,
            categories: 5,
            regions: 4,
        }
    }

    /// Generates a populated database, with [`INDEXES`] built.
    pub fn generate(&self, seed: u64) -> Database {
        let mut rng = SimRng::seed_from(seed);
        let mut db = Database::new(schema());

        db.load(
            "categories",
            (1..=self.categories)
                .map(|i| vec![Value::Int(i), Value::from(format!("category-{i}"))]),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "regions",
            (1..=self.regions).map(|i| vec![Value::Int(i), Value::from(format!("region-{i}"))]),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "users",
            (1..=self.users).map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("user-{i}")),
                    Value::Int(rng.uniform_u64(50) as i64),
                    Value::Int(rng.uniform_u64(100_000) as i64),
                    Value::Int(1 + rng.uniform_u64(self.regions as u64) as i64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "items",
            (1..=self.items).map(|i| {
                let start = 100 + rng.uniform_u64(10_000) as i64;
                vec![
                    Value::Int(i),
                    Value::from(format!("item-{i}")),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.categories as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.regions as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(5) as i64),
                    Value::Float(start as f64),
                    Value::Int(0),
                    Value::Float((start * 3) as f64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "old_items",
            (1..=self.old_items).map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("old-item-{i}")),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Float(100.0 + rng.uniform_u64(20_000) as f64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "bids",
            (1..=self.bids).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.items as u64) as i64),
                    Value::Float(100.0 + rng.uniform_u64(10_000) as f64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "buy_now",
            (1..=self.buys).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.items as u64) as i64),
                    Value::Int(1),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            "comments",
            (1..=self.comments).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(rng.uniform_u64(6) as i64),
                    Value::Int(rng.uniform_u64(500) as i64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");

        for (table, name) in INDEXES {
            db.create_index(table, column(table, name))
                .expect("column taken from the schema");
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_paper_proportions() {
        let s = DatasetSpec::default();
        // 132K items : 1.5M bids : 10K users, scaled 1:100.
        assert_eq!(s.items, 1_320);
        assert_eq!(s.bids, 15_000);
        assert_eq!(s.users, 100);
    }

    #[test]
    fn generation_populates_all_tables() {
        let db = DatasetSpec::tiny().generate(42);
        assert_eq!(db.table_len("users").unwrap(), 10);
        assert_eq!(db.table_len("items").unwrap(), 50);
        assert_eq!(db.table_len("bids").unwrap(), 200);
        assert_eq!(db.table_len("categories").unwrap(), 5);
        assert_eq!(db.table_len("regions").unwrap(), 4);
        assert_eq!(db.table_len("old_items").unwrap(), 10);
        assert_eq!(db.table_len("buy_now").unwrap(), 5);
        assert_eq!(db.table_len("comments").unwrap(), 10);
        assert!(db.is_consistent());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::tiny().generate(42);
        let b = DatasetSpec::tiny().generate(42);
        assert_eq!(
            a.read_committed("items", 7).unwrap(),
            b.read_committed("items", 7).unwrap()
        );
    }

    #[test]
    fn item_references_stay_in_range() {
        let spec = DatasetSpec::tiny();
        let mut db = spec.generate(1);
        let rows = db.scan("items", |_| true, usize::MAX).unwrap();
        for r in rows {
            let seller = r[2].as_int().unwrap();
            assert!((1..=spec.users).contains(&seller));
            let cat = r[3].as_int().unwrap();
            assert!((1..=spec.categories).contains(&cat));
        }
    }
}
