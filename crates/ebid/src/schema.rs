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
use statestore::{Database, TableId, Value};

/// The schema, declared once: a row is a table, its module name the
/// table's name, holding each column's handle and name in order (index 0
/// is always the integer pk). [`schema`] is the rows in order, a table's
/// [`TableId`] its row's position and a column handle its position in the
/// row, so handles and schema cannot disagree;
/// `handles_name_what_they_claim` checks each column's two spellings.
macro_rules! tables {
    ($($table:ident { $($column:ident: $name:literal),* })*) => {
        #[allow(non_camel_case_types)]
        enum Position { $($table),* }

        $(#[allow(dead_code)] // the handlers touch only some columns
        pub(crate) mod $table {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            enum Position { $($column),* }
            pub(crate) const TABLE: statestore::TableId =
                statestore::TableId(super::Position::$table as usize);
            $(pub(crate) const $column: usize = Position::$column as usize;)*
            #[cfg(test)]
            pub(crate) const SPELT: &[&str] = &[$(stringify!($column)),*];
        })*

        /// Column layout of each table.
        pub fn schema() -> Vec<TableDef> {
            vec![$(TableDef { name: stringify!($table), columns: &[$($name),*] }),*]
        }
        #[cfg(test)]
        const SPELT: &[&[&str]] = &[$($table::SPELT),*];
    };
}

tables! {
    // rating counts feedback; balance in cents.
    users { ID: "id", NICKNAME: "nickname", RATING: "rating", BALANCE: "balance", REGION_ID: "region_id" }
    items {
        ID: "id", NAME: "name", SELLER_ID: "seller_id", CATEGORY_ID: "category_id",
        REGION_ID: "region_id", QUANTITY: "quantity", MAX_BID: "max_bid", NB_BIDS: "nb_bids",
        BUY_NOW_PRICE: "buy_now_price"
    }
    old_items { ID: "id", NAME: "name", SELLER_ID: "seller_id", FINAL_PRICE: "final_price" }
    bids { ID: "id", USER_ID: "user_id", ITEM_ID: "item_id", AMOUNT: "amount" }
    buy_now { ID: "id", BUYER_ID: "buyer_id", ITEM_ID: "item_id", QUANTITY: "quantity" }
    categories { ID: "id", NAME: "name" }
    regions { ID: "id", NAME: "name" }
    comments { ID: "id", FROM_USER: "from_user", TO_USER: "to_user", RATING: "rating", TEXT_LEN: "text_len" }
}

/// The `(table, column)` pairs eBid's handlers select on by equality
/// (`Database::scan_eq`); [`DatasetSpec::generate`] indexes each.
pub const INDEXES: &[(TableId, usize)] = &[
    (items::TABLE, items::SELLER_ID),
    (items::TABLE, items::CATEGORY_ID),
    (items::TABLE, items::REGION_ID),
    (bids::TABLE, bids::USER_ID),
    (bids::TABLE, bids::ITEM_ID),
    (buy_now::TABLE, buy_now::BUYER_ID),
    (comments::TABLE, comments::TO_USER),
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
            categories::TABLE,
            (1..=self.categories).map(|i| [Value::Int(i), Value::from(format!("category-{i}"))]),
        )
        .expect("fresh table, distinct ids");
        db.load(
            regions::TABLE,
            (1..=self.regions).map(|i| [Value::Int(i), Value::from(format!("region-{i}"))]),
        )
        .expect("fresh table, distinct ids");
        db.load(
            users::TABLE,
            (1..=self.users).map(|i| {
                [
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
            items::TABLE,
            (1..=self.items).map(|i| {
                let start = 100 + rng.uniform_u64(10_000) as i64;
                [
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
            old_items::TABLE,
            (1..=self.old_items).map(|i| {
                [
                    Value::Int(i),
                    Value::from(format!("old-item-{i}")),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Float(100.0 + rng.uniform_u64(20_000) as f64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            bids::TABLE,
            (1..=self.bids).map(|i| {
                [
                    Value::Int(i),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.items as u64) as i64),
                    Value::Float(100.0 + rng.uniform_u64(10_000) as f64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            buy_now::TABLE,
            (1..=self.buys).map(|i| {
                [
                    Value::Int(i),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.items as u64) as i64),
                    Value::Int(1),
                ]
            }),
        )
        .expect("fresh table, distinct ids");
        db.load(
            comments::TABLE,
            (1..=self.comments).map(|i| {
                [
                    Value::Int(i),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(1 + rng.uniform_u64(self.users as u64) as i64),
                    Value::Int(rng.uniform_u64(6) as i64),
                    Value::Int(rng.uniform_u64(500) as i64),
                ]
            }),
        )
        .expect("fresh table, distinct ids");

        for &(table, column) in INDEXES {
            db.create_index(table, column)
                .expect("handles taken from the schema");
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
    fn handles_name_what_they_claim() {
        let schema = schema();
        for (def, spelt) in schema.iter().zip(SPELT) {
            let lower: Vec<String> = spelt.iter().map(|c| c.to_lowercase()).collect();
            assert_eq!(def.columns, lower, "{}", def.name);
        }
        let deployed = crate::components::descriptors();
        for (d, spelt) in deployed.iter().zip(crate::components::ejb::SPELT) {
            assert_eq!(d.name.to_uppercase(), spelt.replace('_', ""));
        }
        // `tests/handlers.rs` resolves each query's names on its own and
        // looks for the pair here.
        assert!(INDEXES.iter().all(|(t, c)| *c < schema[t.0].columns.len()));
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
