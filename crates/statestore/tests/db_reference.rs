//! Differential tests of [`Database::load`], the posting-list indexes and
//! the row store against what they replaced.
//!
//! `reference::Table` is one table as the database kept it before the
//! bulk load: rows installed one at a time through `admit` + `replace`,
//! and per indexed column a `BTreeSet` of `(cell, pk)` pairs that
//! `replace` maintains and a range query reads. It is kept here, as test
//! code only, as the specification of what a load returns, which rows it
//! leaves, and what an indexed equality query visits. The database and
//! the reference get the same seeded random steps — batches that are
//! ascending, shuffled, repeat a key, collide with a present row, or carry
//! a row of the wrong arity or without an integer key, into an empty
//! table and into an indexed one in use — interleaved with transactional
//! writes, rollbacks, injected corruption and repair; after every step the
//! step's result, the rows and every query must agree.
//!
//! `reference::Rows` is the specification of the row store alone: a
//! `BTreeMap` from primary key to row image that applies every write
//! itself (it is not told what the database holds), so which keys are
//! present, what a key reads, the largest key and the order of a scan are
//! the map's word against the database's. Its second test drives both
//! through the two kinds of traffic a table sees: eBid's — every insert at
//! the largest key plus one, a rollback taking the newest inserts back —
//! and anything-goes over a small dense key range with keys at the far
//! ends of `i64` mixed in.

use simcore::SimRng;
use statestore::db::{Row, ScanHits, TableDef};
use statestore::{Database, Value};

const TABLE: &str = "t";
const COLUMNS: &[&str] = &["id", "a", "b", "c"];

mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use statestore::db::{DbError, Row};
    use statestore::Value;

    use super::{COLUMNS, TABLE};

    /// The table, its row-at-a-time `load` and its index maintenance,
    /// verbatim (only `self.def` became the two constants).
    #[derive(Default)]
    pub struct Table {
        pub rows: BTreeMap<i64, Row>,
        /// Secondary indexes: per indexed column, the `(cell, pk)` pairs of
        /// every row whose cell in that column is an integer.
        indexes: Vec<(usize, BTreeSet<(i64, i64)>)>,
    }

    impl Table {
        /// Installs `new` as the image of row `pk` (`None` removes the
        /// row) and returns the previous image.
        pub fn replace(&mut self, pk: i64, new: Option<Row>) -> Option<Row> {
            if !self.indexes.is_empty() {
                let old = self.rows.get(&pk);
                for (col, index) in &mut self.indexes {
                    let was = old.and_then(|r| r[*col].as_int());
                    let is = new.as_ref().and_then(|r| r[*col].as_int());
                    if was != is {
                        if let Some(v) = was {
                            index.remove(&(v, pk));
                        }
                        if let Some(v) = is {
                            index.insert((v, pk));
                        }
                    }
                }
            }
            match new {
                Some(row) => self.rows.insert(pk, row),
                None => self.rows.remove(&pk),
            }
        }

        /// Checks a row offered for insertion, returning its primary key.
        #[allow(clippy::or_fun_call, reason = "verbatim: the error built eagerly")]
        fn admit(&self, row: &[Value]) -> Result<i64, DbError> {
            let table = TABLE;
            let expected = COLUMNS.len();
            if row.len() != expected {
                return Err(DbError::ArityMismatch {
                    table: table.to_string(),
                    expected,
                    got: row.len(),
                });
            }
            let pk = row[0].as_int().ok_or(DbError::NullKey {
                table: table.to_string(),
            })?;
            if self.rows.contains_key(&pk) {
                return Err(DbError::DuplicateKey {
                    table: table.to_string(),
                    pk,
                });
            }
            Ok(pk)
        }

        /// Stops at the first row `insert` would reject; rows before it
        /// stay loaded.
        pub fn load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<(), DbError> {
            for row in rows {
                let pk = self.admit(&row)?;
                self.replace(pk, Some(row));
            }
            Ok(())
        }

        pub fn create_index(&mut self, column: usize) {
            let entries = self.rows.iter();
            let entries = entries.filter_map(|(pk, r)| r[column].as_int().map(|v| (v, *pk)));
            self.indexes.push((column, entries.collect()));
        }

        /// The primary keys an indexed `scan_eq` visits.
        pub fn scan_eq(&self, column: usize, value: i64, limit: usize) -> Vec<i64> {
            let (_, index) = self.indexes.iter().find(|(c, _)| *c == column).unwrap();
            let matches = index.range((value, i64::MIN)..=(value, i64::MAX));
            matches.take(limit).map(|&(_, pk)| pk).collect()
        }

        /// Follows the database through a step the reference does not
        /// model (a transaction, a rollback, corruption, repair): every
        /// row image that changed goes through `replace`, as it did there.
        pub fn follow(&mut self, now: &[Row]) {
            let now: BTreeMap<i64, &Row> =
                now.iter().map(|r| (r[0].as_int().unwrap(), r)).collect();
            let gone: Vec<i64> = self
                .rows
                .keys()
                .filter(|pk| !now.contains_key(pk))
                .copied()
                .collect();
            for pk in gone {
                self.replace(pk, None);
            }
            for (pk, row) in now {
                if self.rows.get(&pk) != Some(row) {
                    self.replace(pk, Some(row.clone()));
                }
            }
        }
    }

    /// The row store, specified: the rows of one table in a `BTreeMap`, as
    /// the database kept them before the ordered vector, every operation
    /// answered from the map alone. The rows offered have the table's arity
    /// and an integer key, so the errors left are the two about presence.
    #[derive(Default)]
    pub struct Rows {
        pub rows: BTreeMap<i64, Row>,
        /// The open transaction's writes, oldest first: the key and the
        /// image it had before.
        undo: Vec<(i64, Option<Row>)>,
    }

    impl Rows {
        fn set(&mut self, pk: i64, new: Option<Row>) -> Option<Row> {
            match new {
                Some(row) => self.rows.insert(pk, row),
                None => self.rows.remove(&pk),
            }
        }

        /// A transactional insert (`Some`, refused when the key is
        /// present), or update or delete (`Some` / `None`, refused when it
        /// is absent).
        pub fn write(&mut self, pk: i64, new: Option<Row>, insert: bool) -> Result<(), DbError> {
            let table = TABLE.to_string();
            match (insert, self.rows.contains_key(&pk)) {
                (true, true) => Err(DbError::DuplicateKey { table, pk }),
                (false, false) => Err(DbError::NoSuchRow { table, pk }),
                _ => {
                    let old = self.set(pk, new);
                    self.undo.push((pk, old));
                    Ok(())
                }
            }
        }

        pub fn commit(&mut self) {
            self.undo.clear();
        }

        pub fn rollback(&mut self) {
            while let Some((pk, old)) = self.undo.pop() {
                self.set(pk, old);
            }
        }

        /// Row at a time: stops at the first row whose key is present.
        pub fn load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<(), DbError> {
            for row in rows {
                let pk = row[0].as_int().unwrap();
                if self.rows.contains_key(&pk) {
                    let table = TABLE.to_string();
                    return Err(DbError::DuplicateKey { table, pk });
                }
                self.set(pk, Some(row));
            }
            Ok(())
        }
    }
}

const CASES: u64 = 150;
const STEPS: usize = 120;
/// Primary keys are drawn from `-4..12`: few enough to collide often.
const KEYS: u64 = 16;

fn gen_pk(rng: &mut SimRng) -> i64 {
    rng.uniform_u64(KEYS) as i64 - 4
}

/// A cell for columns 1..=3: mostly small integers (equality queries have
/// several hits and the index builder sees a dense column), sometimes
/// something that equals no integer, now and then an integer far from the
/// others (the builder sees a sparse one).
fn gen_cell(rng: &mut SimRng) -> Value {
    match rng.uniform_u64(40) {
        0..=2 => Value::Null,
        3..=5 => Value::Float(rng.uniform_u64(4) as f64),
        6..=8 => Value::from("text"),
        9 => Value::Int(*rng.pick(&[i64::MIN, -1 << 40, 1 << 40, i64::MAX]).unwrap()),
        _ => Value::Int(rng.uniform_u64(4) as i64 - 1),
    }
}

fn gen_row(rng: &mut SimRng, pk: i64) -> Row {
    Row::from([Value::Int(pk), gen_cell(rng), gen_cell(rng), gen_cell(rng)])
}

/// A batch for `load`: `clean` rows (distinct keys absent from `present`,
/// ascending or shuffled), then by `kind` left alone, or given one row the
/// load must stop at, anywhere in the batch.
fn gen_batch(rng: &mut SimRng, present: &[i64]) -> Vec<Row> {
    let mut pks: Vec<i64> = (0..rng.uniform_u64(7)).map(|_| gen_pk(rng)).collect();
    let kind = rng.uniform_u64(8);
    if kind == 0 {
        // As drawn: may repeat a key and collide, several times over.
        return pks.into_iter().map(|pk| gen_row(rng, pk)).collect();
    }
    pks.sort_unstable();
    pks.dedup();
    pks.retain(|pk| !present.contains(pk));
    if rng.uniform_u64(2) == 0 {
        for i in (1..pks.len()).rev() {
            pks.swap(i, rng.uniform_usize(i + 1));
        }
    }
    let mut batch: Vec<Row> = pks.iter().map(|&pk| gen_row(rng, pk)).collect();
    let at = rng.uniform_usize(batch.len() + 1);
    let bad: Option<Row> = match kind {
        1 | 2 if at > 0 => {
            let held_before = *rng.pick(&pks[..at]).unwrap();
            Some(gen_row(rng, held_before))
        }
        3 | 4 if !present.is_empty() => {
            let held_by_table = *rng.pick(present).unwrap();
            Some(gen_row(rng, held_by_table))
        }
        5 => Some(Row::from(vec![
            Value::Int(99);
            3 + 2 * rng.uniform_u64(2) as usize
        ])),
        6 => {
            let key = [Value::Null, Value::Float(1.0), Value::from("k")];
            let key = key[rng.uniform_u64(3) as usize].clone();
            Some(Row::from([
                key,
                gen_cell(rng),
                gen_cell(rng),
                gen_cell(rng),
            ]))
        }
        _ => None,
    };
    if let Some(bad) = bad {
        batch.insert(at, bad);
    }
    batch
}

/// Every row of the table, in primary-key order.
fn rows_of(db: &mut Database) -> Vec<Row> {
    db.scan(TABLE, |_| true, usize::MAX).unwrap()
}

/// Holds every equality query — each column, each integer present and a
/// few absent, limits that cut a list short — against the full-scan
/// reference, and the indexed ones against the reference index too.
fn check_queries(db: &mut Database, model: &reference::Table, indexed: &[usize], at: &str) {
    let rows = rows_of(db);
    assert!(rows.iter().eq(model.rows.values()), "{at}: rows");
    assert_eq!(db.check_indexes(), Ok(()), "{at}");
    for column in 1..COLUMNS.len() {
        let mut values: Vec<i64> = rows.iter().filter_map(|r| r[column].as_int()).collect();
        values.extend([-3, 7, i64::MAX - 1]);
        values.sort_unstable();
        values.dedup();
        for value in values {
            for limit in [0, 1, 2, usize::MAX] {
                let at = format!("{at}: column {column} = {value}, limit {limit}");
                let expected = db
                    .scan(TABLE, |r| r[column].as_int() == Some(value), limit)
                    .unwrap();
                let expected_hits = ScanHits {
                    rows: expected.len(),
                    tainted: expected
                        .iter()
                        .any(|r| db.is_tainted(TABLE, r[0].as_int().unwrap())),
                };
                let mut visited = Vec::new();
                let hits = db.scan_eq(TABLE, column, value, limit, |r: &Row| {
                    visited.push(r.clone())
                });
                assert_eq!((hits, &visited), (Ok(expected_hits), &expected), "{at}");
                let counted = db.scan_eq(TABLE, column, value, limit, ());
                assert_eq!(counted, Ok(expected_hits), "{at}, count-only");
                if indexed.contains(&column) {
                    let pks: Vec<i64> = expected.iter().map(|r| r[0].as_int().unwrap()).collect();
                    assert_eq!(model.scan_eq(column, value, limit), pks, "{at}, reference");
                }
            }
        }
    }
}

#[test]
fn bulk_load_and_posting_lists_match_the_row_at_a_time_reference() {
    let mut loads = [0u32; 2]; // accepted whole, stopped at a row
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x10ad_0000 + case);
        let mut db = Database::new(vec![TableDef {
            name: TABLE,
            columns: COLUMNS,
        }]);
        let mut model = reference::Table::default();
        // `a` is indexed from the start, `b` from part-way through (built
        // from whatever the table then holds), `c` never.
        let mut indexed = vec![1];
        db.create_index(TABLE, 1).unwrap();
        model.create_index(1);
        let index_b_at = rng.uniform_u64(40) as usize;
        let conns = [db.open_conn(), db.open_conn()];
        let mut txns = [None, None];

        for step in 0..STEPS {
            let at = format!("case {case} step {step}");
            if step == index_b_at {
                indexed.push(2);
                db.create_index(TABLE, 2).unwrap();
                model.create_index(2);
            }
            let slot = rng.uniform_u64(2) as usize;
            let pk = gen_pk(&mut rng);
            match rng.uniform_u64(18) {
                0..=5 => {
                    let present: Vec<i64> = model.rows.keys().copied().collect();
                    let batch = gen_batch(&mut rng, &present);
                    let got = db.load(TABLE, batch.iter().cloned());
                    assert_eq!(got, model.load(batch), "{at}: load");
                    let left = rows_of(&mut db);
                    assert!(left.iter().eq(model.rows.values()), "{at}: rows loaded");
                    loads[usize::from(got.is_err())] += 1;
                }
                6 => txns[slot] = txns[slot].or_else(|| db.begin(conns[slot]).ok()),
                7 | 8 => {
                    if let Some(txn) = txns[slot] {
                        let _ = db.insert(txn, TABLE, gen_row(&mut rng, pk));
                    }
                }
                9 | 10 => {
                    if let Some(txn) = txns[slot] {
                        let column = 1 + rng.uniform_u64(3) as usize;
                        let _ = db.update(txn, TABLE, pk, &[(column, gen_cell(&mut rng))]);
                    }
                }
                11 => {
                    if let Some(txn) = txns[slot] {
                        let _ = db.delete(txn, TABLE, pk);
                    }
                }
                12 => {
                    if let Some(txn) = txns[slot].take() {
                        db.commit(txn).unwrap();
                    }
                }
                13 => {
                    if let Some(txn) = txns[slot].take() {
                        db.rollback(txn).unwrap();
                    }
                }
                14 => {
                    let column = 1 + rng.uniform_u64(3) as usize;
                    let _ = db.corrupt_cell(TABLE, pk, column, gen_cell(&mut rng));
                }
                15 => {
                    let _ = db.corrupt_swap_rows(TABLE, pk, gen_pk(&mut rng));
                }
                16 => {
                    let _ = db.taint_row(TABLE, pk);
                }
                _ => {
                    db.repair();
                }
            }
            model.follow(&rows_of(&mut db));
            check_queries(&mut db, &model, &indexed, &at);
        }
    }
    let [whole, stopped] = loads;
    assert!(whole > 1_000 && stopped > 1_000, "{whole} / {stopped}");
}

/// Keys far from the dense range and from each other: a lookup that
/// subtracts one key from another overflows between them.
const FAR_KEYS: [i64; 4] = [i64::MIN, -1 << 40, 1 << 40, i64::MAX];

/// Holds the database against the row-store reference: the largest key,
/// the length, every key present read back and every key next to one (or
/// in and around the dense range, or far away) absent or present as the
/// map says, and a scan in the map's order, whole and cut short.
fn check_rows(db: &mut Database, model: &reference::Rows, limit: usize, at: &str) {
    assert_eq!(
        db.max_pk(TABLE).unwrap(),
        model.rows.keys().next_back().copied(),
        "{at}: max_pk"
    );
    assert_eq!(db.table_len(TABLE), Ok(model.rows.len()), "{at}: table_len");
    let mut probes: Vec<i64> = (-6..14).chain(FAR_KEYS).collect();
    for &pk in model.rows.keys() {
        probes.extend([pk.saturating_sub(1), pk, pk.saturating_add(1)]);
    }
    for pk in probes {
        let expected = model.rows.get(&pk);
        assert_eq!(
            db.contains(TABLE, pk),
            expected.is_some(),
            "{at}: contains {pk}"
        );
        let read = db.read_committed(TABLE, pk).unwrap();
        assert_eq!(read.as_ref(), expected, "{at}: read {pk}");
    }
    for limit in [usize::MAX, limit] {
        let mut visited = Vec::new();
        let hits = db.scan_all(TABLE, limit, |r: &Row| visited.push(r.clone()));
        assert!(
            visited.iter().eq(model.rows.values().take(limit)),
            "{at}: scan_all, limit {limit}: {visited:?}"
        );
        assert_eq!(hits.unwrap().rows, visited.len(), "{at}: scan_all hits");
    }
    assert_eq!(db.check_indexes(), Ok(()), "{at}");
}

#[test]
fn row_store_matches_a_btreemap_under_append_only_and_mixed_traffic() {
    // Inserts that landed above every key / below one, at a far key, and
    // newest-first removals by rollback.
    let (mut appended, mut placed, mut far, mut taken_back) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x5707_0000 + case);
        let mut db = Database::new(vec![TableDef {
            name: TABLE,
            columns: COLUMNS,
        }]);
        let mut model = reference::Rows::default();
        if case % 4 < 2 {
            db.create_index(TABLE, 1).unwrap();
        }
        let conn = db.open_conn();
        let mut txn = None;
        // Even cases are eBid's traffic over a dataset loaded up front;
        // odd ones anything, over `-4..12` and the far keys.
        let append_only = case % 2 == 0;
        if append_only {
            let first = *rng.pick(&[1, -3, 1_000]).unwrap();
            let dataset: Vec<Row> = (first..first + rng.uniform_u64(20) as i64)
                .map(|pk| gen_row(&mut rng, pk))
                .collect();
            assert_eq!(db.load(TABLE, dataset.iter().cloned()), Ok(()));
            model.load(dataset).unwrap();
        }
        let next_pk =
            |model: &reference::Rows| model.rows.keys().next_back().map_or(1, |pk| pk + 1);

        for step in 0..STEPS {
            let at = format!("case {case} step {step}");
            let pk = match rng.uniform_u64(5) {
                _ if append_only => next_pk(&model),
                0 => *rng.pick(&FAR_KEYS).unwrap(),
                _ => gen_pk(&mut rng),
            };
            let held = model
                .rows
                .keys()
                .nth(rng.uniform_usize(model.rows.len().max(1)));
            // The key an update or a delete aims at: mostly a present one.
            let aim = held
                .copied()
                .filter(|_| rng.uniform_u64(4) > 0)
                .unwrap_or(pk);
            let open = *txn.get_or_insert_with(|| db.begin(conn).unwrap());
            match rng.uniform_u64(12) {
                0..=3 => {
                    let row = gen_row(&mut rng, pk);
                    let above = model.rows.keys().next_back().is_none_or(|last| pk > *last);
                    let got = db.insert(open, TABLE, row.clone());
                    assert_eq!(got, model.write(pk, Some(row), true), "{at}: insert {pk}");
                    if got.is_ok() {
                        *(if above { &mut appended } else { &mut placed }) += 1;
                        far += u32::from(FAR_KEYS.contains(&pk));
                    }
                }
                4 | 5 => {
                    let cell = gen_cell(&mut rng);
                    let patched = model.rows.get(&aim).map(|old| {
                        let mut cells = old.to_vec();
                        cells[2] = cell.clone();
                        Row::from(cells)
                    });
                    let got = db.update(open, TABLE, aim, &[(2, cell)]);
                    assert_eq!(got, model.write(aim, patched, false), "{at}: update {aim}");
                }
                6 if !append_only => {
                    let got = db.delete(open, TABLE, aim);
                    assert_eq!(got, model.write(aim, None, false), "{at}: delete {aim}");
                }
                7 => {
                    db.commit(txn.take().unwrap()).unwrap();
                    model.commit();
                }
                8 | 9 => {
                    let before = model.rows.len();
                    db.rollback(txn.take().unwrap()).unwrap();
                    model.rollback();
                    taken_back += before.saturating_sub(model.rows.len()) as u32;
                }
                _ => {
                    // A batch as drawn (any order, may repeat or collide),
                    // or, append-only, one that follows the last key.
                    let len = rng.uniform_u64(5) as i64;
                    let pks: Vec<i64> = match append_only {
                        true => (pk..pk + len).collect(),
                        false => (0..len).map(|_| gen_pk(&mut rng)).chain([pk]).collect(),
                    };
                    let batch: Vec<Row> = pks.iter().map(|&pk| gen_row(&mut rng, pk)).collect();
                    let got = db.load(TABLE, batch.iter().cloned());
                    assert_eq!(got, model.load(batch), "{at}: load {pks:?}");
                }
            }
            check_rows(&mut db, &model, rng.uniform_usize(6), &at);
        }
    }
    assert!(
        appended > 2_000 && placed > 500 && far > 100 && taken_back > 500,
        "{appended} / {placed} / {far} / {taken_back}"
    );
}
