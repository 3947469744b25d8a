//! Randomized property tests on the core data structures and invariants.
//!
//! Cases are generated with the repo's own deterministic [`SimRng`] rather
//! than an external property-testing framework: every run explores the same
//! seeds, so a failure here is always reproducible with no shrink step.

use std::collections::BTreeMap;
use std::rc::Rc;

use microreboot::components::descriptor::ComponentId;
use microreboot::components::registry::{Binding, NamingRegistry, RegistryError, Resolved};
use microreboot::simcore::trace::event_from_json;
use microreboot::simcore::{
    EventPayload, EventQueue, SimDuration, SimRng, SimTime, TelemetryEvent, Trace,
};
use microreboot::statestore::db::{ConnId, Row, TableDef, TableRef};
use microreboot::statestore::session::{
    corrupt_object, CorruptKind, SessionId, SessionObject, SessionStore,
};
use microreboot::statestore::{Database, DbError, FastS, Ssm, TableId, TxnId, Value};

const CASES: u64 = 64;

/// A random operation against the database.
#[derive(Clone, Debug)]
enum DbOp {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn gen_db_op(rng: &mut SimRng) -> DbOp {
    let pk = rng.uniform_u64(50) as i64;
    let v = rng.next_u64() as i64;
    match rng.uniform_u64(3) {
        0 => DbOp::Insert(pk, v),
        1 => DbOp::Update(pk, v),
        _ => DbOp::Delete(pk),
    }
}

/// A sequence of transactions; each is a list of ops plus commit/abort.
fn gen_txns(rng: &mut SimRng) -> Vec<(Vec<DbOp>, bool)> {
    (0..rng.uniform_u64(12))
        .map(|_| {
            let ops = (0..rng.uniform_u64(8)).map(|_| gen_db_op(rng)).collect();
            (ops, rng.chance(0.5))
        })
        .collect()
}

fn fresh_db() -> Database {
    Database::new(vec![TableDef {
        name: "t",
        columns: &["id", "v"],
    }])
}

/// Aborted transactions leave no trace: the table contents equal the
/// result of applying only the committed transactions.
#[test]
fn db_aborted_txns_leave_no_trace() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x1000 + case);
        let txns = gen_txns(&mut rng);
        let mut real = fresh_db();
        let mut model = fresh_db();
        let rc = real.open_conn();
        let mc = model.open_conn();
        for (ops, commit) in &txns {
            let rt = real.begin(rc).unwrap();
            let mt = model.begin(mc).unwrap();
            for op in ops {
                // Apply to the real db always; to the model only if this
                // txn will commit. Ignore individual op errors (dup keys,
                // missing rows) — both sides get the same ones.
                match op {
                    DbOp::Insert(pk, v) => {
                        let row = vec![Value::Int(*pk), Value::Int(*v)];
                        let r = real.insert(rt, "t", row.clone());
                        if *commit {
                            let m = model.insert(mt, "t", row);
                            assert_eq!(r.is_ok(), m.is_ok());
                        }
                    }
                    DbOp::Update(pk, v) => {
                        let r = real.update(rt, "t", *pk, &[(1, Value::Int(*v))]);
                        if *commit {
                            let m = model.update(mt, "t", *pk, &[(1, Value::Int(*v))]);
                            assert_eq!(r.is_ok(), m.is_ok());
                        }
                    }
                    DbOp::Delete(pk) => {
                        let r = real.delete(rt, "t", *pk);
                        if *commit {
                            let m = model.delete(mt, "t", *pk);
                            assert_eq!(r.is_ok(), m.is_ok());
                        }
                    }
                }
            }
            if *commit {
                real.commit(rt).unwrap();
                model.commit(mt).unwrap();
            } else {
                real.rollback(rt).unwrap();
                model.rollback(mt).unwrap();
            }
        }
        // Compare full table contents.
        let rows_real = real.scan("t", |_| true, usize::MAX).unwrap();
        let rows_model = model.scan("t", |_| true, usize::MAX).unwrap();
        assert_eq!(rows_real, rows_model, "case {case}");
    }
}

/// A crash mid-transaction preserves exactly the committed state.
#[test]
fn db_crash_preserves_committed_state() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x2000 + case);
        let committed: Vec<(i64, i64)> = (0..1 + rng.uniform_u64(19))
            .map(|_| (rng.uniform_u64(40) as i64, rng.next_u64() as i64))
            .collect();
        let uncommitted: Vec<(i64, i64)> = (0..1 + rng.uniform_u64(19))
            .map(|_| (rng.uniform_u64(40) as i64, rng.next_u64() as i64))
            .collect();

        let mut db = fresh_db();
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        for (pk, v) in &committed {
            let _ = db.insert(txn, "t", vec![Value::Int(*pk), Value::Int(*v)]);
        }
        db.commit(txn).unwrap();
        let snapshot = db.scan("t", |_| true, usize::MAX).unwrap();

        let conn2 = db.open_conn();
        let txn2 = db.begin(conn2).unwrap();
        for (pk, v) in &uncommitted {
            let _ = db.insert(txn2, "t", vec![Value::Int(*pk), Value::Int(*v)]);
            let _ = db.update(txn2, "t", *pk, &[(1, Value::Int(v ^ 1))]);
        }
        db.crash();
        assert_eq!(
            db.scan("t", |_| true, usize::MAX).unwrap(),
            snapshot,
            "case {case}"
        );
        assert_eq!(db.active_txns(), 0);
    }
}

/// A write through a transaction that has finished — committed, rolled
/// back, or swept by a crash — fails with `NoSuchTxn` and changes
/// nothing: not the rows, not `stats()`, and it leaves no lock behind that
/// a live transaction would then trip over. Each write is tried twice (a
/// lock left by the first would let the second through) and is otherwise
/// valid: inserts take absent keys, updates and deletes present ones.
#[test]
fn db_writes_through_finished_txns_change_nothing() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x2800 + case);
        let mut db = fresh_db();
        let conn = db.open_conn();
        let setup = db.begin(conn).unwrap();
        for pk in 0..20 {
            if rng.chance(0.5) {
                db.insert(setup, "t", vec![Value::Int(pk), Value::Int(pk)])
                    .unwrap();
            }
        }
        db.commit(setup).unwrap();
        let mut finished = Vec::new();
        for end in 0..3 {
            let txn = db.begin(conn).unwrap();
            for _ in 0..4 {
                let _ = match gen_db_op(&mut rng) {
                    DbOp::Insert(pk, v) => db.insert(txn, "t", vec![Value::Int(pk), Value::Int(v)]),
                    DbOp::Update(pk, v) => db.update(txn, "t", pk, &[(1, Value::Int(v))]),
                    DbOp::Delete(pk) => db.delete(txn, "t", pk),
                };
            }
            match end {
                0 => db.commit(txn).unwrap(),
                1 => db.rollback(txn).unwrap(),
                _ => drop(db.crash()),
            }
            finished.push(txn);
        }
        let conn = db.open_conn();

        let rows = db.scan("t", |_| true, usize::MAX).unwrap();
        let stats = db.stats();
        let present: Vec<i64> = rows.iter().filter_map(|r| r[0].as_int()).collect();
        for &txn in &finished {
            for _ in 0..2 {
                for pk in 0..50 {
                    let got = if present.contains(&pk) {
                        [
                            db.update(txn, "t", pk, &[(1, Value::Int(-1))]),
                            db.delete(txn, "t", pk),
                        ]
                    } else {
                        let row = vec![Value::Int(pk), Value::Int(-1)];
                        [db.insert(txn, "t", row.clone()), db.insert(txn, "t", row)]
                    };
                    assert_eq!(
                        got,
                        [Err(DbError::NoSuchTxn), Err(DbError::NoSuchTxn)],
                        "case {case}, pk {pk}"
                    );
                }
            }
        }
        assert_eq!(db.stats(), stats, "case {case}");
        assert_eq!(
            db.scan("t", |_| true, usize::MAX).unwrap(),
            rows,
            "case {case}"
        );

        let live = db.begin(conn).unwrap();
        for pk in 0..50 {
            let wrote = if present.contains(&pk) {
                db.update(live, "t", pk, &[(1, Value::Int(pk + 1))])
            } else {
                db.insert(live, "t", vec![Value::Int(pk), Value::Int(pk + 1)])
            };
            assert_eq!(
                wrote,
                Ok(()),
                "case {case}: a live transaction locks row {pk}"
            );
        }
        db.commit(live).unwrap();
    }
}

/// Corruption followed by repair restores the exact pre-corruption
/// image, regardless of interleaved corruption order.
#[test]
fn db_repair_is_exact() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x3000 + case);
        let mut rows = std::collections::BTreeMap::new();
        for _ in 0..1 + rng.uniform_u64(19) {
            rows.insert(rng.uniform_u64(30) as i64, rng.next_u64() as i64);
        }
        let victims: Vec<i64> = (0..1 + rng.uniform_u64(9))
            .map(|_| rng.uniform_u64(30) as i64)
            .collect();

        let mut db = fresh_db();
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        for (pk, v) in &rows {
            db.insert(txn, "t", vec![Value::Int(*pk), Value::Int(*v)])
                .unwrap();
        }
        db.commit(txn).unwrap();
        let before = db.scan("t", |_| true, usize::MAX).unwrap();
        for pk in &victims {
            let _ = db.corrupt_cell("t", *pk, 1, Value::Null);
        }
        db.repair();
        assert!(db.is_consistent(), "case {case}");
        assert_eq!(db.scan("t", |_| true, usize::MAX).unwrap(), before);
    }
}

/// A table with two indexed columns (`a` up front, `b` part-way through
/// the sequence, so the build-from-rows path is exercised on a dirty
/// table) and one column that never gets an index.
fn indexed_pair() -> (Database, Database) {
    let schema = || {
        vec![TableDef {
            name: "t",
            columns: &["id", "a", "b", "c"],
        }]
    };
    let mut indexed = Database::new(schema());
    indexed.create_index("t", 1).unwrap();
    (indexed, Database::new(schema()))
}

/// A cell for columns 1..=3: mostly small integers (so equality queries
/// have several hits), sometimes something that equals no integer.
fn gen_cell(rng: &mut SimRng) -> Value {
    match rng.uniform_u64(10) {
        0 => Value::Null,
        1 => Value::Float(rng.uniform_u64(4) as f64),
        2 => Value::from("text"),
        _ => Value::Int(rng.uniform_u64(4) as i64),
    }
}

/// Secondary indexes are invisible except for speed: through any
/// sequence of transactional writes, rollbacks, crashes, injected
/// corruption and repair, every index equals one recomputed from the
/// rows, and `scan_eq` / `scan_all` visit exactly what the full-scan
/// reference returns — same rows, same order, same taint verdict, same
/// `reads` — on an indexed database and on an index-free twin alike, and
/// whether or not the query has a consumer for the rows.
#[test]
fn db_indexes_track_every_row_image_change() {
    const KEYS: u64 = 12;
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x3800 + case);
        let (mut real, mut twin) = indexed_pair();
        let mut conns = [(); 2].map(|()| (real.open_conn(), twin.open_conn()));
        let mut txns: [Option<_>; 2] = [None, None];
        let index_b_at = rng.uniform_u64(40);

        for step in 0..120 {
            if step == index_b_at {
                real.create_index("t", 2).unwrap();
            }
            let slot = rng.uniform_u64(2) as usize;
            let pk = rng.uniform_u64(KEYS) as i64;
            // Both databases get every operation; each must answer alike.
            macro_rules! both {
                (|$db:ident, $t:ident| $op:expr) => {{
                    let r = txns[slot].map(|($t, _)| {
                        let $db = &mut real;
                        $op
                    });
                    let t = txns[slot].map(|(_, $t)| {
                        let $db = &mut twin;
                        $op
                    });
                    assert_eq!(r, t, "case {case} step {step}");
                }};
            }
            match rng.uniform_u64(14) {
                0 | 1 => {
                    if txns[slot].is_none() {
                        let (rc, tc) = conns[slot];
                        txns[slot] = Some((real.begin(rc).unwrap(), twin.begin(tc).unwrap()));
                    }
                }
                2 | 3 => {
                    let row = vec![
                        Value::Int(pk),
                        gen_cell(&mut rng),
                        gen_cell(&mut rng),
                        gen_cell(&mut rng),
                    ];
                    both!(|db, t| db.insert(t, "t", row.clone()));
                }
                4..=6 => {
                    let updates: Vec<(usize, Value)> = (0..1 + rng.uniform_u64(2))
                        .map(|_| (1 + rng.uniform_u64(3) as usize, gen_cell(&mut rng)))
                        .collect();
                    both!(|db, t| db.update(t, "t", pk, &updates));
                }
                7 => both!(|db, t| db.delete(t, "t", pk)),
                8 => {
                    both!(|db, t| db.commit(t));
                    txns[slot] = None;
                }
                9 => {
                    both!(|db, t| db.rollback(t));
                    txns[slot] = None;
                }
                10 => {
                    let col = 1 + rng.uniform_u64(3) as usize;
                    let cell = gen_cell(&mut rng);
                    assert_eq!(
                        real.corrupt_cell("t", pk, col, cell.clone()),
                        twin.corrupt_cell("t", pk, col, cell)
                    );
                }
                11 => {
                    let other = rng.uniform_u64(KEYS) as i64;
                    assert_eq!(
                        real.corrupt_swap_rows("t", pk, other),
                        twin.corrupt_swap_rows("t", pk, other)
                    );
                    assert_eq!(real.taint_row("t", other), twin.taint_row("t", other));
                }
                12 => assert_eq!(real.repair(), twin.repair()),
                _ => {
                    if rng.chance(0.3) {
                        // A crash rolls back what is open and severs every
                        // connection.
                        assert_eq!(real.crash(), twin.crash());
                        txns = [None, None];
                        for c in &mut conns {
                            *c = (real.open_conn(), twin.open_conn());
                        }
                    }
                }
            }

            real.check_indexes()
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            let limit = match rng.uniform_u64(3) {
                0 => 1 + rng.uniform_u64(3) as usize,
                _ => usize::MAX,
            };
            for col in 1..=3 {
                // 4 matches nothing: the cells stop at 3.
                for v in 0..=4 {
                    let expected = twin
                        .scan("t", |r| r[col].as_int() == Some(v), limit)
                        .unwrap();
                    for db in [&mut real, &mut twin] {
                        let reads = db.stats().reads;
                        let mut seen = Vec::new();
                        let hits = db
                            .scan_eq("t", col, v, limit, |r: &Row| seen.push(r.clone()))
                            .unwrap();
                        assert_eq!(seen, expected, "case {case} step {step} col {col} = {v}");
                        assert_eq!(hits.rows, expected.len());
                        assert_eq!(db.stats().reads - reads, expected.len() as u64 + 1);
                        let tainted = expected
                            .iter()
                            .any(|r| db.is_tainted("t", r[0].as_int().unwrap()));
                        assert_eq!(hits.tainted, tainted, "case {case} step {step}");
                        // Counting without a row consumer answers alike.
                        let reads = db.stats().reads;
                        let counted = db.scan_eq("t", col, v, limit, ()).unwrap();
                        assert_eq!(counted, hits, "case {case} step {step} col {col} = {v}");
                        assert_eq!(db.stats().reads - reads, expected.len() as u64 + 1);
                    }
                }
            }
            let expected = twin.scan("t", |_| true, limit).unwrap();
            let mut seen = Vec::new();
            let hits = real
                .scan_all("t", limit, |r: &Row| seen.push(r.clone()))
                .unwrap();
            assert_eq!(seen, expected, "case {case} step {step}");
            assert_eq!(hits.rows, expected.len());
            let reads = real.stats().reads;
            assert_eq!(real.scan_all("t", limit, ()).unwrap(), hits);
            assert_eq!(real.stats().reads - reads, expected.len() as u64 + 1);
            assert_eq!(real.scan("t", |_| true, limit).unwrap(), expected);
        }
    }
}

/// One step of a script that exercises every table-taking operation of
/// the database, on two tables, in and out of a transaction.
#[derive(Clone, Debug)]
enum Step {
    Begin,
    Commit,
    Rollback,
    Crash,
    Repair,
    Insert(usize, i64, Value),
    Load(usize, i64, Value),
    Update(usize, i64, usize, Value),
    Delete(usize, i64),
    Read(usize, i64),
    Scan(usize, usize, i64, usize),
    CreateIndex(usize, usize),
    CorruptCell(usize, i64, usize, Value),
    CorruptSwap(usize, i64, i64),
    TaintRow(usize, i64),
}

fn gen_script(rng: &mut SimRng) -> Vec<Step> {
    (0..80)
        .map(|_| {
            let table = rng.uniform_usize(3); // 2 = no such table
            let pk = rng.uniform_u64(10) as i64;
            let col = rng.uniform_usize(4); // 3 = no such column
            match rng.uniform_u64(20) {
                0..=2 => Step::Begin,
                3 => Step::Commit,
                4 => Step::Rollback,
                5 => Step::Crash,
                6 => Step::Repair,
                7 | 8 => Step::Insert(table, pk, gen_cell(rng)),
                9 => Step::Load(table, pk, gen_cell(rng)),
                10 | 11 => Step::Update(table, pk, col, gen_cell(rng)),
                12 => Step::Delete(table, pk),
                13 | 14 => Step::Read(table, pk),
                15 => Step::Scan(
                    table,
                    col,
                    rng.uniform_u64(4) as i64,
                    1 + rng.uniform_usize(5),
                ),
                16 => Step::CreateIndex(table, col),
                17 => Step::CorruptCell(table, pk, col, gen_cell(rng)),
                18 => Step::CorruptSwap(table, pk, rng.uniform_u64(10) as i64),
                _ => Step::TaintRow(table, pk),
            }
        })
        .collect()
}

/// A database under a script: it names its tables the way `tables` does.
struct Scripted<T> {
    db: Database,
    tables: [T; 3],
    conn: ConnId,
    txn: Option<TxnId>,
    /// Every row a read handed out, with a deep copy taken at that moment.
    held: Vec<(Row, Vec<Value>)>,
}

impl<T: TableRef> Scripted<T> {
    fn new(tables: [T; 3]) -> Self {
        let def = |name| TableDef {
            name,
            columns: &["id", "a", "b"],
        };
        let mut db = Database::new(vec![def("t"), def("u")]);
        db.create_index(tables[0], 1).unwrap();
        let conn = db.open_conn();
        Scripted {
            db,
            tables,
            conn,
            txn: None,
            held: Vec::new(),
        }
    }

    /// Applies `step`, returning everything it could observe.
    fn apply(&mut self, step: &Step) -> String {
        let db = &mut self.db;
        let table = |i: usize| self.tables[i];
        let row = |pk: i64, v: &Value| vec![Value::Int(pk), v.clone(), Value::Int(pk % 3)];
        match step {
            Step::Begin => {
                self.txn.get_or_insert_with(|| db.begin(self.conn).unwrap());
                String::new()
            }
            Step::Commit => format!("{:?}", self.txn.take().map(|t| db.commit(t))),
            Step::Rollback => format!("{:?}", self.txn.take().map(|t| db.rollback(t))),
            Step::Crash => {
                db.crash();
                self.txn = None;
                self.conn = db.open_conn();
                String::new()
            }
            Step::Repair => format!("{}", db.repair()),
            Step::Insert(t, pk, v) => match self.txn {
                Some(txn) => format!("{:?}", db.insert(txn, table(*t), row(*pk, v))),
                None => String::new(),
            },
            Step::Load(t, pk, v) => format!("{:?}", db.load(table(*t), [row(*pk, v)])),
            Step::Update(t, pk, col, v) => match self.txn {
                Some(txn) => {
                    let updates = [(*col, v.clone())];
                    format!("{:?}", db.update(txn, table(*t), *pk, &updates))
                }
                None => String::new(),
            },
            Step::Delete(t, pk) => match self.txn {
                Some(txn) => format!("{:?}", db.delete(txn, table(*t), *pk)),
                None => String::new(),
            },
            Step::Read(t, pk) => {
                let t = table(*t);
                let committed = db.read_committed(t, *pk);
                let with_taint = db.read_with_taint(self.txn, t, *pk);
                let in_txn = self.txn.map(|txn| db.read(txn, t, *pk));
                if let (Ok(Some(a)), Ok((Some(b), _))) = (&committed, &with_taint) {
                    assert!(Rc::ptr_eq(a, b), "two reads share the stored image");
                    self.held.push((a.clone(), a.to_vec()));
                }
                format!(
                    "{committed:?} {with_taint:?} {in_txn:?} {} {} {:?} {:?}",
                    db.contains(t, *pk),
                    db.is_tainted(t, *pk),
                    db.max_pk(t),
                    db.table_len(t),
                )
            }
            Step::Scan(t, col, v, limit) => {
                let t = table(*t);
                let mut seen = Vec::new();
                let eq = db.scan_eq(t, *col, *v, *limit, |r: &Row| seen.push(r.clone()));
                let all = db.scan_all(t, *limit, |r: &Row| seen.push(r.clone()));
                let column = (*col).min(2);
                let full = db.scan(t, |r| r[column].as_int() == Some(*v), *limit);
                let out = format!("{eq:?} {all:?} {full:?} {seen:?}");
                self.held
                    .extend(seen.into_iter().map(|r| (r.clone(), r.to_vec())));
                out
            }
            Step::CreateIndex(t, col) => format!("{:?}", db.create_index(table(*t), *col)),
            Step::CorruptCell(t, pk, col, v) => {
                format!("{:?}", db.corrupt_cell(table(*t), *pk, *col, v.clone()))
            }
            Step::CorruptSwap(t, a, b) => format!("{:?}", db.corrupt_swap_rows(table(*t), *a, *b)),
            Step::TaintRow(t, pk) => format!("{:?}", db.taint_row(table(*t), *pk)),
        }
    }
}

/// A table handle is its name, resolved: every operation answers the same
/// — values, errors, counters — whether its table is given as a `TableId`
/// or as the name that id stands for (an id past the schema like a name
/// not in it).
#[test]
fn db_by_id_is_by_name() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x4000 + case);
        let mut by_name = Scripted::new(["t", "u", "ghost"]);
        let mut by_id = Scripted::new([TableId(0), TableId(1), TableId(2)]);
        for (n, step) in gen_script(&mut rng).iter().enumerate() {
            let named = by_name
                .apply(step)
                .replace(r#"NoSuchTable("ghost")"#, "NoSuchTable");
            let handled = by_id
                .apply(step)
                .replace(r##"NoSuchTable("#2")"##, "NoSuchTable");
            assert_eq!(named, handled, "case {case} step {n}: {step:?}");
        }
        assert_eq!(by_name.db.stats(), by_id.db.stats(), "case {case}");
        assert_eq!(by_name.db.tainted_rows(), by_id.db.tainted_rows());
    }
}

/// Sharing row images is unobservable: a `Row` handed to a reader is the
/// stored image itself, yet no later update, rollback, delete, crash,
/// injected corruption, taint or repair changes it, and the indexes equal
/// the rows throughout. Rollback and repair put back the very image they
/// displaced — the undo log and the taint map keep the `Rc`, not a copy.
#[test]
fn db_row_sharing_is_unobservable() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x5000 + case);
        let mut s = Scripted::new([TableId(0), TableId(1), TableId(2)]);
        for (n, step) in gen_script(&mut rng).iter().enumerate() {
            s.apply(step);
            for (row, copy) in &s.held {
                assert_eq!(row[..], copy[..], "case {case} step {n}: {step:?}");
            }
            s.db.check_indexes()
                .unwrap_or_else(|e| panic!("case {case} step {n}: {step:?}: {e}"));
        }

        let mut db = fresh_db();
        db.load("t", [[Value::Int(1), Value::Int(10)]]).unwrap();
        let original = db.read_committed("t", 1).unwrap().unwrap();
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "t", 1, &[(1, gen_cell(&mut rng))]).unwrap();
        if rng.chance(0.5) {
            db.delete(txn, "t", 1).unwrap();
        }
        db.rollback(txn).unwrap();
        let restored = db.read_committed("t", 1).unwrap().unwrap();
        assert!(
            Rc::ptr_eq(&original, &restored),
            "case {case}: rollback copied"
        );
        db.corrupt_cell("t", 1, 1, Value::Null).unwrap();
        db.taint_row("t", 1).unwrap();
        db.repair();
        let repaired = db.read_committed("t", 1).unwrap().unwrap();
        assert!(
            Rc::ptr_eq(&original, &repaired),
            "case {case}: repair copied"
        );
    }
}

/// The registry indexed by deployment handle is the naming service keyed
/// by name: through any sequence of bind / unbind / corrupt, every handle
/// resolves as its name does in a name-keyed model — sentinel, null,
/// dangling and wrong bindings, unbind-then-rebind, a gap below a bound
/// handle, and a handle no deployment ever issued.
#[test]
fn registry_handles_resolve_like_names() {
    const NAMES: [&str; 6] = ["WAR", "Item", "Bid", "User", "ViewItem", "NeverDeployed"];
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x7000 + case);
        let mut registry = NamingRegistry::new();
        let mut model: BTreeMap<&str, Binding> = BTreeMap::new();
        for step in 0..120 {
            let i = rng.uniform_usize(NAMES.len());
            let (handle, name) = (ComponentId(i), NAMES[i]);
            let binding = match rng.uniform_u64(5) {
                0 => Binding::Active(handle),
                1 => Binding::Sentinel {
                    retry_after: SimDuration::from_millis(rng.uniform_u64(3_000)),
                },
                2 => Binding::Null,
                3 => Binding::Dangling,
                _ => Binding::Wrong(ComponentId(rng.uniform_usize(5))),
            };
            match rng.uniform_u64(4) {
                0 if name != "NeverDeployed" => {
                    registry.bind(handle, binding);
                    model.insert(name, binding);
                }
                1 => assert_eq!(registry.unbind(handle), model.remove(name)),
                2 => {
                    let bound = model.get_mut(name).map(|b| *b = binding).is_some();
                    assert_eq!(registry.corrupt(handle, binding), bound);
                }
                _ => {}
            }
            for (i, name) in NAMES.iter().enumerate() {
                let expected = match model.get(name) {
                    None | Some(Binding::Null) => Err(RegistryError::NotBound),
                    Some(Binding::Dangling) => Err(RegistryError::Dangling),
                    Some(Binding::Active(id)) => Ok(Resolved::Component(*id)),
                    Some(Binding::Wrong(id)) => Ok(Resolved::WrongComponent(*id)),
                    Some(Binding::Sentinel { retry_after }) => {
                        Ok(Resolved::RetryAfter(*retry_after))
                    }
                };
                let got = registry.resolve(ComponentId(i));
                assert_eq!(got, expected, "case {case} step {step}: {name}");
            }
        }
    }
}

/// Logs the `(time, index)` it was scheduled with.
struct Stamp(u64, usize);

impl EventPayload<Vec<(u64, usize)>> for Stamp {
    fn fire(self, log: &mut Vec<(u64, usize)>, _: &mut EventQueue<Vec<(u64, usize)>, Stamp>) {
        log.push((self.0, self.1));
    }
}

/// The event queue fires events in nondecreasing time order, with
/// FIFO order among equal timestamps.
#[test]
fn event_queue_is_time_ordered() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x4000 + case);
        let times: Vec<u64> = (0..1 + rng.uniform_u64(99))
            .map(|_| rng.uniform_u64(1000))
            .collect();
        let mut q = EventQueue::new();
        let mut world = Vec::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_event_at(SimTime::from_millis(*t), "e", Stamp(*t, i));
        }
        q.run_to_completion(&mut world);
        assert_eq!(world.len(), times.len());
        for pair in world.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time order, case {case}");
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "FIFO among ties, case {case}");
            }
        }
    }
}

/// Session objects survive an SSM write/read round trip unchanged
/// (marshalling + checksum verification are lossless).
#[test]
fn ssm_roundtrip_is_lossless() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x6000 + case);
        let mut obj = SessionObject::new();
        let keys = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
        for key in &keys[..rng.uniform_usize(keys.len() + 1)] {
            obj.set(key, rng.next_u64() as i64);
        }
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj.clone()).unwrap();
        let got = ssm.read(SessionId(1)).unwrap().unwrap();
        assert_eq!(got, obj, "case {case}");
    }
}

/// A random session object over every `Value` variant (sometimes empty).
fn gen_session_object(rng: &mut SimRng) -> SessionObject {
    let mut obj = SessionObject::new();
    let keys = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    for key in &keys[..rng.uniform_usize(keys.len() + 1)] {
        match rng.uniform_u64(5) {
            0 => obj.set(key, Value::Null),
            1 => obj.set(key, rng.next_u64() as i64),
            2 => obj.set(key, "x".repeat(rng.uniform_usize(40))),
            3 => obj.set(key, rng.unit_f64()),
            _ => obj.set(key, rng.chance(0.5)),
        }
    }
    obj
}

/// A random mutation through the object's public surface.
fn mutate(rng: &mut SimRng, obj: &mut SessionObject) {
    match rng.uniform_u64(5) {
        0 => obj.set("alpha", rng.next_u64() as i64),
        1 => obj.set("fresh", "added"),
        2 => drop(obj.remove("beta")),
        3 => obj.mark_tainted(),
        _ => corrupt_object(obj, CorruptKind::SetNull),
    }
}

/// Copy-on-write is invisible: no holder of a session object — a clone,
/// a request that read it, the store that serves it — ever sees another
/// holder's mutation, and the encoded length is the encoding's length.
#[test]
fn session_object_sharing_is_unobservable() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x6800 + case);
        let original = gen_session_object(&mut rng);
        assert_eq!(
            original.encoded_len(),
            original.encode().len(),
            "case {case}"
        );

        // Clones: either side may mutate, the other keeps its encoding.
        let frozen = original.encode();
        let mut a = original.clone();
        let mut b = a.clone();
        assert_eq!(b.encode(), frozen);
        mutate(&mut rng, &mut b);
        assert_eq!(
            a.encode(),
            frozen,
            "case {case}: clone mutated, original moved"
        );
        let b_frozen = b.encode();
        assert_eq!(b.encoded_len(), b_frozen.len());
        mutate(&mut rng, &mut a);
        assert_eq!(
            b.encode(),
            b_frozen,
            "case {case}: original mutated, clone moved"
        );

        // What a store handed out is the reader's own, and what the reader
        // does with it is not the store's.
        let sid = SessionId(1);
        let replacement = gen_session_object(&mut rng);
        let mut fasts = FastS::new();
        let mut ssm = Ssm::new(3);
        fasts.write(sid, original.clone()).unwrap();
        ssm.write(sid, original.clone()).unwrap();
        let mut from_fasts = fasts.read(sid).unwrap().unwrap();
        let mut from_ssm = ssm.read(sid).unwrap().unwrap();

        mutate(&mut rng, &mut from_fasts);
        mutate(&mut rng, &mut from_ssm);
        assert_eq!(fasts.read(sid).unwrap().unwrap(), original, "case {case}");
        assert_eq!(ssm.read(sid).unwrap().unwrap(), original, "case {case}");
        assert!(
            !fasts.is_tainted(sid) && !ssm.is_tainted(sid),
            "case {case}"
        );

        let held_fasts = fasts.read(sid).unwrap().unwrap();
        let held_ssm = ssm.read(sid).unwrap().unwrap();
        match rng.uniform_u64(3) {
            0 => {
                fasts.write(sid, replacement.clone()).unwrap();
                ssm.write(sid, replacement.clone()).unwrap();
            }
            1 => {
                fasts.corrupt(sid, CorruptKind::SetInvalid);
                ssm.corrupt_bits(sid);
            }
            _ => {
                fasts.corrupt(sid, CorruptKind::SetWrong);
                // One mangled brick is masked by its siblings, which must
                // still verify: the damage was done to that brick's copy.
                ssm.corrupt_brick(rng.uniform_usize(3));
                assert_eq!(ssm.read(sid).unwrap().unwrap(), original, "case {case}");
                assert_eq!(ssm.stats().checksum_discards, 1, "case {case}");
            }
        }
        assert_eq!(
            held_fasts, original,
            "case {case}: FastS reached a reader's copy"
        );
        assert_eq!(
            held_ssm, original,
            "case {case}: SSM reached a reader's copy"
        );
        assert_eq!(held_ssm.encode(), frozen, "case {case}");
    }
}

/// FastS revalidation never discards objects the validator accepts
/// and never keeps objects it rejects.
#[test]
fn fasts_revalidation_is_exact() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x7000 + case);
        let user_ids: Vec<i64> = (0..1 + rng.uniform_u64(29))
            .map(|_| rng.next_u64() as i64)
            .collect();
        let mut fasts = FastS::new();
        for (i, uid) in user_ids.iter().enumerate() {
            let mut obj = SessionObject::new();
            obj.set("user_id", *uid);
            fasts.write(SessionId(i as u64), obj).unwrap();
        }
        let valid = |o: &SessionObject| {
            o.get("user_id")
                .and_then(Value::as_int)
                .map(|v| v > 0)
                .unwrap_or(false)
        };
        fasts.revalidate(valid);
        let expected = user_ids.iter().filter(|v| **v > 0).count();
        assert_eq!(fasts.live_sessions(), expected, "case {case}");
    }
}

/// Every key any `telemetry_events!` row reads. The parser scans for the
/// keys a kind needs, so one object carrying them all parses as every
/// kind — which builds a corpus covering the whole table without naming
/// a single variant here.
const EVERY_KEY: &str = "\"node\":1,\"req\":2,\"at_us\":9000000,\"disposition\":\"http_error\",\
    \"cause\":\"ttl\",\"level\":\"process\",\"members\":3,\"duration_us\":4000000,\"op\":5,\
    \"decision\":\"process_restart\",\"free_bytes\":6,\"action\":7,\"group\":8,\"started_us\":9,\
    \"finished_us\":10,\"ok\":true,\"from\":1,\"to\":0,\"session\":11,\"pending\":12,\"reaped\":13,\
    \"strikes\":14,\"backoff_us\":15,\"flaps\":16,\"elapsed_us\":17,\"run\":18,\"digest\":19,\
    \"violations\":20,\"policy\":2,\"state\":1,\"budget_left\":21,\"components\":22,\
    \"ratio_permille\":23,\"after_us\":24,\"factor_permille\":25,\"brick\":2,\"edge\":1,\"kind\":3";

/// Removes one `"key":value` member (never the leading `"t"`) from a flat
/// JSON object line.
fn drop_a_member(rng: &mut SimRng, line: &str) -> String {
    let starts: Vec<usize> = line.match_indices(",\"").map(|(i, _)| i).collect();
    let Some(&start) = rng.pick(&starts) else {
        return line.to_string();
    };
    let rest = &line[start + 1..];
    let len = rest.find(",\"").unwrap_or(rest.len() - 1);
    format!("{}{}", &line[..start], &rest[len..])
}

/// `urb trace` reads files people hand it: whatever is in them, the
/// parser must answer with `Ok` or with an error naming the line — never
/// a panic, never a bare message `verify` cannot point at.
#[test]
fn trace_parser_never_panics_and_always_names_the_line() {
    let events: Vec<TelemetryEvent> = TelemetryEvent::KINDS
        .iter()
        .map(|kind| {
            event_from_json(&format!("{{\"t\":\"{kind}\",{EVERY_KEY}}}")).expect("corpus line")
        })
        .collect();
    let corpus = Trace::from_events(events).to_jsonl();
    assert_eq!(
        Trace::parse(&corpus).map(|t| t.events.len()),
        Ok(TelemetryEvent::KINDS.len())
    );
    let lines: Vec<&str> = corpus.lines().collect();
    assert!(
        lines.len() > TelemetryEvent::KINDS.len() + 1,
        "has an episode line too"
    );

    let mut rng = SimRng::seed_from(0x7ace);
    let mut rejected = 0;
    for case in 0..12_000 {
        let mut doc: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let at = rng.uniform_usize(doc.len());
        let line = doc[at].clone();
        doc[at] = match case % 5 {
            0 => line[..rng.uniform_usize(line.len() + 1)].to_string(),
            1 => {
                let mut bytes = line.into_bytes();
                let i = rng.uniform_usize(bytes.len());
                bytes[i] = rng.uniform_u64(256) as u8;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            2 => {
                let other = *rng.pick(&lines).expect("corpus has lines");
                let head = rng.uniform_usize(line.len() + 1);
                let tail = rng.uniform_usize(other.len() + 1);
                format!("{}{}", &line[..head], &other[tail..])
            }
            3 => line.replacen("\"t\":\"", "\"t\":\"no_such_", 1),
            _ => drop_a_member(&mut rng, &line),
        };
        let _ = event_from_json(&doc[at]);
        if let Err(e) = Trace::parse(&doc.join("\n")) {
            rejected += 1;
            let named = e
                .strip_prefix("line ")
                .and_then(|rest| rest.split_once(':'));
            assert!(
                named.is_some_and(|(n, _)| n.parse::<usize>().is_ok()),
                "case {case}: error does not name its line: {e}"
            );
        }
    }
    assert!(
        rejected > 6_000,
        "most mutations must be rejected, got {rejected}"
    );
}
