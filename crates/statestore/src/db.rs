//! The persistence tier: a transactional table store standing in for MySQL.
//!
//! The paper keeps eBid's long-term state (users, items, bids, ...) in a
//! MySQL database that is "crash-safe and recovers fast" for its datasets.
//! What microrebooting needs from the persistence tier is a contract, not a
//! particular engine:
//!
//! * **Atomicity** — transactions open at microreboot time are aborted by
//!   the container and rolled back by the database (Section 3.3).
//! * **Crash safety** — committed data survives a database or node crash;
//!   in-flight transactions roll back.
//! * **Connection-scoped cleanup** — locks and transactions belong to a
//!   connection; killing a connection releases them. (Section 7's "external
//!   resources" limitation arises when a component acquires a connection
//!   the server does not know about.)
//! * **Detectable, repairable corruption** — corrupting table contents is
//!   beyond what any reboot can cure; Table 2 records it as "table repair
//!   needed". The out-of-band [`Database::corrupt_cell`] /
//!   [`Database::repair`] surface models the injection and the manual
//!   repair.
//!
//! This module implements exactly that contract with an undo-log design:
//! writes apply in place and append compensation records; commit discards
//! the log, abort replays it backwards.
//!
//! Equality queries ([`Database::scan_eq`]) are answered from secondary
//! indexes ([`Database::create_index`]) — posting lists, one per cell
//! value — and visit rows by reference, so a query costs the host
//! O(matches), not O(table), and a count-only query one map lookup. A
//! dataset is installed in bulk ([`Database::load`]): one validation pass,
//! then the rows and every index built from sorted input.
//!
//! Every operation names its table through a [`TableRef`]: the [`TableId`]
//! an application resolved when it was deployed, or the name itself,
//! searched for on that call. Rows are shared ([`Row`]), never copied.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use simcore::SimDuration;

use crate::value::Value;

/// A database error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// The named table does not exist.
    NoSuchTable(String),
    /// A row with this primary key already exists.
    DuplicateKey { table: String, pk: i64 },
    /// The row has the wrong number of columns for the table.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// Column index out of range for the table.
    NoSuchColumn { table: String, column: usize },
    /// The transaction id is unknown or no longer active.
    NoSuchTxn,
    /// The connection id is unknown or closed.
    NoSuchConn,
    /// Another transaction holds the row lock.
    LockConflict { table: String, pk: i64 },
    /// The row does not exist.
    NoSuchRow { table: String, pk: i64 },
    /// A non-nullable cell (the primary key) was null.
    NullKey { table: String },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::DuplicateKey { table, pk } => {
                write!(f, "duplicate key {pk} in {table}")
            }
            DbError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(f, "table {table} expects {expected} columns, got {got}")
            }
            DbError::NoSuchColumn { table, column } => {
                write!(f, "table {table} has no column {column}")
            }
            DbError::NoSuchTxn => write!(f, "unknown or finished transaction"),
            DbError::NoSuchConn => write!(f, "unknown or closed connection"),
            DbError::LockConflict { table, pk } => {
                write!(f, "lock conflict on {table}:{pk}")
            }
            DbError::NoSuchRow { table, pk } => {
                write!(f, "no row {pk} in {table}")
            }
            DbError::NullKey { table } => write!(f, "null primary key for {table}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Identifier of an open transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxnId(u64);

/// Identifier of a database connection.
///
/// Transactions and row locks belong to a connection; closing the
/// connection (as the OS does to a killed process's sockets) aborts its
/// transactions and frees its locks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnId(u64);

impl ConnId {
    /// Reconstructs a connection id from its raw value.
    ///
    /// Connection ids are allocated densely from zero, so tooling (e.g.,
    /// the simulated OS-level teardown of every connection of a dead
    /// process) can enumerate candidates; a non-existent id is simply not
    /// open.
    pub fn from_raw(raw: u64) -> ConnId {
        ConnId(raw)
    }
}

/// A table row: one [`Value`] per column, column 0 being the primary key.
///
/// Row images are immutable and reference-counted: a read hands out the
/// stored image (a count bump), a write installs a new image, and the undo
/// log and the taint map keep the old `Rc` rather than a copy — so a `Row`
/// a reader holds never changes under it.
pub type Row = Rc<[Value]>;

/// A table's position in the schema: its name, resolved.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TableId(pub usize);

/// How a [`Database`] call names its table: by [`TableId`] (the request
/// path — no search) or by name (tools, fault injection, tests — a search
/// of the schema, then the same code).
pub trait TableRef: Copy {
    /// The table's position in `db`'s schema.
    fn resolve(self, db: &Database) -> Result<usize, DbError>;
}

impl TableRef for TableId {
    fn resolve(self, db: &Database) -> Result<usize, DbError> {
        if self.0 < db.tables.len() {
            Ok(self.0)
        } else {
            Err(DbError::NoSuchTable(format!("#{}", self.0)))
        }
    }
}

impl TableRef for &str {
    fn resolve(self, db: &Database) -> Result<usize, DbError> {
        let found = db.tables.iter().position(|t| t.def.name == self);
        found.ok_or_else(|| DbError::NoSuchTable(self.to_string()))
    }
}

/// Definition of one table: its name and column names.
///
/// Column 0 is always the integer primary key.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name, unique within a schema.
    pub name: &'static str,
    /// Column names; index 0 is the primary key.
    pub columns: &'static [&'static str],
}

#[derive(Clone, Debug)]
struct Table {
    def: TableDef,
    rows: Rows,
    /// Pre-corruption images of tainted rows, keyed by pk; presence marks
    /// the row as corrupted by out-of-band injection.
    tainted: BTreeMap<i64, Row>,
    /// Secondary indexes, per indexed column.
    indexes: Vec<(usize, Index)>,
}

/// A table's rows in one vector, ascending by primary key.
///
/// The keys a table sees are close to `first, first + 1, …`: a dataset is
/// generated that way, eBid's key generator hands out the largest key plus
/// one, and eBid deletes nothing. So a lookup tries the place the key has
/// when none is missing below it before it searches, and an insert above
/// the last key, or its rollback, touches the end of the vector alone. An
/// insert or delete elsewhere shifts the rows above it: O(n), which only
/// tests on small tables meet.
#[derive(Clone, Debug, Default)]
struct Rows(Vec<(i64, Row)>);

impl Rows {
    /// Where `pk` is, or (`Err`) where it would go.
    fn find(&self, pk: i64) -> Result<usize, usize> {
        let rows = &self.0;
        // Wraps to out of range, or to some other key's place, when `pk`
        // is below the first key or farther from it than an `i64` holds.
        let first = rows.first().map_or(pk, |first| first.0);
        let dense = pk.wrapping_sub(first) as usize;
        match (rows.get(dense), rows.last()) {
            (Some(row), _) if row.0 == pk => Ok(dense),
            (_, Some(last)) if pk <= last.0 => rows.binary_search_by_key(&pk, |row| row.0),
            _ => Err(rows.len()),
        }
    }

    fn get(&self, pk: i64) -> Option<&Row> {
        self.find(pk).ok().map(|at| &self.0[at].1)
    }

    /// Installs `new` as the image of row `pk` (`None` removes the row) and
    /// returns the previous image.
    fn set(&mut self, pk: i64, new: Option<Row>) -> Option<Row> {
        match (self.find(pk), new) {
            (Ok(at), Some(row)) => return Some(std::mem::replace(&mut self.0[at].1, row)),
            (Ok(at), None) => return Some(self.0.remove(at).1),
            (Err(at), Some(row)) => self.0.insert(at, (pk, row)),
            (Err(_), None) => {}
        }
        None
    }

    /// Takes in `batch`: ascending and not empty, no key of it present.
    fn merge(&mut self, mut batch: Vec<(i64, Row)>) {
        let follows = self.0.last().is_none_or(|last| last.0 < batch[0].0);
        if self.0.is_empty() {
            std::mem::swap(&mut self.0, &mut batch); // keep its allocation
        }
        self.0.append(&mut batch);
        if !follows {
            // Two ascending runs, which is what the stable sort merges.
            self.0.sort_by_key(|row| row.0);
        }
    }
}

/// A secondary index as posting lists: per integer cell value present in
/// the column, the primary keys of the rows holding it, ascending — the
/// order an equality query visits them in. A `Null`, float or text cell
/// is not indexed (it equals no integer), and no list is ever empty, so
/// two indexes over the same rows are equal as maps.
type Index = BTreeMap<i64, Vec<i64>>;

/// Builds the index on `column` that `rows` give: the one builder behind
/// [`Database::create_index`], [`Database::load`] and
/// [`Database::check_indexes`].
///
/// The rows come in primary-key order, so dealing the `(cell, pk)` pairs
/// out by cell leaves every list ascending. Where the cells are dense —
/// fewer values between the smallest and the largest than there are
/// pairs, as ids referring to another table are — that is a counting pass
/// and a dealing pass over an array of lists; otherwise one sort of the
/// pairs groups them. Either way the map is built from sorted input and a
/// list is allocated once, with half its length of room to grow: a list
/// built full reallocates on the first insert the request path makes.
fn build_index(rows: &Rows, column: usize) -> Index {
    let cell_and_pk = |(pk, row): &(i64, Row)| row[column].as_int().map(|cell| (cell, *pk));
    let mut pairs: Vec<(i64, i64)> = rows.0.iter().filter_map(cell_and_pk).collect();
    let cells = || pairs.iter().map(|pair| pair.0);
    let (Some(min), Some(max)) = (cells().min(), cells().max()) else {
        return Index::new();
    };
    let list_of = |len: usize| Vec::with_capacity(len + len / 2);
    if max.abs_diff(min) < pairs.len() as u64 {
        let slot = |cell: i64| cell.abs_diff(min) as usize;
        let mut sizes = vec![0; slot(max) + 1];
        cells().for_each(|cell| sizes[slot(cell)] += 1);
        let mut lists: Vec<Vec<i64>> = sizes.into_iter().map(list_of).collect();
        for (cell, pk) in pairs {
            lists[slot(cell)].push(pk);
        }
        let listed = lists.into_iter().enumerate().filter(|(_, l)| !l.is_empty());
        listed.map(|(at, l)| (min + at as i64, l)).collect()
    } else {
        pairs.sort_unstable();
        let same_cell = pairs.chunk_by(|a, b| a.0 == b.0);
        let listed = same_cell.map(|pairs| {
            let mut list = list_of(pairs.len());
            list.extend(pairs.iter().map(|pair| pair.1));
            (pairs[0].0, list)
        });
        listed.collect()
    }
}

impl Table {
    /// Installs `new` as the image of row `pk` (`None` removes the row) and
    /// returns the previous image.
    ///
    /// Every change to one row image — transactional write, undo replay,
    /// injected corruption, repair — goes through here and moves the
    /// row's primary key between posting lists as its cells change; a bulk
    /// [`Database::load`] instead rebuilds each index from the rows it
    /// leaves. Between them they keep the indexes equal to the rows.
    fn replace(&mut self, pk: i64, new: Option<Row>) -> Option<Row> {
        if !self.indexes.is_empty() {
            let old = self.rows.get(pk);
            for (col, index) in &mut self.indexes {
                let was = old.and_then(|r| r[*col].as_int());
                let is = new.as_ref().and_then(|r| r[*col].as_int());
                if was != is {
                    if let Some(v) = was {
                        let list = index.get_mut(&v).expect("an indexed cell has a list");
                        let at = list.binary_search(&pk).expect("an indexed row is listed");
                        list.remove(at);
                        if list.is_empty() {
                            index.remove(&v);
                        }
                    }
                    if let Some(v) = is {
                        let list = index.entry(v).or_default();
                        let at = list.binary_search(&pk).expect_err("listed once");
                        list.insert(at, pk);
                    }
                }
            }
        }
        self.rows.set(pk, new)
    }

    fn no_such_row(&self, pk: i64) -> DbError {
        DbError::NoSuchRow {
            table: self.def.name.to_string(),
            pk,
        }
    }

    /// A new image of row `pk` with every `(column, value)` of `updates`
    /// written over it in order; the columns are in range.
    fn patched(&self, pk: i64, updates: &[(usize, Value)]) -> Result<Row, DbError> {
        let old = self.rows.get(pk).ok_or_else(|| self.no_such_row(pk))?;
        let cell = |(i, v)| updates.iter().rfind(|u| u.0 == i).map_or(v, |u| &u.1);
        Ok(old.iter().enumerate().map(cell).cloned().collect())
    }

    /// Checks a row offered for insertion, returning its primary key.
    fn admit(&self, row: &[Value]) -> Result<i64, DbError> {
        let table = self.def.name;
        let expected = self.def.columns.len();
        if row.len() != expected {
            return Err(DbError::ArityMismatch {
                table: table.to_string(),
                expected,
                got: row.len(),
            });
        }
        let pk = row[0].as_int().ok_or_else(|| DbError::NullKey {
            table: table.to_string(),
        })?;
        if self.rows.find(pk).is_ok() {
            return Err(DbError::DuplicateKey {
                table: table.to_string(),
                pk,
            });
        }
        Ok(pk)
    }

    fn check_column(&self, column: usize) -> Result<(), DbError> {
        if column < self.def.columns.len() {
            Ok(())
        } else {
            Err(DbError::NoSuchColumn {
                table: self.def.name.to_string(),
                column,
            })
        }
    }

    /// Counts the row with key `pk` into `hits`, noting whether it is
    /// tainted. The taint map is empty unless corruption was injected.
    fn hit(&self, hits: &mut ScanHits, pk: i64) {
        hits.rows += 1;
        hits.tainted |= !self.tainted.is_empty() && self.tainted.contains_key(&pk);
    }
}

/// What a [`Database::scan_eq`] / [`Database::scan_all`] query does with
/// the rows it matches: any `FnMut(&Row)` closure sees each of them, and
/// `()` wants none — only the [`ScanHits`] — which lets an indexed query
/// count its matches from the index without fetching a row.
pub trait RowVisitor {
    /// Whether [`RowVisitor::visit`] does anything with a row.
    const WANTS_ROWS: bool;
    /// Sees one matched row.
    fn visit(&mut self, row: &Row);
}

impl RowVisitor for () {
    const WANTS_ROWS: bool = false;
    fn visit(&mut self, _: &Row) {}
}

impl<F: FnMut(&Row)> RowVisitor for F {
    const WANTS_ROWS: bool = true;
    fn visit(&mut self, row: &Row) {
        self(row)
    }
}

/// What a [`Database::scan_eq`] / [`Database::scan_all`] query matched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanHits {
    /// Rows visited.
    pub rows: usize,
    /// Whether any visited row is marked corrupted by injection.
    pub tainted: bool,
}

enum Undo {
    Insert { table: usize, pk: i64 },
    Update { table: usize, pk: i64, old: Row },
    Delete { table: usize, pk: i64, old: Row },
}

impl Undo {
    /// The row this record restores, which its transaction holds locked.
    fn row(&self) -> (usize, i64) {
        match *self {
            Undo::Insert { table, pk }
            | Undo::Update { table, pk, .. }
            | Undo::Delete { table, pk, .. } => (table, pk),
        }
    }
}

/// An active transaction. Every lock it holds is the row of one of its
/// undo records: each write logs right after `lock` admits it.
struct Txn {
    conn: ConnId,
    undo: Vec<Undo>,
}

/// Counters describing a database's lifetime activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (explicitly or by crash/connection close).
    pub(crate) aborts: u64,
    /// Individual row reads served.
    pub reads: u64,
    /// Individual row writes (insert/update/delete) applied.
    pub writes: u64,
    /// Crash/recover cycles survived.
    pub(crate) crashes: u64,
}

/// An in-memory transactional table store with undo-log rollback.
///
/// # Examples
///
/// ```
/// use statestore::db::{Database, TableDef};
/// use statestore::Value;
///
/// let mut db = Database::new(vec![TableDef { name: "users", columns: &["id", "name"] }]);
/// let conn = db.open_conn();
/// let txn = db.begin(conn).unwrap();
/// db.insert(txn, "users", vec![Value::Int(1), Value::from("alice")]).unwrap();
/// db.commit(txn).unwrap();
/// let row = db.read_committed("users", 1).unwrap().unwrap();
/// assert_eq!(row[1], Value::from("alice"));
/// ```
pub struct Database {
    tables: Vec<Table>,
    txns: BTreeMap<u64, Txn>,
    conns: BTreeMap<u64, Vec<u64>>,
    locks: BTreeMap<(usize, i64), u64>,
    /// Finished transactions with emptied undo logs, whose buffers later
    /// ones reuse.
    spare: Vec<Txn>,
    next_txn: u64,
    next_conn: u64,
    stats: DbStats,
}

impl Database {
    /// Creates a database with the given schema.
    ///
    /// # Panics
    ///
    /// Panics if two tables share a name or a table has no columns — schema
    /// definition bugs, not runtime conditions.
    pub fn new(schema: Vec<TableDef>) -> Self {
        let mut tables: Vec<Table> = Vec::new();
        for def in schema {
            assert!(
                !def.columns.is_empty(),
                "table {} must have at least the pk column",
                def.name
            );
            let duplicate = tables.iter().any(|t| t.def.name == def.name);
            assert!(!duplicate, "duplicate table name {}", def.name);
            tables.push(Table {
                def,
                rows: Rows::default(),
                tainted: BTreeMap::new(),
                indexes: Vec::new(),
            });
        }
        Database {
            tables,
            txns: BTreeMap::new(),
            conns: BTreeMap::new(),
            locks: BTreeMap::new(),
            spare: Vec::new(),
            next_txn: 0,
            next_conn: 0,
            stats: DbStats::default(),
        }
    }

    /// Returns lifetime activity counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Returns the total number of committed rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.0.len()).sum()
    }

    /// Returns the number of rows in one table.
    pub fn table_len(&self, table: impl TableRef) -> Result<usize, DbError> {
        Ok(self.table(table)?.rows.0.len())
    }

    fn table(&self, table: impl TableRef) -> Result<&Table, DbError> {
        Ok(&self.tables[table.resolve(self)?])
    }

    // ---- connections -----------------------------------------------------

    /// Opens a new connection.
    pub fn open_conn(&mut self) -> ConnId {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, Vec::new());
        ConnId(id)
    }

    /// Closes a connection, aborting any transactions it still owns.
    ///
    /// Returns the number of transactions aborted. This models the
    /// OS-driven TCP teardown that releases database locks when a whole
    /// process is killed (Section 7).
    pub fn close_conn(&mut self, conn: ConnId) -> Result<usize, DbError> {
        let txn_ids = self.conns.remove(&conn.0).ok_or(DbError::NoSuchConn)?;
        let mut aborted = 0;
        for t in txn_ids {
            if self.txns.contains_key(&t) {
                self.rollback(TxnId(t)).expect("active txn rolls back");
                aborted += 1;
            }
        }
        Ok(aborted)
    }

    /// Returns true if `conn` is open.
    pub fn conn_open(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn.0)
    }

    // ---- transactions ----------------------------------------------------

    /// Begins a transaction on `conn`.
    pub fn begin(&mut self, conn: ConnId) -> Result<TxnId, DbError> {
        let list = self.conns.get_mut(&conn.0).ok_or(DbError::NoSuchConn)?;
        let id = self.next_txn;
        self.next_txn += 1;
        list.push(id);
        let txn = match self.spare.pop() {
            Some(spare) => Txn { conn, ..spare },
            None => Txn {
                conn,
                undo: Vec::new(),
            },
        };
        self.txns.insert(id, txn);
        Ok(TxnId(id))
    }

    /// Returns the number of transactions currently active.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// Returns true if `txn` is still active.
    pub fn txn_active(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn.0)
    }

    /// Takes the lock on row `pk` of `table` for `txn`, which must be
    /// active: a finished transaction's write fails before it touches a
    /// lock or a row.
    fn lock(&mut self, txn: TxnId, table: usize, pk: i64) -> Result<(), DbError> {
        if !self.txns.contains_key(&txn.0) {
            return Err(DbError::NoSuchTxn);
        }
        match self.locks.entry((table, pk)) {
            Entry::Occupied(owner) if *owner.get() == txn.0 => Ok(()),
            Entry::Occupied(_) => Err(DbError::LockConflict {
                table: self.tables[table].def.name.to_string(),
                pk,
            }),
            Entry::Vacant(slot) => {
                slot.insert(txn.0);
                Ok(())
            }
        }
    }

    /// Records how to undo a write `lock` admitted for `txn`.
    fn log(&mut self, txn: TxnId, undo: Undo) {
        let t = self.txns.get_mut(&txn.0).expect("lock checked txn");
        t.undo.push(undo);
        self.stats.writes += 1;
    }

    /// Ends `txn`: releases its locks and detaches it from its connection.
    /// The caller empties the returned undo log and hands the transaction
    /// to `spare`.
    fn finish(&mut self, txn: TxnId) -> Result<Txn, DbError> {
        let t = self.txns.remove(&txn.0).ok_or(DbError::NoSuchTxn)?;
        for undo in &t.undo {
            self.locks.remove(&undo.row());
        }
        if let Some(list) = self.conns.get_mut(&t.conn.0) {
            list.retain(|id| *id != txn.0);
        }
        Ok(t)
    }

    /// Commits `txn`, making its writes durable and releasing its locks.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), DbError> {
        let mut t = self.finish(txn)?;
        t.undo.clear();
        self.spare.push(t);
        self.stats.commits += 1;
        Ok(())
    }

    /// Rolls back `txn`, undoing its writes and releasing its locks.
    pub fn rollback(&mut self, txn: TxnId) -> Result<(), DbError> {
        let mut t = self.finish(txn)?;
        for undo in t.undo.drain(..).rev() {
            match undo {
                Undo::Insert { table, pk } => {
                    self.tables[table].replace(pk, None);
                }
                Undo::Update { table, pk, old } | Undo::Delete { table, pk, old } => {
                    self.tables[table].replace(pk, Some(old));
                }
            }
        }
        self.spare.push(t);
        self.stats.aborts += 1;
        Ok(())
    }

    /// Rolls back every active transaction.
    ///
    /// Containers call this (per component) on microreboot; [`Database::crash`]
    /// calls it for the whole store.
    pub(crate) fn rollback_all(&mut self) -> usize {
        let ids: Vec<u64> = self.txns.keys().copied().collect();
        let n = ids.len();
        for id in ids {
            self.rollback(TxnId(id)).expect("active txn rolls back");
        }
        n
    }

    // ---- data operations ---------------------------------------------

    /// Inserts a full row; column 0 is the primary key.
    pub fn insert(
        &mut self,
        txn: TxnId,
        table: impl TableRef,
        row: impl Into<Row>,
    ) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let row = row.into();
        let pk = self.tables[ti].admit(&row)?;
        self.lock(txn, ti, pk)?;
        self.tables[ti].replace(pk, Some(row));
        self.log(txn, Undo::Insert { table: ti, pk });
        Ok(())
    }

    /// Reads a row inside a transaction (sees in-place uncommitted state).
    pub fn read(
        &mut self,
        txn: TxnId,
        table: impl TableRef,
        pk: i64,
    ) -> Result<Option<Row>, DbError> {
        Ok(self.read_with_taint(Some(txn), table, pk)?.0)
    }

    /// Reads a committed row without a transaction (read-only access path).
    pub fn read_committed(&self, table: impl TableRef, pk: i64) -> Result<Option<Row>, DbError> {
        Ok(self.table(table)?.rows.get(pk).cloned())
    }

    /// Reads a row — through `txn` as [`Database::read`] does, or without
    /// one as [`Database::read_committed`] does — together with whether it
    /// is tainted (see [`Database::is_tainted`]), in one table lookup.
    pub fn read_with_taint(
        &mut self,
        txn: Option<TxnId>,
        table: impl TableRef,
        pk: i64,
    ) -> Result<(Option<Row>, bool), DbError> {
        if let Some(txn) = txn {
            if !self.txns.contains_key(&txn.0) {
                return Err(DbError::NoSuchTxn);
            }
            self.stats.reads += 1;
        }
        let t = self.table(table)?;
        Ok((t.rows.get(pk).cloned(), t.tainted.contains_key(&pk)))
    }

    /// Returns true if `table` exists and holds a row with key `pk`.
    pub fn contains(&self, table: impl TableRef, pk: i64) -> bool {
        self.table(table).is_ok_and(|t| t.rows.find(pk).is_ok())
    }

    /// Updates the given `(column, value)` pairs of a row.
    pub fn update(
        &mut self,
        txn: TxnId,
        table: impl TableRef,
        pk: i64,
        updates: &[(usize, Value)],
    ) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let t = &self.tables[ti];
        for &(column, _) in updates {
            if column == 0 || column >= t.def.columns.len() {
                return Err(DbError::NoSuchColumn {
                    table: t.def.name.to_string(),
                    column,
                });
            }
        }
        let row = t.patched(pk, updates)?;
        self.lock(txn, ti, pk)?;
        let old = self.tables[ti]
            .replace(pk, Some(row))
            .expect("existence checked above");
        self.log(txn, Undo::Update { table: ti, pk, old });
        Ok(())
    }

    /// Deletes a row.
    pub fn delete(&mut self, txn: TxnId, table: impl TableRef, pk: i64) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        if self.tables[ti].rows.find(pk).is_err() {
            return Err(self.tables[ti].no_such_row(pk));
        }
        self.lock(txn, ti, pk)?;
        let old = self.tables[ti]
            .replace(pk, None)
            .expect("existence checked above");
        self.log(txn, Undo::Delete { table: ti, pk, old });
        Ok(())
    }

    /// Scans a table in primary-key order, returning rows matching `filter`
    /// up to `limit`.
    ///
    /// This walks the whole table and copies every hit. It is the reference
    /// the indexed queries are tested against; the request path uses
    /// [`Database::scan_eq`] and [`Database::scan_all`].
    pub fn scan<F>(
        &mut self,
        table: impl TableRef,
        filter: F,
        limit: usize,
    ) -> Result<Vec<Row>, DbError>
    where
        F: Fn(&Row) -> bool,
    {
        let t = self.table(table)?;
        let rows = t.rows.0.iter().map(|(_, row)| row);
        let out: Vec<Row> = rows.filter(|r| filter(r)).take(limit).cloned().collect();
        self.stats.reads += out.len() as u64 + 1;
        Ok(out)
    }

    /// Visits, in primary-key order, up to `limit` rows whose cell in
    /// `column` is the integer `value` — what
    /// `scan(table, |r| r[column].as_int() == Some(value), limit)` returns,
    /// without walking the table (when the column is indexed) or copying
    /// the rows. Counts `matches + 1` reads, as `scan` does. `visit` is a
    /// closure over each row, or `()` to only count (see [`RowVisitor`]).
    pub fn scan_eq<V: RowVisitor>(
        &mut self,
        table: impl TableRef,
        column: usize,
        value: i64,
        limit: usize,
        mut visit: V,
    ) -> Result<ScanHits, DbError> {
        let t = self.table(table)?;
        t.check_column(column)?;
        let mut hits = ScanHits::default();
        match t.indexes.iter().find(|(c, _)| *c == column) {
            Some((_, index)) => {
                let list = index.get(&value).map_or(&[][..], Vec::as_slice);
                let list = &list[..list.len().min(limit)];
                if V::WANTS_ROWS || !t.tainted.is_empty() {
                    for &pk in list {
                        t.hit(&mut hits, pk);
                        if V::WANTS_ROWS {
                            visit.visit(t.rows.get(pk).expect("a listed row is present"));
                        }
                    }
                } else {
                    hits.rows = list.len();
                }
            }
            None => {
                let rows = t.rows.0.iter();
                let matches = rows.filter(|(_, r)| r[column].as_int() == Some(value));
                for (pk, row) in matches.take(limit) {
                    t.hit(&mut hits, *pk);
                    visit.visit(row);
                }
            }
        }
        self.stats.reads += hits.rows as u64 + 1;
        Ok(hits)
    }

    /// Visits the first `limit` rows of `table` in primary-key order.
    /// Counts `rows + 1` reads.
    pub fn scan_all<V: RowVisitor>(
        &mut self,
        table: impl TableRef,
        limit: usize,
        mut visit: V,
    ) -> Result<ScanHits, DbError> {
        let t = self.table(table)?;
        let mut hits = ScanHits::default();
        if V::WANTS_ROWS || !t.tainted.is_empty() {
            for (pk, row) in t.rows.0.iter().take(limit) {
                t.hit(&mut hits, *pk);
                visit.visit(row);
            }
        } else {
            hits.rows = t.rows.0.len().min(limit);
        }
        self.stats.reads += hits.rows as u64 + 1;
        Ok(hits)
    }

    /// Indexes `column` of `table` for [`Database::scan_eq`], building the
    /// index from the rows present. Indexing a column twice is a no-op.
    pub fn create_index(&mut self, table: impl TableRef, column: usize) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let t = &mut self.tables[ti];
        t.check_column(column)?;
        if t.indexes.iter().all(|(c, _)| *c != column) {
            t.indexes.push((column, build_index(&t.rows, column)));
        }
        Ok(())
    }

    /// Checks that every index is exactly the posting lists the rows
    /// present give; `Err` names the first index that is not.
    pub fn check_indexes(&self) -> Result<(), String> {
        for t in &self.tables {
            for (col, index) in &t.indexes {
                let expected = build_index(&t.rows, *col);
                if *index != expected {
                    let entries = |index: &Index| index.values().map(Vec::len).sum::<usize>();
                    return Err(format!(
                        "index {}.{} holds {} entries, the rows give {}",
                        t.def.name,
                        t.def.columns[*col],
                        entries(index),
                        entries(&expected)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Loads rows out of band: no transaction, no locks, no undo records,
    /// not counted in [`DbStats`] — how a dataset is installed before the
    /// database goes into service. The rows are durable at once.
    ///
    /// Stops at the first row [`Database::insert`] would reject, given the
    /// table and the rows of the batch before it; those rows stay loaded.
    ///
    /// The batch is installed as a whole, not row by row: checked in one
    /// pass, sorted by primary key, handed to the row store as one
    /// ascending run, and the table's indexes rebuilt from the rows it then
    /// holds — an index is a function of the rows, so it is equal to the
    /// one row-at-a-time maintenance would have left.
    pub fn load(
        &mut self,
        table: impl TableRef,
        rows: impl IntoIterator<Item = impl Into<Row>>,
    ) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let t = &mut self.tables[ti];
        let rows = rows.into_iter();
        // The admissible prefix, each row with its position in the batch.
        let mut batch: Vec<(i64, usize, Row)> = Vec::with_capacity(rows.size_hint().0);
        let mut rejected = Ok(());
        for (at, row) in rows.enumerate() {
            let row = row.into();
            match t.admit(&row) {
                Ok(pk) => batch.push((pk, at, row)),
                Err(e) => {
                    rejected = Err(e);
                    break;
                }
            }
        }
        // A key the batch repeats: the row-at-a-time load would have
        // stopped at the earliest row that is not the first of its key.
        batch.sort_unstable_by_key(|&(pk, at, _)| (pk, at));
        let repeats = batch.windows(2).filter(|w| w[0].0 == w[1].0);
        if let Some(&(pk, cut, _)) = repeats.map(|w| &w[1]).min_by_key(|r| r.1) {
            batch.retain(|r| r.1 < cut);
            rejected = Err(DbError::DuplicateKey {
                table: t.def.name.to_string(),
                pk,
            });
        }
        if !batch.is_empty() {
            let sorted = batch.into_iter().map(|(pk, _, row)| (pk, row));
            t.rows.merge(sorted.collect());
            for (col, index) in &mut t.indexes {
                *index = build_index(&t.rows, *col);
            }
        }
        rejected
    }

    /// Returns the largest primary key in `table`, or `None` when empty.
    pub fn max_pk(&self, table: impl TableRef) -> Result<Option<i64>, DbError> {
        Ok(self.table(table)?.rows.0.last().map(|last| last.0))
    }

    // ---- crash model -------------------------------------------------

    /// Crashes and immediately recovers the database.
    ///
    /// All active transactions roll back; committed data survives. Returns
    /// the modeled recovery duration, proportional to the committed row
    /// count (the paper notes MySQL "recovers fast" for its datasets).
    pub fn crash(&mut self) -> SimDuration {
        self.rollback_all();
        // Every open connection is severed by the crash.
        let conns: Vec<u64> = self.conns.keys().copied().collect();
        for c in conns {
            let _ = self.close_conn(ConnId(c));
        }
        self.stats.crashes += 1;
        self.recovery_cost()
    }

    /// Returns the modeled redo-scan recovery time for the current dataset.
    pub(crate) fn recovery_cost(&self) -> SimDuration {
        // Base mount cost plus ~1 µs per committed row of log scanning.
        SimDuration::from_millis(250) + SimDuration::from_micros(self.row_count() as u64)
    }

    // ---- corruption and repair (fault-injection surface) --------------

    /// Corrupts a cell out-of-band, bypassing transactions and locks.
    ///
    /// The pre-corruption row image is retained so a later
    /// [`Database::repair`] (the Table 2 "table repair" manual action) can
    /// restore it. Corrupting the same row twice keeps the oldest image.
    pub fn corrupt_cell(
        &mut self,
        table: impl TableRef,
        pk: i64,
        column: usize,
        value: Value,
    ) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let t = &mut self.tables[ti];
        t.check_column(column)?;
        let row = t.patched(pk, &[(column, value)])?;
        let old = t.replace(pk, Some(row)).expect("row read above");
        t.tainted.entry(pk).or_insert(old);
        Ok(())
    }

    /// Swaps two rows' non-key columns out-of-band (the paper's "wrong but
    /// valid value" corruption, e.g. swapping IDs between two users).
    pub fn corrupt_swap_rows(
        &mut self,
        table: impl TableRef,
        a: i64,
        b: i64,
    ) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let t = &mut self.tables[ti];
        let old_a = t.rows.get(a).cloned().ok_or_else(|| t.no_such_row(a))?;
        let old_b = t.rows.get(b).cloned().ok_or_else(|| t.no_such_row(b))?;
        let key_with = |key: &Row, rest: &Row| -> Row {
            key.iter().take(1).chain(&rest[1..]).cloned().collect()
        };
        t.replace(a, Some(key_with(&old_a, &old_b)));
        t.replace(b, Some(key_with(&old_b, &old_a)));
        t.tainted.entry(a).or_insert(old_a);
        t.tainted.entry(b).or_insert(old_b);
        Ok(())
    }

    /// Marks a row as diverged from the known-good instance without
    /// changing it, retaining its current image for [`Database::repair`].
    ///
    /// This is oracle bookkeeping for the comparison detector: when a
    /// fault makes the application overwrite the *wrong* row (e.g., a
    /// corrupted key generator handing out existing ids), the write is
    /// mechanically normal but the database now differs from a fault-free
    /// twin's — exactly the state Table 2 marks as needing manual repair.
    /// Call this *before* the wrong write so repair restores the pre-write
    /// image.
    pub fn taint_row(&mut self, table: impl TableRef, pk: i64) -> Result<(), DbError> {
        let ti = table.resolve(self)?;
        let t = &mut self.tables[ti];
        let image = t.rows.get(pk).cloned().ok_or_else(|| t.no_such_row(pk))?;
        t.tainted.entry(pk).or_insert(image);
        Ok(())
    }

    /// Returns true if the row is marked corrupted by injection.
    ///
    /// The comparison-based failure detector uses this as its oracle: a
    /// response computed from a tainted row differs from the known-good
    /// instance's response.
    pub fn is_tainted(&self, table: impl TableRef, pk: i64) -> bool {
        self.table(table)
            .map(|t| t.tainted.contains_key(&pk))
            .unwrap_or(false)
    }

    /// Returns the number of corrupted rows across all tables.
    pub fn tainted_rows(&self) -> usize {
        self.tables.iter().map(|t| t.tainted.len()).sum()
    }

    /// Returns true if no injected corruption is outstanding.
    pub fn is_consistent(&self) -> bool {
        self.tainted_rows() == 0
    }

    /// Restores all corrupted rows from their pre-corruption images.
    ///
    /// Models the manual "table repair" of Table 2. Returns the number of
    /// rows repaired.
    pub fn repair(&mut self) -> usize {
        let mut repaired = 0;
        for t in &mut self.tables {
            for (pk, old) in std::mem::take(&mut t.tainted) {
                t.replace(pk, Some(old));
                repaired += 1;
            }
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_schema() -> Vec<TableDef> {
        vec![TableDef {
            name: "users",
            columns: &["id", "name", "rating"],
        }]
    }

    fn db_with_alice() -> (Database, ConnId) {
        let mut db = Database::new(users_schema());
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "users",
            vec![Value::Int(1), Value::from("alice"), Value::Int(10)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        (db, conn)
    }

    #[test]
    fn insert_commit_read() {
        let (db, _) = db_with_alice();
        let row = db.read_committed("users", 1).unwrap().unwrap();
        assert_eq!(row[1], Value::from("alice"));
        assert_eq!(db.stats().commits, 1);
    }

    #[test]
    fn rollback_undoes_insert() {
        let mut db = Database::new(users_schema());
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "users",
            vec![Value::Int(1), Value::from("a"), Value::Int(0)],
        )
        .unwrap();
        db.rollback(txn).unwrap();
        assert!(db.read_committed("users", 1).unwrap().is_none());
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn rollback_undoes_update_and_delete_in_order() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 1, &[(2, Value::Int(99))]).unwrap();
        db.delete(txn, "users", 1).unwrap();
        assert!(db.read(txn, "users", 1).unwrap().is_none());
        db.rollback(txn).unwrap();
        let row = db.read_committed("users", 1).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(10), "original rating restored");
    }

    #[test]
    fn txn_sees_own_writes() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 1, &[(2, Value::Int(42))]).unwrap();
        let row = db.read(txn, "users", 1).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(42));
        db.commit(txn).unwrap();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[2],
            Value::Int(42)
        );
    }

    #[test]
    fn lock_conflict_between_txns() {
        let (mut db, conn) = db_with_alice();
        let t1 = db.begin(conn).unwrap();
        let t2 = db.begin(conn).unwrap();
        db.update(t1, "users", 1, &[(2, Value::Int(1))]).unwrap();
        let err = db
            .update(t2, "users", 1, &[(2, Value::Int(2))])
            .unwrap_err();
        assert!(matches!(err, DbError::LockConflict { .. }));
        db.commit(t1).unwrap();
        // Lock released; t2 can now proceed.
        db.update(t2, "users", 1, &[(2, Value::Int(2))]).unwrap();
        db.commit(t2).unwrap();
    }

    #[test]
    fn duplicate_key_rejected() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        let err = db
            .insert(
                txn,
                "users",
                vec![Value::Int(1), Value::from("bob"), Value::Int(0)],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
    }

    #[test]
    fn arity_and_null_key_rejected() {
        let mut db = Database::new(users_schema());
        let conn = db.open_conn();
        let txn = db.begin(conn).unwrap();
        assert!(matches!(
            db.insert(txn, "users", vec![Value::Int(1)]).unwrap_err(),
            DbError::ArityMismatch { .. }
        ));
        assert!(matches!(
            db.insert(
                txn,
                "users",
                vec![Value::Null, Value::from("x"), Value::Int(0)]
            )
            .unwrap_err(),
            DbError::NullKey { .. }
        ));
    }

    #[test]
    fn finished_txn_is_unusable() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.read(txn, "users", 1).unwrap_err(), DbError::NoSuchTxn);
        assert_eq!(db.commit(txn).unwrap_err(), DbError::NoSuchTxn);
    }

    #[test]
    fn crash_rolls_back_active_txns_and_keeps_committed() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 1, &[(1, Value::from("mallory"))])
            .unwrap();
        let recovery = db.crash();
        assert!(recovery > SimDuration::ZERO);
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1],
            Value::from("alice"),
            "uncommitted update rolled back by crash"
        );
        assert_eq!(db.active_txns(), 0);
        assert!(!db.conn_open(conn), "crash severs connections");
        assert_eq!(db.stats().crashes, 1);
    }

    #[test]
    fn close_conn_aborts_its_txns_and_releases_locks() {
        let (mut db, conn) = db_with_alice();
        let orphan_conn = db.open_conn();
        let t1 = db.begin(orphan_conn).unwrap();
        db.update(t1, "users", 1, &[(2, Value::Int(0))]).unwrap();
        // Another connection cannot take the lock while t1 holds it.
        let t2 = db.begin(conn).unwrap();
        assert!(db.update(t2, "users", 1, &[(2, Value::Int(5))]).is_err());
        let aborted = db.close_conn(orphan_conn).unwrap();
        assert_eq!(aborted, 1);
        // Lock is free now.
        db.update(t2, "users", 1, &[(2, Value::Int(5))]).unwrap();
        db.commit(t2).unwrap();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[2],
            Value::Int(5)
        );
    }

    #[test]
    fn corruption_taints_and_repair_restores() {
        let (mut db, _) = db_with_alice();
        assert!(db.is_consistent());
        db.corrupt_cell("users", 1, 1, Value::Null).unwrap();
        assert!(db.is_tainted("users", 1));
        assert!(!db.is_consistent());
        assert!(db.read_committed("users", 1).unwrap().unwrap()[1].is_null());
        let repaired = db.repair();
        assert_eq!(repaired, 1);
        assert!(db.is_consistent());
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1],
            Value::from("alice")
        );
    }

    #[test]
    fn double_corruption_keeps_oldest_image() {
        let (mut db, _) = db_with_alice();
        db.corrupt_cell("users", 1, 2, Value::Int(-1)).unwrap();
        db.corrupt_cell("users", 1, 2, Value::Int(-2)).unwrap();
        db.repair();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[2],
            Value::Int(10)
        );
    }

    #[test]
    fn swap_rows_corruption() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        db.insert(
            txn,
            "users",
            vec![Value::Int(2), Value::from("bob"), Value::Int(20)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        db.corrupt_swap_rows("users", 1, 2).unwrap();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1],
            Value::from("bob")
        );
        assert!(db.is_tainted("users", 1));
        assert!(db.is_tainted("users", 2));
        db.repair();
        assert_eq!(
            db.read_committed("users", 1).unwrap().unwrap()[1],
            Value::from("alice")
        );
    }

    #[test]
    fn scan_filters_and_limits() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        for i in 2..=10 {
            db.insert(
                txn,
                "users",
                vec![Value::Int(i), Value::from(format!("u{i}")), Value::Int(i)],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        let rows = db
            .scan("users", |r| r[2].as_int().unwrap_or(0) >= 5, 3)
            .unwrap();
        // Alice (pk 1, rating 10) matches too; scan is in pk order.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[1][0], Value::Int(5));
        assert_eq!(db.max_pk("users").unwrap(), Some(10));
    }

    #[test]
    fn scan_eq_answers_from_an_index_or_without_one() {
        let (mut db, conn) = db_with_alice();
        db.load(
            "users",
            (2..=9).map(|i| vec![Value::Int(i), Value::from("u"), Value::Int(i % 3)]),
        )
        .unwrap();
        let collect = |db: &mut Database| {
            let mut pks = Vec::new();
            let hits = db
                .scan_eq("users", 2, 1, 2, |r: &Row| pks.push(r[0].as_int().unwrap()))
                .unwrap();
            (pks, hits)
        };
        let unindexed = collect(&mut db);
        assert_eq!(unindexed.0, [4, 7], "pk order, cut at the limit");
        db.create_index("users", 2).unwrap();
        db.create_index("users", 2).unwrap();
        assert_eq!(collect(&mut db), unindexed);
        assert_eq!(db.stats().reads, 2 * (2 + 1), "matches + 1 per query");

        // An uncommitted in-place write is visible, as it is to `scan`;
        // a cell that is no integer matches no integer.
        let txn = db.begin(conn).unwrap();
        db.update(txn, "users", 2, &[(2, Value::Int(1))]).unwrap();
        db.update(txn, "users", 4, &[(2, Value::Null)]).unwrap();
        assert_eq!(collect(&mut db).0, [2, 7]);
        db.rollback(txn).unwrap();
        assert_eq!(collect(&mut db).0, [4, 7]);

        db.taint_row("users", 7).unwrap();
        assert!(collect(&mut db).1.tainted);
        assert!(!db.scan_eq("users", 2, 0, 9, ()).unwrap().tainted);
        assert_eq!(db.scan_all("users", 4, ()).unwrap().rows, 4);
        db.check_indexes().unwrap();
        assert!(matches!(
            db.scan_eq("users", 3, 0, 1, ()).unwrap_err(),
            DbError::NoSuchColumn { column: 3, .. }
        ));
        assert!(matches!(
            db.create_index("users", 3).unwrap_err(),
            DbError::NoSuchColumn { .. }
        ));
    }

    #[test]
    fn rows_stay_in_key_order_wherever_they_are_written() {
        let (mut db, conn) = db_with_alice(); // key 1
        let row = |pk: i64| vec![Value::Int(pk), Value::from("u"), Value::Int(pk)];
        let keys = |db: &mut Database| {
            let rows = db.scan("users", |_| true, usize::MAX).unwrap();
            rows.iter()
                .map(|r| r[0].as_int().unwrap())
                .collect::<Vec<_>>()
        };
        let txn = db.begin(conn).unwrap();
        // Above the last key, below the first, between two; an interleaving batch.
        for pk in [10, 20, -5, 15] {
            db.insert(txn, "users", row(pk)).unwrap();
        }
        db.load("users", [12, 30, -9].map(row)).unwrap();
        assert_eq!(keys(&mut db), [-9, -5, 1, 10, 12, 15, 20, 30]);
        // Absent: in a gap, in the place of another key, beyond both ends.
        for pk in [11, -7, -10, 31, i64::MIN, i64::MAX] {
            assert_eq!(db.read(txn, "users", pk), Ok(None), "{pk}");
        }
        // The first, a middle and the last row deleted, then put back.
        for pk in [-9, 12, 30] {
            db.delete(txn, "users", pk).unwrap();
        }
        assert_eq!(keys(&mut db), [-5, 1, 10, 15, 20]);
        assert_eq!(db.max_pk("users"), Ok(Some(20)));
        for pk in [12, 30, -9] {
            db.insert(txn, "users", row(pk)).unwrap();
            let read = db.read(txn, "users", pk).unwrap().unwrap();
            assert_eq!(read[2], Value::Int(pk));
        }
        assert_eq!(keys(&mut db), [-9, -5, 1, 10, 12, 15, 20, 30]);
    }

    #[test]
    fn load_is_out_of_band_and_checks_rows() {
        let (mut db, _) = db_with_alice();
        let before = db.stats();
        let err = db
            .load(
                "users",
                vec![
                    vec![Value::Int(2), Value::from("bob"), Value::Int(0)],
                    vec![Value::Int(1), Value::from("dup"), Value::Int(0)],
                    vec![Value::Int(3), Value::from("late"), Value::Int(0)],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { pk: 1, .. }));
        assert!(db.contains("users", 2), "rows before the bad one stay");
        assert!(!db.contains("users", 3));
        assert!(!db.contains("ghosts", 1));
        assert_eq!(db.stats(), before, "no transaction, nothing counted");
        assert!(matches!(
            db.load("users", vec![vec![Value::Int(5)]]).unwrap_err(),
            DbError::ArityMismatch { .. }
        ));
        db.crash();
        assert!(db.contains("users", 2), "loaded rows are durable");
    }

    #[test]
    fn read_with_taint_reports_both_in_one_call() {
        let (mut db, conn) = db_with_alice();
        db.corrupt_cell("users", 1, 2, Value::Int(-1)).unwrap();
        let (row, tainted) = db.read_with_taint(None, "users", 1).unwrap();
        assert_eq!(row.unwrap()[2], Value::Int(-1));
        assert!(tainted);
        assert_eq!(db.stats().reads, 0, "committed reads are not counted");
        let txn = db.begin(conn).unwrap();
        assert_eq!(
            db.read_with_taint(Some(txn), "users", 2).unwrap(),
            (None, false)
        );
        assert_eq!(db.stats().reads, 1);
        db.commit(txn).unwrap();
        assert_eq!(
            db.read_with_taint(Some(txn), "users", 1).unwrap_err(),
            DbError::NoSuchTxn
        );
    }

    #[test]
    fn unknown_table_and_row_errors() {
        let (mut db, conn) = db_with_alice();
        let txn = db.begin(conn).unwrap();
        assert!(matches!(
            db.read(txn, "ghosts", 1).unwrap_err(),
            DbError::NoSuchTable(_)
        ));
        assert!(matches!(
            db.update(txn, "users", 99, &[(1, Value::Null)])
                .unwrap_err(),
            DbError::NoSuchRow { .. }
        ));
        assert!(matches!(
            db.delete(txn, "users", 99).unwrap_err(),
            DbError::NoSuchRow { .. }
        ));
        assert!(matches!(
            db.update(txn, "users", 1, &[(0, Value::Int(9))])
                .unwrap_err(),
            DbError::NoSuchColumn { .. },
        ));
    }

    #[test]
    fn recovery_cost_grows_with_rows() {
        let (mut db, conn) = db_with_alice();
        let small = db.recovery_cost();
        let txn = db.begin(conn).unwrap();
        for i in 2..2_000 {
            db.insert(
                txn,
                "users",
                vec![Value::Int(i), Value::from("u"), Value::Int(0)],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        assert!(db.recovery_cost() > small);
    }
}
