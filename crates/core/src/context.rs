//! The per-request call context — the application's capability handle.
//!
//! A single thread shepherds a user request through the web tier and
//! multiple components (Section 3.1). [`CallContext`] is that thread's
//! view of the platform: it mediates component invocation (naming lookup,
//! container checks, interceptors, instance pools, transaction metadata),
//! database access (transaction-scoped, with rollback on failure or kill)
//! and session-store access — while transparently accounting CPU cost,
//! wire latency, the components touched (for microreboot kill sets and
//! recovery-manager diagnosis) and the corruption taint that only the
//! comparison detector can see.

use components::container::{InstanceOutcome, TxnAttr};
use components::descriptor::{ComponentId, ComponentKind};
use components::registry::Resolved;
use simcore::{SimDuration, SimTime};
use statestore::db::{Row, ScanHits};
use statestore::session::{SessionId, SessionObject, StoreError};
use statestore::{DbError, TableId, TxnId, Value};

use crate::app::CallError;
use crate::calib;
use crate::request::BodyMarkers;
use crate::server::ServerInner;

/// How a hung call holds its resources.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HangKind {
    /// Deadlock: the thread parks, the CPU is released.
    Park,
    /// Infinite loop: the thread burns its CPU until killed.
    Hog,
}

/// The components a request entered: one bit per dense [`ComponentId`],
/// which is why a deployment holds at most [`ComponentSet::CAPACITY`]
/// components (`AppServer::new` refuses more).
#[derive(Clone, Copy, Default)]
pub(crate) struct ComponentSet(u64);

impl ComponentSet {
    pub(crate) const CAPACITY: usize = u64::BITS as usize;

    pub(crate) fn insert(&mut self, id: ComponentId) {
        self.0 |= 1 << id.0;
    }

    pub(crate) fn contains(self, id: ComponentId) -> bool {
        self.0 >> id.0 & 1 == 1
    }
}

/// The capability handle a request handler runs against.
pub struct CallContext<'a> {
    pub(crate) inner: &'a mut ServerInner,
    now: SimTime,
    arg: i64,
    /// The client's session, if its cookie resolved.
    pub(crate) session: Option<SessionId>,
    /// A new cookie to hand back (login).
    pub(crate) set_cookie: Option<SessionId>,
    /// Whether to clear the client's cookie (logout).
    pub(crate) clear_cookie: bool,
    /// CPU consumed so far (holds a worker).
    pub(crate) cpu: SimDuration,
    /// Non-CPU wire latency accumulated (e.g., SSM round trips).
    pub(crate) latency: SimDuration,
    /// Whether injected corruption influenced this request.
    pub(crate) tainted: bool,
    /// Body anomalies to render.
    pub(crate) markers: BodyMarkers,
    /// The component blamed for a failure, for diagnosis.
    pub(crate) failed_component: Option<&'static str>,
    /// The open request transaction, if any.
    pub(crate) txn: Option<TxnId>,
    /// Components entered by this request.
    pub(crate) touched: ComponentSet,
    /// Set when the request hung inside a component.
    pub(crate) hang: Option<(ComponentId, HangKind)>,
    /// Sticky flag: a (corrupt) transaction method map told us to run
    /// without a transaction, so writes autocommit and cannot roll back.
    pub(crate) autocommit: bool,
    /// Per-request cache of the session object: the container loads the
    /// HttpSession once per request and persists it at request end.
    session_cache: Option<Option<SessionObject>>,
    /// Whether this request touched its session (drives the write-back
    /// charge at request end).
    session_accessed: bool,
    /// Rows written outside the request transaction (autocommit under a
    /// corrupt transaction method map): they cannot be rolled back and
    /// become divergence if the request later fails.
    pub(crate) autocommitted: Vec<(TableId, i64)>,
    /// Taint that propagates into writes: the request's *inputs* (session
    /// state, instance attributes, generated keys) were corrupted, so
    /// values it computes — and stores — differ from the fault-free twin's.
    /// Deliberately NOT set by reading already-tainted database rows:
    /// those reads produce tainted *responses*, but treating their writes
    /// as fresh divergence would make taint viral and residual damage
    /// unbounded.
    taint_propagates: bool,
}

impl<'a> CallContext<'a> {
    pub(crate) fn new(
        inner: &'a mut ServerInner,
        now: SimTime,
        session: Option<SessionId>,
        arg: i64,
    ) -> Self {
        CallContext {
            inner,
            now,
            arg,
            session,
            set_cookie: None,
            clear_cookie: false,
            cpu: SimDuration::ZERO,
            latency: SimDuration::ZERO,
            tainted: false,
            markers: BodyMarkers::default(),
            failed_component: None,
            txn: None,
            touched: ComponentSet::default(),
            hang: None,
            autocommit: false,
            session_cache: None,
            session_accessed: false,
            autocommitted: Vec::new(),
            taint_propagates: false,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The request's operation argument (item id, category id, ...).
    pub fn arg(&self) -> i64 {
        self.arg
    }

    /// Charges application CPU time to the request.
    pub fn charge(&mut self, cpu: SimDuration) {
        self.cpu += cpu;
    }

    /// Marks the response as influenced by corruption (oracle only).
    pub fn taint(&mut self) {
        self.tainted = true;
    }

    /// Declares that the handler extracted a corrupted-but-plausible value
    /// it will compute with: the request's *writes* now diverge from the
    /// fault-free twin's (oracle bookkeeping — merely *reading* a tainted
    /// object taints the response, but only used-in-anger wrong values
    /// turn into persistent state divergence).
    pub fn mark_divergent_inputs(&mut self) {
        self.tainted = true;
        self.taint_propagates = true;
    }

    /// Renders a "please log in" page (flagged as a failure when the
    /// client believes it is already logged in).
    pub fn mark_login_prompt(&mut self) {
        self.markers.login_prompt = true;
    }

    /// Renders visibly invalid data (e.g., a negative item id).
    pub fn mark_invalid_data(&mut self) {
        self.markers.invalid_data = true;
    }

    /// The name `target` was deployed under; only failure paths ask.
    fn name_of(&self, target: ComponentId) -> Option<&'static str> {
        let container = self.inner.containers.get(target.0)?;
        Some(container.descriptor.name)
    }

    fn exception(&mut self, component: Option<ComponentId>) -> CallError {
        self.markers.exception_text = true;
        if self.failed_component.is_none() {
            self.failed_component = component.and_then(|c| self.name_of(c));
        }
        CallError::Exception
    }

    // ---- component invocation ------------------------------------------

    /// Invokes business method `method` on the component deployed under
    /// the handle `target`, running `f` as its body.
    ///
    /// This is the interceptor chain: naming lookup, sentinel check,
    /// container state check, fault semantics, instance-pool service,
    /// transaction-attribute lookup and in-flight accounting all happen
    /// here, before and after `f`. The handle is resolved on *every* call:
    /// a sentinel is bound between two calls of one request (Section 6.2).
    pub fn call<T>(
        &mut self,
        target: ComponentId,
        method: &'static str,
        f: impl FnOnce(&mut CallContext<'a>) -> Result<T, CallError>,
    ) -> Result<T, CallError> {
        self.cpu += calib::CALL_OVERHEAD;
        let id = match self.inner.registry.resolve(target) {
            Err(_) => return Err(self.exception(Some(target))),
            Ok(Resolved::RetryAfter(d)) => return Err(CallError::Retry(d)),
            // The lookup silently resolved to the wrong component; the
            // invocation then hits a foreign interface — the
            // ClassCastException analogue (lookup-time checks cannot catch
            // this, only the call itself fails).
            Ok(Resolved::WrongComponent(_)) => return Err(self.exception(Some(target))),
            Ok(Resolved::Component(id)) => id,
        };
        // Intermittent faults self-heal on a deadline and fail calls
        // probabilistically. The chance is drawn before the container
        // borrow below (the rng lives next to the containers in
        // `ServerInner`), and only when the fault is armed, so fault-free
        // runs consume no randomness.
        let intermittent_fails = {
            let now_us = self.now.as_micros();
            let f = &mut self.inner.containers[id.0].vol.faults;
            if f.intermittent_permille > 0 && now_us >= f.intermittent_heals_at_us {
                f.intermittent_permille = 0;
                f.intermittent_heals_at_us = 0;
            }
            let permille = f.intermittent_permille;
            permille > 0 && self.inner.rng.chance(f64::from(permille) / 1000.0)
        };
        {
            let c = &mut self.inner.containers[id.0];
            if !c.is_active() {
                return Err(CallError::Retry(calib::RETRY_AFTER));
            }
            if c.vol.faults.transient_exceptions > 0 {
                c.vol.faults.transient_exceptions -= 1;
                return Err(self.exception(Some(target)));
            }
            if intermittent_fails {
                return Err(self.exception(Some(target)));
            }
            if c.vol.faults.deadlocked {
                c.call_enter();
                self.hang = Some((id, HangKind::Park));
                self.touched.insert(id);
                self.failed_component = self.name_of(target);
                return Err(CallError::Hang);
            }
            if c.vol.faults.infinite_loop {
                c.call_enter();
                self.hang = Some((id, HangKind::Hog));
                self.touched.insert(id);
                self.failed_component = self.name_of(target);
                return Err(CallError::Hang);
            }
            if c.vol.faults.leak_per_call > 0 {
                let n = c.vol.faults.leak_per_call;
                c.leak(n);
            }
            if c.descriptor.kind == ComponentKind::StatelessSessionBean {
                match c.vol.pool.serve() {
                    InstanceOutcome::Clean => {}
                    InstanceOutcome::FailedAndDiscarded(_) => {
                        return Err(self.exception(Some(target)));
                    }
                    InstanceOutcome::ServedWrong => {
                        self.tainted = true;
                        self.taint_propagates = true;
                    }
                }
            }
            let is_entity_store =
                c.descriptor.kind == ComponentKind::EntityBean && method == "store";
            match c.vol.txn_map.attr_for(method) {
                Err(_) => return Err(self.exception(Some(target))),
                Ok(TxnAttr::Required) => {}
                // Container-managed persistence requires a transaction
                // context for entity writes: a (corruptly) flipped
                // attribute raises the TransactionRequiredException
                // analogue. Elsewhere it silently strips transactionality
                // from subsequent writes.
                Ok(TxnAttr::NotSupported) if is_entity_store => {
                    return Err(self.exception(Some(target)));
                }
                Ok(TxnAttr::NotSupported) => self.autocommit = true,
            }
            c.call_enter();
        }
        self.touched.insert(id);
        let result = f(self);
        match &result {
            Err(CallError::Hang) => {
                // The thread never leaves the hung callee; leave the
                // in-flight count raised until a microreboot clears it.
            }
            _ => self.inner.containers[id.0].call_exit(),
        }
        if result.is_err() && self.failed_component.is_none() {
            self.failed_component = self.name_of(target);
        }
        result
    }

    // ---- database access -------------------------------------------------

    fn ensure_txn(&mut self) -> Result<TxnId, CallError> {
        if let Some(t) = self.txn {
            return Ok(t);
        }
        let conn = self.inner.db_conn();
        let t = {
            let mut db = self.inner.db.borrow_mut();
            db.begin(conn)
        };
        match t {
            Ok(t) => {
                self.txn = Some(t);
                Ok(t)
            }
            Err(_) => Err(self.exception(None)),
        }
    }

    /// Reads a row; `None` if absent.
    pub fn db_read(&mut self, table: TableId, pk: i64) -> Result<Option<Row>, CallError> {
        self.cpu += calib::DB_READ_COST;
        let read = self
            .inner
            .db
            .borrow_mut()
            .read_with_taint(self.txn, table, pk);
        match read {
            Ok((row, tainted)) => {
                self.tainted |= tainted;
                Ok(row)
            }
            Err(_) => Err(self.exception(None)),
        }
    }

    /// Queries the rows of `table` whose `column` holds the integer
    /// `value`, first `limit` in primary-key order (read-only), marking
    /// taint if any matched row is corrupted.
    pub fn db_scan_eq(
        &mut self,
        table: TableId,
        column: usize,
        value: i64,
        limit: usize,
    ) -> Result<ScanHits, CallError> {
        let hits = self
            .inner
            .db
            .borrow_mut()
            .scan_eq(table, column, value, limit, ());
        self.scanned(hits)
    }

    /// Queries the first `limit` rows of `table` in primary-key order
    /// (read-only), marking taint if any of them is corrupted.
    pub fn db_scan_all(&mut self, table: TableId, limit: usize) -> Result<ScanHits, CallError> {
        let hits = self.inner.db.borrow_mut().scan_all(table, limit, ());
        self.scanned(hits)
    }

    fn scanned(&mut self, hits: Result<ScanHits, DbError>) -> Result<ScanHits, CallError> {
        self.cpu += calib::DB_SCAN_COST;
        match hits {
            Ok(hits) => {
                self.tainted |= hits.tainted;
                Ok(hits)
            }
            Err(_) => Err(self.exception(None)),
        }
    }

    /// Returns the largest primary key in `table`.
    pub fn db_max_pk(&mut self, table: TableId) -> Result<Option<i64>, CallError> {
        self.cpu += calib::DB_READ_COST;
        let r = self.inner.db.borrow().max_pk(table);
        r.map_err(|_| self.exception(None))
    }

    fn db_write<F>(&mut self, op: F) -> Result<(), CallError>
    where
        F: FnOnce(&mut statestore::Database, TxnId) -> Result<(), statestore::DbError>,
    {
        self.cpu += calib::DB_WRITE_COST;
        if self.autocommit {
            // A (corrupt) NotSupported attribute: run the write in its own
            // immediately-committed transaction. A later abort cannot undo
            // it — this is how wrong txn-map corruption leaves the database
            // needing manual repair.
            let conn = self.inner.db_conn();
            let mut db = self.inner.db.borrow_mut();
            let t = match db.begin(conn) {
                Ok(t) => t,
                Err(_) => {
                    drop(db);
                    return Err(self.exception(None));
                }
            };
            let r = op(&mut db, t);
            let outcome = match r {
                Ok(()) => db.commit(t).map_err(|_| ()),
                Err(_) => {
                    let _ = db.rollback(t);
                    Err(())
                }
            };
            drop(db);
            outcome.map_err(|_| self.exception(None))
        } else {
            let t = self.ensure_txn()?;
            let r = {
                let mut db = self.inner.db.borrow_mut();
                op(&mut db, t)
            };
            r.map_err(|_| self.exception(None))
        }
    }

    fn note_autocommit(&mut self, table: TableId, pk: i64) {
        if self.autocommit && !self.autocommitted.contains(&(table, pk)) {
            self.autocommitted.push((table, pk));
        }
        // Taint propagation (comparison-detector oracle): a request whose
        // inputs were corrupted computes different values than the
        // fault-free twin, so everything it writes diverges too —
        // wrong-but-valid corruption turns into persistent database
        // damage exactly as Table 2's ≈ rows describe.
        if self.taint_propagates {
            let _ = self.inner.db.borrow_mut().taint_row(table, pk);
        }
    }

    /// Inserts a row inside the request transaction.
    pub(crate) fn db_insert(
        &mut self,
        table: TableId,
        row: impl Into<Row>,
    ) -> Result<(), CallError> {
        let row = row.into();
        let pk = row[0].as_int().unwrap_or(0);
        let r = self.db_write(|db, t| db.insert(t, table, row));
        if r.is_ok() {
            self.note_autocommit(table, pk);
        }
        r
    }

    /// Updates row cells inside the request transaction.
    pub fn db_update(
        &mut self,
        table: TableId,
        pk: i64,
        updates: &[(usize, Value)],
    ) -> Result<(), CallError> {
        let r = self.db_write(|db, t| db.update(t, table, pk, updates));
        if r.is_ok() {
            self.note_autocommit(table, pk);
        }
        r
    }

    /// Inserts a row or — if the key already exists — overwrites the
    /// existing row's non-key columns.
    ///
    /// Returns true when it overwrote. The overwrite path records the
    /// clobbered row as diverged from the known-good instance (the
    /// comparison-detector oracle) and taints this response: this is how a
    /// *wrong* primary-key generator turns into silent database damage
    /// needing manual repair (Table 2's ≈ rows).
    pub fn db_insert_or_overwrite(
        &mut self,
        table: TableId,
        row: impl Into<Row>,
    ) -> Result<bool, CallError> {
        let row = row.into();
        let pk = match row[0].as_int() {
            Some(pk) => pk,
            None => return Err(self.exception(None)),
        };
        if !self.inner.db.borrow().contains(table, pk) {
            self.db_insert(table, row)?;
            return Ok(false);
        }
        // Oracle bookkeeping before the wrong write.
        let _ = self.inner.db.borrow_mut().taint_row(table, pk);
        self.tainted = true;
        self.taint_propagates = true;
        let updates: Vec<(usize, Value)> = row.iter().cloned().enumerate().skip(1).collect();
        self.db_update(table, pk, &updates)?;
        Ok(true)
    }

    // ---- session access --------------------------------------------------

    fn charge_session_access(&mut self) {
        self.cpu += self.inner.session.access_cpu();
        self.latency += self.inner.session.access_latency();
    }

    /// Reads the client's session object.
    ///
    /// `Ok(None)` means "no usable session" — no cookie, expired, lost in a
    /// restart, or discarded by the store's integrity check. The handler
    /// typically renders a login prompt in that case.
    ///
    /// The container loads the HttpSession once per request: repeated reads
    /// hit a per-request cache and cost nothing extra. A request that
    /// touched its session pays one write-back at request end (the SSM
    /// checkpoint pattern), accounted by the server.
    pub fn session_read(&mut self) -> Result<Option<SessionObject>, CallError> {
        Ok(self.load_session()?.cloned())
    }

    /// Returns whether the client has a usable session — what
    /// `session_read()?.is_some()` answers, at the same charge, without
    /// copying the object.
    pub fn session_present(&mut self) -> Result<bool, CallError> {
        Ok(self.load_session()?.is_some())
    }

    /// Loads the session into the per-request cache on first touch.
    fn load_session(&mut self) -> Result<Option<&SessionObject>, CallError> {
        let Some(sid) = self.session else {
            return Ok(None);
        };
        if self.session_cache.is_none() {
            self.charge_session_access();
            self.session_accessed = true;
            let loaded = match self.inner.session.read(sid) {
                Ok(obj) => obj,
                Err(StoreError::CorruptDiscarded(_)) => None,
                Err(StoreError::Unavailable) => {
                    self.markers.store_error = true;
                    return Err(self.exception(None));
                }
            };
            self.session_cache = Some(loaded);
        }
        let obj = self.session_cache.as_ref().and_then(Option::as_ref);
        self.tainted |= obj.is_some_and(SessionObject::is_tainted);
        Ok(obj)
    }

    /// Writes the client's session object.
    ///
    /// Fails if the client has no session (use [`CallContext::new_session`]
    /// first). The store write happens immediately; its cost is part of
    /// the request-end write-back charge.
    pub fn session_write(&mut self, obj: SessionObject) -> Result<(), CallError> {
        let Some(sid) = self.session else {
            return Err(self.exception(None));
        };
        self.session_accessed = true;
        match self.inner.session.write(sid, obj.clone()) {
            Ok(()) => {
                // Only what the store accepted may be served back to later
                // reads of this request.
                self.session_cache = Some(Some(obj));
                Ok(())
            }
            Err(_) => {
                self.markers.store_error = true;
                Err(self.exception(None))
            }
        }
    }

    /// Charges the request-end session write-back, if the request touched
    /// its session. Called by the server after the handler returns.
    pub(crate) fn finalize_session(&mut self) {
        if self.session_accessed {
            self.charge_session_access();
        }
    }

    /// Creates a fresh session (login) and sets the response cookie.
    pub fn new_session(&mut self) -> SessionId {
        let sid = self.inner.alloc_session_id();
        self.session = Some(sid);
        self.set_cookie = Some(sid);
        sid
    }

    /// Destroys the client's session (logout) and clears its cookie.
    pub fn end_session(&mut self) -> Result<(), CallError> {
        if let Some(sid) = self.session.take() {
            self.charge_session_access();
            let _ = self.inner.session.remove(sid);
        }
        self.session_cache = Some(None);
        self.clear_cookie = true;
        Ok(())
    }
}
