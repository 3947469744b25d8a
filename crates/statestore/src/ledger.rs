//! End-to-end session-integrity ledger.
//!
//! The microreboot paper's crash-only argument hinges on one promise: no
//! committed work is lost across recovery, because session state lives in
//! a store that survives it. The ledger turns that promise into a checked
//! invariant. It watches both ends of the write path:
//!
//! * the **client side** records a *commit intent* whenever an end user
//!   sees a successful commit-point operation while holding a session
//!   cookie, and
//! * the **store side** records every *applied id* — a per-session
//!   monotone version the SSM bumps on each accepted write — plus every
//!   expiry, explicit removal, and duplicate-delivery discard.
//!
//! At the end of a run the netstate campaign checks three invariants
//! against the ledger:
//!
//! 1. **No committed write lost** — every session with a commit intent is
//!    still present in the store, or was removed by logout, or expired
//!    through the lease protocol (an *accounted* disappearance, never a
//!    silent one).
//! 2. **No write applied twice** — applied ids are strictly monotone; a
//!    duplicated wire delivery that re-mutated state would re-apply an id
//!    and is counted in [`IntegrityLedger::double_applied`].
//! 3. **No stale lease served** — a read that handed out an object past
//!    its lease expiry is counted in [`IntegrityLedger::stale_serves`].
//!
//! The ledger is pure observation: it never changes store behavior, and
//! runs without one attached behave identically.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Observes both ends of the session write path. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct IntegrityLedger {
    /// Commit intents per session (client side).
    intents: BTreeMap<u64, u64>,
    /// Highest applied id per session (store side).
    applied: BTreeMap<u64, u64>,
    /// Sessions the store expired through the lease protocol.
    expired: BTreeSet<u64>,
    /// Sessions explicitly removed (logout).
    removed: BTreeSet<u64>,
    /// Applied-id regressions: a write re-mutated state under an id the
    /// session had already passed. Must stay zero.
    double_applied: u64,
    /// Reads that served an object past its lease expiry. Must stay zero.
    stale_serves: u64,
    /// Duplicate wire deliveries the store's applied-id check discarded
    /// (the defense working as intended).
    dupes_discarded: u64,
}

impl IntegrityLedger {
    /// Creates an empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Client side: a commit-point operation succeeded end to end while
    /// the client held session `sid`. Ignored unless the store has applied
    /// at least one write for the session — with nothing ever stored,
    /// there is no write to lose.
    pub fn on_commit(&mut self, sid: u64) {
        if self.applied.contains_key(&sid) {
            *self.intents.entry(sid).or_insert(0) += 1;
        }
    }

    /// Store side: a write for `sid` was accepted under applied id
    /// `version`. Applied ids must be strictly monotone per session; a
    /// regression means a duplicated delivery mutated state twice.
    pub fn on_applied(&mut self, sid: u64, version: u64) {
        let last = self.applied.get(&sid).copied().unwrap_or(0);
        if version <= last {
            self.double_applied += 1;
        } else {
            self.applied.insert(sid, version);
        }
    }

    /// Store side: the lease protocol expired `sid` (natural lapse, gc, or
    /// a lease storm).
    pub fn on_expired(&mut self, sid: u64) {
        self.expired.insert(sid);
    }

    /// Store side: `sid` was explicitly removed (logout).
    pub fn on_removed(&mut self, sid: u64) {
        self.removed.insert(sid);
    }

    /// Store side: a read served an object past its lease expiry.
    pub fn on_stale_serve(&mut self, sid: u64) {
        let _ = sid;
        self.stale_serves += 1;
    }

    /// Store side: a duplicate wire delivery was detected and discarded.
    pub fn on_dupe_discarded(&mut self, sid: u64) {
        let _ = sid;
        self.dupes_discarded += 1;
    }

    /// Sessions that saw at least one committed intent.
    pub fn committed_sessions(&self) -> impl Iterator<Item = u64> + '_ {
        self.intents.keys().copied()
    }

    /// Whether the store accounted for `sid` disappearing: lease-expired
    /// or explicitly removed.
    pub fn accounted_gone(&self, sid: u64) -> bool {
        self.expired.contains(&sid) || self.removed.contains(&sid)
    }

    /// Applied-id regressions (must be zero).
    pub fn double_applied(&self) -> u64 {
        self.double_applied
    }

    /// Stale-lease serves (must be zero).
    pub fn stale_serves(&self) -> u64 {
        self.stale_serves
    }

    /// Duplicate deliveries discarded by the store.
    pub fn dupes_discarded(&self) -> u64 {
        self.dupes_discarded
    }

    /// Total commit intents recorded.
    pub fn total_intents(&self) -> u64 {
        self.intents.values().sum()
    }
}

/// Shared handle: the client pool and the SSM observe the same ledger.
pub type SharedLedger = Rc<RefCell<IntegrityLedger>>;

/// Creates a shareable ledger handle.
pub fn shared_ledger() -> SharedLedger {
    Rc::new(RefCell::new(IntegrityLedger::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_requires_an_applied_write() {
        let mut l = IntegrityLedger::new();
        l.on_commit(1);
        assert_eq!(l.total_intents(), 0, "nothing stored, nothing to lose");
        l.on_applied(1, 1);
        l.on_commit(1);
        assert_eq!(l.total_intents(), 1);
        assert_eq!(l.committed_sessions().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn applied_ids_must_be_monotone() {
        let mut l = IntegrityLedger::new();
        l.on_applied(1, 1);
        l.on_applied(1, 2);
        assert_eq!(l.double_applied(), 0);
        l.on_applied(1, 2); // replayed delivery mutated state again
        assert_eq!(l.double_applied(), 1);
        // Independent sessions do not interfere.
        l.on_applied(2, 1);
        assert_eq!(l.double_applied(), 1);
    }

    #[test]
    fn accounted_disappearances() {
        let mut l = IntegrityLedger::new();
        assert!(!l.accounted_gone(1));
        l.on_expired(1);
        l.on_removed(2);
        assert!(l.accounted_gone(1));
        assert!(l.accounted_gone(2));
        assert!(!l.accounted_gone(3));
    }

    #[test]
    fn defense_counters_accumulate() {
        let mut l = IntegrityLedger::new();
        l.on_dupe_discarded(5);
        l.on_dupe_discarded(5);
        l.on_stale_serve(6);
        assert_eq!(l.dupes_discarded(), 2);
        assert_eq!(l.stale_serves(), 1);
    }
}
