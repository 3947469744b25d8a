//! Lease-based resource bookkeeping.
//!
//! Section 2 prescribes leases for everything a frequently-microrebooting
//! system allocates: memory, file descriptors, persistent state, even CPU
//! time. A lease grants a resource until an expiry; holders renew it while
//! alive, and a periodic sweep reclaims anything whose holder stopped
//! renewing — typically because it was microrebooted away. SSM's
//! garbage collection of orphaned session state and the request
//! time-to-live mechanism are both built on this table.

use std::collections::BTreeMap;

use simcore::{SimDuration, SimTime};

/// Identifier of a granted lease.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LeaseId(u64);

#[derive(Clone, Debug)]
struct Lease<T> {
    payload: T,
    expires: SimTime,
}

/// A table of leases over payloads of type `T`.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime};
/// use statestore::lease::LeaseTable;
///
/// let mut leases: LeaseTable<&str> = LeaseTable::new(SimDuration::from_secs(30));
/// let id = leases.grant(SimTime::ZERO, "session-7");
/// assert_eq!(leases.payload(SimTime::from_secs(29), id), Some(&"session-7"));
/// let expired = leases.sweep(SimTime::from_secs(31));
/// assert_eq!(expired, vec!["session-7"]);
/// assert_eq!(leases.payload(SimTime::from_secs(31), id), None);
/// ```
#[derive(Clone, Debug)]
pub struct LeaseTable<T> {
    term: SimDuration,
    leases: BTreeMap<u64, Lease<T>>,
    next_id: u64,
}

impl<T> LeaseTable<T> {
    /// Creates a table whose leases last `term` from grant or renewal.
    pub fn new(term: SimDuration) -> Self {
        LeaseTable {
            term,
            leases: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Grants a lease on `payload` starting at `now`.
    pub fn grant(&mut self, now: SimTime, payload: T) -> LeaseId {
        let id = self.next_id;
        self.next_id += 1;
        self.leases.insert(
            id,
            Lease {
                payload,
                expires: now + self.term,
            },
        );
        LeaseId(id)
    }

    /// Releases a lease early, returning its payload.
    pub fn release(&mut self, id: LeaseId) -> Option<T> {
        self.leases.remove(&id.0).map(|l| l.payload)
    }

    /// Returns the payload of a live lease.
    pub fn payload(&self, now: SimTime, id: LeaseId) -> Option<&T> {
        self.leases
            .get(&id.0)
            .filter(|l| l.expires > now)
            .map(|l| &l.payload)
    }

    /// Removes every lease expired at `now`, returning their payloads.
    pub fn sweep(&mut self, now: SimTime) -> Vec<T> {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires <= now)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(expired.len());
        // The map is id-ordered, so the sweep is deterministic by design.
        for id in expired {
            if let Some(l) = self.leases.remove(&id) {
                out.push(l.payload);
            }
        }
        out
    }

    /// Returns the number of leases held (live or expired-but-unswept).
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Returns true if no leases are held.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LeaseTable<u32> {
        LeaseTable::new(SimDuration::from_secs(10))
    }

    #[test]
    fn grant_and_query() {
        let mut t = table();
        let id = t.grant(SimTime::ZERO, 5);
        assert_eq!(t.payload(SimTime::from_secs(9), id), Some(&5));
        assert_eq!(
            t.payload(SimTime::from_secs(10), id),
            None,
            "expiry is exclusive"
        );
    }

    #[test]
    fn sweep_collects_only_expired() {
        let mut t = table();
        let _a = t.grant(SimTime::ZERO, 1);
        let b = t.grant(SimTime::from_secs(5), 2);
        let expired = t.sweep(SimTime::from_secs(12));
        assert_eq!(expired, vec![1]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.payload(SimTime::from_secs(12), b), Some(&2));
    }

    #[test]
    fn release_returns_payload_once() {
        let mut t = table();
        let id = t.grant(SimTime::ZERO, 9);
        assert_eq!(t.release(id), Some(9));
        assert_eq!(t.release(id), None);
        assert!(t.is_empty());
    }

    #[test]
    fn sweep_order_is_deterministic() {
        let mut t = table();
        for i in 0..100u32 {
            t.grant(SimTime::ZERO, i);
        }
        let expired = t.sweep(SimTime::from_secs(20));
        assert_eq!(expired, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn grant_at_sweep_tick_survives_the_sweep() {
        // A lease granted on the same tick an expiry sweep runs must not
        // be reaped by it: expiry is exclusive, so term > 0 keeps it live.
        let mut t = table();
        let old = t.grant(SimTime::ZERO, 1);
        let fresh = t.grant(SimTime::from_secs(10), 2);
        let expired = t.sweep(SimTime::from_secs(10));
        assert_eq!(expired, vec![1]);
        assert_eq!(t.payload(SimTime::from_secs(10), old), None);
        assert_eq!(t.payload(SimTime::from_secs(10), fresh), Some(&2));
    }
}
