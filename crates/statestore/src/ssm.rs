//! SSM — the external, replicated session state store.
//!
//! SSM (Ling, Kiciman & Fox, NSDI 2004; modified in Section 3.3 of the
//! microreboot paper) keeps session state on machines separate from the
//! application server. Isolation by physical barriers means it survives
//! microreboots, JVM restarts and node reboots; the price is marshalling
//! and a network round trip on every access (Table 5's ~13 ms latency gap).
//! Its storage model is lease-based, so orphaned session state is
//! garbage-collected automatically, and every stored object carries a
//! checksum: corruption is detected on read and the bad object is
//! discarded rather than served (Table 2).
//!
//! The simulated bricks are columns of one session-keyed table, not maps
//! of their own: an entry holds the latest write's object once, and two
//! brick bitmasks say which bricks hold a copy of it and which of those
//! copies an injected flip has damaged (DESIGN.md §9, "SSM entry layout").

use std::collections::BTreeMap;

use simcore::{SimDuration, SimTime, TelemetryEvent};

use crate::ledger::SharedLedger;
use crate::session::{SessionId, SessionObject, SessionStore, StoreError};

/// Default session lease term (idle sessions expire after this).
pub const DEFAULT_LEASE: SimDuration = SimDuration::from_mins(30);

/// Everything the store knows about one session. An entry outlives its
/// object: the applied id and wire sequence stay authoritative after a
/// logout, an expiry or the loss of every brick.
#[derive(Clone, Debug, Default)]
struct Entry {
    /// Applied id: bumped on every accepted write. Store-level (survives
    /// brick failures) — the "store-side applied id" half of the integrity
    /// ledger.
    version: u64,
    /// Highest wire-delivery sequence applied; a redelivered (duplicated)
    /// write carries an already-applied sequence and is discarded instead
    /// of mutating state twice.
    seq: u64,
    /// Lease expiry of the stored object. One per session, not per brick:
    /// every brick that holds a copy got it from the latest write and is
    /// renewed by the same reads, so their leases never differ.
    expires: SimTime,
    /// The latest accepted write's object: every brick that holds a copy
    /// holds this one. The untainted empty object once no brick does.
    object: SessionObject,
    /// The checksum recorded when `object` was marshalled.
    sum: u64,
    /// Bit `i` set: brick `i` holds a copy. A down brick's bit is clear.
    held: u64,
    /// The held copies an injected flip has damaged. A flip toggles the
    /// bit, so a second flip undoes the first, as flipping the same byte
    /// twice does.
    damaged: u64,
}

impl Entry {
    /// Returns true if any brick holds a copy (lapsed lease or not).
    fn holds(&self) -> bool {
        self.held != 0
    }

    /// Drops the copies on the bricks set in `bricks` (`u64::MAX`: every
    /// copy); the object goes with the last of them.
    fn drop_copies(&mut self, bricks: u64) {
        self.held &= !bricks;
        self.damaged &= self.held;
        if self.held == 0 {
            self.object = SessionObject::new();
        }
    }
}

/// Counters describing an SSM's lifetime activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SsmStats {
    /// Objects written (across all replicas counts once).
    pub writes: u64,
    /// Reads served from a healthy replica.
    pub reads: u64,
    /// Objects discarded because their checksum failed.
    pub checksum_discards: u64,
    /// Objects expired by lease garbage collection.
    pub lease_expirations: u64,
    /// Accesses rejected by an armed network fault (partition or lossy
    /// link on the node↔store edge).
    pub net_unavailable: u64,
    /// Duplicate wire deliveries discarded by the applied-id check.
    pub(crate) dupes_discarded: u64,
}

/// FNV-1a over the marshalled object; any single-byte corruption flips it.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Marshals `obj` into `buf` (emptied first) and returns its checksum.
fn marshalled_sum(buf: &mut Vec<u8>, obj: &SessionObject) -> u64 {
    buf.clear();
    obj.encode_into(buf);
    checksum(buf)
}

/// The external replicated session store.
///
/// # Examples
///
/// ```
/// use simcore::SimTime;
/// use statestore::{SessionId, SessionObject, SessionStore, Ssm};
///
/// let mut ssm = Ssm::new(3);
/// let mut obj = SessionObject::new();
/// obj.set("user_id", 7i64);
/// ssm.write(SessionId(1), obj).unwrap();
/// ssm.on_process_restart();
/// assert!(ssm.read(SessionId(1)).unwrap().is_some(), "SSM survives restarts");
/// ```
#[derive(Clone, Debug)]
pub struct Ssm {
    /// Every session the store ever accepted a write for.
    entries: BTreeMap<SessionId, Entry>,
    /// The replica count.
    bricks: usize,
    /// Bit `i` set: brick `i` is up.
    up: u64,
    /// Where writes and reads marshal an object to checksum it; reused.
    marshal: Vec<u8>,
    lease: SimDuration,
    /// The store's notion of current time, advanced by the hosting
    /// simulation so leases can expire.
    now: SimTime,
    stats: SsmStats,
    /// Wire-delivery sequence counter.
    write_seq: u64,
    /// node↔store edge fault surface: true black-holes every access.
    partitioned: bool,
    /// node↔store lossy link: permille of accesses dropped (0 = off),
    /// thinned deterministically by `lossy_counter`.
    lossy_permille: u32,
    lossy_counter: u64,
    /// node↔store duplicating link: permille of writes delivered twice.
    dupe_permille: u32,
    dupe_counter: u64,
    /// Extra per-access RTT an armed store-slow / link-delay fault
    /// imposes. Zero when healthy.
    extra_latency: SimDuration,
    /// Telemetry drain queue: the hosting simulation pulls these with
    /// [`Ssm::take_events`] and forwards them to its bus at deterministic
    /// points. (The store cannot hold a bus itself and stay `Clone`.)
    events: Vec<TelemetryEvent>,
    /// Integrity-ledger hook (pure observation; `None` in normal runs).
    ledger: Option<SharedLedger>,
}

impl Ssm {
    /// Creates an SSM with `replicas` bricks and the default lease term.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or above 64.
    pub fn new(replicas: usize) -> Self {
        Self::with_lease(replicas, DEFAULT_LEASE)
    }

    /// Creates an SSM with an explicit lease term.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or above 64 (one bit per brick).
    pub fn with_lease(replicas: usize, lease: SimDuration) -> Self {
        assert!((1..=64).contains(&replicas), "SSM needs 1 to 64 bricks");
        Ssm {
            entries: BTreeMap::new(),
            bricks: replicas,
            up: u64::MAX >> (64 - replicas),
            marshal: Vec::new(),
            lease,
            now: SimTime::ZERO,
            stats: SsmStats::default(),
            write_seq: 0,
            partitioned: false,
            lossy_permille: 0,
            lossy_counter: 0,
            dupe_permille: 0,
            dupe_counter: 0,
            extra_latency: SimDuration::ZERO,
            events: Vec::new(),
            ledger: None,
        }
    }

    /// Attaches the integrity ledger; the store reports applied ids,
    /// expiries, removals and duplicate discards to it from then on.
    pub fn attach_ledger(&mut self, ledger: SharedLedger) {
        self.ledger = Some(ledger);
    }

    /// Drains queued telemetry events (brick failures/restores, lease
    /// expiries) for the hosting simulation to forward to its bus.
    pub fn take_events(&mut self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut self.events)
    }

    /// Returns true if any up brick still holds an object for `id`
    /// (regardless of lease state — an uncollected object is not lost).
    pub fn probe(&self, id: SessionId) -> bool {
        self.entries.get(&id).is_some_and(Entry::holds)
    }

    /// The sessions some brick holds a copy of, in id order.
    fn held(&self) -> impl DoubleEndedIterator<Item = (SessionId, &Entry)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.holds())
            .map(|(id, e)| (*id, e))
    }

    // ---- node↔store network fault surface -----------------------------
    //
    // The cluster's NetShim delivers node↔store edge faults by arming
    // these flags; every store access then passes through the shim
    // deterministically (counter-thinned, no RNG), so same-seed runs
    // reproduce bit-identically.

    /// Black-holes every store access (link partition) while set.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// Drops `permille`/1000 of store accesses (lossy link); 0 disarms.
    pub fn set_lossy(&mut self, permille: u32) {
        self.lossy_permille = permille.min(1000);
    }

    /// Delivers `permille`/1000 of writes twice (duplicating link);
    /// 0 disarms.
    pub fn set_dupe(&mut self, permille: u32) {
        self.dupe_permille = permille.min(1000);
    }

    /// Adds `extra` RTT to every store access (store-slow / link-delay).
    pub fn set_extra_latency(&mut self, extra: SimDuration) {
        self.extra_latency = extra;
    }

    /// Heals every armed node↔store fault.
    pub fn clear_net_faults(&mut self) {
        self.partitioned = false;
        self.lossy_permille = 0;
        self.dupe_permille = 0;
        self.extra_latency = SimDuration::ZERO;
    }

    /// The extra per-access RTT currently imposed (zero when healthy).
    pub fn extra_access_latency(&self) -> SimDuration {
        self.extra_latency
    }

    /// Returns true if an armed network fault swallows this access.
    fn net_drops_access(&mut self) -> bool {
        let dropped = self.partitioned || thin(&mut self.lossy_counter, self.lossy_permille);
        self.stats.net_unavailable += u64::from(dropped);
        dropped
    }

    /// An access that needs a live brick behind a working link.
    fn reach_a_brick(&mut self) -> Result<(), StoreError> {
        if self.net_drops_access() || self.bricks_up() == 0 {
            return Err(StoreError::Unavailable);
        }
        Ok(())
    }

    fn note_expired(&mut self, id: SessionId) {
        self.stats.lease_expirations += 1;
        self.events.push(TelemetryEvent::LeaseExpired {
            session: id.0,
            at: self.now,
        });
        if let Some(l) = &self.ledger {
            l.borrow_mut().on_expired(id.0);
        }
    }

    /// Applies one wire delivery of a write. The applied-id check makes
    /// writes idempotent per delivery sequence: a duplicated delivery is
    /// discarded instead of bumping the session's applied id twice.
    fn apply_write(&mut self, id: SessionId, obj: SessionObject, seq: u64) {
        let entry = self.entries.entry(id).or_default();
        if entry.seq >= seq {
            self.stats.dupes_discarded += 1;
            if let Some(l) = &self.ledger {
                l.borrow_mut().on_dupe_discarded(id.0);
            }
            return;
        }
        // Every up brick gets an intact copy.
        entry.sum = marshalled_sum(&mut self.marshal, &obj);
        entry.object = obj;
        entry.held = self.up;
        entry.damaged = 0;
        entry.expires = self.now + self.lease;
        entry.seq = seq;
        entry.version += 1;
        if let Some(l) = &self.ledger {
            l.borrow_mut().on_applied(id.0, entry.version);
        }
        self.stats.writes += 1;
    }

    /// Advances the store's clock (the hosting simulation calls this).
    pub fn advance_to(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    /// Returns activity counters.
    pub fn stats(&self) -> SsmStats {
        self.stats
    }

    /// Takes one brick down (models a storage-node failure).
    ///
    /// Returns false if the index is out of range.
    pub fn fail_brick(&mut self, idx: usize) -> bool {
        self.set_brick(idx, false)
    }

    /// Brings a failed brick back (empty; it repopulates on writes).
    pub fn restore_brick(&mut self, idx: usize) -> bool {
        self.set_brick(idx, true)
    }

    fn set_brick(&mut self, idx: usize, up: bool) -> bool {
        let Some(bit) = self.brick_bit(idx) else {
            return false;
        };
        if (self.up & bit != 0) != up {
            self.up ^= bit;
            let (brick, at) = (idx, self.now);
            if up {
                self.events
                    .push(TelemetryEvent::BrickRestored { brick, at });
            } else {
                // The brick's contents die with it.
                for e in self.entries.values_mut() {
                    e.drop_copies(bit);
                }
                self.events.push(TelemetryEvent::BrickFailed { brick, at });
            }
        }
        true
    }

    /// Brick `idx`'s bit, or `None` if there is no such brick.
    fn brick_bit(&self, idx: usize) -> Option<u64> {
        (idx < self.bricks).then(|| 1 << idx)
    }

    /// Returns how many bricks are up.
    pub fn bricks_up(&self) -> usize {
        self.up.count_ones() as usize
    }

    /// Flips a byte of the stored object for `id` on every brick
    /// (fault-injection surface: "corrupt data inside SSM via bit flips").
    ///
    /// Returns false if no brick holds the session.
    pub fn corrupt_bits(&mut self, id: SessionId) -> bool {
        let Some(e) = self.entries.get_mut(&id).filter(|e| e.holds()) else {
            return false;
        };
        e.damaged ^= e.held;
        e.object.mark_tainted();
        true
    }

    /// Corrupts an arbitrary live session (the most recently created, so
    /// the victim is likely active), returning its id.
    pub fn corrupt_any(&mut self) -> Option<SessionId> {
        let (id, _) = self.held().next_back()?;
        self.corrupt_bits(id);
        Some(id)
    }

    /// Expires `ids` exactly as a natural lease lapse would, in order.
    fn expire(&mut self, ids: Vec<SessionId>) -> usize {
        for id in &ids {
            if let Some(e) = self.entries.get_mut(id) {
                e.drop_copies(u64::MAX);
            }
            self.note_expired(*id);
        }
        ids.len()
    }

    /// Expires sessions whose lease lapsed; returns how many were removed.
    pub fn gc(&mut self) -> usize {
        let lapsed = self
            .held()
            .filter(|(_, e)| e.expires <= self.now)
            .map(|(id, _)| id)
            .collect();
        self.expire(lapsed)
    }

    /// Prematurely expires every live session (the `LeaseStorm` fault):
    /// objects are removed and accounted exactly as a natural lease lapse
    /// would be, in deterministic (id) order. Returns how many expired.
    pub fn storm_leases(&mut self) -> usize {
        let all = self.held().map(|(id, _)| id).collect();
        self.expire(all)
    }

    /// Makes one brick return checksum-failing garbage: flips a byte of
    /// every object it stores (the `BrickCorrupt` fault). Reads detect
    /// the damage via the per-object checksum, discard the bad copy, and
    /// serve a surviving replica. Returns how many objects were mangled.
    pub fn corrupt_brick(&mut self, idx: usize) -> usize {
        let Some(bit) = self.brick_bit(idx) else {
            return 0;
        };
        let mut mangled = 0;
        for e in self.entries.values_mut().filter(|e| e.held & bit != 0) {
            e.damaged ^= bit;
            mangled += 1;
        }
        mangled
    }

    /// Returns the number of injection-tainted sessions still stored on
    /// any live brick.
    pub fn tainted_sessions(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.object.is_tainted())
            .count()
    }

    /// Returns true if the stored object for `id` is injection-tainted on
    /// any brick (the comparison detector's oracle).
    pub fn is_tainted(&self, id: SessionId) -> bool {
        self.entries.get(&id).is_some_and(|e| e.object.is_tainted())
    }
}

impl SessionStore for Ssm {
    fn write(&mut self, id: SessionId, obj: SessionObject) -> Result<(), StoreError> {
        self.reach_a_brick()?;
        self.write_seq += 1;
        let seq = self.write_seq;
        if thin(&mut self.dupe_counter, self.dupe_permille) {
            // The duplicating link delivers this write twice: the replay
            // carries the same wire sequence and must be discarded by the
            // applied-id check, not applied again.
            self.apply_write(id, obj.clone(), seq);
        }
        self.apply_write(id, obj, seq);
        Ok(())
    }

    fn read(&mut self, id: SessionId) -> Result<Option<SessionObject>, StoreError> {
        self.reach_a_brick()?;
        let now = self.now;
        let Some(entry) = self.entries.get_mut(&id).filter(|e| e.holds()) else {
            return Ok(None);
        };
        if entry.expires <= now {
            // The lease lapsed and the read reaped the object: account
            // the disappearance.
            entry.drop_copies(u64::MAX);
            self.note_expired(id);
            return Ok(None);
        }
        // Every brick checks its copy against the checksum recorded with
        // it. The copies are one object, marshalled once; a copy passes if
        // that matches the sum and no flip damaged the brick's copy. An
        // integrity violation discards the bad copy rather than serve it.
        let bad = if marshalled_sum(&mut self.marshal, &entry.object) == entry.sum {
            entry.damaged
        } else {
            entry.held
        };
        self.stats.checksum_discards += u64::from(bad.count_ones());
        entry.drop_copies(bad);
        if !entry.holds() {
            return Err(StoreError::CorruptDiscarded(id));
        }
        if entry.expires <= now {
            // Defensive ledger check: serving past expiry would be a
            // stale-lease violation. The reaping above makes this
            // unreachable; the ledger proves it stays that way.
            if let Some(l) = &self.ledger {
                l.borrow_mut().on_stale_serve(id.0);
            }
        }
        // Lease renewal on access.
        entry.expires = now + self.lease;
        self.stats.reads += 1;
        Ok(Some(entry.object.clone()))
    }

    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        if self.net_drops_access() {
            return Err(StoreError::Unavailable);
        }
        if let Some(e) = self.entries.get_mut(&id) {
            e.drop_copies(u64::MAX);
        }
        if let Some(l) = &self.ledger {
            l.borrow_mut().on_removed(id.0);
        }
        Ok(())
    }

    fn live_sessions(&self) -> usize {
        self.held().filter(|(_, e)| e.expires > self.now).count()
    }

    fn on_process_restart(&mut self) {
        // Physically separate machines: a server restart is invisible here.
    }

    fn in_process_bytes(&self) -> usize {
        0
    }
}

/// Deterministic thinning for a faulted link: fires on the messages
/// where the running `permille` quota crosses an integer boundary, so
/// same-seed runs drop or duplicate the same messages without an rng.
/// Both simulated links use it: the SSM's node↔store shim and the
/// cluster's LB↔node wire.
pub fn thin(counter: &mut u64, permille: u32) -> bool {
    if permille == 0 {
        return false;
    }
    let before = *counter * u64::from(permille) / 1000;
    *counter += 1;
    let after = *counter * u64::from(permille) / 1000;
    after > before
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(user: i64) -> SessionObject {
        let mut o = SessionObject::new();
        o.set("user_id", user);
        o
    }

    #[test]
    fn write_read_roundtrip() {
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj(7)).unwrap();
        let got = ssm.read(SessionId(1)).unwrap().unwrap();
        assert_eq!(got.get("user_id").unwrap().as_int(), Some(7));
        assert_eq!(ssm.live_sessions(), 1);
    }

    #[test]
    fn survives_process_restart() {
        let mut ssm = Ssm::new(2);
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.on_process_restart();
        assert!(ssm.read(SessionId(1)).unwrap().is_some());
    }

    #[test]
    fn checksum_detects_corruption_and_discards() {
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj(7)).unwrap();
        // A second flip of every copy undoes the first; the taint stays.
        assert!(ssm.corrupt_bits(SessionId(1)) && ssm.corrupt_bits(SessionId(1)));
        assert!(ssm.read(SessionId(1)).unwrap().unwrap().is_tainted());
        assert!(ssm.corrupt_bits(SessionId(1)));
        let err = ssm.read(SessionId(1)).unwrap_err();
        assert_eq!(err, StoreError::CorruptDiscarded(SessionId(1)));
        assert_eq!(ssm.stats().checksum_discards, 3);
        // The bad object is gone: the next read is a clean miss.
        assert_eq!(ssm.read(SessionId(1)).unwrap(), None);
    }

    #[test]
    fn replica_failure_does_not_lose_sessions() {
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj(7)).unwrap();
        assert!(ssm.fail_brick(0));
        assert_eq!(ssm.bricks_up(), 2);
        assert!(ssm.read(SessionId(1)).unwrap().is_some());
    }

    #[test]
    fn all_bricks_down_is_unavailable() {
        let mut ssm = Ssm::new(2);
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.fail_brick(0);
        ssm.fail_brick(1);
        assert_eq!(ssm.read(SessionId(1)).unwrap_err(), StoreError::Unavailable);
        assert_eq!(
            ssm.write(SessionId(2), obj(8)).unwrap_err(),
            StoreError::Unavailable
        );
        ssm.restore_brick(0);
        ssm.write(SessionId(2), obj(8)).unwrap();
        assert!(ssm.read(SessionId(2)).unwrap().is_some());
    }

    #[test]
    fn leases_expire_without_renewal() {
        let mut ssm = Ssm::with_lease(2, SimDuration::from_secs(60));
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.advance_to(SimTime::from_secs(61));
        assert_eq!(ssm.read(SessionId(1)).unwrap(), None, "expired on read");
        assert_eq!(ssm.live_sessions(), 0);
    }

    #[test]
    fn reads_renew_leases() {
        let mut ssm = Ssm::with_lease(2, SimDuration::from_secs(60));
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.advance_to(SimTime::from_secs(50));
        assert!(ssm.read(SessionId(1)).unwrap().is_some());
        ssm.advance_to(SimTime::from_secs(100));
        assert!(
            ssm.read(SessionId(1)).unwrap().is_some(),
            "renewed at t=50, lives until t=110"
        );
    }

    #[test]
    fn gc_collects_orphans() {
        let mut ssm = Ssm::with_lease(3, SimDuration::from_secs(10));
        ssm.write(SessionId(1), obj(1)).unwrap();
        ssm.write(SessionId(2), obj(2)).unwrap();
        ssm.advance_to(SimTime::from_secs(11));
        assert_eq!(ssm.gc(), 2);
        assert_eq!(ssm.stats().lease_expirations, 2);
        assert_eq!(ssm.live_sessions(), 0);
    }

    #[test]
    fn remove_deletes_everywhere() {
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.remove(SessionId(1)).unwrap();
        assert_eq!(ssm.read(SessionId(1)).unwrap(), None);
    }

    #[test]
    fn corrupt_any_picks_a_live_session() {
        let mut ssm = Ssm::new(2);
        assert_eq!(ssm.corrupt_any(), None);
        ssm.write(SessionId(5), obj(1)).unwrap();
        assert_eq!(ssm.corrupt_any(), Some(SessionId(5)));
        assert!(ssm.is_tainted(SessionId(5)));
    }

    #[test]
    fn brick_lifecycle_emits_telemetry_events() {
        let mut ssm = Ssm::new(3);
        ssm.advance_to(SimTime::from_secs(5));
        ssm.fail_brick(1);
        ssm.fail_brick(1); // already down: no duplicate event
        ssm.restore_brick(1);
        let events = ssm.take_events();
        assert_eq!(
            events,
            vec![
                TelemetryEvent::BrickFailed {
                    brick: 1,
                    at: SimTime::from_secs(5)
                },
                TelemetryEvent::BrickRestored {
                    brick: 1,
                    at: SimTime::from_secs(5)
                },
            ]
        );
        assert!(ssm.take_events().is_empty(), "drain empties the queue");
    }

    #[test]
    fn lease_storm_expires_everything_and_accounts_it() {
        let ledger = crate::ledger::shared_ledger();
        let mut ssm = Ssm::new(3);
        ssm.attach_ledger(ledger.clone());
        ssm.advance_to(SimTime::from_secs(1));
        ssm.write(SessionId(1), obj(1)).unwrap();
        ssm.write(SessionId(2), obj(2)).unwrap();
        assert_eq!(ssm.storm_leases(), 2);
        assert_eq!(ssm.live_sessions(), 0);
        assert_eq!(ssm.stats().lease_expirations, 2);
        assert!(ledger.borrow().accounted_gone(1));
        assert!(ledger.borrow().accounted_gone(2));
        // Expiry events queue in deterministic id order.
        let sessions: Vec<u64> = ssm
            .take_events()
            .into_iter()
            .map(|e| match e {
                TelemetryEvent::LeaseExpired { session, .. } => session,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(sessions, vec![1, 2]);
    }

    #[test]
    fn corrupt_brick_is_masked_by_surviving_replicas() {
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), obj(7)).unwrap();
        assert_eq!(ssm.corrupt_brick(0), 1);
        // The bad copy is discarded, a healthy replica serves the read.
        let got = ssm.read(SessionId(1)).unwrap().unwrap();
        assert_eq!(got.get("user_id").unwrap().as_int(), Some(7));
        assert_eq!(ssm.stats().checksum_discards, 1);
        // A damaged brick that fails and comes back holds nothing.
        assert_eq!(ssm.corrupt_brick(1), 1);
        assert!(ssm.fail_brick(1) && ssm.restore_brick(1));
        assert_eq!(ssm.corrupt_brick(1), 0);
        assert!(ssm.read(SessionId(1)).unwrap().is_some());
        assert_eq!(ssm.stats().checksum_discards, 1, "the damage died with it");
    }

    #[test]
    fn an_empty_object_is_checked_against_its_recorded_sum() {
        // It marshals to nothing, so a flip damages the recorded sum.
        let mut ssm = Ssm::new(3);
        ssm.write(SessionId(1), SessionObject::new()).unwrap();
        assert_eq!(ssm.corrupt_brick(0), 1);
        assert_eq!(ssm.read(SessionId(1)), Ok(Some(SessionObject::new())));
        assert!(ssm.corrupt_bits(SessionId(1)));
        let err = Err(StoreError::CorruptDiscarded(SessionId(1)));
        assert_eq!(ssm.read(SessionId(1)), err);
        assert_eq!(ssm.stats().checksum_discards, 3);
    }

    #[test]
    fn partition_black_holes_accesses_until_healed() {
        let mut ssm = Ssm::new(2);
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.set_partitioned(true);
        assert_eq!(ssm.read(SessionId(1)).unwrap_err(), StoreError::Unavailable);
        assert_eq!(
            ssm.write(SessionId(2), obj(8)).unwrap_err(),
            StoreError::Unavailable
        );
        assert_eq!(ssm.stats().net_unavailable, 2);
        ssm.clear_net_faults();
        assert!(ssm.read(SessionId(1)).unwrap().is_some());
        assert!(!ssm.probe(SessionId(2)), "partitioned write never landed");
    }

    #[test]
    fn lossy_link_drops_a_deterministic_fraction() {
        let pattern = || -> Vec<bool> {
            let mut ssm = Ssm::new(2);
            ssm.write(SessionId(1), obj(7)).unwrap();
            ssm.set_lossy(500);
            (0..100).map(|_| ssm.read(SessionId(1)).is_ok()).collect()
        };
        let failures = pattern().iter().filter(|ok| !**ok).count();
        assert_eq!(failures, 50, "500 permille thins exactly half");
        // Same-seed determinism: an identical store replays identically.
        assert_eq!(pattern(), pattern());
    }

    #[test]
    fn duplicated_writes_are_discarded_not_reapplied() {
        let ledger = crate::ledger::shared_ledger();
        let mut ssm = Ssm::new(2);
        ssm.attach_ledger(ledger.clone());
        ssm.set_dupe(1000); // every write delivered twice
        ssm.write(SessionId(1), obj(7)).unwrap();
        ssm.write(SessionId(1), obj(8)).unwrap();
        assert_eq!(ssm.stats().dupes_discarded, 2);
        assert_eq!(ssm.stats().writes, 2, "each intent applied exactly once");
        assert_eq!(ledger.borrow().double_applied(), 0);
        assert_eq!(ledger.borrow().dupes_discarded(), 2);
        let got = ssm.read(SessionId(1)).unwrap().unwrap();
        assert_eq!(got.get("user_id").unwrap().as_int(), Some(8));
    }

    #[test]
    fn extra_latency_is_armed_and_healed() {
        let mut ssm = Ssm::new(2);
        assert_eq!(ssm.extra_access_latency(), SimDuration::ZERO);
        ssm.set_extra_latency(SimDuration::from_millis(40));
        assert_eq!(ssm.extra_access_latency(), SimDuration::from_millis(40));
        ssm.clear_net_faults();
        assert_eq!(ssm.extra_access_latency(), SimDuration::ZERO);
    }

    #[test]
    fn same_tick_expiry_and_write_race_is_deterministic() {
        // A write landing on the exact tick its session's lease expires
        // must resolve identically on every run: expiry is exclusive, the
        // write grants a fresh lease, and expiry accounting happens in
        // BTreeMap (id) order.
        let run = || {
            let mut ssm = Ssm::with_lease(3, SimDuration::from_secs(10));
            ssm.write(SessionId(1), obj(1)).unwrap();
            ssm.write(SessionId(2), obj(2)).unwrap();
            ssm.advance_to(SimTime::from_secs(10));
            // Session 2 is re-written at the expiry tick; session 1 is
            // reaped lazily by its read on the same tick.
            ssm.write(SessionId(2), obj(22)).unwrap();
            let one = ssm.read(SessionId(1)).unwrap().is_some();
            let two = ssm.read(SessionId(2)).unwrap().is_some();
            (one, two, ssm.stats(), ssm.take_events())
        };
        let first = run();
        assert!(!first.0, "session 1 expired at its lease tick");
        assert!(first.1, "same-tick write re-leased session 2");
        assert_eq!(first, run(), "race resolves bit-identically");
    }

    #[test]
    fn ledger_sees_applied_ids_expiries_and_removals() {
        let ledger = crate::ledger::shared_ledger();
        let mut ssm = Ssm::with_lease(2, SimDuration::from_secs(10));
        ssm.attach_ledger(ledger.clone());
        ssm.write(SessionId(1), obj(1)).unwrap();
        ssm.write(SessionId(1), obj(2)).unwrap();
        ledger.borrow_mut().on_commit(1);
        assert_eq!(ledger.borrow().total_intents(), 1);
        assert!(ssm.probe(SessionId(1)));
        // Natural expiry via a lazy read is accounted.
        ssm.advance_to(SimTime::from_secs(11));
        assert_eq!(ssm.read(SessionId(1)).unwrap(), None);
        assert!(ledger.borrow().accounted_gone(1));
        // Explicit removal is accounted too.
        ssm.write(SessionId(2), obj(3)).unwrap();
        ssm.remove(SessionId(2)).unwrap();
        assert!(ledger.borrow().accounted_gone(2));
        assert_eq!(ledger.borrow().stale_serves(), 0);
        assert_eq!(ledger.borrow().double_applied(), 0);
    }
}
