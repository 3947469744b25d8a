//! Differential test of [`statestore::Ssm`] against the implementation it
//! replaced.
//!
//! `reference::Ssm` is the per-brick store as it stood before the
//! session-keyed table: one `BTreeMap` per brick holding deep copies, one
//! checksum pass per brick per read, applied ids and wire sequences in two
//! side maps. It is kept here, as test code only, as the specification of
//! every observable the new layout must reproduce. Both stores are driven
//! with the same seeded random steps over the whole public surface, each
//! with its own integrity ledger attached; after every step the step's
//! return value and every observer must agree.

use std::fmt::Debug;

use simcore::{SimDuration, SimRng, SimTime};
use statestore::ledger::shared_ledger;
use statestore::session::{SessionId, SessionObject, SessionStore};
use statestore::{SharedLedger, Value};

/// The per-brick SSM, verbatim (only the `use crate::` paths changed).
#[allow(dead_code, reason = "verbatim: the tests call only part of it")]
mod reference {
    use std::collections::BTreeMap;

    use simcore::{SimDuration, SimTime, TelemetryEvent};

    use statestore::ledger::SharedLedger;
    use statestore::session::{SessionId, SessionObject, SessionStore, StoreError};

    /// Number of replica bricks a default SSM deployment writes to.
    pub(crate) const DEFAULT_REPLICAS: usize = 3;

    /// Default session lease term (idle sessions expire after this).
    pub(crate) const DEFAULT_LEASE: SimDuration = SimDuration::from_mins(30);

    #[derive(Clone, Debug)]
    struct StoredObject {
        bytes: Vec<u8>,
        checksum: u64,
        /// Decoded object kept alongside its marshalled form; reads verify the
        /// checksum over `bytes` before handing this out.
        object: SessionObject,
        expires: SimTime,
    }

    #[derive(Clone, Debug, Default)]
    struct Brick {
        objects: BTreeMap<SessionId, StoredObject>,
        up: bool,
    }

    /// Counters describing an SSM's lifetime activity.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub(crate) struct SsmStats {
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
        pub dupes_discarded: u64,
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
    pub(crate) struct Ssm {
        bricks: Vec<Brick>,
        lease: SimDuration,
        /// The store's notion of current time, advanced by the hosting
        /// simulation so leases can expire.
        now: SimTime,
        stats: SsmStats,
        /// Per-session applied-id authority: bumped on every accepted write.
        /// Store-level (survives brick failures) — this is the "store-side
        /// applied id" half of the integrity ledger.
        versions: BTreeMap<SessionId, u64>,
        /// Highest wire-delivery sequence applied per session; a redelivered
        /// (duplicated) write carries an already-applied sequence and is
        /// discarded instead of mutating state twice.
        applied_seq: BTreeMap<SessionId, u64>,
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
        /// Panics if `replicas` is zero.
        pub(crate) fn new(replicas: usize) -> Self {
            Self::with_lease(replicas, DEFAULT_LEASE)
        }

        /// Creates an SSM with an explicit lease term.
        ///
        /// # Panics
        ///
        /// Panics if `replicas` is zero.
        pub(crate) fn with_lease(replicas: usize, lease: SimDuration) -> Self {
            assert!(replicas > 0, "SSM needs at least one brick");
            Ssm {
                bricks: vec![
                    Brick {
                        objects: BTreeMap::new(),
                        up: true,
                    };
                    replicas
                ],
                lease,
                now: SimTime::ZERO,
                stats: SsmStats::default(),
                versions: BTreeMap::new(),
                applied_seq: BTreeMap::new(),
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
        pub(crate) fn attach_ledger(&mut self, ledger: SharedLedger) {
            self.ledger = Some(ledger);
        }

        /// Drains queued telemetry events (brick failures/restores, lease
        /// expiries) for the hosting simulation to forward to its bus.
        pub(crate) fn take_events(&mut self) -> Vec<TelemetryEvent> {
            std::mem::take(&mut self.events)
        }

        /// Returns true if any up brick still holds an object for `id`
        /// (regardless of lease state — an uncollected object is not lost).
        pub(crate) fn probe(&self, id: SessionId) -> bool {
            self.bricks
                .iter()
                .filter(|b| b.up)
                .any(|b| b.objects.contains_key(&id))
        }

        // ---- node↔store network fault surface -----------------------------
        //
        // The cluster's NetShim delivers node↔store edge faults by arming
        // these flags; every store access then passes through the shim
        // deterministically (counter-thinned, no RNG), so same-seed runs
        // reproduce bit-identically.

        /// Black-holes every store access (link partition) while set.
        pub(crate) fn set_partitioned(&mut self, on: bool) {
            self.partitioned = on;
        }

        /// Drops `permille`/1000 of store accesses (lossy link); 0 disarms.
        pub(crate) fn set_lossy(&mut self, permille: u32) {
            self.lossy_permille = permille.min(1000);
        }

        /// Delivers `permille`/1000 of writes twice (duplicating link);
        /// 0 disarms.
        pub(crate) fn set_dupe(&mut self, permille: u32) {
            self.dupe_permille = permille.min(1000);
        }

        /// Adds `extra` RTT to every store access (store-slow / link-delay).
        pub(crate) fn set_extra_latency(&mut self, extra: SimDuration) {
            self.extra_latency = extra;
        }

        /// Heals every armed node↔store fault.
        pub(crate) fn clear_net_faults(&mut self) {
            self.partitioned = false;
            self.lossy_permille = 0;
            self.dupe_permille = 0;
            self.extra_latency = SimDuration::ZERO;
        }

        /// The extra per-access RTT currently imposed (zero when healthy).
        pub(crate) fn extra_access_latency(&self) -> SimDuration {
            self.extra_latency
        }

        /// Deterministic thinning: fires on the accesses where the running
        /// `permille` quota crosses an integer boundary.
        fn thin(counter: &mut u64, permille: u32) -> bool {
            if permille == 0 {
                return false;
            }
            let before = *counter * u64::from(permille) / 1000;
            *counter += 1;
            let after = *counter * u64::from(permille) / 1000;
            after > before
        }

        /// Returns true if an armed network fault swallows this access.
        fn net_drops_access(&mut self) -> bool {
            if self.partitioned {
                self.stats.net_unavailable += 1;
                return true;
            }
            if Self::thin(&mut self.lossy_counter, self.lossy_permille) {
                self.stats.net_unavailable += 1;
                return true;
            }
            false
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
        fn apply_write(
            &mut self,
            id: SessionId,
            obj: SessionObject,
            seq: u64,
        ) -> Result<(), StoreError> {
            if self.applied_seq.get(&id).is_some_and(|&s| s >= seq) {
                self.stats.dupes_discarded += 1;
                if let Some(l) = &self.ledger {
                    l.borrow_mut().on_dupe_discarded(id.0);
                }
                return Ok(());
            }
            let bytes = obj.encode();
            let sum = checksum(&bytes);
            let stored = StoredObject {
                bytes,
                checksum: sum,
                object: obj,
                expires: self.now + self.lease,
            };
            for brick in self.bricks.iter_mut().filter(|b| b.up) {
                brick.objects.insert(id, stored.clone());
            }
            self.applied_seq.insert(id, seq);
            let version = self.versions.entry(id).or_insert(0);
            *version += 1;
            let version = *version;
            if let Some(l) = &self.ledger {
                l.borrow_mut().on_applied(id.0, version);
            }
            self.stats.writes += 1;
            Ok(())
        }

        /// Advances the store's clock (the hosting simulation calls this).
        pub(crate) fn advance_to(&mut self, now: SimTime) {
            self.now = self.now.max(now);
        }

        /// Returns activity counters.
        pub(crate) fn stats(&self) -> SsmStats {
            self.stats
        }

        /// Takes one brick down (models a storage-node failure).
        ///
        /// Returns false if the index is out of range.
        pub(crate) fn fail_brick(&mut self, idx: usize) -> bool {
            let at = self.now;
            match self.bricks.get_mut(idx) {
                Some(b) => {
                    if b.up {
                        b.up = false;
                        b.objects.clear();
                        self.events
                            .push(TelemetryEvent::BrickFailed { brick: idx, at });
                    }
                    true
                }
                None => false,
            }
        }

        /// Brings a failed brick back (empty; it repopulates on writes).
        pub(crate) fn restore_brick(&mut self, idx: usize) -> bool {
            let at = self.now;
            match self.bricks.get_mut(idx) {
                Some(b) => {
                    if !b.up {
                        b.up = true;
                        self.events
                            .push(TelemetryEvent::BrickRestored { brick: idx, at });
                    }
                    true
                }
                None => false,
            }
        }

        /// Returns how many bricks are up.
        pub(crate) fn bricks_up(&self) -> usize {
            self.bricks.iter().filter(|b| b.up).count()
        }

        /// Flips a byte of the stored object for `id` on every brick
        /// (fault-injection surface: "corrupt data inside SSM via bit flips").
        ///
        /// Returns false if no brick holds the session.
        pub(crate) fn corrupt_bits(&mut self, id: SessionId) -> bool {
            let mut hit = false;
            for brick in &mut self.bricks {
                if let Some(stored) = brick.objects.get_mut(&id) {
                    if let Some(byte) = stored.bytes.first_mut() {
                        *byte ^= 0xff;
                    } else {
                        // Empty marshalled form: corrupt the checksum instead.
                        stored.checksum ^= 0xdead_beef;
                    }
                    stored.object.mark_tainted();
                    hit = true;
                }
            }
            hit
        }

        /// Corrupts an arbitrary live session (the most recently created, so
        /// the victim is likely active), returning its id.
        pub(crate) fn corrupt_any(&mut self) -> Option<SessionId> {
            let id = self
                .bricks
                .iter()
                .filter(|b| b.up)
                .flat_map(|b| b.objects.keys())
                .max()
                .copied()?;
            self.corrupt_bits(id);
            Some(id)
        }

        /// Expires sessions whose lease lapsed; returns how many were removed.
        pub(crate) fn gc(&mut self) -> usize {
            let now = self.now;
            let mut seen = std::collections::BTreeSet::new();
            for brick in &mut self.bricks {
                let expired: Vec<SessionId> = brick
                    .objects
                    .iter()
                    .filter(|(_, o)| o.expires <= now)
                    .map(|(id, _)| *id)
                    .collect();
                for id in expired {
                    brick.objects.remove(&id);
                    seen.insert(id);
                }
            }
            for id in &seen {
                self.note_expired(*id);
            }
            seen.len()
        }

        /// Prematurely expires every live session (the `LeaseStorm` fault):
        /// objects are removed and accounted exactly as a natural lease lapse
        /// would be, in deterministic (id) order. Returns how many expired.
        pub(crate) fn storm_leases(&mut self) -> usize {
            let ids: std::collections::BTreeSet<SessionId> = self
                .bricks
                .iter()
                .filter(|b| b.up)
                .flat_map(|b| b.objects.keys())
                .copied()
                .collect();
            for id in &ids {
                for brick in &mut self.bricks {
                    brick.objects.remove(id);
                }
                self.note_expired(*id);
            }
            ids.len()
        }

        /// Makes one brick return checksum-failing garbage: flips a byte of
        /// every object it stores (the `BrickCorrupt` fault). Reads detect
        /// the damage via the per-object checksum, discard the bad copy, and
        /// serve a surviving replica. Returns how many objects were mangled.
        pub(crate) fn corrupt_brick(&mut self, idx: usize) -> usize {
            let Some(brick) = self.bricks.get_mut(idx) else {
                return 0;
            };
            if !brick.up {
                return 0;
            }
            let mut mangled = 0;
            for stored in brick.objects.values_mut() {
                if let Some(byte) = stored.bytes.first_mut() {
                    *byte ^= 0xff;
                } else {
                    stored.checksum ^= 0xdead_beef;
                }
                mangled += 1;
            }
            mangled
        }

        /// Returns the number of injection-tainted sessions still stored on
        /// any live brick.
        pub(crate) fn tainted_sessions(&self) -> usize {
            let mut ids = std::collections::BTreeSet::new();
            for brick in self.bricks.iter().filter(|b| b.up) {
                for (id, o) in &brick.objects {
                    if o.object.is_tainted() {
                        ids.insert(*id);
                    }
                }
            }
            ids.len()
        }

        /// Returns true if the stored object for `id` is injection-tainted on
        /// any brick (the comparison detector's oracle).
        pub(crate) fn is_tainted(&self, id: SessionId) -> bool {
            self.bricks.iter().any(|b| {
                b.objects
                    .get(&id)
                    .map(|o| o.object.is_tainted())
                    .unwrap_or(false)
            })
        }
    }

    impl SessionStore for Ssm {
        fn write(&mut self, id: SessionId, obj: SessionObject) -> Result<(), StoreError> {
            if self.net_drops_access() {
                return Err(StoreError::Unavailable);
            }
            if self.bricks_up() == 0 {
                return Err(StoreError::Unavailable);
            }
            self.write_seq += 1;
            let seq = self.write_seq;
            if Self::thin(&mut self.dupe_counter, self.dupe_permille) {
                // The duplicating link delivers this write twice: the replay
                // carries the same wire sequence and must be discarded by the
                // applied-id check, not applied again.
                self.apply_write(id, obj.clone(), seq)?;
                self.apply_write(id, obj, seq)
            } else {
                self.apply_write(id, obj, seq)
            }
        }

        fn read(&mut self, id: SessionId) -> Result<Option<SessionObject>, StoreError> {
            if self.net_drops_access() {
                return Err(StoreError::Unavailable);
            }
            if self.bricks_up() == 0 {
                return Err(StoreError::Unavailable);
            }
            let now = self.now;
            let mut found_any = false;
            let mut discarded_any = false;
            let mut expired_any = false;
            let mut result: Option<(SessionObject, SimTime)> = None;
            for brick in self.bricks.iter_mut().filter(|b| b.up) {
                let Some(stored) = brick.objects.get(&id) else {
                    continue;
                };
                if stored.expires <= now {
                    brick.objects.remove(&id);
                    expired_any = true;
                    continue;
                }
                found_any = true;
                if checksum(&stored.bytes) != stored.checksum {
                    // Integrity violation: discard the bad object rather than
                    // serve it.
                    brick.objects.remove(&id);
                    discarded_any = true;
                    self.stats.checksum_discards += 1;
                    continue;
                }
                if result.is_none() {
                    result = Some((stored.object.clone(), stored.expires));
                }
            }
            match result {
                Some((obj, expires)) => {
                    if expires <= now {
                        // Defensive ledger check: serving past expiry would be
                        // a stale-lease violation. The filter above makes this
                        // unreachable; the ledger proves it stays that way.
                        if let Some(l) = &self.ledger {
                            l.borrow_mut().on_stale_serve(id.0);
                        }
                    }
                    // Lease renewal on access.
                    let expires = now + self.lease;
                    for brick in self.bricks.iter_mut().filter(|b| b.up) {
                        if let Some(s) = brick.objects.get_mut(&id) {
                            s.expires = expires;
                        }
                    }
                    self.stats.reads += 1;
                    Ok(Some(obj))
                }
                None if found_any && discarded_any => Err(StoreError::CorruptDiscarded(id)),
                None => {
                    if expired_any {
                        // The lease lapsed and the read reaped the object:
                        // account the disappearance.
                        self.note_expired(id);
                    }
                    Ok(None)
                }
            }
        }

        fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
            if self.net_drops_access() {
                return Err(StoreError::Unavailable);
            }
            for brick in self.bricks.iter_mut().filter(|b| b.up) {
                brick.objects.remove(&id);
            }
            if let Some(l) = &self.ledger {
                l.borrow_mut().on_removed(id.0);
            }
            Ok(())
        }

        fn live_sessions(&self) -> usize {
            let mut ids = std::collections::BTreeSet::new();
            for brick in self.bricks.iter().filter(|b| b.up) {
                for (id, o) in &brick.objects {
                    if o.expires > self.now {
                        ids.insert(*id);
                    }
                }
            }
            ids.len()
        }

        fn on_process_restart(&mut self) {
            // Physically separate machines: a server restart is invisible here.
        }

        fn in_process_bytes(&self) -> usize {
            0
        }
    }
}

const CASES: u64 = 64;
const STEPS: usize = 300;
/// Few sessions, so steps collide on them.
const IDS: u64 = 6;
const LEASE: SimDuration = SimDuration::from_secs(60);

/// One call on the store's public surface (or, for `Commit`, on the
/// client side of its ledger).
#[derive(Clone, Debug)]
enum Step {
    Write(u64, SessionObject),
    Read(u64),
    Remove(u64),
    AdvanceTo(SimTime),
    FailBrick(usize),
    RestoreBrick(usize),
    CorruptBits(u64),
    CorruptBrick(usize),
    CorruptAny,
    StormLeases,
    Gc,
    SetPartitioned(bool),
    SetLossy(u32),
    SetDupe(u32),
    ClearNetFaults,
    Commit(u64),
}

/// A random object over every `Value` variant; one in eight is empty (its
/// marshalled form has no byte to flip, so corruption takes the checksum).
fn gen_object(rng: &mut SimRng) -> SessionObject {
    let mut obj = SessionObject::new();
    if rng.uniform_u64(8) == 0 {
        return obj;
    }
    let keys = ["user_id", "bid_item", "bid_amount", "note", "flag"];
    for key in &keys[..1 + rng.uniform_usize(keys.len())] {
        match rng.uniform_u64(5) {
            0 => obj.set(key, Value::Null),
            1 => obj.set(key, rng.next_u64() as i64),
            2 => obj.set(key, format!("s{}", rng.uniform_u64(1_000))),
            3 => obj.set(key, rng.unit_f64()),
            _ => obj.set(key, rng.chance(0.5)),
        }
    }
    obj
}

fn gen_step(rng: &mut SimRng, replicas: usize, now: &mut SimTime) -> Step {
    let id = rng.uniform_u64(IDS);
    // One past the end now and then: out-of-range bricks must be refused
    // alike.
    let brick = rng.uniform_usize(replicas + 1);
    match rng.uniform_u64(100) {
        0..=29 => Step::Write(id, gen_object(rng)),
        30..=57 => Step::Read(id),
        58..=61 => Step::Remove(id),
        62..=71 => {
            *now += SimDuration::from_secs(rng.uniform_u64(45));
            Step::AdvanceTo(*now)
        }
        72..=75 => Step::FailBrick(brick),
        76..=79 => Step::RestoreBrick(brick),
        80..=82 => Step::CorruptBits(id),
        83..=85 => Step::CorruptBrick(brick),
        86..=87 => Step::CorruptAny,
        88 => Step::StormLeases,
        89..=91 => Step::Gc,
        92 => Step::SetPartitioned(rng.chance(0.5)),
        93 => Step::SetLossy(rng.uniform_u64(1_200) as u32),
        94..=95 => Step::SetDupe(rng.uniform_u64(1_200) as u32),
        96..=97 => Step::ClearNetFaults,
        _ => Step::Commit(id),
    }
}

fn show(v: impl Debug) -> String {
    format!("{v:?}")
}

/// Applies `$step` to `$store` (either implementation) and renders what
/// it returned.
macro_rules! apply {
    ($store:expr, $ledger:expr, $step:expr) => {
        match $step {
            Step::Write(id, obj) => show($store.write(SessionId(*id), obj.clone())),
            Step::Read(id) => show($store.read(SessionId(*id))),
            Step::Remove(id) => show($store.remove(SessionId(*id))),
            Step::AdvanceTo(t) => show($store.advance_to(*t)),
            Step::FailBrick(i) => show($store.fail_brick(*i)),
            Step::RestoreBrick(i) => show($store.restore_brick(*i)),
            Step::CorruptBits(id) => show($store.corrupt_bits(SessionId(*id))),
            Step::CorruptBrick(i) => show($store.corrupt_brick(*i)),
            Step::CorruptAny => show($store.corrupt_any()),
            Step::StormLeases => show($store.storm_leases()),
            Step::Gc => show($store.gc()),
            Step::SetPartitioned(on) => show($store.set_partitioned(*on)),
            Step::SetLossy(p) => show($store.set_lossy(*p)),
            Step::SetDupe(p) => show($store.set_dupe(*p)),
            Step::ClearNetFaults => show($store.clear_net_faults()),
            Step::Commit(id) => show($ledger.borrow_mut().on_commit(*id)),
        }
    };
}

/// Renders every observer of `$store` and its ledger.
macro_rules! observe {
    ($store:expr, $ledger:expr) => {{
        let ids = || (0..IDS).map(SessionId);
        format!(
            "stats {:?}\nevents {:?}\nprobe {:?}\nlive {} tainted {} {:?} bricks_up {}\nledger {:?}",
            $store.stats(),
            $store.take_events(),
            ids().map(|id| $store.probe(id)).collect::<Vec<_>>(),
            $store.live_sessions(),
            $store.tainted_sessions(),
            ids().map(|id| $store.is_tainted(id)).collect::<Vec<_>>(),
            $store.bricks_up(),
            $ledger.borrow(),
        )
    }};
}

#[test]
fn session_keyed_ssm_is_observably_the_per_brick_ssm() {
    let mut reads_served = 0u64;
    let mut discards = 0u64;
    let mut expirations = 0u64;
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x55_4d00 + case);
        let replicas = 1 + rng.uniform_usize(4);
        let mut new = statestore::Ssm::with_lease(replicas, LEASE);
        let mut old = reference::Ssm::with_lease(replicas, LEASE);
        let (new_ledger, old_ledger): (SharedLedger, SharedLedger) =
            (shared_ledger(), shared_ledger());
        new.attach_ledger(new_ledger.clone());
        old.attach_ledger(old_ledger.clone());
        let mut now = SimTime::ZERO;
        for n in 0..STEPS {
            let step = gen_step(&mut rng, replicas, &mut now);
            let at = format!("case {case} ({replicas} bricks) step {n} {step:?}");
            assert_eq!(
                apply!(new, new_ledger, &step),
                apply!(old, old_ledger, &step),
                "return value, {at}"
            );
            assert_eq!(
                observe!(new, new_ledger),
                observe!(old, old_ledger),
                "observers, {at}"
            );
        }
        let stats = new.stats();
        reads_served += stats.reads;
        discards += stats.checksum_discards;
        expirations += stats.lease_expirations;
    }
    // The walk reaches the paths it is here to compare.
    assert!(reads_served > 1_000, "{reads_served} reads served");
    assert!(discards > 100, "{discards} checksum discards");
    assert!(expirations > 100, "{expirations} lease expirations");
}
