//! Per-component containers.
//!
//! A J2EE server instantiates each application component inside a managed
//! container that owns its instance pool, metadata and resources (Section
//! 3.1). The container is the unit a microreboot operates on: "destroy all
//! extant instances, kill all shepherding threads, release all associated
//! resources, discard server metadata, then reinstantiate and reinitialize"
//! (Section 3.2) — with one deliberate exception, the classloader, which is
//! preserved across microreboots.
//!
//! The container is also where most injected faults live: deadlocks,
//! infinite loops, per-invocation memory leaks, transient exceptions,
//! corrupted transaction-method-map metadata and corrupted stateless-bean
//! instance attributes are all container-resident state, which is exactly
//! *why* a component-level microreboot cures them.

use statestore::session::CorruptKind;

use crate::descriptor::ComponentDescriptor;

/// Lifecycle state of a container.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContainerState {
    /// Deployed but not yet initialized (or shut down).
    Stopped,
    /// Being destroyed by a microreboot (the brief "crash" phase).
    Crashing,
    /// Reinitializing after a crash; callers get the sentinel.
    Starting,
    /// Serving calls.
    Active,
}

/// Transaction attribute of a business method (a J2EE `trans-attribute`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnAttr {
    /// Join the caller's transaction or start one.
    Required,
    /// Run without a transaction.
    NotSupported,
}

/// Error returned when the transaction method map is corrupt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnMapError {
    /// The entry was nulled: method dispatch fails with an exception.
    NullEntry,
    /// The entry holds an invalid attribute: dispatch fails.
    InvalidEntry,
    /// The method has no entry at all (dispatch bug, not injection).
    UnknownMethod,
}

/// The per-container map from method names to transaction attributes.
///
/// Table 2 corrupts this metadata; because it lives in the container, an
/// EJB-level microreboot rebuilds it. The *wrong* corruption silently
/// flips attributes, so writes that should be transactional run bare — and
/// a later abort cannot undo them (the ≈ "manual DB repair" rows).
#[derive(Clone, Debug, Default)]
pub struct TxnMethodMap {
    /// Sorted by method name. A component declares one or two methods, so
    /// the per-call [`TxnMethodMap::attr_for`] is a short linear probe.
    entries: Vec<(&'static str, Option<TxnAttr>)>,
    invalid: bool,
    wrong: bool,
}

impl TxnMethodMap {
    /// Creates a map with every listed method `Required`.
    pub(crate) fn with_methods(methods: &[&'static str]) -> Self {
        let mut map = TxnMethodMap::default();
        for m in methods {
            map.set(m, TxnAttr::Required);
        }
        map
    }

    /// Declares one method with an explicit attribute.
    pub fn set(&mut self, method: &'static str, attr: TxnAttr) {
        match self.entries.binary_search_by(|&(m, _)| m.cmp(method)) {
            Ok(i) => self.entries[i].1 = Some(attr),
            Err(i) => self.entries.insert(i, (method, Some(attr))),
        }
    }

    /// Returns the attribute to use for `method`.
    pub fn attr_for(&self, method: &str) -> Result<TxnAttr, TxnMapError> {
        if self.invalid {
            return Err(TxnMapError::InvalidEntry);
        }
        let entry = self.entries.iter().find(|(m, _)| *m == method);
        match entry.map(|(_, attr)| attr) {
            None => Err(TxnMapError::UnknownMethod),
            Some(None) => Err(TxnMapError::NullEntry),
            Some(Some(attr)) if self.wrong => {
                // Silently flipped attribute: type-checks, behaves wrongly.
                Ok(match attr {
                    TxnAttr::Required => TxnAttr::NotSupported,
                    TxnAttr::NotSupported => TxnAttr::Required,
                })
            }
            Some(Some(attr)) => Ok(*attr),
        }
    }

    /// Applies one corruption kind to the whole map.
    pub fn corrupt(&mut self, kind: CorruptKind) {
        match kind {
            CorruptKind::SetNull => {
                for (_, attr) in &mut self.entries {
                    *attr = None;
                }
            }
            CorruptKind::SetInvalid => self.invalid = true,
            CorruptKind::SetWrong => self.wrong = true,
        }
    }

    /// Returns true if any corruption is present.
    pub fn is_corrupt(&self) -> bool {
        self.invalid || self.wrong || self.entries.iter().any(|(_, attr)| attr.is_none())
    }

    /// Returns the number of declared methods.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no methods are declared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One pooled component instance.
#[derive(Clone, Copy, Debug)]
struct Instance {
    corrupt: Option<CorruptKind>,
}

/// A pool of component instances.
///
/// The container sets up "an object instance pool" per component (Section
/// 5.2's reinit cost breakdown). The pool is where corrupted stateless-bean
/// class attributes live: a call served by a corrupted instance misbehaves,
/// and — for detectable corruption — the container discards that instance,
/// which is why Table 2 marks those rows "unnecessary" (no reboot needed:
/// the fault is naturally expunged after the first call fails).
#[derive(Clone, Debug, Default)]
pub struct InstancePool {
    free: Vec<Instance>,
}

/// What serving a call with a pooled instance produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstanceOutcome {
    /// A healthy instance served the call.
    Clean,
    /// A corrupted instance raised a detectable error; it was discarded
    /// from the pool.
    FailedAndDiscarded(CorruptKind),
    /// A wrongly-corrupted instance served the call without visible error;
    /// the response is wrong and the instance stays pooled.
    ServedWrong,
}

impl InstancePool {
    /// Creates a pool pre-populated with `initial` clean instances.
    pub(crate) fn with_initial(initial: usize) -> Self {
        InstancePool {
            free: vec![Instance { corrupt: None }; initial],
        }
    }

    /// Returns the number of pooled (idle) instances.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Serves one call with the next pooled instance (creating one if the
    /// pool is empty), applying corruption semantics.
    pub fn serve(&mut self) -> InstanceOutcome {
        let inst = self.free.pop().unwrap_or(Instance { corrupt: None });
        match inst.corrupt {
            None => {
                self.free.push(inst);
                InstanceOutcome::Clean
            }
            Some(kind @ (CorruptKind::SetNull | CorruptKind::SetInvalid)) => {
                // Detectable failure: discard the bad instance.
                InstanceOutcome::FailedAndDiscarded(kind)
            }
            Some(CorruptKind::SetWrong) => {
                self.free.push(inst);
                InstanceOutcome::ServedWrong
            }
        }
    }

    /// Corrupts the attributes of every pooled instance (fault injection).
    ///
    /// Returns how many instances were corrupted.
    pub fn corrupt_all(&mut self, kind: CorruptKind) -> usize {
        for i in &mut self.free {
            i.corrupt = Some(kind);
        }
        self.free.len()
    }
}

/// Injected faults resident in a container, cleared by microrebooting it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultFlags {
    /// New calls into this component deadlock (hold their thread forever).
    pub deadlocked: bool,
    /// New calls spin forever (hold their thread, burn CPU).
    pub infinite_loop: bool,
    /// Each invocation leaks this many bytes into the heap.
    pub leak_per_call: u64,
    /// The next N calls raise a transient exception.
    pub transient_exceptions: u32,
    /// Intermittent fault: each call raises an exception with this
    /// probability in permille (0 = off). Unlike `transient_exceptions`
    /// it never exhausts on its own — it self-heals at `heals_at` or is
    /// cured by a microreboot.
    pub intermittent_permille: u32,
    /// When the intermittent fault self-heals (microseconds of sim time;
    /// `u64::MAX` = never). Stored as a scalar so the flags stay `Copy`
    /// without dragging sim-time types into the components crate.
    pub intermittent_heals_at_us: u64,
}

impl FaultFlags {
    /// Returns true if any fault is set.
    pub fn any(&self) -> bool {
        self.deadlocked
            || self.infinite_loop
            || self.leak_per_call > 0
            || self.transient_exceptions > 0
            || self.intermittent_permille > 0
    }
}

/// Everything in a container that a crash discards. A crash replaces the
/// whole part with `Default::default()`, so a field added here is wiped
/// by construction.
#[derive(Clone, Debug, Default)]
pub struct Volatile {
    /// Per-method transaction metadata, rebuilt on reinit.
    pub txn_map: TxnMethodMap,
    /// The instance pool, destroyed and repopulated on microreboot.
    pub pool: InstancePool,
    /// Injected container-resident faults, cleared on microreboot.
    pub faults: FaultFlags,
    /// Bytes leaked so far by the leak fault (reclaimed on microreboot).
    leaked_bytes: u64,
    /// Calls currently executing inside this component.
    inflight: u32,
}

/// The managed container for one deployed component. Its durable half —
/// descriptor, methods, lifecycle state and reboot count — survives every
/// reboot level by design (Section 3.2); `vol` does not.
#[derive(Clone, Debug)]
pub struct Container {
    /// The component's descriptor (immutable deployment information).
    pub descriptor: ComponentDescriptor,
    /// Methods this component exposes (used to rebuild the txn map).
    methods: &'static [&'static str],
    state: ContainerState,
    /// How many times this container has been microrebooted.
    microreboots: u64,
    /// The part a crash throws away whole.
    pub vol: Volatile,
}

impl Container {
    /// Default number of pooled instances created at initialization.
    pub(crate) const DEFAULT_POOL: usize = 8;

    /// Creates a stopped container for `descriptor`.
    pub fn new(descriptor: ComponentDescriptor, methods: &'static [&'static str]) -> Self {
        Container {
            descriptor,
            methods,
            state: ContainerState::Stopped,
            microreboots: 0,
            vol: Volatile::default(),
        }
    }

    /// Returns the lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Returns true if calls may be dispatched into this container.
    pub fn is_active(&self) -> bool {
        self.state == ContainerState::Active
    }

    /// Returns how many microreboots this container has undergone.
    pub fn microreboots(&self) -> u64 {
        self.microreboots
    }

    /// Returns the calls currently executing inside the component.
    pub fn inflight(&self) -> u32 {
        self.vol.inflight
    }

    /// Records a call entering the component.
    pub fn call_enter(&mut self) {
        self.vol.inflight += 1;
    }

    /// Records a call leaving the component (normally or killed).
    pub fn call_exit(&mut self) {
        self.vol.inflight = self.vol.inflight.saturating_sub(1);
    }

    /// Returns the container's current heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        match self.state {
            ContainerState::Stopped => 0,
            _ => self.descriptor.base_bytes + self.vol.leaked_bytes,
        }
    }

    /// Returns bytes accumulated by the leak fault.
    pub fn leaked_bytes(&self) -> u64 {
        self.vol.leaked_bytes
    }

    /// Adds `bytes` to the leak account (the server calls this per
    /// invocation while the leak fault is set).
    pub fn leak(&mut self, bytes: u64) {
        self.vol.leaked_bytes = self.vol.leaked_bytes.saturating_add(bytes);
    }

    /// Begins the crash phase of a microreboot: destroys instances,
    /// discards metadata and drops in-flight call accounting. The caller
    /// (the server) is responsible for killing the shepherding threads and
    /// aborting transactions.
    ///
    /// Returns the number of bytes the crash reclaims.
    pub fn crash(&mut self) -> u64 {
        self.state = ContainerState::Crashing;
        std::mem::take(&mut self.vol).leaked_bytes
    }

    /// Marks the container as reinitializing (sentinel bound, deployer
    /// verifying interfaces, pool being repopulated).
    pub fn begin_start(&mut self) {
        self.state = ContainerState::Starting;
    }

    /// Completes reinitialization: fresh pool, fresh metadata, active.
    pub fn complete_start(&mut self) {
        self.vol.pool = InstancePool::with_initial(Self::DEFAULT_POOL);
        self.vol.txn_map = TxnMethodMap::with_methods(self.methods);
        self.state = ContainerState::Active;
        self.microreboots += 1;
    }

    /// Full shutdown (application stop or process restart): everything is
    /// discarded.
    pub fn full_stop(&mut self) {
        self.crash();
        self.state = ContainerState::Stopped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentKind;
    use simcore::SimDuration;

    fn container() -> Container {
        let d = ComponentDescriptor::new("Item", ComponentKind::EntityBean)
            .with_costs(SimDuration::from_millis(10), SimDuration::from_millis(500))
            .with_base_bytes(1 << 20);
        Container::new(d, &["read", "write"])
    }

    fn started() -> Container {
        let mut c = container();
        c.begin_start();
        c.complete_start();
        c
    }

    #[test]
    fn lifecycle_transitions() {
        let mut c = container();
        assert_eq!(c.state(), ContainerState::Stopped);
        assert_eq!(c.heap_bytes(), 0);
        c.begin_start();
        assert_eq!(c.state(), ContainerState::Starting);
        c.complete_start();
        assert!(c.is_active());
        assert_eq!(c.heap_bytes(), 1 << 20);
        assert_eq!(c.microreboots(), 1);
    }

    #[test]
    fn microreboot_clears_faults_and_leaks() {
        let mut c = started();
        c.vol.faults.deadlocked = true;
        c.vol.faults.leak_per_call = 1024;
        c.leak(4096);
        c.vol.txn_map.corrupt(CorruptKind::SetNull);
        assert!(c.vol.txn_map.is_corrupt());
        assert_eq!(c.heap_bytes(), (1 << 20) + 4096);

        let reclaimed = c.crash();
        assert_eq!(reclaimed, 4096);
        c.begin_start();
        c.complete_start();

        assert!(!c.vol.faults.any());
        assert!(!c.vol.txn_map.is_corrupt());
        assert_eq!(c.leaked_bytes(), 0);
        assert_eq!(c.microreboots(), 2);
    }

    /// `Debug` with the reboot counter masked: the one field a reboot is
    /// meant to move.
    fn image(c: &Container) -> String {
        let count = format!("microreboots: {}", c.microreboots());
        format!("{c:?}").replace(&count, "microreboots: _")
    }

    #[test]
    fn a_reboot_leaves_nothing_a_fresh_start_would_not_have() {
        let fresh = image(&started());
        for name in ["crash", "full_stop"] {
            let mut c = started();
            c.vol.faults = FaultFlags {
                deadlocked: true,
                infinite_loop: true,
                leak_per_call: 64,
                transient_exceptions: 3,
                intermittent_permille: 500,
                intermittent_heals_at_us: 9,
            };
            c.leak(4096);
            c.call_enter();
            c.call_enter();
            c.vol.txn_map.set("extra", TxnAttr::NotSupported);
            c.vol.txn_map.corrupt(CorruptKind::SetNull);
            c.vol.txn_map.corrupt(CorruptKind::SetWrong);
            c.vol.pool.corrupt_all(CorruptKind::SetInvalid);
            c.vol.pool.serve();
            assert_ne!(image(&c), fresh, "{name}: the set-up dirtied nothing");

            if name == "crash" {
                c.crash();
            } else {
                c.full_stop();
            }
            c.begin_start();
            c.complete_start();
            assert_eq!(image(&c), fresh, "{name}: a field survived the reboot");
            assert_eq!(c.microreboots(), 2, "{name}");
        }
    }

    #[test]
    fn full_stop_discards_everything() {
        let mut c = started();
        c.leak(4096);
        c.full_stop();
        assert_eq!(c.state(), ContainerState::Stopped);
        assert_eq!(c.heap_bytes(), 0);
        assert_eq!(c.vol.pool.idle(), 0);
    }

    #[test]
    fn inflight_accounting_saturates() {
        let mut c = started();
        c.call_enter();
        c.call_enter();
        assert_eq!(c.inflight(), 2);
        c.call_exit();
        c.call_exit();
        c.call_exit();
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn txn_map_corruptions() {
        let mut m = TxnMethodMap::with_methods(&["bid"]);
        assert_eq!(m.attr_for("bid"), Ok(TxnAttr::Required));
        assert_eq!(m.attr_for("nope"), Err(TxnMapError::UnknownMethod));

        m.corrupt(CorruptKind::SetNull);
        assert_eq!(m.attr_for("bid"), Err(TxnMapError::NullEntry));
        assert!(m.is_corrupt());

        let mut m = TxnMethodMap::with_methods(&["bid"]);
        m.corrupt(CorruptKind::SetInvalid);
        assert_eq!(m.attr_for("bid"), Err(TxnMapError::InvalidEntry));

        let mut m = TxnMethodMap::with_methods(&["bid"]);
        m.corrupt(CorruptKind::SetWrong);
        assert_eq!(
            m.attr_for("bid"),
            Ok(TxnAttr::NotSupported),
            "wrong corruption silently flips the attribute"
        );
        assert!(m.is_corrupt());
    }

    #[test]
    fn pool_serves_and_discards_corrupt_instances() {
        let mut p = InstancePool::with_initial(2);
        assert_eq!(p.serve(), InstanceOutcome::Clean);
        assert_eq!(p.idle(), 2);

        p.corrupt_all(CorruptKind::SetNull);
        assert_eq!(
            p.serve(),
            InstanceOutcome::FailedAndDiscarded(CorruptKind::SetNull)
        );
        assert_eq!(p.idle(), 1, "bad instance discarded");
        assert_eq!(
            p.serve(),
            InstanceOutcome::FailedAndDiscarded(CorruptKind::SetNull)
        );
        // Pool now empty: a fresh clean instance is created on demand.
        assert_eq!(p.serve(), InstanceOutcome::Clean);
        assert_eq!(p.idle(), 1, "and it stays pooled");
    }

    #[test]
    fn pool_wrong_corruption_persists() {
        let mut p = InstancePool::with_initial(1);
        p.corrupt_all(CorruptKind::SetWrong);
        assert_eq!(p.serve(), InstanceOutcome::ServedWrong);
        assert_eq!(p.serve(), InstanceOutcome::ServedWrong, "not discarded");
    }

    #[test]
    fn leak_accounting() {
        let mut c = started();
        c.vol.faults.leak_per_call = 100;
        for _ in 0..10 {
            c.leak(c.vol.faults.leak_per_call);
        }
        assert_eq!(c.leaked_bytes(), 1000);
    }
}
