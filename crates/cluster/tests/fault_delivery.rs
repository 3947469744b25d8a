//! Every fault kind reaches the layer it lives in.
//!
//! A fault is defined once, as a [`Fault`] variant, and delivered by one
//! of two matches: `AppServer::inject` for the server's hooks, the
//! cluster's `on_inject_fault` for everything outside the server process.
//! A kind that fell through both would be a silent no-op, and its
//! campaign would measure a healthy run. So for each of the 27 kinds this
//! injects one instance, chosen to be observable inside the window, into
//! a small seeded cluster and requires that the run's trace digest
//! differs from the same seed with no fault.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Sim, SimConfig, StoreChoice};
use faults::{table2_catalogue, Fault, FaultKind, NetEdge};
use recovery::RmConfig;
use simcore::telemetry::{shared_bus, TraceHashSink};
use simcore::SimTime;
use statestore::session::CorruptKind;

const SEED: u64 = 7;
const CLIENTS: usize = 60;
/// When the fault lands: well after the clients have logged in and
/// written session state, early enough to show inside the horizon.
const INJECT_AT_S: u64 = 31;
const HORIZON_S: u64 = 60;

/// One instance of `kind` whose effect shows inside the window — a hot
/// component, a leak that exhausts the 1 GB heap, heals after the
/// horizon — and the store it runs on: the SSM for SSM corruption and
/// the store and link kinds (there is no shared store to fault
/// otherwise), node-private FastS for the rest. One row per kind, so the
/// table is kept tidy by hand.
#[rustfmt::skip]
fn representative(kind: FaultKind) -> (StoreChoice, Fault) {
    use StoreChoice::{FastS, Ssm};
    let component = "ViewItem";
    let corrupt = CorruptKind::SetNull;
    let heals_after_s = HORIZON_S;
    let (lb, store) = (NetEdge::LbNode, NetEdge::NodeStore);
    match kind {
        FaultKind::Deadlock => (FastS, Fault::Deadlock { component }),
        FaultKind::InfiniteLoop => (FastS, Fault::InfiniteLoop { component }),
        FaultKind::AppMemoryLeak => (FastS, Fault::AppMemoryLeak { component, bytes_per_call: 64 << 20, persistent: false }),
        FaultKind::TransientException => (FastS, Fault::TransientException { component, calls: u32::MAX }),
        FaultKind::Intermittent => (FastS, Fault::Intermittent { component, permille: 500, heals_after_s: None }),
        FaultKind::SpuriousReports => (FastS, Fault::SpuriousReports { reports: 16 }),
        FaultKind::CorruptPrimaryKeys => (FastS, Fault::CorruptPrimaryKeys { kind: corrupt }),
        FaultKind::CorruptJndi => (FastS, Fault::CorruptJndi { component, kind: corrupt }),
        FaultKind::CorruptTxnMap => (FastS, Fault::CorruptTxnMap { component, kind: corrupt }),
        FaultKind::CorruptBeanAttrs => (FastS, Fault::CorruptBeanAttrs { component, kind: corrupt }),
        FaultKind::CorruptFastS => (FastS, Fault::CorruptFastS { kind: corrupt }),
        FaultKind::CorruptSsm => (Ssm, Fault::CorruptSsm),
        FaultKind::CorruptDb => (FastS, Fault::CorruptDb { kind: CorruptKind::SetWrong }),
        FaultKind::MemLeakIntraJvm => (FastS, Fault::MemLeakIntraJvm { bytes_per_sec: 100 << 20 }),
        FaultKind::MemLeakExtraJvm => (FastS, Fault::MemLeakExtraJvm { bytes_per_sec: 100 << 20 }),
        FaultKind::BitFlipMemory => (FastS, Fault::BitFlipMemory),
        FaultKind::BitFlipRegisters => (FastS, Fault::BitFlipRegisters),
        FaultKind::BadSyscalls => (FastS, Fault::BadSyscalls),
        FaultKind::Degraded => (FastS, Fault::Degraded { component, factor_permille: 4000 }),
        FaultKind::BrickCrash => (Ssm, Fault::BrickCrash { brick: 0, heals_after_s }),
        FaultKind::BrickCorrupt => (Ssm, Fault::BrickCorrupt { brick: 0 }),
        FaultKind::LeaseStorm => (Ssm, Fault::LeaseStorm),
        FaultKind::StoreSlow => (Ssm, Fault::StoreSlow { factor_permille: 4000, heals_after_s }),
        FaultKind::LinkPartition => (Ssm, Fault::LinkPartition { edge: lb, heals_after_s }),
        FaultKind::LinkLossy => (Ssm, Fault::LinkLossy { edge: lb, permille: 300, heals_after_s }),
        FaultKind::LinkDelay => (Ssm, Fault::LinkDelay { edge: store, extra_ms: 60, heals_after_s }),
        FaultKind::LinkDupe => (Ssm, Fault::LinkDupe { edge: store, permille: 200, heals_after_s }),
    }
}

/// The run's trace digest and event count, with `fault` (if any) injected
/// on node 0 at [`INJECT_AT_S`].
fn digest(store: StoreChoice, fault: Option<Fault>) -> (u64, u64) {
    let mut sim = Sim::new(SimConfig {
        clients_per_node: CLIENTS,
        store,
        rm: Some(RmConfig::default()),
        seed: SEED,
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let hash = Rc::new(RefCell::new(TraceHashSink::new()));
    bus.borrow_mut().add_sink(Box::new(hash.clone()));
    sim.attach_telemetry(bus);
    if let Some(fault) = fault {
        sim.schedule_fault(SimTime::from_secs(INJECT_AT_S), 0, fault);
    }
    sim.run_until(SimTime::from_secs(HORIZON_S));
    let hash = hash.borrow();
    (hash.value(), hash.count())
}

#[test]
fn every_fault_kind_moves_the_trace() {
    let fasts = digest(StoreChoice::FastS, None);
    let ssm = digest(StoreChoice::Ssm, None);
    let mut silent = Vec::new();
    for &kind in FaultKind::ALL {
        let (store, fault) = representative(kind);
        assert_eq!(fault.kind(), kind, "{fault:?}");
        let healthy = match store {
            StoreChoice::FastS => fasts,
            StoreChoice::Ssm => ssm,
        };
        if digest(store, Some(fault)) == healthy {
            silent.push(fault);
        }
    }
    assert!(
        silent.is_empty(),
        "these faults left the trace as if nothing had been injected: {silent:?}"
    );
}

#[test]
fn injection_targets_exist_in_ebid() {
    let names: Vec<&str> = ebid::components::descriptors()
        .iter()
        .map(|d| d.name)
        .collect();
    for row in table2_catalogue() {
        let target = match row.fault {
            Fault::Deadlock { component }
            | Fault::InfiniteLoop { component }
            | Fault::AppMemoryLeak { component, .. }
            | Fault::TransientException { component, .. }
            | Fault::CorruptJndi { component, .. }
            | Fault::CorruptTxnMap { component, .. }
            | Fault::CorruptBeanAttrs { component, .. } => component,
            _ => continue,
        };
        assert!(names.contains(&target), "unknown target {target}");
    }
}
