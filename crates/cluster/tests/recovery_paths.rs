//! Cluster-level recovery-path tests: rejuvenation wiring, SSM clusters,
//! escalation through the full event loop, load-balancer interplay, and
//! commanded reboots scheduled by the conductor.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Sim, SimConfig, StoreChoice};
use faults::Fault;
use recovery::{PolicyChoice, RecoveryAction, RmConfig};
use simcore::telemetry::{shared_bus, TelemetryEvent};
use simcore::{SimDuration, SimTime, TraceRecorder};

fn mins(m: u64) -> SimTime {
    SimTime::from_mins(m)
}

#[test]
fn rejuvenation_service_learns_the_leaker() {
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_fault(
        SimTime::from_secs(5),
        0,
        Fault::AppMemoryLeak {
            component: "ViewItem",
            bytes_per_call: 3 << 20,
            persistent: true,
        },
    );
    sim.enable_rejuvenation(0, 350 << 20, 800 << 20, SimDuration::from_secs(5));
    sim.run_until(mins(12));
    let world = sim.finish();
    let service = world.rejuv[0].as_ref().expect("service enabled");
    let released = service.released_table();
    let view_item = released.get("ViewItem").copied().unwrap_or(0);
    assert!(
        view_item > 100 << 20,
        "the service should have measured ViewItem's big release: {released:?}"
    );
    // After the first full sweep, ViewItem must be tried first: later
    // episodes need only a few microreboots each.
    // No recovery manager runs here: every component reboot is a
    // rejuvenation.
    let rejuv_events = world.nodes[0]
        .metrics()
        .counter("reboots_finished_component");
    // At ~13 MB/s the heap re-alarms every ~35 s: roughly 18 episodes in
    // 12 minutes. The first episode sweeps all 27 components; if every
    // later episode also swept, we would see ~470 events — targeted
    // episodes cost ~1 microreboot each.
    assert!(
        rejuv_events < 27 * 2,
        "later episodes should be targeted, not full sweeps ({rejuv_events} events)"
    );
    assert!(world.nodes[0].is_up());
}

#[test]
fn rejuvenation_escalates_to_restart_when_microreboots_cannot_help() {
    // An intra-JVM leak (outside any component): rolling microreboots
    // reclaim nothing, so the service must fall back to a JVM restart.
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_fault(
        SimTime::from_secs(5),
        0,
        Fault::MemLeakIntraJvm {
            bytes_per_sec: 3 << 20,
        },
    );
    sim.enable_rejuvenation(0, 350 << 20, 800 << 20, SimDuration::from_secs(5));
    sim.run_until(mins(10));
    let world = sim.finish();
    assert!(
        world.nodes[0].stats().process_restarts >= 1,
        "whole-JVM rejuvenation is the fallback: {:?}",
        world.nodes[0].stats()
    );
    assert!(world.nodes[0].is_up(), "and it worked");
}

#[test]
fn ssm_cluster_failover_preserves_sessions() {
    let run = |store: StoreChoice| {
        let mut sim = Sim::new(SimConfig {
            nodes: 2,
            store,
            failover: true,
            rm: Some(RmConfig::default()),
            policy: PolicyChoice::RebootFirst,
            ..SimConfig::default()
        });
        sim.schedule_fault(
            mins(2),
            0,
            Fault::TransientException {
                component: "BrowseCategories",
                calls: u32::MAX,
            },
        );
        sim.run_until(mins(6));
        sim.finish().pool.taw_ref().summary().bad_ops
    };
    let fasts = run(StoreChoice::FastS);
    let ssm = run(StoreChoice::Ssm);
    assert!(
        ssm < fasts / 2,
        "SSM failover avoids session loss: {ssm} bad vs {fasts} with FastS"
    );
}

#[test]
fn recursive_policy_escalates_when_microreboot_misses() {
    // Bit flips in process memory cannot be cured by any component
    // microreboot; the RM must climb the ladder to a process restart.
    let mut sim = Sim::new(SimConfig {
        rm: Some(RmConfig::default()),
        ..SimConfig::default()
    });
    sim.schedule_fault(mins(2), 0, Fault::BitFlipMemory);
    sim.run_until(mins(8));
    let world = sim.finish();
    assert!(
        world.nodes[0].stats().process_restarts >= 1,
        "ladder must reach the JVM: {:?}",
        world.rm.as_ref().map(|rm| rm.stats())
    );
    assert_eq!(
        world.pool.taw_ref().bad_in(7 * 60, 8 * 60 - 1),
        0.0,
        "cured by the end"
    );
}

#[test]
fn register_bit_flip_crash_is_detected_and_restarted() {
    let mut sim = Sim::new(SimConfig {
        rm: Some(RmConfig::default()),
        ..SimConfig::default()
    });
    sim.schedule_fault(mins(2), 0, Fault::BitFlipRegisters);
    sim.run_until(mins(6));
    let world = sim.finish();
    assert!(world.nodes[0].is_up(), "restarted after the crash");
    assert!(world.nodes[0].stats().process_restarts >= 1);
    // Connection-level failures during the outage, then clean.
    assert!(world.pool.taw_ref().summary().bad_ops > 0);
    assert_eq!(world.pool.taw_ref().bad_in(5 * 60, 6 * 60 - 1), 0.0);
}

#[test]
fn drain_configured_cluster_still_recovers() {
    let mut sim = Sim::new(SimConfig {
        retry_enabled: true,
        drain: Some(SimDuration::from_millis(200)),
        rm: Some(RmConfig::default()),
        ..SimConfig::default()
    });
    sim.schedule_fault(
        mins(2),
        0,
        Fault::CorruptJndi {
            component: "BrowseCategories",
            kind: statestore::session::CorruptKind::SetNull,
        },
    );
    sim.run_until(mins(5));
    let world = sim.finish();
    assert!(world.nodes[0].stats().microreboots >= 1);
    assert_eq!(world.pool.taw_ref().bad_in(4 * 60, 5 * 60 - 1), 0.0);
}

#[test]
fn manual_os_reboot_round_trip() {
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_recovery(mins(2), 0, RecoveryAction::RebootOs);
    sim.run_until(mins(6));
    let world = sim.finish();
    assert!(world.nodes[0].is_up());
    assert_eq!(world.nodes[0].stats().os_reboots, 1);
    // ~109 s outage: substantial damage, then clean.
    let taw = world.pool.taw_ref();
    assert!(taw.bad_in(115, 240) > 500.0);
    assert_eq!(taw.bad_in(5 * 60, 6 * 60 - 1), 0.0);
}

/// Commands each `(offset in ms past t = 60 s, action)` on node 0 of a
/// default cluster with no manager, and returns the run's schedule
/// events in emission order: `"<kind> <level>"`, the level omitted where
/// the event has none.
fn commanded_schedule(commands: &[(u64, RecoveryAction)]) -> Vec<String> {
    let mut sim = Sim::new(SimConfig::default());
    let bus = shared_bus();
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    bus.borrow_mut().add_sink(Box::new(recorder.clone()));
    sim.attach_telemetry(bus);
    for (offset_ms, action) in commands {
        sim.schedule_recovery(SimTime::from_millis(60_000 + offset_ms), 0, action.clone());
    }
    sim.run_until(mins(2));
    let schedule = recorder
        .borrow()
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TelemetryEvent::RebootBegun { level, .. }
            | TelemetryEvent::RebootFinished { level, .. }
            | TelemetryEvent::RecoveryQueued { level, .. } => {
                Some(format!("{} {level:?}", ev.kind()))
            }
            TelemetryEvent::RecoveryCoalesced { .. } => Some(ev.kind().to_string()),
            _ => None,
        })
        .collect();
    schedule
}

/// A second command for a microreboot already in flight is absorbed by
/// the running ticket, not begun again or dropped unannounced.
#[test]
fn repeated_commanded_microreboot_coalesces_into_the_one_in_flight() {
    let mrb = RecoveryAction::microreboot(&["ViewItem"]);
    let schedule = commanded_schedule(&[(0, mrb.clone()), (100, mrb)]);
    assert_eq!(
        schedule,
        [
            "reboot_begun Component",
            "recovery_coalesced",
            "reboot_finished Component"
        ]
    );
}

/// A commanded process restart that arrives mid-microreboot waits at the
/// conductor's barrier until the microreboot has finished, instead of
/// cancelling it.
#[test]
fn commanded_restart_waits_for_the_microreboot_in_flight() {
    let schedule = commanded_schedule(&[
        (0, RecoveryAction::microreboot(&["ViewItem"])),
        (100, RecoveryAction::RestartProcess),
    ]);
    assert_eq!(
        schedule,
        [
            "reboot_begun Component",
            "recovery_queued Process",
            "reboot_finished Component",
            "reboot_begun Process",
            "reboot_finished Process"
        ]
    );
}
