//! Fast end-to-end checks of the paper's qualitative claims, spanning
//! every crate through the facade. (The full quantitative reproductions
//! live in the `bench` experiment binaries; these are the smoke-test
//! versions that run in seconds.)

use microreboot::cluster::{Sim, SimConfig, StoreChoice};
use microreboot::faults::Fault;
use microreboot::recovery::{PolicyChoice, RecoveryAction, RmConfig};
use microreboot::simcore::{SimDuration, SimTime};
use microreboot::statestore::session::CorruptKind;

fn mins(m: u64) -> SimTime {
    SimTime::from_mins(m)
}

/// "Microreboots recover most of the same failures as full reboots, but
/// do so an order of magnitude faster and result in an order of magnitude
/// savings in lost work."
#[test]
fn microreboot_beats_restart_by_an_order_of_magnitude() {
    let run = |policy: PolicyChoice| {
        let mut sim = Sim::new(SimConfig {
            rm: Some(RmConfig::default()),
            policy,
            ..SimConfig::default()
        });
        sim.schedule_fault(
            mins(2),
            0,
            Fault::CorruptJndi {
                component: "RegisterNewUser",
                kind: CorruptKind::SetNull,
            },
        );
        sim.run_until(mins(5));
        sim.finish().pool.taw_ref().summary().bad_ops
    };
    let restart = run(PolicyChoice::RebootFirst);
    let urb = run(PolicyChoice::Ladder);
    assert!(
        restart as f64 / urb.max(1) as f64 >= 10.0,
        "restart lost {restart}, uRB lost {urb}: not an order of magnitude"
    );
}

/// "Being minimally-disruptive allows transparent call-level retries to
/// mask a microreboot from end users."
#[test]
fn retries_mask_microreboots() {
    let run = |retry: bool| {
        let mut sim = Sim::new(SimConfig {
            retry_enabled: retry,
            ..SimConfig::default()
        });
        for i in 0..4u64 {
            sim.schedule_recovery(
                SimTime::from_secs(60 + 30 * i),
                0,
                RecoveryAction::microreboot(&["BrowseCategories"]),
            );
        }
        sim.run_until(SimTime::from_secs(240));
        sim.finish().pool.taw_ref().summary().bad_ops
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with < without,
        "retry should mask failures: {with} with vs {without} without"
    );
}

/// "Systems can be rejuvenated by parts, without ever being shut down."
#[test]
fn microrejuvenation_reclaims_leaks_without_downtime() {
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_fault(
        SimTime::from_secs(5),
        0,
        Fault::AppMemoryLeak {
            component: "ViewItem",
            bytes_per_call: 2 << 20,
            persistent: true,
        },
    );
    sim.enable_rejuvenation(0, 350 << 20, 800 << 20, SimDuration::from_secs(5));
    sim.run_until(mins(8));
    let world = sim.finish();
    assert!(
        world.nodes[0].available_memory() > 300 << 20,
        "rejuvenation kept the heap alive"
    );
    assert!(world.nodes[0].is_up());
    assert_eq!(
        world.nodes[0].stats().process_restarts,
        0,
        "never shut down"
    );
    assert!(
        world.nodes[0].stats().microreboots >= 1,
        "rejuvenated by parts"
    );
    let taw = world.pool.taw_ref();
    for m in 1..8 {
        assert!(
            taw.good_in(m * 60, m * 60 + 59) > 0.0,
            "good Taw never drops to zero (minute {m})"
        );
    }
}

/// "Microreboots can be employed at the slightest hint of failure ...
/// even when mistakes in failure detection are likely": a useless
/// microreboot on a healthy system costs almost nothing.
#[test]
fn false_positive_microreboots_are_cheap() {
    let mut sim = Sim::new(SimConfig::default());
    for i in 0..5u64 {
        sim.schedule_recovery(
            SimTime::from_secs(60 + 20 * i),
            0,
            RecoveryAction::microreboot(&["ViewItem"]),
        );
    }
    sim.run_until(SimTime::from_secs(240));
    let world = sim.finish();
    let s = world.pool.taw_ref().summary();
    let per_urb = s.bad_ops as f64 / 5.0;
    assert!(
        per_urb < 120.0,
        "a useless microreboot should cost ~tens of requests, cost {per_urb}"
    );
}

/// SSM keeps sessions through process restarts; FastS does not — the
/// trade-off behind Figure 1's post-restart failures.
#[test]
fn session_store_placement_controls_restart_damage() {
    let run = |store: StoreChoice| {
        let mut sim = Sim::new(SimConfig {
            store,
            ..SimConfig::default()
        });
        sim.schedule_recovery(mins(2), 0, RecoveryAction::RestartProcess);
        sim.run_until(mins(5));
        sim.finish().pool.taw_ref().summary().bad_ops
    };
    let fasts = run(StoreChoice::FastS);
    let ssm = run(StoreChoice::Ssm);
    assert!(
        fasts > ssm,
        "FastS restart loses sessions ({fasts} bad) vs SSM ({ssm} bad)"
    );
}

/// The recursive policy escalates to a process restart for faults below
/// the application (here: bad system call return values).
#[test]
fn sub_jvm_faults_escalate_to_process_restart() {
    let mut sim = Sim::new(SimConfig {
        rm: Some(RmConfig::default()),
        ..SimConfig::default()
    });
    sim.schedule_fault(mins(2), 0, Fault::BadSyscalls);
    sim.run_until(mins(6));
    let world = sim.finish();
    assert!(
        world.nodes[0].stats().process_restarts >= 1,
        "manager: {:?}",
        world.rm.as_ref().map(|rm| rm.stats())
    );
    assert_eq!(world.pool.taw_ref().bad_in(5 * 60, 6 * 60 - 1), 0.0);
}

/// Microreboot durations match Table 3's calibration end to end.
#[test]
fn microreboot_durations_match_table3() {
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_recovery(
        mins(1),
        0,
        RecoveryAction::microreboot(&["BrowseCategories"]),
    );
    sim.run_until(mins(2));
    let world = sim.finish();
    let reboots = world.nodes[0].metrics().histogram("reboot_ms").unwrap();
    assert_eq!(reboots.count(), 1, "one recovery");
    let dur = reboots.mean();
    // Paper: 411 ms ± trial jitter.
    assert!(dur >= SimDuration::from_millis(370), "got {dur}");
    assert!(dur <= SimDuration::from_millis(460), "got {dur}");
}
