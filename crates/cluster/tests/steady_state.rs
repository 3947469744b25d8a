//! End-to-end steady-state behaviour of the simulated testbed.
//!
//! These tests pin the calibration the experiments rely on: fault-free
//! throughput/latency near Table 5, the Table 1 workload mix, and basic
//! recovery round trips driven through the full event loop.

use cluster::{Sim, SimConfig, StoreChoice};
use faults::Fault;
use recovery::{RecoveryAction, RmConfig};
use simcore::{SimDuration, SimTime};
use workload::catalog::MixClass;
use workload::DetectorKind;

fn mins(m: u64) -> SimTime {
    SimTime::from_mins(m)
}

#[test]
fn fault_free_steady_state_matches_table5_shape() {
    let mut sim = Sim::new(SimConfig::default());
    sim.run_until(mins(10));
    let mut world = sim.finish();
    let s = world.pool.taw_ref().summary();
    let total_ops = s.good_ops + s.bad_ops;
    // 500 clients, ~7 s think + ~15 ms latency → ~71 req/s → ~42K in 10 min.
    let rps = total_ops as f64 / 600.0;
    assert!(
        (60.0..85.0).contains(&rps),
        "throughput {rps:.1} req/s out of range"
    );
    assert!(
        s.bad_ops as f64 / total_ops as f64 <= 0.002,
        "fault-free run should have (almost) no failures: {} bad of {}",
        s.bad_ops,
        total_ops
    );
    let mean_ms = world.pool.taw().response_ms().mean();
    assert!(
        (8.0..25.0).contains(&mean_ms),
        "FastS latency {mean_ms:.1} ms out of range (paper: 15.02)"
    );
}

#[test]
fn ssm_latency_is_higher_but_throughput_holds() {
    let mut sim = Sim::new(SimConfig {
        store: StoreChoice::Ssm,
        ..SimConfig::default()
    });
    sim.run_until(mins(10));
    let mut world = sim.finish();
    let mean_ms = world.pool.taw().response_ms().mean();
    assert!(
        (20.0..40.0).contains(&mean_ms),
        "SSM latency {mean_ms:.1} ms out of range (paper: 28.43)"
    );
    let s = world.pool.taw_ref().summary();
    let rps = (s.good_ops + s.bad_ops) as f64 / 600.0;
    assert!((60.0..85.0).contains(&rps), "throughput {rps:.1}");
}

#[test]
fn observed_mix_reproduces_table1() {
    let mut sim = Sim::new(SimConfig::default());
    sim.run_until(mins(20));
    let world = sim.finish();
    for class in MixClass::ALL {
        let observed = world.pool.mix().percent(class);
        let paper = class.paper_percent();
        assert!(
            (observed - paper).abs() <= 4.0,
            "{}: observed {observed:.1}%, paper {paper}%",
            class.label()
        );
    }
}

#[test]
fn microreboot_recovers_transient_fault_end_to_end() {
    let mut sim = Sim::new(SimConfig {
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
    sim.run_until(mins(6));
    let world = sim.finish();
    // The RM must have microrebooted something, and failures must stop.
    assert!(
        world.nodes[0].metrics().counter("reboots_finished") > 0,
        "no recovery happened: {:?}",
        world.rm.as_ref().map(|rm| rm.stats())
    );
    let taw = world.pool.taw_ref();
    // After recovery (give it a minute), the tail of the run is clean.
    let bad_tail = taw.bad_in(4 * 60, 6 * 60);
    assert_eq!(bad_tail, 0.0, "failures persisted after recovery");
    let server_urbs = world.nodes[0].stats().microreboots;
    assert!(server_urbs >= 1);
}

#[test]
fn deadlock_is_cured_by_rm_microreboot() {
    let mut sim = Sim::new(SimConfig {
        rm: Some(RmConfig::default()),
        detector: DetectorKind::Comparison,
        ..SimConfig::default()
    });
    sim.schedule_fault(
        mins(2),
        0,
        Fault::Deadlock {
            component: "MakeBid",
        },
    );
    sim.run_until(mins(8));
    let world = sim.finish();
    assert!(world.nodes[0].stats().microreboots >= 1);
    assert_eq!(world.nodes[0].hung(), 0, "hung threads cleaned up");
    let taw = world.pool.taw_ref();
    let bad_tail = taw.bad_in(6 * 60, 8 * 60);
    assert_eq!(bad_tail, 0.0, "deadlock persisted");
}

#[test]
fn manual_process_restart_round_trip() {
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_recovery(mins(2), 0, RecoveryAction::RestartProcess);
    sim.run_until(mins(5));
    let world = sim.finish();
    assert!(world.nodes[0].is_up());
    assert_eq!(world.nodes[0].stats().process_restarts, 1);
    let taw = world.pool.taw_ref();
    // The ~19 s outage plus lost FastS sessions costs hundreds of requests.
    let bad = taw.bad_in(110, 240);
    assert!(bad > 100.0, "restart should visibly hurt: {bad} bad ops");
    // But the system is clean again by minute 4.
    assert_eq!(taw.bad_in(4 * 60, 5 * 60), 0.0);
}

/// The balancer's affinity table holds exactly the cookies clients hold:
/// logout and abandonment unbind theirs as the run goes, and so does the
/// login-prompt reset once a process restart has lost the FastS sessions.
#[test]
fn lb_affinity_tracks_the_cookies_clients_still_hold() {
    let mut sim = Sim::new(SimConfig::default());
    sim.run_until(mins(4));
    let session_ops = |sim: &Sim| {
        let mix = sim.world().pool.mix();
        mix.total() as f64 * mix.percent(MixClass::SessionInitDel) / 100.0
    };
    assert!(
        session_ops(&sim) > 2_000.0,
        "thousands of logins and logouts by now, over 500 clients"
    );
    let held = sim.world().pool.with_session();
    assert!(held > 100, "many clients are logged in: {held}");
    assert_eq!(sim.world().lb.sessions_on(0), held);

    sim.schedule_recovery(mins(4), 0, RecoveryAction::RestartProcess);
    sim.run_until(mins(5));
    let prompted = sim.world().pool.taw_ref().bad_in(4 * 60, 5 * 60);
    assert!(
        prompted > 50.0,
        "lost sessions met login prompts: {prompted}"
    );
    sim.run_until(mins(8));
    let held = sim.world().pool.with_session();
    assert!(held > 100, "clients logged back in: {held}");
    assert_eq!(sim.world().lb.sessions_on(0), held);
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut sim = Sim::new(SimConfig {
            seed: 1234,
            ..SimConfig::default()
        });
        sim.schedule_fault(
            mins(1),
            0,
            Fault::TransientException {
                component: "BrowseCategories",
                calls: 30,
            },
        );
        sim.run_until(mins(3));
        let world = sim.finish();
        let s = world.pool.taw_ref().summary();
        (s.good_ops, s.bad_ops, s.good_actions, s.bad_actions)
    };
    assert_eq!(run(), run(), "same seed, same world");
}

#[test]
fn two_node_cluster_with_failover_redirects_sessions() {
    let mut sim = Sim::new(SimConfig {
        nodes: 2,
        rm: Some(RmConfig::default()),
        failover: true,
        drain: Some(SimDuration::from_millis(0)),
        ..SimConfig::default()
    });
    sim.schedule_fault(
        mins(2),
        0,
        Fault::TransientException {
            component: "BrowseCategories",
            calls: 100_000,
        },
    );
    sim.run_until(mins(6));
    let world = sim.finish();
    let urbs: u64 = world.nodes.iter().map(|n| n.stats().microreboots).sum();
    assert!(urbs >= 1, "some node microrebooted");
    // The workload has a small seed-dependent background rate of
    // application-level errors (corrupt-cell analogues in eBid's data
    // paths) even with no fault injected, so demand that the tail looks
    // like the healthy baseline — far below outage level — rather than
    // exactly zero.
    let bad_tail = world.pool.taw_ref().bad_in(5 * 60, 6 * 60);
    let good_tail = world.pool.taw_ref().good_in(5 * 60, 6 * 60);
    assert!(
        good_tail > 0.0 && bad_tail / good_tail < 0.01,
        "cluster healthy at the end (bad {bad_tail}, good {good_tail})"
    );
}
