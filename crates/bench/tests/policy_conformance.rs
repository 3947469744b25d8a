//! Conformance properties every registered recovery policy
//! ([`recovery::PolicyChoice`]) must satisfy, checked through the chaos
//! runner's invariant battery:
//!
//! * **bounded-grace termination** — the failure episode converges within
//!   the campaign tail + grace window (no policy may loop forever);
//! * **acks conserved** — every decision the policy hands the executor is
//!   acknowledged exactly once (`in_flight == 0` at quiescence), even
//!   when the RM itself crashes mid-episode and loses its state;
//! * **no absorbing state under flapping** — a recurring fault must not
//!   wedge the policy: the node ends up, goodput recovers;
//! * **quarantine always lifted** — bulkhead holds and failover
//!   redirects never outlive the episode;
//! * **determinism** — a re-run of the same scenario reproduces the
//!   trace digest bit-for-bit.

use bench::chaos::{run_scenario, RunOptions};
use faults::campaign::{FlapSchedule, RmCrashSchedule, Scenario};
use faults::Fault;
use recovery::PolicyChoice;

/// A flapping transient fault: recurs three times after the initial
/// injection, each recurrence landing on a "recovered" system.
fn flap_scenario(seed: u64) -> Scenario {
    Scenario {
        run: 0,
        sim_seed: seed,
        fault: Fault::TransientException {
            component: "MakeBid",
            calls: u32::MAX,
        },
        inject_at_s: 10,
        second: None,
        flap: Some(FlapSchedule {
            recurrences: 3,
            gap_s: 40,
        }),
        comparison_detector: true,
        parallel_rm: false,
        budgeted_retry: false,
        rm_crash: None,
    }
}

/// A deadlock with the RM itself crashing mid-episode (ReHype): the
/// policy's volatile state is wiped and in-flight acknowledgements are
/// dropped while the RM is down.
fn rm_crash_scenario(seed: u64) -> Scenario {
    Scenario {
        run: 1,
        sim_seed: seed,
        fault: Fault::Deadlock {
            component: "SearchItemsByCategory",
        },
        inject_at_s: 10,
        second: None,
        flap: None,
        comparison_detector: false,
        parallel_rm: false,
        budgeted_retry: false,
        rm_crash: Some(RmCrashSchedule {
            at_s: 14,
            outage_s: 20,
        }),
    }
}

/// An intermittent fault that heals on its own — tempts every policy
/// into useless escalation; the property is that none of them wedge.
fn intermittent_scenario(seed: u64) -> Scenario {
    Scenario {
        run: 2,
        sim_seed: seed,
        fault: Fault::Intermittent {
            component: "ViewItem",
            permille: 500,
            heals_after_s: Some(30),
        },
        inject_at_s: 10,
        second: None,
        flap: None,
        comparison_detector: true,
        parallel_rm: false,
        budgeted_retry: false,
        rm_crash: None,
    }
}

fn check(policy: PolicyChoice, s: &Scenario) {
    let opts = RunOptions {
        nodes: 2,
        policy,
        clients: 30,
        ..RunOptions::default()
    };
    let out = run_scenario(s, &opts);
    assert!(
        out.violations.is_empty(),
        "{} violated conformance on {:?}: {:?}",
        policy.label(),
        s.fault,
        out.violations
    );
    let again = run_scenario(s, &opts);
    assert_eq!(
        out.digest,
        again.digest,
        "{} is nondeterministic on {:?}",
        policy.label(),
        s.fault
    );
}

#[test]
fn all_policies_survive_flapping_without_absorbing_state() {
    for &policy in PolicyChoice::ALL {
        check(policy, &flap_scenario(0x51c6_0001));
    }
}

#[test]
fn all_policies_conserve_acks_across_an_rm_crash() {
    for &policy in PolicyChoice::ALL {
        check(policy, &rm_crash_scenario(0x51c6_0002));
    }
}

#[test]
fn all_policies_terminate_on_a_self_healing_fault() {
    for &policy in PolicyChoice::ALL {
        check(policy, &intermittent_scenario(0x51c6_0003));
    }
}
