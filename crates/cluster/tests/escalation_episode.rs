//! Golden escalation episode: a component fault that flaps (is
//! re-injected onto the live server every 40 s) drives the hardened
//! recovery manager through its anti-flapping machinery — same-component
//! strike accounting, flap-driven escalation past the microreboot rung,
//! and the reboot-storm damper — and the whole episode is pinned by its
//! telemetry digest, so any behavioural drift in the hardened policy
//! shows up as a digest mismatch here before it shows up as a flaky
//! chaos campaign.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Sim, SimConfig};
use faults::Fault;
use recovery::{RmConfig, RmStats};
use simcore::telemetry::{shared_bus, TraceHashSink};
use simcore::{MetricsRegistry, SimDuration, SimTime};

/// The digest the hardened flapping episode must reproduce, byte for
/// byte. Re-pin deliberately (and say why in the commit) when the
/// policy, the workload or the telemetry schema changes.
const PINNED_DIGEST: u64 = 0xe762864504334508;
const PINNED_EVENTS: u64 = 101_492;

/// A microreboot-curable fault that keeps coming back: each injection
/// makes every MakeBid call throw until a reboot clears it.
const FLAP_FAULT: Fault = Fault::TransientException {
    component: "MakeBid",
    calls: u32::MAX,
};

fn config(hardened: bool) -> RmConfig {
    if hardened {
        RmConfig {
            storm_limit: 2,
            storm_backoff: SimDuration::from_secs(60),
            flap_limit: 2,
            flap_window: SimDuration::from_secs(300),
            watchdog_bound: Some(SimDuration::from_secs(180)),
            ..RmConfig::default()
        }
    } else {
        RmConfig::default()
    }
}

/// Runs the flapping scenario for six simulated minutes: the fault lands
/// at t=20 s and recurs every 40 s on a live server (a mid-reboot node
/// skips the recurrence — the reboot's own teardown would cure it).
/// Returns the trace digest, event count, and the manager's counters.
fn flapping_episode(hardened: bool) -> (u64, u64, RmStats) {
    let mut sim = Sim::new(SimConfig {
        seed: 0xf1a9,
        rm: Some(config(hardened)),
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let hash = Rc::new(RefCell::new(TraceHashSink::new()));
    let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
    bus.borrow_mut().add_sink(Box::new(hash.clone()));
    bus.borrow_mut().add_sink(Box::new(metrics.clone()));
    sim.attach_telemetry(bus);
    for k in 0..6u64 {
        sim.schedule_fault_if_up(SimTime::from_secs(20 + 40 * k), 0, FLAP_FAULT);
    }
    sim.run_until(SimTime::from_secs(360));
    let stats = RmStats::from_registry(&metrics.borrow());
    let digest = (hash.borrow().value(), hash.borrow().count());
    (digest.0, digest.1, stats)
}

#[test]
fn golden_escalation_episode_is_digest_pinned() {
    let (d1, n1, stats) = flapping_episode(true);
    let (d2, n2, _) = flapping_episode(true);
    assert_eq!((d1, n1), (d2, n2), "same scenario, same trace");
    assert!(
        stats.flap_escalations >= 1,
        "the flap must drive at least one forced escalation: {stats:?}"
    );
    assert_eq!(
        (d1, n1),
        (PINNED_DIGEST, PINNED_EVENTS),
        "hardened escalation episode drifted: digest {d1:#018x}, {n1} events ({stats:?})"
    );
}

#[test]
fn hardening_bounds_same_component_microreboots_under_flapping() {
    let (_, _, base) = flapping_episode(false);
    let (_, _, hard) = flapping_episode(true);
    let base_urbs = base.ejb_microreboots;
    let hard_urbs = hard.ejb_microreboots;
    // The un-hardened ladder resets after every quiet period, so the
    // recurring fault earns a fresh microreboot per recurrence, forever.
    // Strike accounting survives the reset and escalates instead.
    assert!(
        hard_urbs < base_urbs,
        "hardened {hard_urbs} µRBs must undercut undamped {base_urbs}"
    );
    assert_eq!(
        base.flap_escalations + base.storm_damped,
        0,
        "baseline runs with the damper and flap escalation off: {base:?}"
    );
}
