//! Determinism of the cross-crate telemetry stream: a run is fully
//! described by its event trace, so two same-seed runs must produce
//! byte-identical traces (equal [`TraceHashSink`] digests) and a
//! different seed must diverge.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Sim, SimConfig};
use faults::Fault;
use recovery::{PolicyChoice, RmConfig};
use simcore::telemetry::{shared_bus, TraceHashSink};
use simcore::SimTime;

/// Runs two simulated minutes with a mid-run fault and an RM-driven
/// recovery, hashing every telemetry event; returns (digest, count).
fn trace_hash(seed: u64) -> (u64, u64) {
    let mut sim = Sim::new(SimConfig {
        seed,
        rm: Some(RmConfig::default()),
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let sink = Rc::new(RefCell::new(TraceHashSink::new()));
    bus.borrow_mut().add_sink(Box::new(sink.clone()));
    sim.attach_telemetry(bus);
    sim.schedule_fault(
        SimTime::from_mins(1),
        0,
        Fault::TransientException {
            component: "BrowseCategories",
            calls: 30,
        },
    );
    sim.run_until(SimTime::from_mins(2));
    let digest = (sink.borrow().value(), sink.borrow().count());
    digest
}

/// The recovery-policy extraction (the recursive ladder moved behind the
/// `RecoveryPolicy` trait, selected via [`PolicyChoice`]) must
/// also be behaviour-invisible: explicitly asking for the paper ladder has
/// to reproduce the same pinned digests as the default config, proving the
/// trait indirection, the policy registry, and the `PolicyArmed` plumbing
/// leave the paper configuration bit-for-bit untouched. (The default-config
/// pin itself lives in the root `tests/wire_pins.rs`, which tier-1 runs.)
#[test]
fn ladder_behind_policy_trait_reproduces_the_pinned_trace_digests() {
    let ladder_hash = |seed: u64| -> (u64, u64) {
        let mut sim = Sim::new(SimConfig {
            seed,
            rm: Some(RmConfig::default()),
            policy: PolicyChoice::Ladder,
            ..SimConfig::default()
        });
        let bus = shared_bus();
        let sink = Rc::new(RefCell::new(TraceHashSink::new()));
        bus.borrow_mut().add_sink(Box::new(sink.clone()));
        sim.attach_telemetry(bus);
        sim.schedule_fault(
            SimTime::from_mins(1),
            0,
            Fault::TransientException {
                component: "BrowseCategories",
                calls: 30,
            },
        );
        sim.run_until(SimTime::from_mins(2));
        let digest = (sink.borrow().value(), sink.borrow().count());
        digest
    };
    assert_eq!(
        ladder_hash(7),
        (0xe68ddcae494f97d4, 28_335),
        "seed-7 digest drifted once the ladder moved behind the policy trait"
    );
    assert_eq!(
        ladder_hash(11),
        (0xb6641c8980978708, 28_515),
        "seed-11 digest drifted once the ladder moved behind the policy trait"
    );
}

#[test]
fn same_seed_produces_identical_event_trace() {
    let (h1, n1) = trace_hash(7);
    let (h2, n2) = trace_hash(7);
    assert!(n1 > 0, "the run emitted telemetry");
    assert_eq!(n1, n2, "same seed, same event count");
    assert_eq!(h1, h2, "same seed, identical trace digest");

    let (h3, _) = trace_hash(8);
    assert_ne!(h1, h3, "a different seed must diverge somewhere");
}
