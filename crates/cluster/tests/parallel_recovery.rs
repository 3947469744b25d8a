//! The recovery conductor in a live cluster: trace transparency when its
//! concurrency is unused, and parallel recovery when multiple disjoint
//! faults strike.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Sim, SimConfig};
use faults::Fault;
use recovery::conductor::ConductorConfig;
use recovery::RmConfig;
use simcore::telemetry::{shared_bus, TelemetryEvent, TelemetrySink, TraceHashSink};
use simcore::{SimDuration, SimTime};

/// Counts the conductor's own event vocabulary and keeps each finished
/// reboot's (begun, finished) interval.
#[derive(Default)]
struct ConductorEvents {
    queued: u32,
    coalesced: u32,
    quarantine_on: u32,
    quarantine_off: u32,
    intervals: Vec<(SimTime, SimTime)>,
}

impl TelemetrySink for ConductorEvents {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::RecoveryQueued { .. } => self.queued += 1,
            TelemetryEvent::RecoveryCoalesced { .. } => self.coalesced += 1,
            TelemetryEvent::QuarantineOn { .. } => self.quarantine_on += 1,
            TelemetryEvent::QuarantineOff { .. } => self.quarantine_off += 1,
            TelemetryEvent::RebootFinished { duration, at, .. } => {
                self.intervals.push((*at - *duration, *at));
            }
            _ => {}
        }
    }
}

/// One-fault run of `config` with automatic recovery; returns the full
/// trace digest.
fn single_fault_digest(config: SimConfig) -> (u64, u64) {
    let mut sim = Sim::new(SimConfig {
        seed: 11,
        rm: Some(RmConfig::default()),
        ..config
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

/// With a single fault there is nothing to run alongside, so the cap is
/// idle headroom and (quarantine aside) must be *invisible*: the telemetry
/// trace at cap 4 is bit-for-bit the trace of the default schedule, cap 1.
#[test]
fn single_fault_trace_is_bit_identical_with_idle_conductor() {
    let cap_1 = single_fault_digest(SimConfig::default());
    let cap_4 = single_fault_digest(SimConfig {
        conductor: Some(ConductorConfig {
            max_concurrent_per_node: 4,
            quarantine: false,
        }),
        ..SimConfig::default()
    });
    assert!(cap_1.1 > 0, "the run emitted telemetry");
    assert_eq!(
        cap_1, cap_4,
        "unused concurrency must not perturb the event trace"
    );
}

/// Three disjoint session beans fail at once; the conductor must recover
/// them concurrently (interval union ≈ the slowest single recovery, not
/// the sum) under quarantine, with the blast radius published and lifted.
#[test]
fn three_disjoint_faults_recover_in_parallel_under_quarantine() {
    let rm = RmConfig {
        detection_delay: SimDuration::from_secs(5),
        observation: SimDuration::ZERO,
        max_concurrent: 4,
        ..RmConfig::default()
    };
    let mut sim = Sim::new(SimConfig {
        seed: 42,
        retry_enabled: true,
        rm: Some(rm),
        conductor: Some(ConductorConfig {
            max_concurrent_per_node: 4,
            quarantine: true,
        }),
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let events = Rc::new(RefCell::new(ConductorEvents::default()));
    bus.borrow_mut().add_sink(Box::new(events.clone()));
    sim.attach_telemetry(bus);
    // Disjoint high-traffic session beans (each its own recovery group,
    // no shared call paths); the calls budget outlasts detection, so only
    // a microreboot cures each fault.
    for component in ["BrowseCategories", "BrowseRegions", "SearchItemsByCategory"] {
        sim.schedule_fault(
            SimTime::from_secs(30),
            0,
            Fault::TransientException {
                component,
                calls: 100_000,
            },
        );
    }
    sim.run_until(SimTime::from_mins(3));

    let ev = events.borrow();
    let intervals = &ev.intervals;
    assert!(
        intervals.len() >= 3,
        "three faults need at least three recoveries, got {intervals:?}"
    );
    // Concurrency: some pair of recovery intervals overlaps.
    let overlapping = intervals
        .iter()
        .enumerate()
        .any(|(i, a)| intervals[i + 1..].iter().any(|b| a.0 < b.1 && b.0 < a.1));
    assert!(
        overlapping,
        "the conductor should run disjoint recoveries concurrently: {intervals:?}"
    );
    // Union of downtime ≪ sum of downtimes (the parallel-recovery claim).
    let mut spans = intervals.clone();
    spans.sort();
    let mut union = SimDuration::ZERO;
    let mut cursor: Option<(SimTime, SimTime)> = None;
    for (s, e) in spans {
        match &mut cursor {
            Some((_, ce)) if s <= *ce => {
                if e > *ce {
                    *ce = e;
                }
            }
            _ => {
                if let Some((cs, ce)) = cursor {
                    union += ce - cs;
                }
                cursor = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cursor {
        union += ce - cs;
    }
    let sum: SimDuration = intervals
        .iter()
        .fold(SimDuration::ZERO, |acc, (s, e)| acc + (*e - *s));
    assert!(
        union < sum,
        "parallel recovery must compress total unavailability: union {union:?} vs sum {sum:?}"
    );
    // Quarantine was raised while groups rebooted and fully lifted after.
    assert!(
        ev.quarantine_on > 0,
        "quarantine must engage during recovery"
    );
    assert!(
        ev.quarantine_off > 0,
        "quarantine must lift when recovery ends"
    );
}

/// When two faults share a call path the conductor serializes them and
/// announces the deferral on the bus.
#[test]
fn conflicting_recoveries_are_queued_not_run_together() {
    let rm = RmConfig {
        detection_delay: SimDuration::from_secs(5),
        observation: SimDuration::ZERO,
        max_concurrent: 4,
        ..RmConfig::default()
    };
    let mut sim = Sim::new(SimConfig {
        seed: 43,
        retry_enabled: true,
        rm: Some(rm),
        conductor: Some(ConductorConfig {
            max_concurrent_per_node: 4,
            quarantine: true,
        }),
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let events = Rc::new(RefCell::new(ConductorEvents::default()));
    bus.borrow_mut().add_sink(Box::new(events.clone()));
    sim.attach_telemetry(bus);
    // ViewItem and SearchItemsByCategory both sit on Item-bearing paths;
    // BrowseCategories shares SearchItemsByCategory's category path. The
    // cluster of faults forces conflicts.
    for component in ["ViewItem", "SearchItemsByCategory", "Item"] {
        sim.schedule_fault(
            SimTime::from_secs(30),
            0,
            Fault::TransientException {
                component,
                calls: 100_000,
            },
        );
    }
    sim.run_until(SimTime::from_mins(3));
    let world = sim.finish();
    let ev = events.borrow();
    assert!(
        ev.queued + ev.coalesced > 0,
        "conflicting decisions must be deferred or merged, not run together"
    );
    drop(ev);
    // The conductor still drained everything it started.
    let conductor = world.conductor.as_ref().unwrap();
    assert_eq!(conductor.active_count(0), 0, "no recovery left running");
}
