//! Golden fail-slow episode: a `Fault::Degraded` slowdown on a hot EJB
//! throws no exceptions and kills no requests, so only the performance
//! plane can see it. The pinned causal chain is the whole point of the
//! plane:
//!
//! 1. the baseline tracker freezes a per-(node, op) latency snapshot
//!    before the fault lands;
//! 2. the degradation is injected and goodput stays up;
//! 3. the latency-anomaly detector confirms the drift and starts
//!    reporting;
//! 4. the ladder tries warm microreboots first — they *fail*, because a
//!    warm restart reuses the degraded pools (the residual-slowdown
//!    model) — and escalates to a full application restart, which
//!    clears the degradation;
//! 5. the parity gate observes the required run of clean windows and
//!    declares performance restored.
//!
//! The episode is pinned by its telemetry digest so any drift in the
//! sketch, the detector thresholds, the masking rules or the ladder's
//! anomaly weighting shows up here before it shows up as a flaky
//! degraded campaign.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Sim, SimConfig};
use faults::Fault;
use recovery::{RmConfig, RmStats};
use simcore::telemetry::{shared_bus, TelemetryEvent, TelemetrySink, TraceHashSink};
use simcore::{MetricsRegistry, SimDuration, SimTime};
use workload::DetectorKind;

/// The digest the degraded episode must reproduce, byte for byte.
/// Re-pin deliberately (and say why in the commit) when the perf plane,
/// the workload or the telemetry schema changes.
const PINNED_DIGEST: u64 = 0xe08c3161778667cb;
const PINNED_EVENTS: u64 = 76_935;

/// When the slowdown lands — after the 30 s baseline freeze.
const INJECT_AT: SimTime = SimTime::from_secs(40);

/// A 4x service-time multiplier on the busiest search path: well above
/// the detector's confirmation floor, invisible to every error-based
/// detector.
const DEGRADED_FAULT: Fault = Fault::Degraded {
    component: "SearchItemsByCategory",
    factor_permille: 4000,
};

/// First occurrence of each perf-plane mark, in simulated time.
#[derive(Default)]
struct Marks {
    frozen_at: Option<SimTime>,
    injected_at: Option<SimTime>,
    first_anomaly_at: Option<SimTime>,
    parity_at: Option<SimTime>,
    anomalies: u64,
}

impl TelemetrySink for Marks {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::PerfBaselineFrozen { at, .. } => {
                self.frozen_at.get_or_insert(*at);
            }
            TelemetryEvent::DegradedInjected { at, .. } => {
                self.injected_at.get_or_insert(*at);
            }
            TelemetryEvent::LatencyAnomaly { at, .. } => {
                self.anomalies += 1;
                self.first_anomaly_at.get_or_insert(*at);
            }
            TelemetryEvent::ParityRestored { at, .. } => {
                self.parity_at.get_or_insert(*at);
            }
            _ => {}
        }
    }
}

/// The campaign's hardened manager configuration (mirrors
/// `bench::chaos::hardened_rm`, which cluster cannot depend on).
fn hardened_rm() -> RmConfig {
    RmConfig {
        score_window: SimDuration::from_secs(90),
        storm_limit: 3,
        storm_backoff: SimDuration::from_secs(10),
        flap_limit: 3,
        flap_window: SimDuration::from_secs(300),
        watchdog_bound: Some(SimDuration::from_secs(180)),
        ..RmConfig::default()
    }
}

fn degraded_episode() -> (u64, u64, RmStats, Marks) {
    let mut sim = Sim::new(SimConfig {
        // The degraded campaign's shape: triple the classic client load
        // so the hot ops earn latency verdicts every judgement window.
        clients_per_node: 180,
        detector: DetectorKind::LatencyAnomaly,
        perf: true,
        rm: Some(hardened_rm()),
        seed: 0xdeb5,
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let hash = Rc::new(RefCell::new(TraceHashSink::new()));
    let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
    let marks = Rc::new(RefCell::new(Marks::default()));
    bus.borrow_mut().add_sink(Box::new(hash.clone()));
    bus.borrow_mut().add_sink(Box::new(metrics.clone()));
    bus.borrow_mut().add_sink(Box::new(marks.clone()));
    sim.attach_telemetry(bus);
    sim.schedule_fault(INJECT_AT, 0, DEGRADED_FAULT);
    sim.run_until(SimTime::from_secs(900));
    let stats = RmStats::from_registry(&metrics.borrow());
    let digest = (hash.borrow().value(), hash.borrow().count());
    let marks = marks.borrow();
    (
        digest.0,
        digest.1,
        stats,
        Marks {
            frozen_at: marks.frozen_at,
            injected_at: marks.injected_at,
            first_anomaly_at: marks.first_anomaly_at,
            parity_at: marks.parity_at,
            anomalies: marks.anomalies,
        },
    )
}

#[test]
fn golden_degraded_episode_is_digest_pinned() {
    let (d1, n1, stats, marks) = degraded_episode();
    let (d2, n2, _, _) = degraded_episode();
    assert_eq!((d1, n1), (d2, n2), "same scenario, same trace");

    // The causal chain, in order: freeze, inject, confirm, restore.
    let frozen = marks.frozen_at.expect("baseline must freeze");
    let injected = marks.injected_at.expect("fault must land");
    let anomaly = marks.first_anomaly_at.expect("anomaly must confirm");
    let parity = marks.parity_at.expect("parity must restore");
    assert!(frozen < injected, "baseline frozen pre-fault: {marks:?}");
    assert!(injected < anomaly, "no anomaly before the fault: {marks:?}");
    assert!(anomaly < parity, "parity only after the episode: {marks:?}");
    assert!(
        anomaly - injected <= SimDuration::from_secs(30),
        "detection latency blew the budget: {:?} -> {:?}",
        injected,
        anomaly
    );

    // Warm restarts cannot clear the degradation (residual-slowdown
    // model); the ladder must climb to an application restart.
    assert!(
        stats.ejb_microreboots + stats.war_microreboots >= 1,
        "the ladder must try a warm microreboot first: {stats:?}"
    );
    assert!(
        stats.app_restarts >= 1,
        "only an application restart clears the degradation: {stats:?}"
    );

    assert_eq!(
        (d1, n1),
        (PINNED_DIGEST, PINNED_EVENTS),
        "degraded episode drifted: digest {d1:#018x}, {n1} events ({stats:?}, {marks:?})"
    );
}

impl std::fmt::Debug for Marks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Marks")
            .field("frozen_at", &self.frozen_at)
            .field("injected_at", &self.injected_at)
            .field("first_anomaly_at", &self.first_anomaly_at)
            .field("parity_at", &self.parity_at)
            .field("anomalies", &self.anomalies)
            .finish()
    }
}
