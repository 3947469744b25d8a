//! The chaos-campaign runner: [`run_scenario`] executes one [`Scenario`]
//! against the cluster simulation under [`RunOptions`] and checks every
//! recovery invariant, in stages — structural convergence, goodput
//! recovery, then (when armed) performance parity and session integrity.
//!
//! It is the only function in the workspace that builds a `Sim` from a
//! `Scenario`: the `urb chaos` campaign driver, the policy-conformance
//! tests and the netstate regression all run through it. The default
//! [`RunOptions`] reproduce the classic campaign bit-for-bit (one node,
//! the paper's recursive ladder, no failover).

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{LogEvent, Sim, SimConfig, StoreChoice, World};
use faults::campaign::{self, Scenario};
use faults::Fault;
use recovery::conductor::ConductorConfig;
use recovery::{PolicyChoice, RmConfig};
use simcore::metrics::reboot_begun_sym;
use simcore::telemetry::{shared_bus, RebootLevel, TelemetrySink, TraceHashSink};
use simcore::{MetricsRegistry, SimDuration, SimTime, TelemetryEvent};
use statestore::shared_ledger;
use workload::{DetectorKind, RetryPolicy};

use crate::netstate::{self, IntegrityOutcome};

/// Emulated clients per node. Smaller than the paper's 500 so a
/// multi-hundred-run campaign stays fast; plenty for the detectors.
pub const CLIENTS: usize = 60;
/// Quiet tail after the last scheduled injection before invariants are
/// checked. Sized for the slowest legitimate convergence: a low-level
/// fault that burns up the whole ladder (several useless microreboots
/// and process restarts, each followed by a fresh OOM) before the 109 s
/// OS reboot finally cures it, plus the 30 s request TTL.
const TAIL_S: u64 = 300;
/// Extra grace, stepped through in 5 s slices, for runs still converging
/// at the horizon. Exhausting it is an invariant violation.
const GRACE_S: u64 = 600;
/// Consecutive 5 s samples that must all report quiescence before the
/// run is declared converged — a node mid leak-OOM-restart cycle looks
/// healthy in any single sample.
const STABLE_SAMPLES: u32 = 6;

/// How a scenario is executed: cluster shape, recovery policy, client
/// retries and which optional invariant stages are armed. The default is
/// the classic campaign configuration, pinned by the strict campaign
/// digests — changing it moves them.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Cluster size (faults always land on node 0). With more than one
    /// node the LB fails traffic over during recovery.
    pub nodes: usize,
    /// The recovery policy under test.
    pub policy: PolicyChoice,
    /// Emulated clients per node.
    pub clients: usize,
    /// Performance-observability plane (degraded campaigns): the monitors
    /// run [`DetectorKind::LatencyAnomaly`] and the run additionally
    /// checks the performance-parity invariants.
    pub perf: bool,
    /// Client-side retry policy for failed operations.
    pub retry: RetryPolicy,
    /// Session-integrity plane (netstate campaigns): the cluster runs on
    /// the SSM backend with one [`statestore::IntegrityLedger`] watching
    /// both ends of the write path, and the run additionally checks the
    /// session-integrity invariants.
    pub integrity: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            nodes: 1,
            policy: PolicyChoice::Ladder,
            clients: CLIENTS,
            perf: false,
            retry: RetryPolicy::None,
            integrity: false,
        }
    }
}

/// What one scenario run produced.
pub struct RunOutcome {
    /// FNV trace digest over every telemetry event of the run.
    pub digest: u64,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Degraded-goodput wall time after injection, in milliseconds: Σ
    /// over one-second windows in which goodput fell below half the
    /// pre-fault rate (below 1 op when there was no pre-fault traffic).
    pub downtime_ms: u64,
    /// Client operations that failed outright.
    pub failed_requests: u64,
    /// Total seconds of reboot activity (histogram mean × count).
    pub reboot_cost_s: f64,
    /// Humans paged.
    pub pages: u64,
    /// Performance-parity measurements; `Some` only when the run had the
    /// performance plane armed ([`RunOptions::perf`]).
    pub perf: Option<PerfOutcome>,
    /// Session-integrity measurements; `Some` only when the run had the
    /// integrity plane armed ([`RunOptions::integrity`]).
    pub integrity: Option<IntegrityOutcome>,
    /// The run's notable events (injections, recoveries, pages).
    pub log: Vec<LogEvent>,
}

/// What the performance plane observed over one degraded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfOutcome {
    /// Latency-anomaly windows raised.
    pub anomalies: u64,
    /// Injection → first anomaly, in milliseconds (detection latency).
    pub detection_latency_ms: Option<u64>,
    /// Longest out-of-parity stretch a `ParityRestored` closed, in
    /// milliseconds.
    pub parity_after_ms: Option<u64>,
    /// Deepest reboot level the ladder reached (0 none, 1 component,
    /// 2 application, 3 process, 4 OS).
    pub escalation_depth: u8,
}

/// Telemetry sink recording what the registry's counters cannot: how many
/// `(node, op)` baselines froze, when the first anomaly fired, and the
/// longest out-of-parity stretch a restoration closed.
#[derive(Default)]
struct PerfMarks {
    baselines_frozen: u64,
    first_anomaly_at_us: Option<u64>,
    parity_after_us_max: Option<u64>,
}

impl TelemetrySink for PerfMarks {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::PerfBaselineFrozen { components, .. } => {
                self.baselines_frozen += u64::from(*components);
            }
            TelemetryEvent::LatencyAnomaly { at, .. } => {
                self.first_anomaly_at_us.get_or_insert(at.as_micros());
            }
            TelemetryEvent::ParityRestored { after, .. } => {
                self.parity_after_us_max = self.parity_after_us_max.max(Some(after.as_micros()));
            }
            _ => {}
        }
    }
}

/// The faults a scenario injects: the primary, then any second fault.
pub fn injected(s: &Scenario) -> impl Iterator<Item = Fault> {
    [Some(s.fault), s.second.map(|sf| sf.fault)]
        .into_iter()
        .flatten()
}

/// Short scenario description for reports.
pub fn describe(s: &Scenario) -> String {
    let second = s.second.map_or(String::new(), |sf| {
        format!("+2nd({})", sf.fault.kind().label())
    });
    let flap = if s.flap.is_some() { "+flap" } else { "" };
    let rm_crash = if s.rm_crash.is_some() { "+rmcrash" } else { "" };
    let detector = if s.comparison_detector {
        "cmp"
    } else {
        "simple"
    };
    let par = if s.parallel_rm { ",par" } else { "" };
    let first = s.fault.kind().label();
    format!("{first}{second}{flap}{rm_crash} [{detector}{par}]")
}

/// The hardened recovery-manager configuration every campaign run uses:
/// storm damper, flap escalation and convergence watchdog all armed.
fn hardened_rm(parallel: bool) -> RmConfig {
    RmConfig {
        max_concurrent: if parallel { 4 } else { 1 },
        // A fault on a rarely-exercised op produces evidence at well under
        // one report per default window; a wider window lets sparse
        // evidence aggregate. Safe against self-flapping: scores are
        // cleared when an episode closes, and aftershocks are
        // settle-suppressed on ingest.
        score_window: SimDuration::from_secs(90),
        storm_limit: 3,
        storm_backoff: SimDuration::from_secs(10),
        flap_limit: 3,
        flap_window: SimDuration::from_secs(300),
        watchdog_bound: Some(SimDuration::from_secs(180)),
        ..RmConfig::default()
    }
}

/// Why node `n` has not converged yet (empty once it has): a decision
/// unacknowledged, a conductor ticket active or queued, the node down, or
/// a request stuck past the TTL sweep bound.
fn busy(sim: &Sim, n: usize) -> Vec<String> {
    let mut why = Vec::new();
    let w = sim.world();
    let in_flight = w.rm.as_ref().map_or(0, |rm| rm.in_flight(n));
    if in_flight != 0 {
        why.push(format!(
            "node {n}: {in_flight} recovery decision(s) never acknowledged"
        ));
    }
    if let Some(c) = &w.conductor {
        let (active, queued) = (c.active_count(n), c.queued_count(n));
        if active + queued != 0 {
            why.push(format!(
                "node {n}: conductor not idle: {active} active, {queued} queued ticket(s)"
            ));
        }
    }
    if !w.nodes[n].is_up() {
        why.push(format!("node {n} down at end: {:?}", w.nodes[n].state()));
    }
    // A request may stay hung for the server's TTL lease plus a couple of
    // maintenance sweeps of slack. A fault on a rarely-exercised component
    // can legitimately outlive the campaign horizon undetected (the Figure
    // 5 sensitivity tradeoff); the guarantee is that the lease sweep still
    // reaps every stuck thread.
    let hung_bound = urb_core::calib::REQUEST_TTL + SimDuration::from_secs(5);
    if let Some(age) = w.nodes[n].oldest_hung_age(sim.now()) {
        if age > hung_bound {
            why.push(format!(
                "node {n}: request stuck in pipeline for {:.1}s, past the TTL sweep bound",
                age.as_secs_f64()
            ));
        }
    }
    why
}

/// True once no node is busy. With the performance plane armed, a node
/// out of latency parity counts as busy: convergence means performance
/// recovered, not merely liveness.
fn quiesced(sim: &Sim) -> bool {
    let w = sim.world();
    w.pool.perf().is_none_or(|p| p.anomalous_nodes().is_empty())
        && (0..w.nodes.len()).all(|n| busy(sim, n).is_empty())
}

/// Structural convergence invariants shared by every campaign flavor:
/// the episode terminated (no node [`busy`]) and every quarantine and
/// failover redirect was lifted.
fn structural_violations(sim: &Sim) -> Vec<String> {
    let mut violations = Vec::new();
    let w = sim.world();
    for n in 0..w.nodes.len() {
        violations.extend(busy(sim, n));
        let quarantined = w.conductor.as_ref().map(|c| c.quarantined(n));
        let quarantined = quarantined.unwrap_or_default();
        if !quarantined.is_empty() {
            violations.push(format!(
                "node {n}: quarantine never lifted: {quarantined:?}"
            ));
        }
        let lb_quarantined = w.lb.quarantined(n);
        if !lb_quarantined.is_empty() {
            violations.push(format!(
                "node {n}: LB quarantine never lifted: {lb_quarantined:?}"
            ));
        }
        if w.lb.is_redirecting(n) {
            violations.push(format!("node {n}: failover redirect never lifted"));
        }
    }
    violations
}

/// Executes one scenario under `opts` and checks every invariant.
pub fn run_scenario(s: &Scenario, opts: &RunOptions) -> RunOutcome {
    // The integrity plane and SSM corruption need the SSM backend to
    // exist; everything else runs on the default node-private FastS store.
    let wants_ssm = opts.integrity || injected(s).any(|f| matches!(f, Fault::CorruptSsm));
    let mut sim = Sim::new(SimConfig {
        nodes: opts.nodes,
        clients_per_node: opts.clients,
        store: if wants_ssm {
            StoreChoice::Ssm
        } else {
            StoreChoice::FastS
        },
        detector: if opts.perf {
            DetectorKind::LatencyAnomaly
        } else if s.comparison_detector {
            DetectorKind::Comparison
        } else {
            DetectorKind::Simple
        },
        perf: opts.perf,
        rm: Some(hardened_rm(s.parallel_rm)),
        conductor: s.parallel_rm.then(ConductorConfig::default),
        policy: opts.policy,
        failover: opts.nodes > 1,
        retry_policy: opts.retry,
        seed: s.sim_seed,
        ..SimConfig::default()
    });
    // One ledger, observed from both ends of the write path.
    let ledger = opts.integrity.then(|| {
        let ledger = shared_ledger();
        let w = sim.world_mut();
        w.pool.attach_ledger(ledger.clone());
        if let Some(ssm) = &w.ssm {
            ssm.borrow_mut().attach_ledger(ledger.clone());
        }
        ledger
    });
    let bus = shared_bus();
    let hash = Rc::new(RefCell::new(TraceHashSink::new()));
    let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
    bus.borrow_mut().add_sink(Box::new(hash.clone()));
    bus.borrow_mut().add_sink(Box::new(metrics.clone()));
    let marks = opts.perf.then(|| {
        let marks = Rc::new(RefCell::new(PerfMarks::default()));
        bus.borrow_mut().add_sink(Box::new(marks.clone()));
        marks
    });
    sim.attach_telemetry(bus);

    sim.schedule_fault(SimTime::from_secs(s.inject_at_s), 0, s.fault);
    let mut last_injection_s = s.inject_at_s;
    if let Some(second) = s.second {
        sim.schedule_fault(SimTime::from_secs(second.at_s), 0, second.fault);
        last_injection_s = last_injection_s.max(second.at_s);
    }
    if let Some(crash) = s.rm_crash {
        sim.schedule_rm_crash(
            SimTime::from_secs(crash.at_s),
            SimDuration::from_secs(crash.outage_s),
        );
        last_injection_s = last_injection_s.max(crash.at_s + crash.outage_s);
    }
    if let Some(flap) = s.flap {
        for k in 1..=u64::from(flap.recurrences) {
            let at_s = s.inject_at_s + k * flap.gap_s;
            last_injection_s = last_injection_s.max(at_s);
            sim.schedule_fault_if_up(SimTime::from_secs(at_s), 0, s.fault);
        }
    }

    let horizon_s = last_injection_s + TAIL_S;
    sim.run_until(SimTime::from_secs(horizon_s));
    let mut end_s = horizon_s;
    let mut stable = if quiesced(&sim) { 1 } else { 0 };
    while stable < STABLE_SAMPLES && end_s < horizon_s + GRACE_S {
        end_s += 5;
        sim.run_until(SimTime::from_secs(end_s));
        stable = if quiesced(&sim) { stable + 1 } else { 0 };
    }

    // Stage 1: structural convergence.
    let mut violations = structural_violations(&sim);
    let metrics = metrics.borrow();
    let begun = metrics.counter("reboots_begun");
    let finished = metrics.counter("reboots_finished");
    if begun != finished {
        violations.push(format!("{begun} reboot(s) begun but {finished} finished"));
    }

    let mut world = sim.finish();

    // Stage 2: goodput. A second is degraded while goodput sits below
    // half the pre-fault rate; a run whose every fault does reboot-curable
    // damage must also end back above that line (the structural stage
    // applies to every run regardless).
    let taw = world.pool.taw_ref();
    let pre_rate = if s.inject_at_s > 3 {
        taw.good_in(3, s.inject_at_s) / (s.inject_at_s - 3) as f64
    } else {
        0.0
    };
    let degraded_below = (0.5 * pre_rate).max(1.0);
    let downtime_ms = (s.inject_at_s..end_s)
        .filter(|&t| taw.good_in(t, t + 1) < degraded_below)
        .count() as u64
        * 1000;
    let curable = injected(s).all(|f| campaign::goodput_recovers(&f));
    if curable && s.inject_at_s > 4 && violations.is_empty() {
        let post_rate = taw.good_in(end_s - 30, end_s) / 30.0;
        if pre_rate > 0.0 && post_rate < 0.5 * pre_rate {
            violations.push(format!(
                "goodput never recovered: {post_rate:.1} op/s at end vs {pre_rate:.1} op/s pre-fault"
            ));
        }
    }

    // Stages 3 and 4, when armed.
    let perf = marks.map(|m| perf_stage(s, &m.borrow(), &metrics, &world, &mut violations));
    let integrity = ledger
        .map(|l| netstate::integrity_stage(s, &l.borrow(), &metrics, &world, &mut violations));

    let digest = hash.borrow().value();
    RunOutcome {
        digest,
        violations,
        downtime_ms,
        failed_requests: metrics.counter("client_ops_failed"),
        reboot_cost_s: metrics
            .histogram("reboot_ms")
            .map_or(0.0, |h| h.mean().as_secs_f64() * h.count() as f64),
        pages: metrics.counter("decisions_notify_human"),
        perf,
        integrity,
        log: std::mem::take(&mut world.log),
    }
}

/// Performance-parity invariants (degraded campaigns): the fail-slow
/// fault must be *detected* (baseline frozen pre-injection, at least one
/// anomaly raised) and *cured* (parity restored, no node still out of
/// parity at quiescence) — the ladder has to climb out of slow states,
/// not just dead ones.
fn perf_stage(
    s: &Scenario,
    m: &PerfMarks,
    reg: &MetricsRegistry,
    world: &World,
    violations: &mut Vec<String>,
) -> PerfOutcome {
    if m.baselines_frozen == 0 {
        violations.push("perf baseline never froze before injection".into());
    }
    let anomalies = reg.counter("latency_anomalies");
    if anomalies == 0 {
        violations.push("fail-slow fault never raised a latency anomaly".into());
    }
    // A detector that fires before any fault exists is crying wolf; the
    // statistical guards (absolute-delta floor, confirmation debounce)
    // exist precisely so this cannot happen.
    if let Some(first) = m.first_anomaly_at_us {
        if first < s.inject_at_s * 1_000_000 {
            violations.push(format!(
                "latency anomaly at {first} us predates the fault (false positive)"
            ));
        }
    }
    if reg.counter("parity_restored") == 0 {
        violations.push("performance parity never restored".into());
    }
    if let Some(p) = world.pool.perf() {
        let still = p.anomalous_nodes();
        if !still.is_empty() {
            violations.push(format!("node(s) {still:?} still out of parity at end"));
        }
    }
    let depths = [
        RebootLevel::Component,
        RebootLevel::Application,
        RebootLevel::Process,
        RebootLevel::OperatingSystem,
    ];
    let escalation_depth = depths
        .iter()
        .rposition(|&l| reg.counter_sym(reboot_begun_sym(l)) > 0)
        .map_or(0, |i| i as u8 + 1);
    PerfOutcome {
        anomalies,
        detection_latency_ms: m
            .first_anomaly_at_us
            .map(|us| us.saturating_sub(s.inject_at_s * 1_000_000) / 1000),
        parity_after_ms: m.parity_after_us_max.map(|us| us / 1000),
        escalation_depth,
    }
}
