//! The four workloads and the one runner they share.
//!
//! A workload is a seeded list of [`RunSpec`]s: the simulator receives
//! only the generated `SimConfig`s and fault schedules. Every run is
//! `Sim::new` + attach + a 60 sim-s warm-up (set-up), then one measured
//! window up to a horizon fixed by the spec, then the correctness gates.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use microreboot::cluster::{Sim, SimConfig, StoreChoice};
use microreboot::core::calib::REQUEST_TTL;
use microreboot::faults::campaign::{netstate_scenarios, scenarios, CampaignConfig, Scenario};
use microreboot::faults::Fault;
use microreboot::recovery::conductor::ConductorConfig;
use microreboot::recovery::RmConfig;
use microreboot::simcore::telemetry::{shared_bus, TraceHashSink};
use microreboot::simcore::{MetricsRegistry, SimDuration, SimTime};
use microreboot::statestore::ledger::SharedLedger;
use microreboot::statestore::{shared_ledger, SessionId};
use microreboot::workload::{DetectorKind, MixClass, RetryPolicy};

use crate::alloc;
use crate::trace::{shared, ByteCounter, PhaseClock, RequestLedger, Shared, Tracer};

/// Simulated seconds every run spends warming up before its measured
/// window: sessions exist and the Markov clients are near their
/// stationary mix. Campaign injection times are shifted by it.
pub const WARMUP_S: u64 = 60;
/// Quiet tail after the last injection. The measured window's horizon is
/// fixed, so a workload measures the same number of simulated seconds on
/// every commit.
pub const TAIL_S: u64 = 300;
/// After the measured window a faulted run may still be converging — a
/// fault no reboot cures climbs the whole ladder, and the 109 s OS reboot
/// at its top can straddle any fixed horizon. The run settles, unmeasured,
/// in 5 sim-s steps until `SETTLE_SAMPLES` consecutive samples are quiet;
/// using up `SETTLE_LIMIT_S` is a gate violation.
const SETTLE_STEP_S: u64 = 5;
const SETTLE_SAMPLES: u32 = 6;
const SETTLE_LIMIT_S: u64 = 600;
/// Emulated clients per node in the campaign workloads, as the
/// repository's own campaigns run them.
const CAMPAIGN_CLIENTS: usize = 60;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SteadyFasts1n,
    SteadySsm2n,
    ChaosLadder1n,
    NetstateSsm2n,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyFasts1n,
        Workload::SteadySsm2n,
        Workload::ChaosLadder1n,
        Workload::NetstateSsm2n,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFasts1n => "steady_fasts_1n",
            Workload::SteadySsm2n => "steady_ssm_2n",
            Workload::ChaosLadder1n => "chaos_ladder_1n",
            Workload::NetstateSsm2n => "netstate_ssm_2n",
        }
    }

    /// Why the workload was chosen, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadyFasts1n => "1 node x 500 clients on FastS, no recovery manager, no bus, no faults: the pure request path; recovery, telemetry and SSM changes must show no change here",
            Workload::SteadySsm2n => "2 nodes x 500 clients on SSM with failover, an idle recovery manager and the digest + metrics bus: the same path through marshalling, replicas, leases and telemetry encoding",
            Workload::ChaosLadder1n => "48 seeded fault scenarios of the classic chaos campaign, each on a fresh 60-client simulation with the hardened ladder: recovery machinery, detectors and 48 set-ups per round",
            Workload::NetstateSsm2n => "12 seeded store-tier and link-tier fault scenarios on a 2-node SSM failover cluster with the integrity ledger armed: writes under failure, the wire shim and client retries",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's own configuration attaches a telemetry bus
    /// (digest + metrics fold). The traced round attaches one regardless.
    pub fn has_bus(self) -> bool {
        self != Workload::SteadyFasts1n
    }
}

/// How much each workload simulates. `--quick` shrinks it so the package
/// tests can run every code path in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fasts_window_s: u64,
    pub ssm_window_s: u64,
    pub chaos_runs: u64,
    pub netstate_runs: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fasts_window_s: 900,
        ssm_window_s: 500,
        chaos_runs: 48,
        netstate_runs: 12,
    };
    pub const QUICK: Sizes = Sizes {
        fasts_window_s: 20,
        ssm_window_s: 10,
        chaos_runs: 3,
        netstate_runs: 2,
    };
}

/// One simulation run: a configuration, a fault schedule and a horizon.
pub struct RunSpec {
    /// Scenario index within its campaign (`None` on steady workloads).
    pub run: Option<u64>,
    /// What the run injects, for violation reports.
    pub label: String,
    pub config: SimConfig,
    pub ledger: bool,
    /// `(absolute second, fault)`, all on node 0.
    pub faults: Vec<(u64, Fault)>,
    /// `(absolute crash second, outage seconds)` of the recovery manager.
    pub rm_crash: Option<(u64, u64)>,
    pub end_s: u64,
}

impl RunSpec {
    fn first_injection_s(&self) -> Option<u64> {
        self.faults.iter().map(|&(at, _)| at).min()
    }
}

/// The hardened recovery-manager configuration every campaign run uses
/// (storm damper, flap escalation and convergence watchdog armed),
/// re-stated here so the benchmark depends on no experiment crate.
fn hardened_rm(parallel: bool) -> RmConfig {
    RmConfig {
        max_concurrent: if parallel { 4 } else { 1 },
        score_window: SimDuration::from_secs(90),
        storm_limit: 3,
        storm_backoff: SimDuration::from_secs(10),
        flap_limit: 3,
        flap_window: SimDuration::from_secs(300),
        watchdog_bound: Some(SimDuration::from_secs(180)),
        ..RmConfig::default()
    }
}

fn budgeted_retry() -> RetryPolicy {
    RetryPolicy::Budgeted {
        budget: 4,
        base: SimDuration::from_millis(250),
        cap: SimDuration::from_secs(8),
    }
}

fn detector(s: &Scenario) -> DetectorKind {
    if s.comparison_detector {
        DetectorKind::Comparison
    } else {
        DetectorKind::Simple
    }
}

fn steady(config: SimConfig, window_s: u64) -> Vec<RunSpec> {
    vec![RunSpec {
        run: None,
        label: "no faults".into(),
        config,
        ledger: false,
        faults: Vec::new(),
        rm_crash: None,
        end_s: WARMUP_S + window_s,
    }]
}

fn chaos_spec(s: &Scenario) -> RunSpec {
    let wants_ssm = matches!(s.fault, Fault::CorruptSsm)
        || s.second
            .is_some_and(|sf| matches!(sf.fault, Fault::CorruptSsm));
    let mut faults = vec![(WARMUP_S + s.inject_at_s, s.fault)];
    let mut last_s = s.inject_at_s;
    if let Some(second) = s.second {
        faults.push((WARMUP_S + second.at_s, second.fault));
        last_s = last_s.max(second.at_s);
    }
    let rm_crash = s.rm_crash.map(|c| {
        last_s = last_s.max(c.at_s + c.outage_s);
        (WARMUP_S + c.at_s, c.outage_s)
    });
    // Flap schedules are dropped: re-arming a fault mid-run needs the
    // closure escape hatch, which the benchmark must not freeze.
    RunSpec {
        run: Some(s.run),
        label: match s.second {
            Some(second) => format!("{:?} + {:?}", s.fault, second.fault),
            None => format!("{:?}", s.fault),
        },
        config: SimConfig {
            nodes: 1,
            clients_per_node: CAMPAIGN_CLIENTS,
            store: if wants_ssm {
                StoreChoice::Ssm
            } else {
                StoreChoice::FastS
            },
            detector: detector(s),
            rm: Some(hardened_rm(s.parallel_rm)),
            conductor: s.parallel_rm.then(ConductorConfig::default),
            failover: false,
            seed: s.sim_seed,
            ..SimConfig::default()
        },
        ledger: false,
        faults,
        rm_crash,
        end_s: WARMUP_S + last_s + TAIL_S,
    }
}

fn netstate_spec(s: &Scenario) -> RunSpec {
    RunSpec {
        run: Some(s.run),
        label: format!("{:?}", s.fault),
        config: SimConfig {
            nodes: 2,
            clients_per_node: CAMPAIGN_CLIENTS,
            store: StoreChoice::Ssm,
            detector: detector(s),
            rm: Some(hardened_rm(false)),
            failover: true,
            retry_policy: if s.budgeted_retry {
                budgeted_retry()
            } else {
                RetryPolicy::None
            },
            seed: s.sim_seed,
            ..SimConfig::default()
        },
        ledger: true,
        faults: vec![(WARMUP_S + s.inject_at_s, s.fault)],
        rm_crash: None,
        end_s: WARMUP_S + s.inject_at_s + TAIL_S,
    }
}

/// Generates the workload's inputs from the seed.
pub fn plan(workload: Workload, seed: u64, sizes: Sizes) -> Vec<RunSpec> {
    match workload {
        Workload::SteadyFasts1n => steady(
            SimConfig {
                nodes: 1,
                clients_per_node: 500,
                store: StoreChoice::FastS,
                rm: None,
                seed: seed ^ 0x57ea_d1fa_0000_0001,
                ..SimConfig::default()
            },
            sizes.fasts_window_s,
        ),
        Workload::SteadySsm2n => steady(
            SimConfig {
                nodes: 2,
                clients_per_node: 500,
                store: StoreChoice::Ssm,
                failover: true,
                rm: Some(RmConfig::default()),
                seed: seed ^ 0x57ea_d155_0000_0002,
                ..SimConfig::default()
            },
            sizes.ssm_window_s,
        ),
        Workload::ChaosLadder1n => scenarios(&CampaignConfig {
            seed,
            runs: sizes.chaos_runs,
        })
        .iter()
        .map(chaos_spec)
        .collect(),
        Workload::NetstateSsm2n => netstate_scenarios(&CampaignConfig {
            seed,
            runs: sizes.netstate_runs,
        })
        .iter()
        .map(netstate_spec)
        .collect(),
    }
}

/// Declares [`Counts`] from one list of fields, so the struct and the
/// arithmetic over it cannot fall out of step.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Lifetime counters read through the public stats views. Two
        /// snapshots bracket the measured window; their difference is the
        /// window's work.
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            /// `self` (window end) minus `start` (window start).
            fn since(&self, start: &Counts) -> Counts {
                Counts { $($field: self.$field - start.$field,)* }
            }

            fn add(&mut self, other: &Counts) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counts! {
    events_fired,
    /// Requests the emulated clients issued (retries included): the unit
    /// every `*_per_request` metric is divided by.
    requests,
    /// The share of `requests` in the session-init, session-update and
    /// database-update classes of the client mix.
    write_requests,
    submitted,
    retries_sent,
    killed,
    reboots_begun,
    reboots_finished,
    /// Simulated microseconds spent in finished reboots.
    reboot_sim_us,
    db_reads,
    db_writes,
    db_commits,
    ssm_reads,
    ssm_writes,
    lease_expirations,
    client_retries,
    rm_reports,
    rm_decisions,
    storm_damped,
    /// Decision polls the recovery manager answered: one per node every
    /// 300 simulated ms while a manager is configured.
    rm_polls,
}

impl Counts {
    /// Reads every counter, and the kernel's pending-event level.
    fn snapshot(sim: &Sim) -> (Counts, u64) {
        let mut gauges = MetricsRegistry::default();
        sim.record_kernel_gauges(&mut gauges, None);
        let w = sim.world();
        let mix = w.pool.mix();
        let write_percent: f64 = [
            MixClass::SessionInitDel,
            MixClass::SessionUpdate,
            MixClass::DbUpdate,
        ]
        .into_iter()
        .map(|class| mix.percent(class))
        .sum();
        let mut c = Counts {
            events_fired: gauges.gauge("des_events_fired") as u64,
            requests: mix.total(),
            write_requests: (write_percent * mix.total() as f64 / 100.0).round() as u64,
            client_retries: w.pool.retries_issued(),
            ..Counts::default()
        };
        for node in &w.nodes {
            let s = node.stats();
            c.submitted += s.submitted;
            c.retries_sent += s.retries_sent;
            c.killed += s.killed_by_microreboot + s.killed_by_restart + s.ttl_kills;
            let m = node.metrics();
            c.reboots_begun += m.counter("reboots_begun");
            c.reboots_finished += m.counter("reboots_finished");
            c.reboot_sim_us += m
                .histogram("reboot_ms")
                .map_or(0, |h| h.mean().as_micros() * h.count());
        }
        // One database is shared by every node.
        let db = w.nodes[0].db().borrow().stats();
        c.db_reads = db.reads;
        c.db_writes = db.writes;
        c.db_commits = db.commits;
        if let Some(ssm) = &w.ssm {
            let s = ssm.borrow().stats();
            c.ssm_reads = s.reads;
            c.ssm_writes = s.writes;
            c.lease_expirations = s.lease_expirations;
        }
        if let Some(rm) = &w.rm {
            let s = rm.stats();
            c.rm_reports = s.reports;
            c.rm_decisions = rm.metrics().counter("recovery_decisions");
            c.storm_damped = s.storm_damped;
            c.rm_polls = sim.now().as_micros() / 300_000 * w.nodes.len() as u64;
        }
        (c, gauges.gauge("des_queue_depth") as u64)
    }
}

/// What the traced round's bus-side sinks saw in the measured windows.
#[derive(Clone, Copy, Default, Debug)]
pub struct BusCounts {
    pub events: u64,
    pub encoded_bytes: u64,
    pub detector_fires: u64,
    pub quarantines: u64,
    pub commit_intents: u64,
    /// Requests a coarse restart dropped from a node's queue unanswered.
    pub dropped_at_restart: u64,
    pub phase_ns: [u64; 5],
}

/// One pass over a workload's whole plan.
#[derive(Default, Debug)]
pub struct Round {
    /// Host speed around the round as a share of nominal (see
    /// `calib`); set by the caller that timed the reference kernel.
    pub host_speed: f64,
    pub setup_s: f64,
    pub measured_wall_s: f64,
    pub sim_s: f64,
    pub allocs: u64,
    pub counts: Counts,
    /// Events pending in the kernel when the measured windows ended.
    pub pending_at_end: u64,
    pub good_ops: u64,
    pub bad_ops: u64,
    pub downtime_sim_s: u64,
    /// Simulated seconds after the first injection (the whole measured
    /// window on a steady workload): what downtime is a share of.
    pub exposed_sim_s: u64,
    pub fingerprint: u64,
    pub runs: u64,
    pub failed_runs: u64,
    pub violations: Vec<String>,
    /// Traced rounds only.
    pub slice_wall_us: Vec<f64>,
    pub bus: BusCounts,
}

impl Round {
    /// Measured simulated seconds per host second, as timed.
    pub fn raw_sim_s_per_wall_s(&self) -> f64 {
        self.sim_s / self.measured_wall_s
    }

    /// Measured simulated seconds per normalised host second.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        self.raw_sim_s_per_wall_s() / self.host_speed
    }

    /// Set-up time in normalised host seconds.
    pub fn norm_setup_s(&self) -> f64 {
        self.setup_s * self.host_speed
    }

    /// Whether two rounds of one seed simulated the same thing: a
    /// simulator speed-up must leave every simulated statistic identical.
    /// A traced round's own allocations are not the program's, so the
    /// allocation count is compared only between untraced rounds.
    pub fn same_simulation(&self, other: &Round, with_allocs: bool) -> bool {
        self.fingerprint == other.fingerprint
            && self.good_ops == other.good_ops
            && self.bad_ops == other.bad_ops
            && self.downtime_sim_s == other.downtime_sim_s
            && self.exposed_sim_s == other.exposed_sim_s
            && self.pending_at_end == other.pending_at_end
            && self.counts == other.counts
            && (!with_allocs || self.allocs == other.allocs)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The traced round's extra instruments for one run.
struct Probes {
    bytes: Shared<ByteCounter>,
    phases: Shared<PhaseClock>,
    requests: Shared<RequestLedger>,
    registry: Shared<MetricsRegistry>,
}

impl Probes {
    /// What the sinks have counted since they were attached.
    fn read(&self) -> BusCounts {
        let registry = self.registry.borrow();
        BusCounts {
            events: self.bytes.borrow().events,
            encoded_bytes: self.bytes.borrow().bytes,
            detector_fires: registry.counter("client_ops_failed"),
            quarantines: registry.counter("quarantine_on"),
            phase_ns: self.phases.borrow().ns,
            ..BusCounts::default()
        }
    }
}

impl BusCounts {
    /// Adds what the sinks counted between two reads.
    fn add_window(&mut self, start: &BusCounts, end: &BusCounts) {
        self.events += end.events - start.events;
        self.encoded_bytes += end.encoded_bytes - start.encoded_bytes;
        self.detector_fires += end.detector_fires - start.detector_fires;
        self.quarantines += end.quarantines - start.quarantines;
        for (total, (end, start)) in self
            .phase_ns
            .iter_mut()
            .zip(end.phase_ns.iter().zip(start.phase_ns))
        {
            *total += end - start;
        }
    }
}

fn check_ledger(ledger: &SharedLedger, sim: &Sim, violations: &mut Vec<String>) {
    let led = ledger.borrow();
    let Some(ssm) = &sim.world().ssm else {
        violations.push("ledger armed without an SSM backend".into());
        return;
    };
    let store = ssm.borrow();
    let lost = led
        .committed_sessions()
        .filter(|&sid| !store.probe(SessionId(sid)) && !led.accounted_gone(sid))
        .count();
    if lost > 0 {
        violations.push(format!("{lost} committed session(s) lost from the store"));
    }
    if led.double_applied() > 0 {
        violations.push(format!("{} write(s) applied twice", led.double_applied()));
    }
    if led.stale_serves() > 0 {
        violations.push(format!(
            "{} read(s) served past their lease",
            led.stale_serves()
        ));
    }
}

fn hung_bound() -> SimDuration {
    REQUEST_TTL + SimDuration::from_secs(5)
}

/// True when no recovery machinery is busy on any node.
fn quiet(sim: &Sim) -> bool {
    let w = sim.world();
    (0..w.nodes.len()).all(|n| {
        w.nodes[n].is_up()
            && w.rm.as_ref().is_none_or(|rm| rm.in_flight(n) == 0)
            && w.conductor
                .as_ref()
                .is_none_or(|c| c.active_count(n) + c.queued_count(n) == 0)
            && w.nodes[n]
                .oldest_hung_age(sim.now())
                .is_none_or(|age| age <= hung_bound())
    })
}

/// The recovery-convergence gates, checked when a run has settled.
fn check_converged(sim: &Sim, end: &Counts, violations: &mut Vec<String>) {
    let w = sim.world();
    if end.reboots_begun != end.reboots_finished {
        violations.push(format!(
            "{} reboot(s) begun but {} finished",
            end.reboots_begun, end.reboots_finished
        ));
    }
    for n in 0..w.nodes.len() {
        if !w.nodes[n].is_up() {
            violations.push(format!("node {n} still down: {:?}", w.nodes[n].state()));
        }
        if !w.lb.quarantined(n).is_empty() {
            violations.push(format!("node {n}: LB quarantine never lifted"));
        }
        if w.lb.is_redirecting(n) {
            violations.push(format!("node {n}: failover redirect never lifted"));
        }
        if w.rm.as_ref().is_some_and(|rm| rm.in_flight(n) != 0) {
            violations.push(format!("node {n}: recovery decision never acknowledged"));
        }
        if let Some(c) = &w.conductor {
            if c.active_count(n) + c.queued_count(n) != 0 || !c.quarantined(n).is_empty() {
                violations.push(format!("node {n}: conductor never went idle"));
            }
        }
        if w.nodes[n]
            .oldest_hung_age(sim.now())
            .is_some_and(|age| age > hung_bound())
        {
            violations.push(format!("node {n}: request stuck past the TTL sweep bound"));
        }
    }
}

/// Runs one spec and folds its results into `round`. With a tracer the
/// measured window runs in 1-sim-s slices under spans, with the
/// bus-side probes attached.
fn run_spec(
    workload: Workload,
    spec: &RunSpec,
    round: &mut Round,
    mut tracer: Option<&mut Tracer>,
) {
    macro_rules! span {
        ($name:expr, $body:expr) => {{
            let id = tracer.as_deref_mut().map(|t| t.enter($name));
            let out = $body;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                t.exit(id);
            }
            out
        }};
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.set_run(spec.run);
    }
    let scenario_span = match (tracer.as_deref_mut(), spec.run) {
        (Some(t), Some(_)) => Some(t.enter("scenario.run")),
        _ => None,
    };

    let setup_start = Instant::now();
    let mut sim = span!("cluster.sim.new", Sim::new(spec.config.clone()));
    let hash = Rc::new(RefCell::new(TraceHashSink::new()));
    let ledger = spec.ledger.then(shared_ledger);
    let probes = span!("cluster.sim.attach", {
        if let Some(ledger) = &ledger {
            let w = sim.world_mut();
            w.pool.attach_ledger(ledger.clone());
            if let Some(ssm) = &w.ssm {
                ssm.borrow_mut().attach_ledger(ledger.clone());
            }
        }
        let probes = tracer.is_some().then(|| Probes {
            bytes: shared(ByteCounter::default()),
            phases: shared(PhaseClock::default()),
            requests: shared(RequestLedger::default()),
            registry: shared(MetricsRegistry::new()),
        });
        if workload.has_bus() || probes.is_some() {
            let bus = shared_bus();
            if workload.has_bus() {
                // The configuration every campaign and trace recording
                // of the repository uses: digest + metrics fold.
                bus.borrow_mut().add_sink(Box::new(hash.clone()));
                bus.borrow_mut()
                    .add_sink(Box::new(shared(MetricsRegistry::new())));
            }
            if let Some(p) = &probes {
                bus.borrow_mut().add_sink(Box::new(p.registry.clone()));
                bus.borrow_mut().add_sink(Box::new(p.bytes.clone()));
                bus.borrow_mut().add_sink(Box::new(p.requests.clone()));
                // Last, so its stamp follows the other sinks' work.
                bus.borrow_mut().add_sink(Box::new(p.phases.clone()));
            }
            sim.attach_telemetry(bus);
        }
        for &(at_s, fault) in &spec.faults {
            sim.schedule_fault(SimTime::from_secs(at_s), 0, fault);
        }
        if let Some((at_s, outage_s)) = spec.rm_crash {
            sim.schedule_rm_crash(SimTime::from_secs(at_s), SimDuration::from_secs(outage_s));
        }
        probes
    });
    span!(
        "cluster.sim.warmup",
        sim.run_until(SimTime::from_secs(WARMUP_S))
    );
    round.setup_s += setup_start.elapsed().as_secs_f64();

    let (start, _) = Counts::snapshot(&sim);
    let bus_start = probes.as_ref().map(Probes::read);
    let allocs_before = alloc::calls();
    let wall_start = Instant::now();
    match tracer.as_deref_mut() {
        None => sim.run_until(SimTime::from_secs(spec.end_s)),
        Some(t) => {
            let phases = &probes.as_ref().expect("traced runs carry probes").phases;
            for s in WARMUP_S + 1..=spec.end_s {
                let id = t.enter("cluster.sim.run_slice");
                phases.borrow_mut().start();
                sim.run_until(SimTime::from_secs(s));
                phases.borrow_mut().stop();
                round.slice_wall_us.push(t.exit(id) * 1e6);
            }
        }
    }
    round.measured_wall_s += wall_start.elapsed().as_secs_f64();
    round.allocs += alloc::calls() - allocs_before;
    round.sim_s += (spec.end_s - WARMUP_S) as f64;

    let (end, pending) = Counts::snapshot(&sim);
    round.counts.add(&end.since(&start));
    round.pending_at_end += pending;
    if let (Some(p), Some(bus_start)) = (&probes, &bus_start) {
        round.bus.add_window(bus_start, &p.read());
    }

    if !spec.faults.is_empty() {
        span!("cluster.sim.settle", {
            let mut now_s = spec.end_s;
            let mut quiet_samples = u32::from(quiet(&sim));
            while quiet_samples < SETTLE_SAMPLES && now_s < spec.end_s + SETTLE_LIMIT_S {
                now_s += SETTLE_STEP_S;
                sim.run_until(SimTime::from_secs(now_s));
                quiet_samples = if quiet(&sim) { quiet_samples + 1 } else { 0 };
            }
        });
    }
    let finish_span = tracer.as_deref_mut().map(|t| t.enter("cluster.sim.finish"));
    let (settled, _) = Counts::snapshot(&sim);

    let mut violations = Vec::new();
    check_converged(&sim, &settled, &mut violations);
    if let Some(ledger) = &ledger {
        check_ledger(ledger, &sim, &mut violations);
        round.bus.commit_intents += ledger.borrow().total_intents();
    }
    if let Some(p) = &probes {
        // Conservation, request by request.
        let bound_us = hung_bound().as_micros();
        let open = p.requests.borrow().open_requests(sim.now(), bound_us);
        round.bus.dropped_at_restart += open.dropped_at_restart;
        if open.lost > 0 {
            violations.push(format!(
                "{} request(s) a node accepted were neither completed nor killed within the TTL bound",
                open.lost
            ));
        }
    }

    // Fold the run's simulated statistics: the trace digest where the
    // workload has one, plus counters that exist with or without a bus.
    let mut fp = round.fingerprint ^ FNV_OFFSET;
    if workload.has_bus() {
        fold(&mut fp, hash.borrow().value());
    }
    fold(&mut fp, settled.events_fired);
    for node in &sim.world().nodes {
        for (_, v) in node.metrics().counters() {
            fold(&mut fp, v);
        }
    }

    let world = sim.finish();
    let taw = world.pool.taw_ref();
    let summary = taw.summary();
    for v in [
        summary.good_ops,
        summary.bad_ops,
        summary.good_actions,
        summary.bad_actions,
    ] {
        fold(&mut fp, v);
    }
    round.fingerprint = fp;

    // Operations count by the second their response arrived, good or bad
    // by the fate of their whole user action (the paper's Taw).
    round.good_ops += taw.good_in(WARMUP_S, spec.end_s - 1) as u64;
    round.bad_ops += taw.bad_in(WARMUP_S, spec.end_s - 1) as u64;
    match spec.first_injection_s() {
        None => round.exposed_sim_s += spec.end_s - WARMUP_S,
        Some(inject_s) => {
            // Seconds 0–2 are the cold start; the rest of the time before
            // the fault sets the healthy rate.
            let pre_rate = taw.good_in(3, inject_s - 1) / (inject_s - 3) as f64;
            let degraded_below = (0.5 * pre_rate).max(1.0);
            round.exposed_sim_s += spec.end_s - inject_s;
            round.downtime_sim_s += (inject_s..spec.end_s)
                .filter(|&t| taw.good_in(t, t) < degraded_below)
                .count() as u64;
        }
    }
    round.runs += 1;
    round.failed_runs += u64::from(!violations.is_empty());
    for v in violations {
        round.violations.push(match spec.run {
            Some(run) => format!("{} run {run} ({}): {v}", workload.name(), spec.label),
            None => format!("{}: {v}", workload.name()),
        });
    }

    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), finish_span) {
        t.exit(id);
    }
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), scenario_span) {
        t.exit(id);
    }
    if let Some(t) = tracer {
        t.set_run(None);
    }
}

/// Runs every spec of the plan once, in order.
pub fn run_round(workload: Workload, specs: &[RunSpec], mut tracer: Option<&mut Tracer>) -> Round {
    let mut round = Round::default();
    let span = tracer.as_deref_mut().map(|t| t.enter("workload.run"));
    for spec in specs {
        run_spec(workload, spec, &mut round, tracer.as_deref_mut());
    }
    if let (Some(t), Some(id)) = (tracer, span) {
        t.exit(id);
    }
    round
}
