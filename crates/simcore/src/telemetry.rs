//! Cross-crate telemetry: structured events and pluggable sinks.
//!
//! Every layer of the reproduction — the application server's request
//! pipeline, the reboot lifecycle, the recovery manager, the rejuvenation
//! service and the client emulator — describes what happened as a
//! [`TelemetryEvent`] and hands it to a [`TelemetrySink`]. Counters
//! (`ServerStats`, `RmStats`, Taw accounting) are sink *implementations*
//! downstream of the events rather than ad-hoc `+= 1` sites, so a run's
//! event stream is the single source of truth for everything the
//! experiment harness reports.
//!
//! A [`TelemetryBus`] fans events out to any number of boxed sinks; the
//! simulation shares one bus per run via [`SharedBus`]. Because
//! `Rc<RefCell<S>>` itself implements [`TelemetrySink`], a test or
//! experiment can keep a handle to a sink (say a [`TraceHashSink`]) while
//! a clone of the handle lives inside the bus.
//!
//! Events carry only plain scalar fields and have a canonical byte
//! encoding (`TelemetryEvent::encode_into`), which makes a run's trace
//! hashable: two runs are behaviourally identical iff their
//! [`TraceHashSink`] digests match.

use std::cell::RefCell;
use std::rc::Rc;

use crate::code_enum;
use crate::symbol::{self, Sym};
use crate::time::{SimDuration, SimTime};
use crate::wire::{self, Field};

code_enum! {
    /// How deep a reboot reaches (the recursive recovery policy's levels).
    #[derive(PartialOrd, Ord, Hash)]
    pub enum RebootLevel {
        /// Microreboot of one or more components (EJBs or the WAR).
        Component = 0 => "component",
        /// Restart of the whole application inside the running server.
        Application = 1 => "application",
        /// Restart of the JVM process (and the server in it).
        Process = 2 => "process",
        /// Reboot of the operating system.
        OperatingSystem = 3 => "os",
    }
}

impl RebootLevel {
    /// Returns the next-coarser level, or `None` after OS reboot.
    pub fn escalate(self) -> Option<RebootLevel> {
        match self {
            RebootLevel::Component => Some(RebootLevel::Application),
            RebootLevel::Application => Some(RebootLevel::Process),
            RebootLevel::Process => Some(RebootLevel::OperatingSystem),
            RebootLevel::OperatingSystem => None,
        }
    }

    /// Returns true if a recovery at `self` subsumes one at `finer` —
    /// i.e. `finer` reaches `self` by repeated [`RebootLevel::escalate`].
    pub fn supersedes(self, finer: RebootLevel) -> bool {
        let mut level = finer;
        while let Some(next) = level.escalate() {
            if next == self {
                return true;
            }
            level = next;
        }
        false
    }
}

code_enum! {
    /// How an accounted response left the server.
    pub enum Disposition {
        /// 2xx (or an honoured `Retry-After`).
        Ok = 0 => "ok",
        /// 4xx/5xx.
        HttpError = 1 => "http_error",
        /// Connection-level failure or timeout.
        NetworkError = 2 => "network_error",
    }
}

code_enum! {
    /// What killed an in-flight request.
    pub enum KillCause {
        /// A microreboot's thread kill.
        Microreboot = 0 => "microreboot",
        /// An app/process/OS restart's kill-everything.
        Restart = 1 => "restart",
        /// The server's request-TTL lease sweep.
        Ttl = 2 => "ttl",
    }
}

code_enum! {
    /// Which rung of the recursive policy the recovery manager chose.
    pub enum DecisionKind {
        /// Microreboot of a diagnosed EJB.
        EjbMicroreboot = 0 => "ejb_microreboot",
        /// Microreboot of the web component.
        WarMicroreboot = 1 => "war_microreboot",
        /// Whole-application restart.
        AppRestart = 2 => "app_restart",
        /// JVM process restart.
        ProcessRestart = 3 => "process_restart",
        /// Operating-system reboot.
        OsReboot = 4 => "os_reboot",
        /// Automated recovery exhausted; page a human.
        NotifyHuman = 5 => "notify_human",
        /// Bulkhead admission isolation of a blast radius (no reboot yet).
        Isolate = 6 => "isolate",
        /// Traffic failover away from the node before any reboot.
        Failover = 7 => "failover",
    }
}

/// Declares [`TelemetryEvent`] from one row per variant:
///
/// ```text
/// /// variant docs
/// <tag byte> <Variant> "<JSONL kind>" => <COUNTER symbol> {
///     /// field docs
///     <field>: <type> [as <wider wire type>] = "<JSON key>",
/// }
/// ```
///
/// and generates the enum, the canonical encoding (tag byte, then each
/// field's [`Field::put`] in row order), `kind()` / `KINDS`, the per-kind
/// counter, and the JSONL field writer and parser. A row whose field type
/// has no [`Field`] impl, or whose counter is not a canonical symbol, does
/// not compile; there is no second place to forget.
macro_rules! telemetry_events {
    (@wire $field:ident) => { $field };
    (@wire $field:ident $wire:ty) => { <$wire>::from($field) };
    ($(
        $(#[$vmeta:meta])*
        $tag:literal $variant:ident $kind:literal => $counter:ident {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty $(as $wire:ty)? = $key:literal ),* $(,)?
        }
    )+) => {
        /// One structured event from anywhere in the stack.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum TelemetryEvent {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),+
        }

        impl TelemetryEvent {
            /// Every event kind's JSONL `"t"` value, in tag order.
            pub const KINDS: &'static [&'static str] = &[$($kind),+];

            /// Appends the event's canonical byte encoding (tag byte, then
            /// each field little-endian, times as microseconds) to `buf`.
            pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
                match *self {
                    $( TelemetryEvent::$variant { $($field),* } => {
                        buf.push($tag);
                        $( Field::put(telemetry_events!(@wire $field $($wire)?), buf); )*
                    } )+
                }
            }

            /// The snake_case kind name of the event — the JSONL `"t"` value.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TelemetryEvent::$variant { .. } => $kind ),+
                }
            }

            /// The canonical counter every event of this kind bumps.
            pub(crate) fn counter(&self) -> Sym {
                match self {
                    $( TelemetryEvent::$variant { .. } => symbol::$counter ),+
                }
            }

            /// Appends the event's fields as `,"key":value` JSON members,
            /// in row order.
            pub(crate) fn write_json_fields(&self, out: &mut String) {
                match *self {
                    $( TelemetryEvent::$variant { $($field),* } => {
                        $(
                            out.push_str(concat!(",\"", $key, "\":"));
                            Field::write_json($field, out);
                        )*
                    } )+
                }
            }

            /// Rebuilds an event of kind `kind` from the members of the flat
            /// JSON object `line`.
            pub(crate) fn from_json_fields(
                kind: &str,
                line: &str,
            ) -> Result<TelemetryEvent, String> {
                Ok(match kind {
                    $( $kind => TelemetryEvent::$variant {
                        $( $field: wire::field(line, $key)? ),*
                    }, )+
                    other => return Err(format!("unknown event type \"{other}\"")),
                })
            }
        }
    };
}

telemetry_events! {
    /// A request arrived at a node.
    0 RequestSubmitted "request_submitted" => REQUESTS_SUBMITTED {
        /// Node it arrived at.
        node: usize = "node",
        /// Request id.
        req: u64 = "req",
        /// When.
        at: SimTime = "at_us",
    }
    /// A response was accounted (at rejection, or at delivery).
    1 RequestCompleted "request_completed" => REQUESTS_COMPLETED {
        /// Serving node.
        node: usize = "node",
        /// Request id.
        req: u64 = "req",
        /// Outcome class.
        disposition: Disposition = "disposition",
        /// When.
        at: SimTime = "at_us",
    }
    /// A `Retry-After` was answered from a sentinel binding.
    2 RetrySent "retry_sent" => RETRIES_SENT {
        /// Serving node.
        node: usize = "node",
        /// Request id.
        req: u64 = "req",
        /// When.
        at: SimTime = "at_us",
    }
    /// An in-flight request was killed.
    3 RequestKilled "request_killed" => REQUESTS_KILLED {
        /// Node it died on.
        node: usize = "node",
        /// Request id.
        req: u64 = "req",
        /// Who killed it.
        cause: KillCause = "cause",
        /// When.
        at: SimTime = "at_us",
    }
    /// A recovery action's destructive phase was scheduled/begun.
    4 RebootBegun "reboot_begun" => REBOOTS_BEGUN {
        /// Target node.
        node: usize = "node",
        /// Reboot depth.
        level: RebootLevel = "level",
        /// Component-group size (0 for coarse levels).
        members: u32 = "members",
        /// When.
        at: SimTime = "at_us",
    }
    /// A recovery action finished reinitializing.
    5 RebootFinished "reboot_finished" => REBOOTS_FINISHED {
        /// Target node.
        node: usize = "node",
        /// Reboot depth.
        level: RebootLevel = "level",
        /// Wall-clock (simulated) begin-to-done span.
        duration: SimDuration = "duration_us",
        /// When.
        at: SimTime = "at_us",
    }
    /// A client-side failure detector reported to the recovery manager.
    6 DetectorFired "detector_fired" => DETECTOR_FIRES {
        /// Implicated node.
        node: usize = "node",
        /// Failing operation code.
        op: u16 = "op",
        /// When.
        at: SimTime = "at_us",
    }
    /// The recovery manager committed to an action.
    7 RecoveryDecision "recovery_decision" => RECOVERY_DECISIONS {
        /// Target node.
        node: usize = "node",
        /// Chosen rung.
        decision: DecisionKind = "decision",
        /// When.
        at: SimTime = "at_us",
    }
    /// The rejuvenation service polled a node's free memory.
    8 RejuvenationTick "rejuvenation_tick" => REJUVENATION_TICKS {
        /// Polled node.
        node: usize = "node",
        /// Free heap observed.
        free_bytes: u64 = "free_bytes",
        /// When.
        at: SimTime = "at_us",
    }
    /// The client emulator recorded one operation under an open action.
    9 ClientOp "client_op" => CLIENT_OPS {
        /// Owning user action.
        action: u64 = "action",
        /// Functional group code (see `workload::catalog`).
        group: u8 = "group",
        /// When the operation was first sent.
        started_at: SimTime = "started_us",
        /// When its response arrived.
        finished_at: SimTime = "finished_us",
        /// Whether the detectors saw it succeed.
        ok: bool = "ok",
    }
    /// The client emulator closed a user action (Taw attribution point).
    10 ActionClosed "action_closed" => ACTIONS_CLOSED {
        /// The closed action.
        action: u64 = "action",
    }
    /// The recovery conductor deferred an action behind a conflicting
    /// in-flight recovery.
    11 RecoveryQueued "recovery_queued" => RECOVERIES_QUEUED {
        /// Target node.
        node: usize = "node",
        /// Reboot depth of the deferred action.
        level: RebootLevel = "level",
        /// When.
        at: SimTime = "at_us",
    }
    /// The recovery conductor merged an action into an overlapping
    /// in-flight or queued recovery instead of running it twice.
    12 RecoveryCoalesced "recovery_coalesced" => RECOVERIES_COALESCED {
        /// Target node.
        node: usize = "node",
        /// When.
        at: SimTime = "at_us",
    }
    /// Quarantine admission engaged (or its blast radius changed) on a
    /// node: requests whose call path touches the rebooting groups are
    /// shed at the door.
    13 QuarantineOn "quarantine_on" => QUARANTINE_ON {
        /// Quarantining node.
        node: usize = "node",
        /// Components currently in the blast radius.
        members: u32 = "members",
        /// When.
        at: SimTime = "at_us",
    }
    /// Quarantine admission disengaged on a node (no group rebooting).
    14 QuarantineOff "quarantine_off" => QUARANTINE_OFF {
        /// Node back to full admission.
        node: usize = "node",
        /// When.
        at: SimTime = "at_us",
    }
    /// The load balancer redirected a session-bound request away from its
    /// home node (Section 5.3 failover) because the home was draining or
    /// its blast radius covered the request's call path.
    15 LbFailover "lb_failover" => LB_FAILOVERS {
        /// The session's home node the request was steered away from.
        from: usize = "from",
        /// The node that received it instead.
        to: usize = "to",
        /// The redirected request.
        req: u64 = "req",
        /// The failed-over session.
        session: u64 = "session",
        /// When.
        at: SimTime = "at_us",
    }
    /// The server's request-TTL lease sweep ran over a node that had hung
    /// requests: `reaped` leases had expired and were purged, `pending`
    /// hung requests remain scheduled for a later sweep.
    16 TtlSweep "ttl_sweep" => TTL_SWEEPS {
        /// Swept node.
        node: usize = "node",
        /// Hung requests whose lease has not yet expired.
        pending: u32 = "pending",
        /// Hung requests purged by this sweep.
        reaped: u32 = "reaped",
        /// When.
        at: SimTime = "at_us",
    }
    /// The recovery manager's reboot-storm damper suppressed a repeated
    /// microreboot of the same component, deferring the decision until
    /// the exponential backoff expires.
    17 StormDamped "storm_damped" => STORM_DAMPED {
        /// Target node.
        node: usize = "node",
        /// Consecutive same-component microreboots observed so far.
        strikes: u32 = "strikes",
        /// How long the damper holds the next attempt back.
        backoff: SimDuration = "backoff_us",
        /// When.
        at: SimTime = "at_us",
    }
    /// Flap-driven escalation: a component failed again within the flap
    /// window after recovering, so the manager climbed the ladder instead
    /// of re-microrebooting forever.
    18 FlapEscalated "flap_escalated" => FLAP_ESCALATIONS {
        /// Target node.
        node: usize = "node",
        /// Recoveries of the flapping component inside the window.
        flaps: u32 = "flaps",
        /// When.
        at: SimTime = "at_us",
    }
    /// The convergence watchdog escalated an episode that exceeded its
    /// time bound without the failure reports going quiet.
    19 WatchdogEscalated "watchdog_escalated" => WATCHDOG_ESCALATIONS {
        /// Target node.
        node: usize = "node",
        /// How long the episode had been running.
        elapsed: SimDuration = "elapsed_us",
        /// When.
        at: SimTime = "at_us",
    }
    /// The policy ladder tried to escalate past `Human`: automated
    /// recovery is exhausted and the decision saturated in place.
    20 EscalationSaturated "escalation_saturated" => ESCALATIONS_SATURATED {
        /// Target node.
        node: usize = "node",
        /// When.
        at: SimTime = "at_us",
    }
    /// A fault-injection campaign run finished (emitted by `urb chaos`
    /// onto the campaign's own bus, one per scenario).
    21 CampaignRunDone "campaign_run_done" => CAMPAIGN_RUNS_DONE {
        /// Zero-based run index within the campaign.
        run: u64 = "run",
        /// Per-run trace digest.
        digest: u64 = "digest",
        /// Invariant violations observed in this run.
        violations: u32 = "violations",
    }
    /// A non-default recovery policy was armed on the recovery manager
    /// (emitted once, when telemetry attaches; the paper's ladder stays
    /// silent so default-config traces are unchanged).
    22 PolicyArmed "policy_armed" => POLICIES_ARMED {
        /// The policy's registry code (`PolicyChoice::code`).
        policy: u8 = "policy",
        /// When.
        at: SimTime = "at_us",
    }
    /// A circuit-breaker policy changed state on a node
    /// (0 = closed, 1 = open/tripped, 2 = half-open probe).
    23 BreakerTransition "breaker_transition" => BREAKER_TRANSITIONS {
        /// Target node.
        node: usize = "node",
        /// New breaker state code.
        state: u8 = "state",
        /// When.
        at: SimTime = "at_us",
    }
    /// A retry-budget policy deferred a recovery decision, betting the
    /// failure is transient and client retries will ride it out.
    24 HedgeDeferred "hedge_deferred" => HEDGE_DEFERRALS {
        /// Target node.
        node: usize = "node",
        /// Deferrals left in the node's budget.
        budget_left: u32 = "budget_left",
        /// When.
        at: SimTime = "at_us",
    }
    /// The recovery manager itself crashed mid-episode (ReHype-style):
    /// all volatile diagnosis state is lost.
    25 RmCrashed "rm_crashed" => RM_CRASHES {
        /// When.
        at: SimTime = "at_us",
    }
    /// The recovery manager finished rebooting and resumed polling with a
    /// blank diagnosis slate.
    26 RmRebooted "rm_rebooted" => RM_REBOOTS {
        /// When.
        at: SimTime = "at_us",
    }
    /// A failover-first policy engaged: traffic is redirected away from
    /// the node before (instead of) rebooting anything on it.
    27 FailoverEngaged "failover_engaged" => FAILOVERS_ENGAGED {
        /// Node traffic is steered away from.
        node: usize = "node",
        /// When.
        at: SimTime = "at_us",
    }
    /// The performance-observability plane froze its pre-fault baseline:
    /// per-component latency quantiles and throughput are snapshotted and
    /// every later window is judged against them.
    28 PerfBaselineFrozen "perf_baseline_frozen" => PERF_BASELINES_FROZEN {
        /// Monitored node.
        node: usize = "node",
        /// How many components had enough samples to baseline.
        components: u32 = "components",
        /// When.
        at: SimTime = "at_us",
    }
    /// The latency-anomaly (fail-slow) detector fired: a component's live
    /// sketch drifted beyond the configured multipliers of its baseline.
    29 LatencyAnomaly "latency_anomaly" => LATENCY_ANOMALIES {
        /// Implicated node.
        node: usize = "node",
        /// Operation code whose latency drifted.
        op: u16 = "op",
        /// Observed p95 over baseline p95, in permille (2500 = 2.5x).
        ratio_permille: u32 = "ratio_permille",
        /// When.
        at: SimTime = "at_us",
    }
    /// Post-recovery performance parity: the live quantiles and throughput
    /// returned within tolerance of the frozen baseline and stayed there.
    30 ParityRestored "parity_restored" => PARITY_RESTORED {
        /// Recovered node.
        node: usize = "node",
        /// How long parity took from the first anomaly.
        after: SimDuration = "after_us",
        /// When.
        at: SimTime = "at_us",
    }
    /// A degraded-mode (fail-slow) fault was injected: the component keeps
    /// answering, just slowly.
    31 DegradedInjected "degraded_injected" => DEGRADED_INJECTED {
        /// Target node.
        node: usize = "node",
        /// Service-time inflation, in permille (4000 = 4x).
        factor_permille: u32 = "factor_permille",
        /// When.
        at: SimTime = "at_us",
    }
    /// A replica brick of the external session store went down (crash or
    /// induced failure). Its stored objects are gone; surviving replicas
    /// keep serving.
    32 BrickFailed "brick_failed" => BRICKS_FAILED {
        /// Brick index within the store.
        brick: usize = "brick",
        /// When.
        at: SimTime = "at_us",
    }
    /// A failed brick rejoined the store. It comes back empty and
    /// repopulates lazily as sessions are written.
    33 BrickRestored "brick_restored" => BRICKS_RESTORED {
        /// Brick index within the store.
        brick: usize = "brick",
        /// When.
        at: SimTime = "at_us",
    }
    /// A session's lease lapsed (naturally or via a lease storm) and the
    /// store dropped its state.
    34 LeaseExpired "lease_expired" => LEASES_EXPIRED {
        /// The expired session id.
        session: u64 = "session",
        /// When.
        at: SimTime = "at_us",
    }
    /// A network fault was armed on a cluster edge (LB↔node or
    /// node↔store).
    35 NetFaultInjected "net_fault_injected" => NET_FAULTS_INJECTED {
        /// Edge code (0 = LB↔node, 1 = node↔store).
        edge: u8 as u64 = "edge",
        /// Fault kind code (0 partition, 1 lossy, 2 delay, 3 dupe,
        /// 4 store-slow, 5 brick-corrupt).
        kind: u8 as u64 = "kind",
        /// When.
        at: SimTime = "at_us",
    }
    /// All network faults on a cluster edge healed.
    36 NetFaultHealed "net_fault_healed" => NET_FAULTS_HEALED {
        /// Edge code (0 = LB↔node, 1 = node↔store).
        edge: u8 as u64 = "edge",
        /// When.
        at: SimTime = "at_us",
    }
}

/// A consumer of telemetry events.
pub trait TelemetrySink {
    /// Handles one event. Sinks ignore event kinds they do not care about.
    fn on_event(&mut self, event: &TelemetryEvent);

    /// True if this sink consumes the event's canonical byte encoding
    /// (digesting and recording sinks). The bus encodes an event only when
    /// at least one attached sink says so, so runs without a digest or
    /// recorder skip `TelemetryEvent::encode_into` entirely.
    fn wants_encoded(&self) -> bool {
        false
    }

    /// Handles one event together with its canonical encoding, already
    /// produced once by the bus. Called instead of
    /// [`TelemetrySink::on_event`] for sinks whose
    /// [`TelemetrySink::wants_encoded`] is true.
    fn on_encoded(&mut self, event: &TelemetryEvent, _bytes: &[u8]) {
        self.on_event(event);
    }
}

/// A shared handle to a sink is itself a sink, so a clone can sit in the
/// bus while the owner keeps reading it.
impl<S: TelemetrySink> TelemetrySink for Rc<RefCell<S>> {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.borrow_mut().on_event(event);
    }

    fn wants_encoded(&self) -> bool {
        self.borrow().wants_encoded()
    }

    fn on_encoded(&mut self, event: &TelemetryEvent, bytes: &[u8]) {
        self.borrow_mut().on_encoded(event, bytes);
    }
}

/// Fans events out to any number of sinks.
#[derive(Default)]
pub struct TelemetryBus {
    sinks: Vec<Box<dyn TelemetrySink>>,
    /// How many attached sinks want the canonical encoding; when zero, the
    /// emit path never encodes.
    encoders: usize,
    /// One reusable encoding buffer shared by all encoding sinks.
    scratch: Vec<u8>,
}

impl TelemetryBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        TelemetryBus::default()
    }

    /// Adds a sink; it receives every subsequent event.
    pub fn add_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        if sink.wants_encoded() {
            self.encoders += 1;
        }
        self.sinks.push(sink);
    }

    /// Delivers one event to every sink, in registration order.
    ///
    /// The canonical encoding is produced at most once per event — into the
    /// bus's scratch buffer — and only when some sink wants it.
    pub fn emit(&mut self, event: &TelemetryEvent) {
        if self.encoders == 0 {
            for sink in &mut self.sinks {
                sink.on_event(event);
            }
            return;
        }
        self.scratch.clear();
        event.encode_into(&mut self.scratch);
        for sink in &mut self.sinks {
            if sink.wants_encoded() {
                sink.on_encoded(event, &self.scratch);
            } else {
                sink.on_event(event);
            }
        }
    }
}

/// The bus handle the simulation layers share.
pub type SharedBus = Rc<RefCell<TelemetryBus>>;

/// Creates an empty shared bus.
pub fn shared_bus() -> SharedBus {
    Rc::new(RefCell::new(TelemetryBus::new()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds every event's canonical encoding into one FNV-1a 64 digest.
///
/// Two runs with the same seed and configuration must produce the same
/// digest; any behavioural divergence changes it.
#[derive(Clone, Debug)]
pub struct TraceHashSink {
    hash: u64,
    count: u64,
    /// Reusable encoding scratch, so hashing an event allocates only once
    /// over the sink's whole lifetime instead of once per event.
    scratch: Vec<u8>,
}

impl Default for TraceHashSink {
    fn default() -> Self {
        TraceHashSink::new()
    }
}

impl TraceHashSink {
    /// Creates an empty digest.
    pub fn new() -> Self {
        TraceHashSink {
            hash: FNV_OFFSET,
            count: 0,
            scratch: Vec::with_capacity(64),
        }
    }

    /// Returns the digest over all events seen so far.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Returns how many events were folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn fold(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.hash ^= u64::from(*b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.count += 1;
    }
}

impl TelemetrySink for TraceHashSink {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.scratch.clear();
        event.encode_into(&mut self.scratch);
        // Split borrow: move the scratch out so `fold` can take `&mut self`.
        let scratch = std::mem::take(&mut self.scratch);
        self.fold(&scratch);
        self.scratch = scratch;
    }

    fn wants_encoded(&self) -> bool {
        true
    }

    fn on_encoded(&mut self, _event: &TelemetryEvent, bytes: &[u8]) {
        self.fold(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(req: u64) -> TelemetryEvent {
        TelemetryEvent::RequestSubmitted {
            node: 0,
            req,
            at: SimTime::from_secs(req),
        }
    }

    #[test]
    fn escalation_ladder_terminates_at_os() {
        assert_eq!(
            RebootLevel::Component.escalate(),
            Some(RebootLevel::Application)
        );
        assert_eq!(
            RebootLevel::Application.escalate(),
            Some(RebootLevel::Process)
        );
        assert_eq!(
            RebootLevel::Process.escalate(),
            Some(RebootLevel::OperatingSystem)
        );
        assert_eq!(RebootLevel::OperatingSystem.escalate(), None);
    }

    #[test]
    fn supersedes_is_strict_and_transitive() {
        assert!(RebootLevel::Process.supersedes(RebootLevel::Component));
        assert!(RebootLevel::OperatingSystem.supersedes(RebootLevel::Component));
        assert!(!RebootLevel::Component.supersedes(RebootLevel::Component));
        assert!(!RebootLevel::Component.supersedes(RebootLevel::Process));
    }

    #[test]
    fn encoding_distinguishes_fields() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        ev(1).encode_into(&mut a);
        ev(2).encode_into(&mut b);
        assert_ne!(a, b);
        let mut a2 = Vec::new();
        ev(1).encode_into(&mut a2);
        assert_eq!(a, a2);
    }

    /// Golden encodings: the canonical byte layout of every event kind is
    /// pinned, because trace digests (and the JSONL `verify` round-trip)
    /// depend on it never drifting silently.
    #[test]
    fn golden_canonical_encodings() {
        fn le(v: u64) -> Vec<u8> {
            v.to_le_bytes().to_vec()
        }
        fn cat(parts: &[Vec<u8>]) -> Vec<u8> {
            parts.iter().flatten().copied().collect()
        }
        let t = SimTime::from_millis(1500); // 1_500_000 us
        let cases: Vec<(TelemetryEvent, Vec<u8>)> = vec![
            (
                TelemetryEvent::RequestSubmitted {
                    node: 2,
                    req: 9,
                    at: t,
                },
                cat(&[vec![0], le(2), le(9), le(1_500_000)]),
            ),
            (
                TelemetryEvent::RequestCompleted {
                    node: 1,
                    req: 7,
                    disposition: Disposition::HttpError,
                    at: t,
                },
                cat(&[vec![1], le(1), le(7), vec![1], le(1_500_000)]),
            ),
            (
                TelemetryEvent::RetrySent {
                    node: 0,
                    req: 3,
                    at: t,
                },
                cat(&[vec![2], le(0), le(3), le(1_500_000)]),
            ),
            (
                TelemetryEvent::RequestKilled {
                    node: 0,
                    req: 4,
                    cause: KillCause::Ttl,
                    at: t,
                },
                cat(&[vec![3], le(0), le(4), vec![2], le(1_500_000)]),
            ),
            (
                TelemetryEvent::RebootBegun {
                    node: 0,
                    level: RebootLevel::Component,
                    members: 2,
                    at: t,
                },
                cat(&[vec![4], le(0), vec![0], le(2), le(1_500_000)]),
            ),
            (
                TelemetryEvent::RebootFinished {
                    node: 0,
                    level: RebootLevel::Process,
                    duration: SimDuration::from_millis(5),
                    at: t,
                },
                cat(&[vec![5], le(0), vec![2], le(5_000), le(1_500_000)]),
            ),
            (
                TelemetryEvent::DetectorFired {
                    node: 1,
                    op: 6,
                    at: t,
                },
                cat(&[vec![6], le(1), le(6), le(1_500_000)]),
            ),
            (
                TelemetryEvent::RecoveryDecision {
                    node: 1,
                    decision: DecisionKind::AppRestart,
                    at: t,
                },
                cat(&[vec![7], le(1), vec![2], le(1_500_000)]),
            ),
            (
                TelemetryEvent::RejuvenationTick {
                    node: 0,
                    free_bytes: 1024,
                    at: t,
                },
                cat(&[vec![8], le(0), le(1024), le(1_500_000)]),
            ),
            (
                TelemetryEvent::ClientOp {
                    action: 11,
                    group: 3,
                    started_at: SimTime::from_millis(1000),
                    finished_at: t,
                    ok: true,
                },
                cat(&[
                    vec![9],
                    le(11),
                    vec![3],
                    le(1_000_000),
                    le(1_500_000),
                    vec![1],
                ]),
            ),
            (
                TelemetryEvent::ActionClosed { action: 11 },
                cat(&[vec![10], le(11)]),
            ),
            (
                TelemetryEvent::RecoveryQueued {
                    node: 0,
                    level: RebootLevel::Application,
                    at: t,
                },
                cat(&[vec![11], le(0), vec![1], le(1_500_000)]),
            ),
            (
                TelemetryEvent::RecoveryCoalesced { node: 0, at: t },
                cat(&[vec![12], le(0), le(1_500_000)]),
            ),
            (
                TelemetryEvent::QuarantineOn {
                    node: 0,
                    members: 3,
                    at: t,
                },
                cat(&[vec![13], le(0), le(3), le(1_500_000)]),
            ),
            (
                TelemetryEvent::QuarantineOff { node: 0, at: t },
                cat(&[vec![14], le(0), le(1_500_000)]),
            ),
            (
                TelemetryEvent::LbFailover {
                    from: 1,
                    to: 2,
                    req: 8,
                    session: 40,
                    at: t,
                },
                cat(&[vec![15], le(1), le(2), le(8), le(40), le(1_500_000)]),
            ),
            (
                TelemetryEvent::TtlSweep {
                    node: 0,
                    pending: 2,
                    reaped: 1,
                    at: t,
                },
                cat(&[vec![16], le(0), le(2), le(1), le(1_500_000)]),
            ),
            (
                TelemetryEvent::StormDamped {
                    node: 0,
                    strikes: 3,
                    backoff: SimDuration::from_millis(400),
                    at: t,
                },
                cat(&[vec![17], le(0), le(3), le(400_000), le(1_500_000)]),
            ),
            (
                TelemetryEvent::FlapEscalated {
                    node: 1,
                    flaps: 2,
                    at: t,
                },
                cat(&[vec![18], le(1), le(2), le(1_500_000)]),
            ),
            (
                TelemetryEvent::WatchdogEscalated {
                    node: 0,
                    elapsed: SimDuration::from_millis(2500),
                    at: t,
                },
                cat(&[vec![19], le(0), le(2_500_000), le(1_500_000)]),
            ),
            (
                TelemetryEvent::EscalationSaturated { node: 1, at: t },
                cat(&[vec![20], le(1), le(1_500_000)]),
            ),
            (
                TelemetryEvent::CampaignRunDone {
                    run: 5,
                    digest: 0xdead_beef,
                    violations: 0,
                },
                cat(&[vec![21], le(5), le(0xdead_beef), le(0)]),
            ),
            (
                TelemetryEvent::PolicyArmed { policy: 3, at: t },
                cat(&[vec![22], vec![3], le(1_500_000)]),
            ),
            (
                TelemetryEvent::BreakerTransition {
                    node: 1,
                    state: 2,
                    at: t,
                },
                cat(&[vec![23], le(1), vec![2], le(1_500_000)]),
            ),
            (
                TelemetryEvent::HedgeDeferred {
                    node: 0,
                    budget_left: 4,
                    at: t,
                },
                cat(&[vec![24], le(0), le(4), le(1_500_000)]),
            ),
            (
                TelemetryEvent::RmCrashed { at: t },
                cat(&[vec![25], le(1_500_000)]),
            ),
            (
                TelemetryEvent::RmRebooted { at: t },
                cat(&[vec![26], le(1_500_000)]),
            ),
            (
                TelemetryEvent::FailoverEngaged { node: 1, at: t },
                cat(&[vec![27], le(1), le(1_500_000)]),
            ),
            (
                TelemetryEvent::PerfBaselineFrozen {
                    node: 0,
                    components: 6,
                    at: t,
                },
                cat(&[vec![28], le(0), le(6), le(1_500_000)]),
            ),
            (
                TelemetryEvent::LatencyAnomaly {
                    node: 0,
                    op: 12,
                    ratio_permille: 2500,
                    at: t,
                },
                cat(&[vec![29], le(0), le(12), le(2500), le(1_500_000)]),
            ),
            (
                TelemetryEvent::ParityRestored {
                    node: 0,
                    after: SimDuration::from_millis(2500),
                    at: t,
                },
                cat(&[vec![30], le(0), le(2_500_000), le(1_500_000)]),
            ),
            (
                TelemetryEvent::DegradedInjected {
                    node: 1,
                    factor_permille: 4000,
                    at: t,
                },
                cat(&[vec![31], le(1), le(4000), le(1_500_000)]),
            ),
            (
                TelemetryEvent::BrickFailed { brick: 2, at: t },
                cat(&[vec![32], le(2), le(1_500_000)]),
            ),
            (
                TelemetryEvent::BrickRestored { brick: 2, at: t },
                cat(&[vec![33], le(2), le(1_500_000)]),
            ),
            (
                TelemetryEvent::LeaseExpired { session: 99, at: t },
                cat(&[vec![34], le(99), le(1_500_000)]),
            ),
            (
                TelemetryEvent::NetFaultInjected {
                    edge: 1,
                    kind: 3,
                    at: t,
                },
                cat(&[vec![35], le(1), le(3), le(1_500_000)]),
            ),
            (
                TelemetryEvent::NetFaultHealed { edge: 0, at: t },
                cat(&[vec![36], le(0), le(1_500_000)]),
            ),
        ];
        let covered: Vec<&str> = cases.iter().map(|(ev, _)| ev.kind()).collect();
        assert_eq!(
            covered,
            TelemetryEvent::KINDS,
            "every table row needs a golden case, in tag order"
        );
        for (ev, want) in cases {
            let mut got = Vec::new();
            ev.encode_into(&mut got);
            assert_eq!(got, want, "canonical encoding drifted for {ev:?}");
        }
    }

    #[test]
    fn trace_hash_is_order_sensitive_and_deterministic() {
        let mut h1 = TraceHashSink::new();
        let mut h2 = TraceHashSink::new();
        let mut h3 = TraceHashSink::new();
        h1.on_event(&ev(1));
        h1.on_event(&ev(2));
        h2.on_event(&ev(1));
        h2.on_event(&ev(2));
        h3.on_event(&ev(2));
        h3.on_event(&ev(1));
        assert_eq!(h1.value(), h2.value());
        assert_ne!(h1.value(), h3.value());
        assert_eq!(h1.count(), 2);
    }

    #[test]
    fn bus_fans_out_and_shared_handles_stay_readable() {
        let bus = shared_bus();
        let hash = Rc::new(RefCell::new(TraceHashSink::new()));
        bus.borrow_mut().add_sink(Box::new(hash.clone()));
        bus.borrow_mut().add_sink(Box::new(TraceHashSink::new()));
        bus.borrow_mut().emit(&ev(7));
        assert_eq!(hash.borrow().count(), 1);
    }
}
