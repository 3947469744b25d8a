//! Episode tracing: from raw telemetry events to causal recovery spans.
//!
//! Three pieces live here, all downstream of [`crate::telemetry`] and all
//! observation-only (attaching them never perturbs a run's behaviour or
//! its trace digest):
//!
//! * [`TraceRecorder`] — a [`TelemetrySink`] that keeps the full ordered
//!   event log of a run plus its running FNV-1a digest.
//! * [`Trace`] — a recorded event log with a deterministic JSONL
//!   serialisation: one `meta` line carrying the digest, one line per
//!   event, then one derived `episode` line per assembled recovery span.
//!   Parsing reads the events back bit-exactly (times are stored as
//!   integer microseconds), so `verify` can recompute the digest.
//! * [`RecoveryEpisode`] / [`assemble_episodes`] — folds the flat stream
//!   into causal spans: `DetectorFired*` → `RecoveryDecision` →
//!   (`RecoveryQueued` | `RecoveryCoalesced`)* → `RebootBegun` →
//!   `RebootFinished`, with quarantine on/off attribution and per-episode
//!   lost work (killed / failed / retried requests whose lifetime
//!   overlaps the destructive window).
//!
//! The JSONL format is hand-rolled (the workspace takes no external
//! dependencies): every line is a flat object of integer, string and
//! boolean fields, written in a fixed key order and read back with a
//! key-scanning parser.

use std::collections::VecDeque;

use crate::telemetry::{
    DecisionKind, Disposition, RebootLevel, TelemetryEvent, TelemetrySink, TraceHashSink,
};
use crate::time::{SimDuration, SimTime};
use crate::wire::{field, json_str};

/// The JSONL schema version written into the `meta` line.
pub(crate) const TRACE_FORMAT_VERSION: u64 = 1;

/// Records every event of a run, in order.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TelemetryEvent>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }
}

impl TelemetrySink for TraceRecorder {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.events.push(*event);
    }
}

/// Computes the FNV-1a digest of an event sequence (the same digest a
/// [`TraceHashSink`] attached to the live run would report).
pub(crate) fn digest_of(events: &[TelemetryEvent]) -> u64 {
    let mut h = TraceHashSink::new();
    for ev in events {
        h.on_event(ev);
    }
    h.value()
}

/// End-of-run DES kernel health, carried on the trace's `meta` line so
/// `urb trace summary` can show it offline. Only the deterministic
/// gauges from [`crate::metrics::record_kernel_gauges`] are stored —
/// wall-clock throughput would make recorded traces differ between
/// machines and break byte-for-byte trace comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelGauges {
    /// Kernel events fired over the run (`des_events_fired`).
    pub events_fired: u64,
    /// Events still pending when the run stopped (`des_queue_depth`).
    pub queue_depth: u64,
    /// Simulated time covered, in microseconds (`sim_seconds`).
    pub sim_micros: u64,
}

/// A run's full event log plus the digest its producer declared.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The digest declared in the `meta` line (for a freshly recorded
    /// trace, the digest actually observed).
    pub digest: u64,
    /// Every event, in emission order.
    pub events: Vec<TelemetryEvent>,
    /// DES kernel health at end of run, when the producer recorded it
    /// (absent in traces from older recorders — the field is optional
    /// on the meta line).
    pub kernel: Option<KernelGauges>,
}

impl Trace {
    /// Builds a trace from raw events, computing the digest.
    pub fn from_events(events: Vec<TelemetryEvent>) -> Self {
        Trace {
            digest: digest_of(&events),
            events,
            kernel: None,
        }
    }

    /// Recomputes the digest from the events (vs. the declared `digest`).
    pub fn recomputed_digest(&self) -> u64 {
        digest_of(&self.events)
    }

    /// Serialises the trace to JSONL: meta line, event lines, then one
    /// derived `episode` line per assembled recovery span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let kernel = self.kernel.map_or(String::new(), |k| {
            format!(
                ",\"des_events_fired\":{},\"des_queue_depth\":{},\"sim_micros\":{}",
                k.events_fired, k.queue_depth, k.sim_micros
            )
        });
        out.push_str(&format!(
            "{{\"t\":\"meta\",\"version\":{},\"events\":{},\"digest\":\"{:016x}\"{kernel}}}\n",
            TRACE_FORMAT_VERSION,
            self.events.len(),
            self.digest
        ));
        for ev in &self.events {
            out.push_str(&event_to_json(ev));
            out.push('\n');
        }
        for (i, ep) in assemble_episodes(&self.events).iter().enumerate() {
            out.push_str(&episode_to_json(i, ep));
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL serialisation to `path`.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Parses a JSONL trace. `episode` lines are skipped (episodes are
    /// derived data — reassemble them from the events); unknown line
    /// types are an error so schema drift is loud. Every error names the
    /// offending line (`line N: …`).
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut meta = None;
        let mut events = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let at_line = |e: String| format!("line {}: {e}", idx + 1);
            match json_str(line, "t") {
                None => return Err(at_line("missing \"t\" field".to_string())),
                Some("meta") => meta = Some((idx + 1, parse_meta(line).map_err(at_line)?)),
                Some("episode") => {}
                Some(kind) => {
                    events.push(TelemetryEvent::from_json_fields(kind, line).map_err(at_line)?)
                }
            }
        }
        // `to_jsonl` writes the meta line first, so that is where a trace
        // without one is broken.
        let (meta_line, (digest, declared_events, kernel)) =
            meta.ok_or("line 1: trace has no meta line")?;
        if let Some(n) = declared_events.filter(|&n| n != events.len() as u64) {
            return Err(format!(
                "line {meta_line}: meta declares {n} events but {} were parsed",
                events.len()
            ));
        }
        Ok(Trace {
            digest,
            events,
            kernel,
        })
    }

    /// Reads and parses a JSONL trace from `path`.
    pub fn read_from(path: &std::path::Path) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Trace::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Reads a `meta` line: the declared digest, the declared event count if
/// present, and the kernel gauges if all three were recorded.
fn parse_meta(line: &str) -> Result<(u64, Option<u64>, Option<KernelGauges>), String> {
    let version: u64 = field(line, "version")?;
    if version != TRACE_FORMAT_VERSION {
        return Err(format!(
            "unsupported trace format version {version} (expected {TRACE_FORMAT_VERSION})"
        ));
    }
    let hex = json_str(line, "digest").ok_or("meta without digest")?;
    let digest = u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest: {e}"))?;
    let gauge = |key| field::<u64>(line, key).ok();
    let kernel = match (
        gauge("des_events_fired"),
        gauge("des_queue_depth"),
        gauge("sim_micros"),
    ) {
        (Some(events_fired), Some(queue_depth), Some(sim_micros)) => Some(KernelGauges {
            events_fired,
            queue_depth,
            sim_micros,
        }),
        _ => None,
    };
    Ok((digest, gauge("events"), kernel))
}

// ---------------------------------------------------------------------------
// JSONL encoding of events
// ---------------------------------------------------------------------------

/// Renders one event as a single JSON object line (no trailing newline):
/// the `"t"` discriminator, then the fields its table row declares.
pub fn event_to_json(ev: &TelemetryEvent) -> String {
    let mut out = format!("{{\"t\":\"{}\"", ev.kind());
    ev.write_json_fields(&mut out);
    out.push('}');
    out
}

/// Parses one event line written by [`event_to_json`].
pub fn event_from_json(line: &str) -> Result<TelemetryEvent, String> {
    let kind = json_str(line, "t").ok_or("missing \"t\" field")?;
    TelemetryEvent::from_json_fields(kind, line)
}

fn episode_to_json(index: usize, ep: &RecoveryEpisode) -> String {
    format!(
        "{{\"t\":\"episode\",\"index\":{index},\"node\":{},\"level\":\"{}\",\"trigger\":\"{}\",\
         \"detector_fires\":{},\"queued\":{},\"coalesced\":{},\"begun_us\":{},\"finished_us\":{},\
         \"duration_us\":{},\"killed\":{},\"failed\":{},\"retried\":{}}}",
        ep.node,
        ep.level.label(),
        ep.trigger(),
        ep.detector_fires,
        ep.queued,
        ep.coalesced,
        ep.begun_at.as_micros(),
        ep.finished_at.as_micros(),
        ep.duration.as_micros(),
        ep.killed,
        ep.failed,
        ep.retried
    )
}

// ---------------------------------------------------------------------------
// Episode assembly
// ---------------------------------------------------------------------------

/// The reboot depth a recovery-manager decision, if carried out, runs at.
pub(crate) fn decision_level(decision: DecisionKind) -> Option<RebootLevel> {
    match decision {
        DecisionKind::EjbMicroreboot | DecisionKind::WarMicroreboot => Some(RebootLevel::Component),
        DecisionKind::AppRestart => Some(RebootLevel::Application),
        DecisionKind::ProcessRestart => Some(RebootLevel::Process),
        DecisionKind::OsReboot => Some(RebootLevel::OperatingSystem),
        DecisionKind::NotifyHuman => None,
        // Isolation and failover redirect traffic instead of rebooting
        // anything, so no reboot depth is attributable to them.
        DecisionKind::Isolate => None,
        DecisionKind::Failover => None,
    }
}

/// One causal recovery span: everything between the detector reports that
/// triggered a recovery and the reboot that resolved it, with the work it
/// cost. Assembled from a flat event stream by [`assemble_episodes`].
#[derive(Clone, Debug)]
pub struct RecoveryEpisode {
    /// The rebooted node.
    pub node: usize,
    /// Detector reports attributed to this episode's decision.
    pub detector_fires: u32,
    /// When the first attributed detector fired.
    pub first_detector_at: Option<SimTime>,
    /// The recovery manager's chosen rung (None for reboots that bypassed
    /// the manager, e.g. proactive rejuvenation).
    pub decision: Option<DecisionKind>,
    /// When the decision was committed.
    pub decided_at: Option<SimTime>,
    /// Whether the conductor deferred this action behind a conflict.
    pub(crate) queued: bool,
    /// Actions the conductor merged into this one.
    pub(crate) coalesced: u32,
    /// Reboot depth actually executed.
    pub level: RebootLevel,
    /// When the destructive phase began.
    pub begun_at: SimTime,
    /// When reinitialisation completed.
    pub finished_at: SimTime,
    /// Begin-to-done span as reported by the lifecycle layer.
    pub duration: SimDuration,
    /// When quarantine admission engaged for this episode, if it did.
    pub(crate) quarantine_on_at: Option<SimTime>,
    /// When quarantine admission disengaged again.
    pub(crate) quarantine_off_at: Option<SimTime>,
    /// Requests killed on this node whose lifetime overlapped the episode.
    pub killed: u32,
    /// Requests completing with an error disposition in the window.
    pub failed: u32,
    /// `Retry-After` responses served from sentinel bindings in the window.
    pub retried: u32,
}

impl RecoveryEpisode {
    /// Total requests the episode cost (killed + failed + retried).
    pub fn lost_work(&self) -> u32 {
        self.killed + self.failed + self.retried
    }

    /// Detector-to-recovered span (the paper's recovery-time metric),
    /// when the episode has an attributed detector report.
    pub fn detection_to_recovery(&self) -> Option<SimDuration> {
        self.first_detector_at.map(|d| self.finished_at - d)
    }

    /// A short human-readable trigger label for tables.
    pub fn trigger(&self) -> String {
        match self.decision {
            Some(d) => {
                if self.detector_fires > 0 {
                    format!("detector x{} -> {}", self.detector_fires, d.label())
                } else {
                    d.label().to_string()
                }
            }
            None => "unattributed".to_string(),
        }
    }
}

#[derive(Clone, Copy)]
struct RequestRecord {
    node: usize,
    submitted_at: SimTime,
    ended_at: SimTime,
    killed: bool,
    errored: bool,
    retried: bool,
}

#[derive(Clone, Copy)]
struct PendingDecision {
    decision: DecisionKind,
    decided_at: SimTime,
    level: RebootLevel,
    detector_fires: u32,
    first_detector_at: Option<SimTime>,
}

#[derive(Clone, Copy, Default)]
struct NodeState {
    accrued_fires: u32,
    first_fire_at: Option<SimTime>,
    pending_queued: Option<SimTime>,
    pending_coalesced: u32,
    pending_quarantine_on: Option<SimTime>,
    last_closed: Option<usize>,
}

/// Folds a flat event stream into recovery episodes, in `RebootBegun`
/// order. Reboots still open when the stream ends are dropped.
///
/// Attribution rules:
/// * `DetectorFired` reports accrue per node until the next
///   `RecoveryDecision` on that node claims them.
/// * Decisions wait in per-node FIFO order for the first `RebootBegun`
///   whose level matches `decision_level`; `NotifyHuman` never matches.
/// * `RecoveryQueued` / `RecoveryCoalesced` / `QuarantineOn` seen before
///   the begun event attach to the node's next episode; `QuarantineOff`
///   attaches to the node's open (or most recently closed) episode.
/// * Lost work counts requests on the episode's node that were killed,
///   completed with an error, or answered `Retry-After`, and whose
///   submitted-to-ended lifetime overlaps `[begun_at, finished_at]`.
pub fn assemble_episodes(events: &[TelemetryEvent]) -> Vec<RecoveryEpisode> {
    let mut requests: std::collections::BTreeMap<u64, RequestRecord> =
        std::collections::BTreeMap::new();
    for ev in events {
        match *ev {
            TelemetryEvent::RequestSubmitted { node, req, at } => {
                requests.entry(req).or_insert(RequestRecord {
                    node,
                    submitted_at: at,
                    ended_at: at,
                    killed: false,
                    errored: false,
                    retried: false,
                });
            }
            TelemetryEvent::RequestCompleted {
                req,
                disposition,
                at,
                ..
            } => {
                if let Some(r) = requests.get_mut(&req) {
                    r.ended_at = r.ended_at.max(at);
                    if disposition != Disposition::Ok {
                        r.errored = true;
                    }
                }
            }
            TelemetryEvent::RequestKilled { req, at, .. } => {
                if let Some(r) = requests.get_mut(&req) {
                    r.ended_at = r.ended_at.max(at);
                    r.killed = true;
                }
            }
            TelemetryEvent::RetrySent { req, at, .. } => {
                if let Some(r) = requests.get_mut(&req) {
                    r.ended_at = r.ended_at.max(at);
                    r.retried = true;
                }
            }
            _ => {}
        }
    }

    let mut episodes: Vec<RecoveryEpisode> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut nodes: std::collections::BTreeMap<usize, NodeState> = std::collections::BTreeMap::new();
    let mut decisions: std::collections::BTreeMap<usize, VecDeque<PendingDecision>> =
        std::collections::BTreeMap::new();

    for ev in events {
        match *ev {
            TelemetryEvent::DetectorFired { node, at, .. } => {
                let st = nodes.entry(node).or_default();
                st.accrued_fires += 1;
                st.first_fire_at.get_or_insert(at);
            }
            TelemetryEvent::RecoveryDecision { node, decision, at } => {
                let st = nodes.entry(node).or_default();
                let fires = st.accrued_fires;
                let first = st.first_fire_at.take();
                st.accrued_fires = 0;
                if let Some(level) = decision_level(decision) {
                    decisions
                        .entry(node)
                        .or_default()
                        .push_back(PendingDecision {
                            decision,
                            decided_at: at,
                            level,
                            detector_fires: fires,
                            first_detector_at: first,
                        });
                }
            }
            TelemetryEvent::RecoveryQueued { node, at, .. } => {
                nodes
                    .entry(node)
                    .or_default()
                    .pending_queued
                    .get_or_insert(at);
            }
            TelemetryEvent::RecoveryCoalesced { node, .. } => {
                if let Some(&idx) = open.iter().find(|&&i| episodes[i].node == node) {
                    episodes[idx].coalesced += 1;
                } else {
                    nodes.entry(node).or_default().pending_coalesced += 1;
                }
            }
            TelemetryEvent::QuarantineOn { node, at, .. } => {
                if let Some(&idx) = open.iter().find(|&&i| episodes[i].node == node) {
                    episodes[idx].quarantine_on_at.get_or_insert(at);
                } else {
                    nodes
                        .entry(node)
                        .or_default()
                        .pending_quarantine_on
                        .get_or_insert(at);
                }
            }
            TelemetryEvent::QuarantineOff { node, at } => {
                if let Some(&idx) = open.iter().find(|&&i| episodes[i].node == node) {
                    episodes[idx].quarantine_off_at.get_or_insert(at);
                } else if let Some(idx) = nodes.entry(node).or_default().last_closed {
                    if episodes[idx].quarantine_on_at.is_some() {
                        episodes[idx].quarantine_off_at.get_or_insert(at);
                    }
                }
            }
            TelemetryEvent::RebootBegun {
                node, level, at, ..
            } => {
                let matched = decisions.get_mut(&node).and_then(|q| {
                    q.iter()
                        .position(|d| d.level == level)
                        .and_then(|pos| q.remove(pos))
                });
                let st = nodes.entry(node).or_default();
                let queued_at = st.pending_queued.take();
                let coalesced = std::mem::take(&mut st.pending_coalesced);
                let quarantine_on_at = st.pending_quarantine_on.take();
                episodes.push(RecoveryEpisode {
                    node,
                    detector_fires: matched.map_or(0, |d| d.detector_fires),
                    first_detector_at: matched.and_then(|d| d.first_detector_at),
                    decision: matched.map(|d| d.decision),
                    decided_at: matched.map(|d| d.decided_at),
                    queued: queued_at.is_some(),
                    coalesced,
                    level,
                    begun_at: at,
                    finished_at: at,
                    duration: SimDuration::ZERO,
                    quarantine_on_at,
                    quarantine_off_at: None,
                    killed: 0,
                    failed: 0,
                    retried: 0,
                });
                open.push(episodes.len() - 1);
            }
            TelemetryEvent::RebootFinished {
                node,
                level,
                duration,
                at,
            } => {
                if let Some(pos) = open
                    .iter()
                    .position(|&i| episodes[i].node == node && episodes[i].level == level)
                {
                    let idx = open.remove(pos);
                    episodes[idx].finished_at = at;
                    episodes[idx].duration = duration;
                    nodes.entry(node).or_default().last_closed = Some(idx);
                }
            }
            _ => {}
        }
    }

    // Drop reboots the stream never saw finish, then attribute lost work.
    let mut complete: Vec<RecoveryEpisode> = episodes
        .into_iter()
        .filter(|e| e.finished_at > e.begun_at || !e.duration.is_zero())
        .collect();
    for ep in &mut complete {
        for r in requests.values() {
            let overlaps =
                r.node == ep.node && r.submitted_at <= ep.finished_at && r.ended_at >= ep.begun_at;
            if !overlaps {
                continue;
            }
            if r.killed {
                ep.killed += 1;
            } else if r.errored {
                ep.failed += 1;
            } else if r.retried {
                ep.retried += 1;
            }
        }
    }
    complete
}

// ---------------------------------------------------------------------------
// Strict attribution (`urb trace verify --strict`)
// ---------------------------------------------------------------------------

/// The result of classifying every event of a trace as belonging to a
/// recovery episode or to steady-state operation.
///
/// Request-plane and client-plane events are always attributable: they
/// belong to an episode when their timestamp falls inside a reboot
/// window on their node, and to steady state otherwise. Recovery
/// *control-plane* events, by contrast, promise an episode: a
/// `RebootBegun` that never finishes, a committed `RecoveryDecision`
/// with no subsequent reboot, or a dangling quarantine edge means the
/// trace is truncated or the episode assembler missed a span — exactly
/// the silent gaps `--strict` exists to catch.
#[derive(Clone, Debug)]
pub struct StrictReport {
    /// The assembled episodes the classification ran against.
    pub episodes: Vec<RecoveryEpisode>,
    /// Events attributed to each episode (parallel to `episodes`).
    pub per_episode: Vec<u64>,
    /// Events attributed to steady-state operation.
    pub steady: u64,
    /// Events the classification could not place: `(event_index, kind)`.
    pub unattributed: Vec<(usize, &'static str)>,
}

impl StrictReport {
    /// True when every event found a home.
    pub fn is_fully_attributed(&self) -> bool {
        self.unattributed.is_empty()
    }
}

/// Re-runs episode assembly and classifies every event against it.
pub fn strict_attribution(events: &[TelemetryEvent]) -> StrictReport {
    let episodes = assemble_episodes(events);
    let mut per_episode = vec![0u64; episodes.len()];
    let mut steady = 0u64;
    let mut unattributed = Vec::new();

    // First episode on `node` whose window could still absorb a control
    // event emitted at `at` (control events precede their reboot's end).
    let upcoming = |node: usize, at: SimTime| {
        episodes
            .iter()
            .position(|e| e.node == node && e.finished_at >= at)
    };
    // First episode on `node` beginning at or after `at` (decisions and
    // queue marks always precede the destructive phase).
    let next_begun = |node: usize, at: SimTime| {
        episodes
            .iter()
            .position(|e| e.node == node && e.begun_at >= at)
    };
    // The episode whose destructive window covers `(node, at)`.
    let covering = |node: usize, at: SimTime| {
        episodes
            .iter()
            .position(|e| e.node == node && e.begun_at <= at && at <= e.finished_at)
    };

    for (idx, ev) in events.iter().enumerate() {
        let kind = ev.kind();
        let slot: Option<Option<usize>> = match *ev {
            TelemetryEvent::RebootBegun {
                node, level, at, ..
            } => Some(
                episodes
                    .iter()
                    .position(|e| e.node == node && e.level == level && e.begun_at == at),
            ),
            TelemetryEvent::RebootFinished {
                node, level, at, ..
            } => Some(
                episodes
                    .iter()
                    .position(|e| e.node == node && e.level == level && e.finished_at == at),
            ),
            TelemetryEvent::DetectorFired { node, at, .. } => {
                // A fire with no later episode is legitimate steady-state
                // noise (e.g. it only drew a NotifyHuman decision).
                upcoming(node, at).map(Some)
            }
            TelemetryEvent::RecoveryDecision { node, decision, at } => {
                if decision_level(decision).is_none() {
                    None // NotifyHuman: no reboot promised.
                } else {
                    Some(next_begun(node, at))
                }
            }
            TelemetryEvent::RecoveryQueued { node, at, .. } => Some(next_begun(node, at)),
            TelemetryEvent::RecoveryCoalesced { node, at } => Some(upcoming(node, at)),
            TelemetryEvent::QuarantineOn { node, at, .. } => Some(upcoming(node, at)),
            TelemetryEvent::QuarantineOff { node, at } => Some(
                episodes
                    .iter()
                    .rposition(|e| e.node == node && e.begun_at <= at),
            ),
            TelemetryEvent::RequestSubmitted { node, at, .. }
            | TelemetryEvent::RequestCompleted { node, at, .. }
            | TelemetryEvent::RetrySent { node, at, .. }
            | TelemetryEvent::RequestKilled { node, at, .. }
            | TelemetryEvent::RejuvenationTick { node, at, .. }
            | TelemetryEvent::TtlSweep { node, at, .. } => covering(node, at).map(Some),
            TelemetryEvent::LbFailover { from, at, .. } => covering(from, at).map(Some),
            // Hardening control events may legitimately have no episode:
            // a damped decision *prevented* a reboot, a saturated or
            // watchdog-escalated ladder may never see its action begin.
            TelemetryEvent::StormDamped { node, at, .. }
            | TelemetryEvent::FlapEscalated { node, at, .. }
            | TelemetryEvent::WatchdogEscalated { node, at, .. }
            | TelemetryEvent::EscalationSaturated { node, at } => upcoming(node, at).map(Some),
            // Client-plane events have no node: steady state by definition
            // (their failures already show up as episode lost work).
            TelemetryEvent::ClientOp { .. } | TelemetryEvent::ActionClosed { .. } => None,
            // Campaign-plane summary marks sit above any single run.
            TelemetryEvent::CampaignRunDone { .. } => None,
            // Policy-plane events promise a *decision*, not a reboot: a
            // breaker trip may be answered by isolation, a hedge deferral
            // by nothing at all, and the RM's own crash/reboot is global.
            TelemetryEvent::PolicyArmed { .. }
            | TelemetryEvent::BreakerTransition { .. }
            | TelemetryEvent::HedgeDeferred { .. }
            | TelemetryEvent::RmCrashed { .. }
            | TelemetryEvent::RmRebooted { .. }
            | TelemetryEvent::FailoverEngaged { .. } => None,
            // Performance-plane marks narrate the baseline/anomaly/parity
            // arc around episodes without promising any reboot themselves:
            // an anomaly may be answered by an already-running recovery,
            // and parity restoration lands after the episode closed.
            TelemetryEvent::PerfBaselineFrozen { .. }
            | TelemetryEvent::LatencyAnomaly { .. }
            | TelemetryEvent::ParityRestored { .. }
            | TelemetryEvent::DegradedInjected { .. } => None,
            // State-plane and network-fault marks describe the store and
            // the wire, not any node's recovery episode.
            TelemetryEvent::BrickFailed { .. }
            | TelemetryEvent::BrickRestored { .. }
            | TelemetryEvent::LeaseExpired { .. }
            | TelemetryEvent::NetFaultInjected { .. }
            | TelemetryEvent::NetFaultHealed { .. } => None,
        };
        match slot {
            Some(Some(i)) => per_episode[i] += 1,
            Some(None) => unattributed.push((idx, kind)),
            None => steady += 1,
        }
    }

    StrictReport {
        episodes,
        per_episode,
        steady,
        unattributed,
    }
}

// ---------------------------------------------------------------------------
// Availability timelines (the paper's Taw-style per-second view)
// ---------------------------------------------------------------------------

/// One second of client-observed availability.
#[derive(Clone, Copy, Debug, Default)]
pub struct SecondAvail {
    /// The second index.
    pub second: u64,
    /// Operations that succeeded in this second.
    pub ok: u64,
    /// Operations that failed in this second.
    pub fail: u64,
}

impl SecondAvail {
    /// The fraction of operations that succeeded (1.0 when idle).
    pub fn availability(&self) -> f64 {
        let total = self.ok + self.fail;
        if total == 0 {
            1.0
        } else {
            self.ok as f64 / total as f64
        }
    }
}

/// Buckets `ClientOp` events by finishing second into a dense timeline
/// from second 0 to the last second with traffic.
pub fn availability_timeline(events: &[TelemetryEvent]) -> Vec<SecondAvail> {
    let mut cells: std::collections::BTreeMap<u64, (u64, u64)> = std::collections::BTreeMap::new();
    let mut max_second = 0;
    for ev in events {
        if let TelemetryEvent::ClientOp {
            finished_at, ok, ..
        } = *ev
        {
            let s = finished_at.second_index();
            max_second = max_second.max(s);
            let cell = cells.entry(s).or_insert((0, 0));
            if ok {
                cell.0 += 1;
            } else {
                cell.1 += 1;
            }
        }
    }
    if cells.is_empty() {
        return Vec::new();
    }
    (0..=max_second)
        .map(|second| {
            let (ok, fail) = cells.get(&second).copied().unwrap_or((0, 0));
            SecondAvail { second, ok, fail }
        })
        .collect()
}

/// The episode's availability dip: the run's mean per-second availability
/// minus the worst second inside `[begun, finished]` (clamped at 0).
/// Seconds without traffic are skipped on both sides.
pub fn taw_dip(timeline: &[SecondAvail], episode: &RecoveryEpisode) -> f64 {
    let active: Vec<&SecondAvail> = timeline.iter().filter(|s| s.ok + s.fail > 0).collect();
    if active.is_empty() {
        return 0.0;
    }
    let mean = active.iter().map(|s| s.availability()).sum::<f64>() / active.len() as f64;
    let lo = episode.begun_at.second_index();
    let hi = episode.finished_at.second_index();
    let worst = active
        .iter()
        .filter(|s| s.second >= lo && s.second <= hi)
        .map(|s| s.availability())
        .fold(f64::INFINITY, f64::min);
    if worst.is_finite() {
        (mean - worst).max(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::KillCause;

    fn sample_events() -> Vec<TelemetryEvent> {
        let t = SimTime::from_secs;
        vec![
            TelemetryEvent::RequestSubmitted {
                node: 0,
                req: 1,
                at: t(1),
            },
            TelemetryEvent::DetectorFired {
                node: 0,
                op: 4,
                at: t(2),
            },
            TelemetryEvent::DetectorFired {
                node: 0,
                op: 4,
                at: t(3),
            },
            TelemetryEvent::RecoveryDecision {
                node: 0,
                decision: DecisionKind::EjbMicroreboot,
                at: t(3),
            },
            TelemetryEvent::QuarantineOn {
                node: 0,
                members: 2,
                at: t(4),
            },
            TelemetryEvent::RebootBegun {
                node: 0,
                level: RebootLevel::Component,
                members: 2,
                at: t(4),
            },
            TelemetryEvent::RequestKilled {
                node: 0,
                req: 1,
                cause: KillCause::Microreboot,
                at: t(4),
            },
            TelemetryEvent::RebootFinished {
                node: 0,
                level: RebootLevel::Component,
                duration: SimDuration::from_secs(2),
                at: t(6),
            },
            TelemetryEvent::QuarantineOff { node: 0, at: t(6) },
            TelemetryEvent::ClientOp {
                action: 1,
                group: 2,
                started_at: t(4),
                finished_at: t(5),
                ok: false,
            },
            TelemetryEvent::ClientOp {
                action: 1,
                group: 2,
                started_at: t(7),
                finished_at: t(8),
                ok: true,
            },
            TelemetryEvent::ActionClosed { action: 1 },
        ]
    }

    #[test]
    fn recorder_matches_hash_sink() {
        let mut rec = TraceRecorder::new();
        let mut hash = TraceHashSink::new();
        for ev in sample_events() {
            rec.on_event(&ev);
            hash.on_event(&ev);
        }
        let mut replayed = TraceHashSink::new();
        for ev in rec.events() {
            replayed.on_event(ev);
        }
        assert_eq!(replayed.value(), hash.value());
        assert_eq!(replayed.count(), hash.count());
        assert_eq!(rec.events().len(), sample_events().len());
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let t = SimTime::from_millis(1500);
        let all = vec![
            TelemetryEvent::RequestSubmitted {
                node: 2,
                req: 9,
                at: t,
            },
            TelemetryEvent::RequestCompleted {
                node: 1,
                req: 7,
                disposition: Disposition::NetworkError,
                at: t,
            },
            TelemetryEvent::RetrySent {
                node: 0,
                req: 3,
                at: t,
            },
            TelemetryEvent::RequestKilled {
                node: 0,
                req: 4,
                cause: KillCause::Ttl,
                at: t,
            },
            TelemetryEvent::RebootBegun {
                node: 0,
                level: RebootLevel::Component,
                members: 2,
                at: t,
            },
            TelemetryEvent::RebootFinished {
                node: 0,
                level: RebootLevel::Process,
                duration: SimDuration::from_millis(5),
                at: t,
            },
            TelemetryEvent::DetectorFired {
                node: 1,
                op: 6,
                at: t,
            },
            TelemetryEvent::RecoveryDecision {
                node: 1,
                decision: DecisionKind::NotifyHuman,
                at: t,
            },
            TelemetryEvent::RejuvenationTick {
                node: 0,
                free_bytes: 1024,
                at: t,
            },
            TelemetryEvent::ClientOp {
                action: 11,
                group: 3,
                started_at: SimTime::from_millis(1000),
                finished_at: t,
                ok: true,
            },
            TelemetryEvent::ActionClosed { action: 11 },
            TelemetryEvent::RecoveryQueued {
                node: 0,
                level: RebootLevel::Application,
                at: t,
            },
            TelemetryEvent::RecoveryCoalesced { node: 0, at: t },
            TelemetryEvent::QuarantineOn {
                node: 0,
                members: 3,
                at: t,
            },
            TelemetryEvent::QuarantineOff { node: 0, at: t },
            TelemetryEvent::LbFailover {
                from: 1,
                to: 2,
                req: 8,
                session: 40,
                at: t,
            },
            TelemetryEvent::TtlSweep {
                node: 0,
                pending: 2,
                reaped: 1,
                at: t,
            },
            TelemetryEvent::StormDamped {
                node: 0,
                strikes: 3,
                backoff: SimDuration::from_millis(400),
                at: t,
            },
            TelemetryEvent::FlapEscalated {
                node: 1,
                flaps: 2,
                at: t,
            },
            TelemetryEvent::WatchdogEscalated {
                node: 0,
                elapsed: SimDuration::from_millis(2500),
                at: t,
            },
            TelemetryEvent::EscalationSaturated { node: 1, at: t },
            TelemetryEvent::CampaignRunDone {
                run: 5,
                digest: 0xdead_beef,
                violations: 0,
            },
            TelemetryEvent::PolicyArmed { policy: 2, at: t },
            TelemetryEvent::BreakerTransition {
                node: 1,
                state: 1,
                at: t,
            },
            TelemetryEvent::HedgeDeferred {
                node: 0,
                budget_left: 3,
                at: t,
            },
            TelemetryEvent::RmCrashed { at: t },
            TelemetryEvent::RmRebooted { at: t },
            TelemetryEvent::FailoverEngaged { node: 1, at: t },
            TelemetryEvent::PerfBaselineFrozen {
                node: 0,
                components: 6,
                at: t,
            },
            TelemetryEvent::LatencyAnomaly {
                node: 0,
                op: 12,
                ratio_permille: 2500,
                at: t,
            },
            TelemetryEvent::ParityRestored {
                node: 0,
                after: SimDuration::from_millis(2500),
                at: t,
            },
            TelemetryEvent::DegradedInjected {
                node: 1,
                factor_permille: 4000,
                at: t,
            },
            TelemetryEvent::BrickFailed { brick: 2, at: t },
            TelemetryEvent::BrickRestored { brick: 2, at: t },
            TelemetryEvent::LeaseExpired { session: 41, at: t },
            TelemetryEvent::NetFaultInjected {
                edge: 1,
                kind: 3,
                at: t,
            },
            TelemetryEvent::NetFaultHealed { edge: 0, at: t },
        ];
        let covered: Vec<&str> = all.iter().map(TelemetryEvent::kind).collect();
        assert_eq!(
            covered,
            TelemetryEvent::KINDS,
            "every table row needs a round-trip case, in tag order"
        );
        for ev in &all {
            let line = event_to_json(ev);
            let back = event_from_json(&line).expect("parse back");
            assert_eq!(*ev, back, "round-trip drift on {line}");
        }
        let mut trace = Trace::from_events(all);
        let parsed = Trace::parse(&trace.to_jsonl()).expect("parse trace");
        assert_eq!(parsed.events, trace.events);
        assert_eq!(parsed.digest, trace.digest);
        assert_eq!(parsed.recomputed_digest(), parsed.digest);
        // Without producer-recorded gauges the meta line omits them.
        assert_eq!(parsed.kernel, None);
        // With them, they round-trip through the meta line.
        trace.kernel = Some(KernelGauges {
            events_fired: 123_456,
            queue_depth: 7,
            sim_micros: 120_000_000,
        });
        let parsed = Trace::parse(&trace.to_jsonl()).expect("parse trace");
        assert_eq!(parsed.kernel, trace.kernel);
        assert_eq!(parsed.events, trace.events);
    }

    #[test]
    fn parse_rejects_corrupt_traces() {
        assert!(
            Trace::parse("{\"t\":\"meta\",\"version\":99,\"events\":0,\"digest\":\"0\"}").is_err()
        );
        assert!(
            Trace::parse("{\"t\":\"request_submitted\",\"node\":0,\"req\":1,\"at_us\":5}").is_err()
        );
        assert!(Trace::parse(
            "{\"t\":\"meta\",\"version\":1,\"events\":2,\"digest\":\"00000000000000aa\"}\n\
             {\"t\":\"action_closed\",\"action\":1}"
        )
        .is_err());
        assert!(Trace::parse(
            "{\"t\":\"meta\",\"version\":1,\"events\":1,\"digest\":\"00000000000000aa\"}\n\
             {\"t\":\"no_such_event\",\"action\":1}"
        )
        .is_err());
    }

    /// The parser converts with a range check and names the line and the
    /// field, instead of `as`-casting a `u64` into whatever the variant
    /// holds and leaving `verify` to blame the digest.
    #[test]
    fn parse_rejects_out_of_range_and_malformed_values() {
        let meta = "{\"t\":\"meta\",\"version\":1,\"events\":1,\"digest\":\"00000000000000aa\"}";
        let parse = |event: &str| Trace::parse(&format!("{meta}\n{event}")).map(|t| t.events);
        assert_eq!(
            parse("{\"t\":\"detector_fired\",\"node\":0,\"op\":70000,\"at_us\":1}"),
            Err("line 2: field \"op\": 70000 out of range for u16".to_string())
        );
        assert_eq!(
            parse("{\"t\":\"action_closed\",\"action\":18446744073709551616}"),
            Err("line 2: field \"action\": 18446744073709551616 out of range for u64".to_string())
        );
        assert_eq!(
            parse(
                "{\"t\":\"client_op\",\"action\":1,\"group\":2,\"started_us\":3,\
                 \"finished_us\":4,\"ok\":truex}"
            ),
            Err("line 2: field \"ok\": \"truex\" is not a boolean".to_string())
        );
        assert_eq!(
            parse("{\"t\":\"detector_fired\",\"node\":0,\"op\":65535,\"at_us\":1}"),
            Ok(vec![TelemetryEvent::DetectorFired {
                node: 0,
                op: u16::MAX,
                at: SimTime::from_micros(1),
            }])
        );
    }

    #[test]
    fn assembles_one_episode_with_attribution() {
        let eps = assemble_episodes(&sample_events());
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert_eq!(ep.node, 0);
        assert_eq!(ep.level, RebootLevel::Component);
        assert_eq!(ep.decision, Some(DecisionKind::EjbMicroreboot));
        assert_eq!(ep.detector_fires, 2);
        assert_eq!(ep.first_detector_at, Some(SimTime::from_secs(2)));
        assert_eq!(ep.begun_at, SimTime::from_secs(4));
        assert_eq!(ep.finished_at, SimTime::from_secs(6));
        assert_eq!(ep.duration, SimDuration::from_secs(2));
        assert_eq!(ep.quarantine_on_at, Some(SimTime::from_secs(4)));
        assert_eq!(ep.quarantine_off_at, Some(SimTime::from_secs(6)));
        assert_eq!(ep.killed, 1);
        assert_eq!(ep.failed, 0);
        assert_eq!(ep.lost_work(), 1);
        assert_eq!(
            ep.detection_to_recovery(),
            Some(SimDuration::from_secs(4)),
            "t=2 first fire to t=6 recovered"
        );
        assert!(ep.trigger().contains("ejb_microreboot"));
    }

    #[test]
    fn unfinished_reboots_are_dropped() {
        let events = vec![TelemetryEvent::RebootBegun {
            node: 0,
            level: RebootLevel::Component,
            members: 1,
            at: SimTime::from_secs(1),
        }];
        assert!(assemble_episodes(&events).is_empty());
    }

    #[test]
    fn notify_human_never_matches_a_reboot() {
        let t = SimTime::from_secs;
        let events = vec![
            TelemetryEvent::RecoveryDecision {
                node: 0,
                decision: DecisionKind::NotifyHuman,
                at: t(1),
            },
            TelemetryEvent::RebootBegun {
                node: 0,
                level: RebootLevel::Component,
                members: 1,
                at: t(2),
            },
            TelemetryEvent::RebootFinished {
                node: 0,
                level: RebootLevel::Component,
                duration: SimDuration::from_secs(1),
                at: t(3),
            },
        ];
        let eps = assemble_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].decision, None, "NotifyHuman cannot own a reboot");
    }

    #[test]
    fn strict_attribution_places_every_sample_event() {
        let events = sample_events();
        let report = strict_attribution(&events);
        assert!(
            report.is_fully_attributed(),
            "unattributed: {:?}",
            report.unattributed
        );
        assert_eq!(report.episodes.len(), 1);
        // Detector x2, decision, quarantine on/off, begun, finished, and
        // the killed request belong to the episode; the early submitted
        // request and the client-plane events are steady state.
        assert_eq!(report.per_episode, vec![8]);
        assert_eq!(report.steady, 4);
        assert_eq!(
            report.per_episode[0] + report.steady,
            events.len() as u64,
            "classification is total"
        );
    }

    #[test]
    fn strict_attribution_flags_truncated_traces() {
        let events = sample_events();
        // Cut the trace right after the destructive phase begins: the
        // reboot never finishes, so the episode is dropped and the whole
        // control-plane chain dangles.
        let cut = events
            .iter()
            .position(|e| matches!(e, TelemetryEvent::RebootBegun { .. }))
            .expect("sample has a reboot")
            + 1;
        let report = strict_attribution(&events[..cut]);
        assert!(!report.is_fully_attributed());
        let dangling: Vec<&TelemetryEvent> = report
            .unattributed
            .iter()
            .map(|&(idx, kind)| {
                assert_eq!(kind, events[idx].kind());
                &events[idx]
            })
            .collect();
        let has = |pred: fn(&TelemetryEvent) -> bool| dangling.iter().any(|e| pred(e));
        assert!(has(|e| matches!(e, TelemetryEvent::RebootBegun { .. })));
        assert!(has(|e| matches!(
            e,
            TelemetryEvent::RecoveryDecision { .. }
        )));
        assert!(has(|e| matches!(e, TelemetryEvent::QuarantineOn { .. })));
    }

    #[test]
    fn timeline_and_taw_dip() {
        let events = sample_events();
        let timeline = availability_timeline(&events);
        assert_eq!(timeline.len(), 9, "dense through second 8");
        assert_eq!(timeline[5].fail, 1);
        assert_eq!(timeline[8].ok, 1);
        assert!((timeline[5].availability() - 0.0).abs() < 1e-12);
        let eps = assemble_episodes(&events);
        let dip = taw_dip(&timeline, &eps[0]);
        assert!(
            dip > 0.4,
            "mean 0.5 vs worst-in-window 0.0 -> dip 0.5, got {dip}"
        );
    }
}
