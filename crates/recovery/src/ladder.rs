//! The paper's recursive recovery ladder as a [`RecoveryPolicy`].
//!
//! This is the pre-trait `RecoveryManager` decision machinery moved
//! verbatim behind the policy interface: scoring diagnosis over static
//! call paths, the EJB → WAR → App → Process → OS → Human ladder,
//! recurrence paging, and the hardened-mode dampers (storm backoff, flap
//! escalation, convergence watchdog). The pinned seed-7/seed-11 trace
//! digests certify that hosting the ladder behind the trait changed
//! nothing observable.

use std::collections::BTreeMap;

use components::CompName;
use simcore::telemetry::{DecisionKind, TelemetryEvent};
use simcore::{SimDuration, SimTime};
use urb_core::OpCode;
use workload::detect::{FailureKind, FailureReport};

use crate::manager::{RecoveryAction, RmConfig};
use crate::policy::{PathOf, PolicyChoice, PolicyCtx, PolicyLevel, RecoveryPolicy};

/// Evidence weight of one latency-anomaly report in the diagnosis score.
///
/// An anomaly report is emitted once per judgement window and stands for
/// every slow request in it, whereas an error report stands for a single
/// failed request — without the heavier weight, a fail-slow fault feeding
/// one report per window would take most of a score-window to cross the
/// decision threshold, and re-offending after a microreboot would never
/// accumulate enough evidence to climb the ladder. Classic (error-driven)
/// runs never emit these reports, so their decisions are unchanged.
const ANOMALY_REPORT_WEIGHT: f64 = 3.0;

#[derive(Debug)]
struct NodeDiag {
    /// Recent reports: (time, op for path scoring — `None` for network
    /// failures — the error page's component hint, if any, and the
    /// report's evidence weight). Ordinary failure reports weigh 1.0;
    /// a latency-anomaly report weighs [`ANOMALY_REPORT_WEIGHT`], since
    /// it summarizes a whole judgement window of slow requests rather
    /// than one failed request.
    recent: Vec<(SimTime, Option<OpCode>, Option<CompName>, f64)>,
    first_report_at: Option<SimTime>,
    /// When the current failure *episode* started: like `first_report_at`
    /// but not advanced when issued actions consume their evidence, so
    /// under `max_concurrent > 1` the detection-delay gate measures how
    /// long the node has been failing, not the age of the oldest report
    /// that happens to survive consumption.
    episode_first: Option<SimTime>,
    level: PolicyLevel,
    /// How many issued actions are awaiting `recovery_finished`.
    in_flight: usize,
    /// A coarse action (restart/reboot/human) is in flight: no further
    /// decisions until it is acknowledged, whatever `max_concurrent` says.
    exclusive: bool,
    last_recovery_end: Option<SimTime>,
    episode_ends: Vec<SimTime>,
    /// Per-component microreboot history: when the component was last
    /// microrebooted and how many consecutive microreboots (each within
    /// `flap_window` of the previous) it has accumulated. Deliberately
    /// *not* cleared when the ladder resets after a quiet period — a slow
    /// flap looks exactly like a sequence of fresh episodes.
    urb_history: BTreeMap<CompName, (SimTime, u32)>,
    /// Storm-damper deadlines: no new microreboot of the component before
    /// its deadline.
    damped_until: BTreeMap<CompName, SimTime>,
    /// Watchdog anchor: when the current failure episode began. Survives
    /// `recovery_finished` (an episode spans repeated recoveries) and
    /// resets only when a quiet period resets the ladder.
    episode_anchor: Option<SimTime>,
    /// When a recurring-failure page last went out (hardened mode only).
    last_human_page: Option<SimTime>,
}

impl NodeDiag {
    fn new(start: PolicyLevel) -> Self {
        NodeDiag {
            recent: Vec::new(),
            first_report_at: None,
            episode_first: None,
            level: start,
            in_flight: 0,
            exclusive: false,
            last_recovery_end: None,
            episode_ends: Vec::new(),
            urb_history: BTreeMap::new(),
            damped_until: BTreeMap::new(),
            episode_anchor: None,
            last_human_page: None,
        }
    }

    fn clear_scores(&mut self) {
        self.recent.clear();
        self.first_report_at = None;
        self.episode_first = None;
    }

    fn prune(&mut self, now: SimTime, window: SimDuration) {
        self.recent.retain(|(t, _, _, _)| now - *t <= window);
        if self.recent.is_empty() {
            self.first_report_at = None;
            self.episode_first = None;
        } else {
            self.first_report_at = Some(self.recent[0].0);
        }
    }

    /// Drops the evidence that implicated `components` — each report whose
    /// URL path traverses (or whose hint names) one of them. Called when a
    /// microreboot of `components` is issued under `max_concurrent > 1`,
    /// so the remaining evidence can implicate a *different* concurrent
    /// fault instead of re-diagnosing the one already being cured.
    fn consume(&mut self, components: &[CompName], path_of: PathOf) {
        self.recent.retain(|(_, op, hint, _)| {
            if hint.is_some_and(|h| components.contains(&h)) {
                return false;
            }
            match op {
                None => true,
                Some(op) => !(path_of)(*op)
                    .iter()
                    .any(|c| CompName::lookup(c).is_some_and(|c| components.contains(&c))),
            }
        });
        self.first_report_at = self.recent.first().map(|(t, _, _, _)| *t);
    }
}

/// Picks the most suspicious non-web component from the failure evidence.
///
/// Strategy (static analysis over the URL → path map):
/// 1. Components common to *every* failing URL's path are the prime
///    suspects — the fault must lie where all failing flows meet.
/// 2. Ties break toward the component that appears on the *fewest*
///    paths overall: a component shared by many URLs (IdentityManager,
///    User, ...) would be making other URLs fail too, and they are not
///    failing.
/// 3. If the intersection is empty (noisy evidence), fall back to the
///    rarity-weighted score maximum.
pub(crate) fn pick_suspect(
    failing_ops: &[OpCode],
    scores: &BTreeMap<&'static str, f64>,
    path_of: PathOf,
    web: &'static str,
) -> Option<&'static str> {
    // How many distinct URLs each component serves (IDF weight).
    let paths_containing = |comp: &str| -> usize {
        (0u16..64)
            .map(OpCode)
            .filter(|op| (path_of)(*op).contains(&comp))
            .count()
    };
    if !failing_ops.is_empty() {
        let mut common: Vec<&'static str> = (path_of)(failing_ops[0])
            .iter()
            .copied()
            .filter(|c| *c != web)
            .collect();
        for op in &failing_ops[1..] {
            let path = (path_of)(*op);
            common.retain(|c| path.contains(c));
        }
        common.sort_by_key(|c| (paths_containing(c), *c));
        if let Some(best) = common.first() {
            return Some(best);
        }
    }
    // Fallback: rarity-weighted maximum score.
    let mut best: Option<(&'static str, f64)> = None;
    for (c, s) in scores {
        if *c == web {
            continue;
        }
        let weighted = *s / paths_containing(c).max(1) as f64;
        let better = match best {
            Some((bc, bs)) => weighted > bs || (weighted == bs && *c < bc),
            None => true,
        };
        if better {
            best = Some((c, weighted));
        }
    }
    best.map(|(c, _)| c)
}

/// Maps a ladder rung to the concrete action (and decision kind) the
/// current evidence supports.
pub(crate) fn action_for(
    level: PolicyLevel,
    hinted: Option<&'static str>,
    failing_ops: &[OpCode],
    scores: &BTreeMap<&'static str, f64>,
    path_of: PathOf,
    web: &'static str,
) -> (RecoveryAction, DecisionKind) {
    match level {
        PolicyLevel::Ejb => {
            match hinted.or_else(|| pick_suspect(failing_ops, scores, path_of, web)) {
                Some(comp) => (
                    RecoveryAction::microreboot(&[comp]),
                    DecisionKind::EjbMicroreboot,
                ),
                None => (
                    RecoveryAction::microreboot(&[web]),
                    DecisionKind::WarMicroreboot,
                ),
            }
        }
        PolicyLevel::War => (
            RecoveryAction::microreboot(&[web]),
            DecisionKind::WarMicroreboot,
        ),
        PolicyLevel::App => (RecoveryAction::RestartApp, DecisionKind::AppRestart),
        PolicyLevel::Process => (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart),
        PolicyLevel::Os => (RecoveryAction::RebootOs, DecisionKind::OsReboot),
        PolicyLevel::Human => (RecoveryAction::NotifyHuman, DecisionKind::NotifyHuman),
    }
}

/// The paper's recursive ladder (see module docs).
// urb-lint: volatile-state(crash)
pub struct LadderPolicy {
    config: RmConfig,
    /// URL-prefix → component-path mapping (from static analysis).
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    path_of: PathOf,
    /// Name of the web component, scored down (it is on every path).
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    web: &'static str,
    nodes: Vec<NodeDiag>,
}

impl LadderPolicy {
    /// Creates the ladder for `nodes` nodes.
    pub fn new(nodes: usize, config: RmConfig, path_of: PathOf, web: &'static str) -> Self {
        LadderPolicy {
            config,
            path_of,
            web,
            nodes: (0..nodes)
                .map(|_| NodeDiag::new(config.start_level))
                .collect(),
        }
    }

    /// Climbs one rung, emitting [`TelemetryEvent::EscalationSaturated`]
    /// when the ladder is already at `Human` and has nowhere left to go
    /// (previously a silent saturation).
    fn escalate_level(
        ctx: &mut PolicyCtx<'_>,
        node: usize,
        level: PolicyLevel,
        now: SimTime,
    ) -> PolicyLevel {
        if level == PolicyLevel::Human {
            ctx.emit(TelemetryEvent::EscalationSaturated { node, at: now });
        }
        level.escalate()
    }
}

impl RecoveryPolicy for LadderPolicy {
    fn name(&self) -> &'static str {
        if self.config.start_level == PolicyLevel::Process {
            PolicyChoice::RebootFirst.label()
        } else {
            PolicyChoice::Ladder.label()
        }
    }

    fn observe(&mut self, r: &FailureReport, _ctx: &mut PolicyCtx<'_>) {
        let Some(diag) = self.nodes.get_mut(r.node) else {
            return;
        };
        // Session loss (a login prompt served to a logged-in user) means
        // state was lost — by a restart here, a failover away from a
        // recovering node, or an eviction. No reboot cures it, and acting
        // on it cascades: the recovery would destroy yet more sessions.
        if r.kind == FailureKind::SessionLoss {
            return;
        }
        if let Some(end) = diag.last_recovery_end {
            // Aftershock suppression: the recovery's own collateral damage
            // is not evidence that the fault persists.
            if r.at <= end + self.config.settle {
                return;
            }
        }
        diag.first_report_at.get_or_insert(r.at);
        diag.episode_first.get_or_insert(r.at);
        let weight = if r.kind == FailureKind::LatencyAnomaly {
            ANOMALY_REPORT_WEIGHT
        } else {
            1.0
        };
        match r.kind {
            FailureKind::Network => diag.recent.push((r.at, None, None, weight)),
            _ => diag.recent.push((r.at, Some(r.op), r.hint, weight)),
        }
    }

    /// Decides whether (and how) to recover `node` right now.
    ///
    /// Returns `None` while evidence is insufficient, detection is still
    /// within `Tdet`, or a recovery is already in flight.
    fn decide(
        &mut self,
        node: usize,
        now: SimTime,
        ctx: &mut PolicyCtx<'_>,
    ) -> Option<RecoveryAction> {
        let config = self.config;
        let web = self.web;
        let path_of = self.path_of;
        let diag = self.nodes.get_mut(node)?;
        if diag.exclusive || diag.in_flight >= config.max_concurrent.max(1) {
            return None;
        }
        // Reports must survive at least the configured detection delay,
        // or a large Tdet (Figure 5's sweep) would forget the evidence
        // before it may be acted on.
        diag.prune(now, config.score_window + config.detection_delay);
        // Under the conductor several decisions may be issued per episode,
        // each consuming its suspect's reports; gate on when the episode
        // began, or the surviving (younger) evidence would re-arm Tdet and
        // stagger concurrent diagnoses. Serial runs gate exactly as before.
        let first = if config.max_concurrent > 1 {
            diag.episode_first?
        } else {
            diag.first_report_at?
        };
        if now - first < config.detection_delay {
            return None;
        }
        // Score components along the failed URLs' static call paths. The
        // web component is on every path, so hits on it carry little
        // information.
        let mut scores: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut failing_ops: Vec<OpCode> = Vec::new();
        let mut network_reports = 0u64;
        let mut other_reports = 0u64;
        for (_, op, hint, rw) in &diag.recent {
            match op {
                None => network_reports += 1,
                Some(op) => {
                    other_reports += 1;
                    if !failing_ops.contains(op) {
                        failing_ops.push(*op);
                    }
                    for comp in (path_of)(*op) {
                        let w = if *comp == web { 0.2 } else { 1.0 };
                        *scores.entry(comp).or_insert(0.0) += w * rw;
                    }
                    // An error page naming the failing bean is far stronger
                    // evidence than path membership. Only weighed in when
                    // running under the conductor (`max_concurrent > 1`):
                    // the serial baseline must keep its exact decisions.
                    if config.max_concurrent > 1 {
                        if let Some(h) = hint {
                            *scores.entry(h.as_str()).or_insert(0.0) += 2.0;
                        }
                    }
                }
            }
        }
        // The evidence must implicate *some single component* strongly
        // enough (or show enough connection-level failures); summing over
        // a whole path would let one failed request trip the threshold.
        let max_score = scores.values().copied().fold(0.0, f64::max);
        let enough =
            max_score >= config.score_threshold || network_reports as f64 >= config.score_threshold;
        if !enough {
            return None;
        }
        // Level bookkeeping: failures shortly after a completed recovery
        // escalate; failures after a quiet period restart the ladder.
        if let Some(end) = diag.last_recovery_end {
            if first <= end + config.settle + config.observation {
                diag.level = Self::escalate_level(ctx, node, diag.level, now);
            } else {
                diag.level = config.start_level;
                diag.episode_anchor = None;
            }
        }
        // Convergence watchdog: an episode that has outlived its bound
        // forces an extra climb on every decision until it converges.
        let anchor = *diag.episode_anchor.get_or_insert(first);
        if let Some(bound) = config.watchdog_bound {
            if now - anchor > bound {
                diag.level = Self::escalate_level(ctx, node, diag.level, now);
                ctx.emit(TelemetryEvent::WatchdogEscalated {
                    node,
                    elapsed: now - anchor,
                    at: now,
                });
            }
        }
        // Recurring failure patterns page a human (Section 4). Without the
        // convergence watchdog this branch absorbs the policy outright,
        // which replicates the paper's serial behaviour — but every
        // notification acks as a completed episode, so once it trips it
        // re-trips forever and the ladder below (including the dead-node
        // Process floor) never runs again. With the watchdog armed the
        // page goes out once per recurrence window and automated first aid
        // continues underneath it: paging an operator must not stop the
        // manager from restarting a process that has since died.
        diag.episode_ends
            .retain(|e| now - *e <= config.recurrence_window);
        if diag.episode_ends.len() as u32 >= config.recurrence_limit {
            let page_suppressed = config.watchdog_bound.is_some()
                && diag
                    .last_human_page
                    .is_some_and(|t| now - t <= config.recurrence_window);
            if !page_suppressed {
                diag.last_human_page = Some(now);
                ctx.emit(TelemetryEvent::RecoveryDecision {
                    node,
                    decision: DecisionKind::NotifyHuman,
                    at: now,
                });
                diag.in_flight += 1;
                diag.exclusive = true;
                return Some(RecoveryAction::NotifyHuman);
            }
        }
        // Connection-level failures mean the process (or node) is gone:
        // component recovery is pointless.
        if network_reports > other_reports && diag.level < PolicyLevel::Process {
            diag.level = PolicyLevel::Process;
        }
        // Dead-node floor (hardened mode): at `Human` the ladder's action
        // is another page, but connection-dominated evidence means the
        // process is dead and no page revives it. Drop back to `Process`
        // so the node is restarted while the operator is on the way.
        if config.watchdog_bound.is_some()
            && diag.level == PolicyLevel::Human
            && network_reports > other_reports
        {
            diag.level = PolicyLevel::Process;
        }
        // Under the conductor, error-page hints name the failing bean
        // outright; trusting the most frequent hint separates overlapping
        // failure streams that path intersection (which sees the union of
        // all failing URLs) cannot. Serial runs never take this shortcut.
        let hinted: Option<&'static str> = if config.max_concurrent > 1 {
            let mut counts: BTreeMap<CompName, u64> = BTreeMap::new();
            for (_, _, hint, _) in &diag.recent {
                if let Some(h) = hint {
                    if h.as_str() != web {
                        *counts.entry(*h).or_insert(0) += 1;
                    }
                }
            }
            counts
                .into_iter()
                .max_by_key(|(c, n)| (*n, std::cmp::Reverse(c.as_str())))
                .map(|(c, _)| c.as_str())
        } else {
            None
        };
        let (mut action, mut decision) =
            action_for(diag.level, hinted, &failing_ops, &scores, path_of, web);
        // Flap-driven escalation: a component that keeps coming back
        // inside the flap window climbs the ladder instead of being
        // microrebooted forever.
        if config.flap_limit > 0 {
            while let RecoveryAction::Microreboot { components } = &action {
                let flaps = components
                    .iter()
                    .filter_map(|c| match diag.urb_history.get(c) {
                        Some((last, strikes)) if now - *last <= config.flap_window => {
                            Some(*strikes)
                        }
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0);
                if flaps < config.flap_limit {
                    break;
                }
                ctx.emit(TelemetryEvent::FlapEscalated {
                    node,
                    flaps,
                    at: now,
                });
                diag.level = Self::escalate_level(ctx, node, diag.level, now);
                (action, decision) =
                    action_for(diag.level, hinted, &failing_ops, &scores, path_of, web);
            }
        }
        // Reboot-storm damper: a component still in backoff defers the
        // whole decision; the evidence is retained, so a later poll
        // retries once the backoff expires.
        if config.storm_limit > 0 {
            if let RecoveryAction::Microreboot { components } = &action {
                diag.damped_until.retain(|_, until| *until > now);
                if let Some(until) = components
                    .iter()
                    .filter_map(|c| diag.damped_until.get(c).copied())
                    .max()
                {
                    let strikes = components
                        .iter()
                        .filter_map(|c| diag.urb_history.get(c).map(|(_, s)| *s))
                        .max()
                        .unwrap_or(0);
                    ctx.emit(TelemetryEvent::StormDamped {
                        node,
                        strikes,
                        backoff: until - now,
                        at: now,
                    });
                    return None;
                }
            }
        }
        ctx.emit(TelemetryEvent::RecoveryDecision {
            node,
            decision,
            at: now,
        });
        diag.in_flight += 1;
        match &action {
            RecoveryAction::Microreboot { components } => {
                if config.storm_limit > 0 || config.flap_limit > 0 {
                    for c in components {
                        let strikes = match diag.urb_history.get(c) {
                            Some((last, s)) if now - *last <= config.flap_window => s + 1,
                            _ => 1,
                        };
                        diag.urb_history.insert(*c, (now, strikes));
                        if config.storm_limit > 0 && strikes >= config.storm_limit {
                            let exp = u64::from((strikes - config.storm_limit).min(6));
                            diag.damped_until
                                .insert(*c, now + config.storm_backoff * (1u64 << exp));
                        }
                    }
                }
                if config.max_concurrent > 1 {
                    diag.consume(components, path_of);
                }
            }
            _ => diag.exclusive = true,
        }
        Some(action)
    }

    /// Marks a commanded recovery as finished, closing the episode.
    ///
    /// With several actions in flight each acknowledgement decrements the
    /// count; the episode bookkeeping (settle window, recurrence history,
    /// score reset) runs per acknowledgement exactly as in the serial
    /// case, so a `max_concurrent = 1` run is indistinguishable from the
    /// pre-conductor manager.
    fn recovery_finished(&mut self, node: usize, now: SimTime, _ctx: &mut PolicyCtx<'_>) {
        let Some(diag) = self.nodes.get_mut(node) else {
            return;
        };
        diag.in_flight = diag.in_flight.saturating_sub(1);
        if diag.in_flight == 0 {
            diag.exclusive = false;
        }
        diag.last_recovery_end = Some(now);
        diag.episode_ends.push(now);
        diag.clear_scores();
    }

    fn in_flight(&self, node: usize) -> usize {
        self.nodes.get(node).map_or(0, |d| d.in_flight)
    }

    fn level_of(&self, node: usize) -> PolicyLevel {
        self.nodes[node].level
    }

    fn crash(&mut self, _now: SimTime, _ctx: &mut PolicyCtx<'_>) {
        // ReHype: the host rebooted and all volatile diagnosis state is
        // gone — including in-flight counts, so late conductor acks land
        // on zero and saturate instead of underflowing.
        let start = self.config.start_level;
        for diag in &mut self.nodes {
            *diag = NodeDiag::new(start);
        }
    }
}
