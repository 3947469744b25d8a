//! The paper's recursive recovery ladder as a [`RecoveryPolicy`].
//!
//! Scoring diagnosis over static call paths ([`crate::evidence`]), the
//! EJB → WAR → App → Process → OS → Human ladder through the shared rung
//! table, recurrence paging, and the hardened-mode dampers (storm
//! backoff, flap escalation, convergence watchdog). Unlike the
//! table-driven policies ([`crate::rung`]) it may have several
//! microreboots in flight under the conductor, so it keeps its own
//! decision procedure.

use std::collections::BTreeMap;

use simcore::telemetry::{DecisionKind, TelemetryEvent};
use simcore::SimTime;
use workload::detect::FailureReport;

use crate::evidence::{Evidence, SETTLE};
use crate::manager::RecoveryAction;
use crate::policy::{PolicyCtx, PolicyLevel, RecoveryPolicy};

#[derive(Debug)]
struct NodeDiag {
    ev: Evidence,
    /// When the current failure *episode* started: like the evidence's
    /// `first_report_at` but not advanced when issued actions consume
    /// their evidence, so under `max_concurrent > 1` the detection-delay
    /// gate measures how long the node has been failing, not the age of
    /// the oldest report that happens to survive consumption.
    episode_first: Option<SimTime>,
    level: PolicyLevel,
    /// How many issued actions are awaiting `recovery_finished`.
    in_flight: usize,
    /// A coarse action (restart/reboot/human) is in flight: no further
    /// decisions until it is acknowledged, whatever `max_concurrent` says.
    exclusive: bool,
    episode_ends: Vec<SimTime>,
    /// Per-component microreboot history: when the component was last
    /// microrebooted and how many consecutive microreboots (each within
    /// `flap_window` of the previous) it has accumulated. Deliberately
    /// *not* cleared when the ladder resets after a quiet period — a slow
    /// flap looks exactly like a sequence of fresh episodes.
    urb_history: BTreeMap<&'static str, (SimTime, u32)>,
    /// Storm-damper deadlines: no new microreboot of the component before
    /// its deadline.
    damped_until: BTreeMap<&'static str, SimTime>,
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
            ev: Evidence::default(),
            episode_first: None,
            level: start,
            in_flight: 0,
            exclusive: false,
            episode_ends: Vec::new(),
            urb_history: BTreeMap::new(),
            damped_until: BTreeMap::new(),
            episode_anchor: None,
            last_human_page: None,
        }
    }
}

/// The paper's recursive ladder (see module docs). A crash keeps `start`
/// and replaces every node's [`NodeDiag`] whole.
pub(crate) struct LadderPolicy {
    /// The rung a fresh episode starts on: `Ejb` is the paper's policy,
    /// `Process` the "recover by JVM restart" baseline. The one thing a
    /// crash keeps — it is what the wipe resets every node to.
    start: PolicyLevel,
    nodes: Vec<NodeDiag>,
}

impl LadderPolicy {
    /// Creates the ladder for `nodes` nodes.
    pub(crate) fn new(nodes: usize, start: PolicyLevel) -> Self {
        LadderPolicy {
            start,
            nodes: (0..nodes).map(|_| NodeDiag::new(start)).collect(),
        }
    }

    /// Climbs one rung, emitting [`TelemetryEvent::EscalationSaturated`]
    /// when the ladder is already at `Human` and has nowhere left to go
    /// (previously a silent saturation).
    fn escalate_level(
        ctx: &mut PolicyCtx,
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
    fn observe(&mut self, r: &FailureReport) {
        let Some(diag) = self.nodes.get_mut(r.node) else {
            return;
        };
        if diag.ev.observe(r) {
            diag.episode_first.get_or_insert(r.at);
        }
    }

    /// Decides whether (and how) to recover `node` right now.
    ///
    /// Returns `None` while evidence is insufficient, detection is still
    /// within `Tdet`, or a recovery is already in flight.
    fn decide(&mut self, node: usize, now: SimTime, ctx: &mut PolicyCtx) -> Option<RecoveryAction> {
        let config = ctx.config;
        let start = self.start;
        let diag = self.nodes.get_mut(node)?;
        if diag.exclusive || diag.in_flight >= config.max_concurrent.max(1) {
            return None;
        }
        // Reports must survive at least the configured detection delay,
        // or a large Tdet (Figure 5's sweep) would forget the evidence
        // before it may be acted on.
        diag.ev
            .prune(now, config.score_window + config.detection_delay);
        if diag.ev.is_empty() {
            diag.episode_first = None;
        }
        // Under the conductor several decisions may be issued per episode,
        // each consuming its suspect's reports; gate on when the episode
        // began, or the surviving (younger) evidence would re-arm Tdet and
        // stagger concurrent diagnoses. Serial runs gate exactly as before.
        let first = if config.max_concurrent > 1 {
            diag.episode_first?
        } else {
            diag.ev.first_report_at?
        };
        if now - first < config.detection_delay {
            return None;
        }
        // An error page naming the failing bean is only weighed in when
        // running under the conductor (`max_concurrent > 1`): the serial
        // baseline must keep its exact decisions.
        let scored = diag.ev.score(ctx, config.max_concurrent > 1);
        if !scored.enough(config.score_threshold) {
            return None;
        }
        // Level bookkeeping: failures shortly after a completed recovery
        // escalate; failures after a quiet period restart the ladder.
        if let Some(end) = diag.ev.last_recovery_end {
            if first <= end + SETTLE + config.observation {
                diag.level = Self::escalate_level(ctx, node, diag.level, now);
            } else {
                diag.level = start;
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
        // component recovery is pointless. In hardened mode the same holds
        // at `Human`, whose action is another page: no page revives a dead
        // process, so drop back to `Process` and restart the node while
        // the operator is on the way.
        if scored.process_is_dead()
            && (diag.level < PolicyLevel::Process
                || (config.watchdog_bound.is_some() && diag.level == PolicyLevel::Human))
        {
            diag.level = PolicyLevel::Process;
        }
        // Under the conductor, error-page hints name the failing bean
        // outright; trusting the most frequent hint separates overlapping
        // failure streams that path intersection (which sees the union of
        // all failing URLs) cannot. Serial runs never take this shortcut.
        let hinted = if config.max_concurrent > 1 {
            diag.ev.top_hint(ctx.web)
        } else {
            None
        };
        let (mut action, mut decision) = diag.level.action(&scored, hinted, ctx);
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
                (action, decision) = diag.level.action(&scored, hinted, ctx);
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
                    diag.ev.consume(components, ctx.path_of);
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
    fn recovery_finished(&mut self, node: usize, now: SimTime, _ctx: &mut PolicyCtx) {
        let Some(diag) = self.nodes.get_mut(node) else {
            return;
        };
        diag.in_flight = diag.in_flight.saturating_sub(1);
        if diag.in_flight == 0 {
            diag.exclusive = false;
        }
        diag.episode_ends.push(now);
        diag.ev.recovery_finished(now);
        diag.episode_first = None;
    }

    fn in_flight(&self, node: usize) -> usize {
        self.nodes.get(node).map_or(0, |d| d.in_flight)
    }

    fn crash(&mut self) {
        // ReHype: the host rebooted and all volatile diagnosis state is
        // gone — including in-flight counts, so late conductor acks land
        // on zero and saturate instead of underflowing.
        for diag in &mut self.nodes {
            *diag = NodeDiag::new(self.start);
        }
    }
}
