//! Retry-budget-with-hedging recovery: spend a deferral budget letting
//! client retries absorb the failure before committing to reboots.
//!
//! Each time the evidence crosses the threshold while budget remains, the
//! policy *defers* — it clears the evidence and lets the retry layer mask
//! the fault — and, on a seeded coin flip, also *hedges* with a cheap
//! suspect microreboot (paying a small reboot cost now against the chance
//! the deferral alone would not have cured it). A quiet spell refills the
//! budget; an exhausted budget drops the policy onto a reboot ladder.

use simcore::telemetry::{DecisionKind, TelemetryEvent};
use simcore::{SimRng, SimTime};
use workload::detect::FailureReport;

use crate::manager::{RecoveryAction, RmConfig};
use crate::policy::{Evidence, PathOf, PolicyChoice, PolicyCtx, PolicyLevel, RecoveryPolicy};

/// Deferrals granted per quiet period.
const BUDGET: u32 = 3;

#[derive(Debug)]
struct Node {
    ev: Evidence,
    budget: u32,
    /// Escalation rung once the budget is spent: 0 microreboot,
    /// 1 process, 2 OS, 3 page-once-then-process.
    rung: u8,
    in_flight: usize,
    paged: bool,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            ev: Evidence::default(),
            budget: BUDGET,
            rung: 0,
            in_flight: 0,
            paged: false,
        }
    }
}

/// Retry-budget-with-hedging policy (see module docs).
// urb-lint: volatile-state(crash)
pub struct RetryHedgePolicy {
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    config: RmConfig,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    path_of: PathOf,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    web: &'static str,
    nodes: Vec<Node>,
    /// Seeded hedging coin — the only randomness any shipped policy
    /// draws, reproduced bit-for-bit from the build seed.
    // urb-lint: allow(S001) — deliberately survives crash(): the RNG models the policy's code, not its volatile state.
    rng: SimRng,
}

impl RetryHedgePolicy {
    /// Creates the policy for `nodes` nodes, hedging off `seed`.
    pub fn new(
        nodes: usize,
        config: RmConfig,
        path_of: PathOf,
        web: &'static str,
        seed: u64,
    ) -> Self {
        RetryHedgePolicy {
            config,
            path_of,
            web,
            nodes: (0..nodes).map(|_| Node::default()).collect(),
            rng: SimRng::seed_from(seed ^ 0x4ed6_e5ed_6e44_5eed),
        }
    }
}

impl RecoveryPolicy for RetryHedgePolicy {
    fn name(&self) -> &'static str {
        PolicyChoice::RetryHedge.label()
    }

    fn observe(&mut self, r: &FailureReport, _ctx: &mut PolicyCtx<'_>) {
        if let Some(node) = self.nodes.get_mut(r.node) {
            node.ev.observe(r, self.config.settle);
        }
    }

    fn decide(
        &mut self,
        node_idx: usize,
        now: SimTime,
        ctx: &mut PolicyCtx<'_>,
    ) -> Option<RecoveryAction> {
        let config = self.config;
        let path_of = self.path_of;
        let web = self.web;
        let node = self.nodes.get_mut(node_idx)?;
        if node.in_flight > 0 {
            return None;
        }
        node.ev
            .prune(now, config.score_window + config.detection_delay);
        if !node.ev.enough(config.score_threshold, path_of, web) {
            return None;
        }
        let first = node.ev.first_report_at?;
        if now - first < config.detection_delay {
            return None;
        }
        // Quiet spell: refill the deferral budget and reset the ladder.
        if let Some(end) = node.ev.last_recovery_end {
            if first > end + config.settle + config.observation {
                node.budget = BUDGET;
                node.rung = 0;
                node.paged = false;
            } else {
                node.rung = (node.rung + 1).min(3);
            }
        }
        let (network, other) = node.ev.counts();
        if network > other {
            // A dead process cannot be retried around: stop deferring and
            // jump to reviving it.
            node.budget = 0;
            if node.rung < 1 {
                node.rung = 1;
            }
        }
        if node.budget > 0 {
            node.budget -= 1;
            let suspect = node.ev.suspect(path_of, web);
            ctx.emit(TelemetryEvent::HedgeDeferred {
                node: node_idx,
                budget_left: node.budget,
                at: now,
            });
            node.ev.clear();
            if self.rng.chance(0.5) {
                // Hedge: pay for a cheap microreboot now in case the
                // deferral alone would not have cured the fault.
                let node = self.nodes.get_mut(node_idx)?;
                let (action, decision) = match suspect {
                    Some(c) => (
                        RecoveryAction::microreboot(&[c]),
                        DecisionKind::EjbMicroreboot,
                    ),
                    None => (
                        RecoveryAction::microreboot(&[web]),
                        DecisionKind::WarMicroreboot,
                    ),
                };
                ctx.emit(TelemetryEvent::RecoveryDecision {
                    node: node_idx,
                    decision,
                    at: now,
                });
                node.in_flight += 1;
                return Some(action);
            }
            return None;
        }
        let (action, decision) = match node.rung {
            0 => match node.ev.suspect(path_of, web) {
                Some(c) => (
                    RecoveryAction::microreboot(&[c]),
                    DecisionKind::EjbMicroreboot,
                ),
                None => (
                    RecoveryAction::microreboot(&[web]),
                    DecisionKind::WarMicroreboot,
                ),
            },
            1 => (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart),
            2 => (RecoveryAction::RebootOs, DecisionKind::OsReboot),
            _ => {
                if node.paged {
                    (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart)
                } else {
                    node.paged = true;
                    (RecoveryAction::NotifyHuman, DecisionKind::NotifyHuman)
                }
            }
        };
        ctx.emit(TelemetryEvent::RecoveryDecision {
            node: node_idx,
            decision,
            at: now,
        });
        node.in_flight += 1;
        node.ev.clear();
        Some(action)
    }

    fn recovery_finished(&mut self, node_idx: usize, now: SimTime, _ctx: &mut PolicyCtx<'_>) {
        let Some(node) = self.nodes.get_mut(node_idx) else {
            return;
        };
        node.in_flight = node.in_flight.saturating_sub(1);
        node.ev.last_recovery_end = Some(now);
        node.ev.clear();
    }

    fn in_flight(&self, node: usize) -> usize {
        self.nodes.get(node).map_or(0, |n| n.in_flight)
    }

    fn level_of(&self, node: usize) -> PolicyLevel {
        match self.nodes.get(node).map_or(0, |n| n.rung) {
            0 => PolicyLevel::Ejb,
            1 => PolicyLevel::Process,
            2 => PolicyLevel::Os,
            _ => PolicyLevel::Human,
        }
    }

    fn crash(&mut self, _now: SimTime, _ctx: &mut PolicyCtx<'_>) {
        // The hedging RNG deliberately survives: it models the policy's
        // code, not its volatile state.
        for node in &mut self.nodes {
            *node = Node::default();
        }
    }
}
