//! Failover-first recovery: move the traffic away before touching the
//! node.
//!
//! The opening move for any failure evidence is a [`Failover`] action —
//! the load balancer redirects the node's traffic to its peers for a
//! hold period, trading resource headroom on the survivors for zero
//! reboot-seconds on the suspect. Only when the evidence survives the
//! failover hold does the policy recover in place (suspect microreboot →
//! process → OS), with the usual dead-process shortcut and a
//! page-once-then-keep-reviving floor.
//!
//! [`Failover`]: RecoveryAction::Failover

use simcore::telemetry::{DecisionKind, TelemetryEvent};
use simcore::SimTime;
use workload::detect::FailureReport;

use crate::manager::{RecoveryAction, RmConfig};
use crate::policy::{Evidence, PathOf, PolicyChoice, PolicyCtx, PolicyLevel, RecoveryPolicy};

#[derive(Debug, Default)]
struct Node {
    ev: Evidence,
    /// Escalation rung: 0 failover, 1 microreboot, 2 process, 3 OS,
    /// 4 page-once-then-process.
    rung: u8,
    in_flight: usize,
    paged: bool,
}

/// Failover-first policy (see module docs).
// urb-lint: volatile-state(crash)
pub struct FailoverFirstPolicy {
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    config: RmConfig,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    path_of: PathOf,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    web: &'static str,
    nodes: Vec<Node>,
}

impl FailoverFirstPolicy {
    /// Creates the policy for `nodes` nodes.
    pub fn new(nodes: usize, config: RmConfig, path_of: PathOf, web: &'static str) -> Self {
        FailoverFirstPolicy {
            config,
            path_of,
            web,
            nodes: (0..nodes).map(|_| Node::default()).collect(),
        }
    }
}

impl RecoveryPolicy for FailoverFirstPolicy {
    fn name(&self) -> &'static str {
        PolicyChoice::FailoverFirst.label()
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
        if let Some(end) = node.ev.last_recovery_end {
            if first <= end + config.settle + config.observation {
                node.rung = (node.rung + 1).min(4);
            } else {
                node.rung = 0;
                node.paged = false;
            }
        }
        // Failover is always tried first — that is the policy's bet — but
        // once it has been spent, connection-dominated evidence means the
        // process is dead and in-place component repair is pointless.
        let (network, other) = node.ev.counts();
        if network > other && node.rung == 1 {
            node.rung = 2;
        }
        let (action, decision) = match node.rung {
            0 => (RecoveryAction::Failover, DecisionKind::Failover),
            1 => match node.ev.suspect(path_of, web) {
                Some(c) => (
                    RecoveryAction::microreboot(&[c]),
                    DecisionKind::EjbMicroreboot,
                ),
                None => (
                    RecoveryAction::microreboot(&[web]),
                    DecisionKind::WarMicroreboot,
                ),
            },
            2 => (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart),
            3 => (RecoveryAction::RebootOs, DecisionKind::OsReboot),
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
            0 | 1 => PolicyLevel::Ejb,
            2 => PolicyLevel::Process,
            3 => PolicyLevel::Os,
            _ => PolicyLevel::Human,
        }
    }

    fn crash(&mut self, _now: SimTime, _ctx: &mut PolicyCtx<'_>) {
        for node in &mut self.nodes {
            *node = Node::default();
        }
    }
}
