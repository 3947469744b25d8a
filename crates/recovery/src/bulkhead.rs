//! Bulkhead recovery: wall off the failing compartment before rebooting
//! anything.
//!
//! Generalizes the conductor's quarantine into a first-class recovery
//! rung: the first response to failure evidence is an [`Isolate`] action
//! — admission control sheds the suspect components' traffic for a hold
//! period while the rest of the application keeps serving. Only when the
//! evidence survives the isolation hold does the bulkhead fall back to
//! reboots (suspect microreboot → process → OS), so transient faults cost
//! zero reboot-seconds.
//!
//! [`Isolate`]: RecoveryAction::Isolate

use simcore::telemetry::{DecisionKind, TelemetryEvent};
use simcore::SimTime;
use workload::detect::FailureReport;

use crate::manager::{RecoveryAction, RmConfig};
use crate::policy::{Evidence, PathOf, PolicyChoice, PolicyCtx, PolicyLevel, RecoveryPolicy};

#[derive(Debug, Default)]
struct Node {
    ev: Evidence,
    /// Escalation rung: 0 isolate, 1 microreboot, 2 process, 3 OS,
    /// 4 page-once-then-process.
    rung: u8,
    in_flight: usize,
    paged: bool,
}

/// Bulkhead/admission-isolation policy (see module docs).
// urb-lint: volatile-state(crash)
pub struct BulkheadPolicy {
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    config: RmConfig,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    path_of: PathOf,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    web: &'static str,
    nodes: Vec<Node>,
}

impl BulkheadPolicy {
    /// Creates the bulkhead for `nodes` nodes.
    pub fn new(nodes: usize, config: RmConfig, path_of: PathOf, web: &'static str) -> Self {
        BulkheadPolicy {
            config,
            path_of,
            web,
            nodes: (0..nodes).map(|_| Node::default()).collect(),
        }
    }
}

impl RecoveryPolicy for BulkheadPolicy {
    fn name(&self) -> &'static str {
        PolicyChoice::Bulkhead.label()
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
        // Ladder bookkeeping: evidence surviving a completed action (past
        // settle, inside observation) escalates; a fresh burst after a
        // quiet spell restarts at the isolation rung.
        if let Some(end) = node.ev.last_recovery_end {
            if first <= end + config.settle + config.observation {
                node.rung = (node.rung + 1).min(4);
            } else {
                node.rung = 0;
                node.paged = false;
            }
        }
        // Connection-level failures: nothing to admission-control — the
        // process is gone; jump straight to reviving it.
        let (network, other) = node.ev.counts();
        if network > other && node.rung < 2 {
            node.rung = 2;
        }
        let (action, decision) = match node.rung {
            0 => match node.ev.suspect(path_of, web) {
                Some(c) => (RecoveryAction::isolate(&[c]), DecisionKind::Isolate),
                None => (RecoveryAction::isolate(&[web]), DecisionKind::Isolate),
            },
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
