//! Circuit-breaker recovery: trip on error-rate windows, probe half-open
//! after each recovery, escalate the repair and the cooldown on re-trips.
//!
//! The breaker treats each recovery as opening the circuit; the
//! acknowledgement arms a half-open probe. Failures during the probe
//! window re-trip the breaker, climbing a reboot ladder (suspect
//! microreboot → WAR → process → OS) under an exponential cooldown; a
//! clean probe closes the circuit and resets the ladder.

use simcore::telemetry::{DecisionKind, TelemetryEvent};
use simcore::SimTime;
use workload::detect::FailureReport;

use crate::manager::{RecoveryAction, RmConfig};
use crate::policy::{Evidence, PathOf, PolicyChoice, PolicyCtx, PolicyLevel, RecoveryPolicy};

/// Breaker wire states (the `BreakerTransition` telemetry payload).
const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

#[derive(Debug, Default)]
struct Node {
    ev: Evidence,
    state: u8,
    /// Consecutive trips without an intervening clean probe.
    trips: u32,
    in_flight: usize,
    /// No new trip before this deadline (exponential cooldown).
    cooldown_until: Option<SimTime>,
    paged: bool,
}

/// The repair commanded at the node's current trip count.
fn rung_action(
    node: &mut Node,
    network_dominated: bool,
    path_of: PathOf,
    web: &'static str,
) -> (RecoveryAction, DecisionKind) {
    // Connection-level evidence: component repair is pointless.
    let trips = if network_dominated {
        node.trips.max(3)
    } else {
        node.trips
    };
    match trips {
        0 | 1 => match node.ev.suspect(path_of, web) {
            Some(c) => (
                RecoveryAction::microreboot(&[c]),
                DecisionKind::EjbMicroreboot,
            ),
            None => (
                RecoveryAction::microreboot(&[web]),
                DecisionKind::WarMicroreboot,
            ),
        },
        2 => (
            RecoveryAction::microreboot(&[web]),
            DecisionKind::WarMicroreboot,
        ),
        3 => (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart),
        4 => (RecoveryAction::RebootOs, DecisionKind::OsReboot),
        _ => {
            if node.paged {
                // Page once, then keep reviving the process underneath.
                (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart)
            } else {
                node.paged = true;
                (RecoveryAction::NotifyHuman, DecisionKind::NotifyHuman)
            }
        }
    }
}

/// Circuit-breaker policy (see module docs).
// urb-lint: volatile-state(crash)
pub struct CircuitBreakerPolicy {
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    config: RmConfig,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    path_of: PathOf,
    // urb-lint: allow(S001) — immutable policy configuration; a ReHype reboot reloads it from the build.
    web: &'static str,
    nodes: Vec<Node>,
}

impl CircuitBreakerPolicy {
    /// Creates the breaker for `nodes` nodes.
    pub fn new(nodes: usize, config: RmConfig, path_of: PathOf, web: &'static str) -> Self {
        CircuitBreakerPolicy {
            config,
            path_of,
            web,
            nodes: (0..nodes).map(|_| Node::default()).collect(),
        }
    }
}

impl RecoveryPolicy for CircuitBreakerPolicy {
    fn name(&self) -> &'static str {
        PolicyChoice::CircuitBreaker.label()
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
        let enough = node.ev.enough(config.score_threshold, path_of, web);
        // A clean half-open probe (quiet past the settle + observation
        // window) closes the circuit and resets the trip ladder.
        if node.state == HALF_OPEN && !enough {
            let end = node.ev.last_recovery_end.unwrap_or(SimTime::ZERO);
            if now - end > config.settle + config.observation {
                node.state = CLOSED;
                node.trips = 0;
                node.paged = false;
                ctx.emit(TelemetryEvent::BreakerTransition {
                    node: node_idx,
                    state: CLOSED,
                    at: now,
                });
            }
        }
        if !enough {
            return None;
        }
        let first = node.ev.first_report_at?;
        if now - first < config.detection_delay {
            return None;
        }
        // Exponential cooldown between re-trips: back off harder the more
        // the breaker flaps (bounded so convergence stays within grace).
        if let Some(until) = node.cooldown_until {
            if now < until {
                return None;
            }
        }
        // A fresh burst long after the last episode starts a new ladder.
        if node.state == CLOSED && node.trips > 0 {
            let quiet = node
                .ev
                .last_recovery_end
                .is_none_or(|end| first > end + config.settle + config.observation);
            if quiet {
                node.trips = 0;
                node.paged = false;
            }
        }
        node.trips += 1;
        node.state = OPEN;
        ctx.emit(TelemetryEvent::BreakerTransition {
            node: node_idx,
            state: OPEN,
            at: now,
        });
        let exp = node.trips.saturating_sub(1).min(3);
        node.cooldown_until = Some(now + config.storm_backoff * (1u64 << exp));
        let (network, other) = node.ev.counts();
        let (action, decision) = rung_action(node, network > other, path_of, web);
        ctx.emit(TelemetryEvent::RecoveryDecision {
            node: node_idx,
            decision,
            at: now,
        });
        node.in_flight += 1;
        node.ev.clear();
        Some(action)
    }

    fn recovery_finished(&mut self, node_idx: usize, now: SimTime, ctx: &mut PolicyCtx<'_>) {
        let Some(node) = self.nodes.get_mut(node_idx) else {
            return;
        };
        node.in_flight = node.in_flight.saturating_sub(1);
        node.ev.last_recovery_end = Some(now);
        node.ev.clear();
        if node.state == OPEN {
            node.state = HALF_OPEN;
            ctx.emit(TelemetryEvent::BreakerTransition {
                node: node_idx,
                state: HALF_OPEN,
                at: now,
            });
        }
    }

    fn in_flight(&self, node: usize) -> usize {
        self.nodes.get(node).map_or(0, |n| n.in_flight)
    }

    fn level_of(&self, node: usize) -> PolicyLevel {
        match self.nodes.get(node).map_or(0, |n| n.trips) {
            0 | 1 => PolicyLevel::Ejb,
            2 => PolicyLevel::War,
            3 => PolicyLevel::Process,
            4 => PolicyLevel::Os,
            _ => PolicyLevel::Human,
        }
    }

    fn crash(&mut self, _now: SimTime, _ctx: &mut PolicyCtx<'_>) {
        for node in &mut self.nodes {
            *node = Node::default();
        }
    }
}
