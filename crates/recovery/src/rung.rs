//! The table-driven policies: a row of rungs, and the one decision
//! skeleton that walks a node along it.
//!
//! Every competitor of the paper's ladder is the same machine: gate on
//! the evidence (nothing in flight, threshold crossed, `Tdet` elapsed),
//! move along the row (a relapse inside the observation window climbs, a
//! fresh burst after a quiet spell starts over, a dead process skips the
//! rungs that cannot revive it), issue the rung's action, and on the
//! acknowledgement start the settle clock. A policy is a [`Row`] plus
//! whatever its [`Stage`] adds: nothing for the bulkhead and
//! failover-first, a deferral budget and a coin for the retry hedge
//! ([`crate::hedge`]), a circuit state and a cooldown for the breaker
//! ([`crate::breaker`]).

use std::ops::Range;

use simcore::telemetry::TelemetryEvent;
use simcore::SimTime;
use workload::detect::FailureReport;

use crate::evidence::{Evidence, SETTLE};
use crate::manager::RecoveryAction;
use crate::policy::PolicyLevel::{Ejb, Failover, Human, Isolate, Os, Process, War};
use crate::policy::{PolicyCtx, PolicyLevel, RecoveryPolicy};

/// One row of the policy table.
pub(crate) struct Row {
    /// The rungs the policy climbs, cheapest first. Each row passes
    /// `Process` and ends on `Human`, which here pages once per episode
    /// and then keeps restarting the process underneath: paging an
    /// operator must not stop first aid.
    rungs: &'static [PolicyLevel],
    /// The dead-process floor: connection-dominated evidence lifts a node
    /// standing on one of `rungs[floor]` straight to `rungs[floor.end]`,
    /// the `Process` rung — nothing cheaper revives a dead JVM.
    floor: Range<usize>,
}

/// Wall off the suspect's blast radius first; reboot only when the
/// evidence survives the isolation hold, so transient faults cost zero
/// reboot-seconds.
pub(crate) const BULKHEAD: Row = Row {
    rungs: &[Isolate, Ejb, Process, Os, Human],
    floor: 0..2,
};

/// Move the traffic away before touching the node. Failover is always
/// tried first — that is the policy's bet, and peers can serve whether or
/// not this process is alive — so the floor starts one rung up.
pub(crate) const FAILOVER_FIRST: Row = Row {
    rungs: &[Failover, Ejb, Process, Os, Human],
    floor: 1..2,
};

/// Where the retry hedge lands once its deferral budget is spent.
pub(crate) const RETRY_HEDGE: Row = Row {
    rungs: &[Ejb, Process, Os, Human],
    floor: 0..1,
};

/// The repair per consecutive breaker trip.
pub(crate) const BREAKER: Row = Row {
    rungs: &[Ejb, War, Process, Os, Human],
    floor: 0..2,
};

/// A node's place on its row, and the evidence that moves it.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    ev: Evidence,
    /// Index into the row's rungs.
    pub rung: usize,
    in_flight: usize,
    /// The `Human` rung has paged this episode.
    paged: bool,
}

impl Walk {
    /// Back to the cheapest rung, page latch re-armed.
    pub fn restart(&mut self) {
        self.rung = 0;
        self.paged = false;
    }

    /// When the last acknowledged action completed.
    pub fn last_recovery_end(&self) -> Option<SimTime> {
        self.ev.last_recovery_end
    }

    /// The shared stepping rule: evidence surviving a completed action
    /// (past settle, inside observation) climbs one rung; a fresh burst
    /// after a quiet spell restarts the row. Returns true on a restart.
    pub fn step(&mut self, relapsed: Option<bool>, top: usize) -> bool {
        match relapsed {
            Some(true) => self.rung = (self.rung + 1).min(top),
            Some(false) => self.restart(),
            None => {}
        }
        relapsed == Some(false)
    }
}

/// Where and when a hook runs, and the host to emit through.
pub(crate) struct At<'a> {
    pub node: usize,
    pub now: SimTime,
    pub ctx: &'a mut PolicyCtx,
}

/// What a policy adds to the skeleton. Every hook defaults to "nothing of
/// its own"; `Node` is its per-node state, wiped by a crash with the walk.
pub(crate) trait Stage {
    /// Per-node state beyond the walk.
    type Node: Default;

    /// Every unblocked poll, with whether the pruned evidence crosses the
    /// threshold; false vetoes a decision this poll.
    fn gate(_own: &mut Self::Node, _walk: &mut Walk, _enough: bool, _at: &mut At<'_>) -> bool {
        true
    }

    /// Moves the walk for this decision. `relapsed` is whether the
    /// evidence began inside the last action's observation window (`None`
    /// before any action completed); `top` is the row's last index.
    fn step(
        _own: &mut Self::Node,
        walk: &mut Walk,
        relapsed: Option<bool>,
        top: usize,
        _at: &mut At<'_>,
    ) {
        walk.step(relapsed, top);
    }

    /// Whether to sit this decision out and let the evidence lapse
    /// instead of acting on the walk's rung: `Some(hedge)` defers, and
    /// with `hedge` still issues the cheapest microreboot.
    fn defer(&mut self, _own: &mut Self::Node, _dead: bool, _at: &mut At<'_>) -> Option<bool> {
        None
    }

    /// An action on the node was acknowledged.
    fn acked(_own: &mut Self::Node, _at: &mut At<'_>) {}
}

/// A policy with no state of its own: its row says everything.
pub(crate) struct Plain;

impl Stage for Plain {
    type Node = ();
}

/// A [`Row`] walked by the shared skeleton (see module docs). A crash
/// keeps `row` and `stage` and replaces every node's state whole.
pub(crate) struct RungPolicy<S: Stage> {
    /// The policy's definition, a constant of the build.
    row: &'static Row,
    /// The stage's policy-wide part is its code (the hedge's seeded coin);
    /// its per-node part lives in `nodes`.
    stage: S,
    nodes: Vec<(Walk, S::Node)>,
}

impl<S: Stage> RungPolicy<S> {
    pub fn new(row: &'static Row, stage: S, nodes: usize) -> Self {
        RungPolicy {
            row,
            stage,
            nodes: (0..nodes).map(|_| Default::default()).collect(),
        }
    }
}

impl<S: Stage> RecoveryPolicy for RungPolicy<S> {
    fn observe(&mut self, r: &FailureReport) {
        if let Some((walk, _)) = self.nodes.get_mut(r.node) {
            walk.ev.observe(r);
        }
    }

    fn decide(&mut self, node: usize, now: SimTime, ctx: &mut PolicyCtx) -> Option<RecoveryAction> {
        let Row { rungs, floor } = self.row;
        let (walk, own) = self.nodes.get_mut(node)?;
        if walk.in_flight > 0 {
            return None;
        }
        let config = ctx.config;
        // Reports must survive at least the configured detection delay,
        // or a large Tdet (Figure 5's sweep) would forget the evidence
        // before it may be acted on.
        walk.ev
            .prune(now, config.score_window + config.detection_delay);
        let scored = walk.ev.score(ctx, false);
        let enough = scored.enough(config.score_threshold);
        let mut at = At { node, now, ctx };
        if !S::gate(own, walk, enough, &mut at) || !enough {
            return None;
        }
        let first = walk.ev.first_report_at?;
        if now - first < config.detection_delay {
            return None;
        }
        let relapsed = walk
            .last_recovery_end()
            .map(|end| first <= end + SETTLE + config.observation);
        S::step(own, walk, relapsed, rungs.len() - 1, &mut at);
        let dead = scored.process_is_dead();
        if dead && floor.contains(&walk.rung) {
            walk.rung = floor.end;
        }
        let level = match self.stage.defer(own, dead, &mut at) {
            Some(hedge) => {
                walk.ev.clear();
                if !hedge {
                    return None;
                }
                Ejb
            }
            None if rungs[walk.rung] == Human && walk.paged => Process,
            None => {
                walk.paged |= rungs[walk.rung] == Human;
                rungs[walk.rung]
            }
        };
        let (action, decision) = level.action(&scored, None, ctx);
        ctx.emit(TelemetryEvent::RecoveryDecision {
            node,
            decision,
            at: now,
        });
        walk.in_flight += 1;
        walk.ev.clear();
        Some(action)
    }

    fn recovery_finished(&mut self, node: usize, now: SimTime, ctx: &mut PolicyCtx) {
        let Some((walk, own)) = self.nodes.get_mut(node) else {
            return;
        };
        walk.in_flight = walk.in_flight.saturating_sub(1);
        walk.ev.recovery_finished(now);
        S::acked(own, &mut At { node, now, ctx });
    }

    fn in_flight(&self, node: usize) -> usize {
        self.nodes.get(node).map_or(0, |(walk, _)| walk.in_flight)
    }

    fn crash(&mut self) {
        for node in &mut self.nodes {
            *node = Default::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_floors_at_process_and_ends_on_the_page() {
        for row in [&BULKHEAD, &FAILOVER_FIRST, &RETRY_HEDGE, &BREAKER] {
            assert_eq!(row.rungs[row.floor.end], Process);
            assert_eq!(row.rungs.last(), Some(&Human));
            assert!(row.rungs.is_sorted(), "cheapest first");
        }
    }
}
