//! Circuit-breaker recovery: trip on error-rate windows, probe half-open
//! after each recovery, escalate the repair and the cooldown on re-trips.
//!
//! The breaker treats each recovery as opening the circuit; the
//! acknowledgement arms a half-open probe. Failures during the probe
//! window re-trip the breaker, climbing its row
//! ([`crate::rung::BREAKER`]) one rung per consecutive trip under an
//! exponential cooldown; a clean probe closes the circuit and restarts
//! the row.

use simcore::telemetry::TelemetryEvent;
use simcore::SimTime;

use crate::evidence::SETTLE;
use crate::rung::{At, Stage, Walk};

/// Breaker wire states (the `BreakerTransition` telemetry payload).
const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// A node's circuit.
#[derive(Default)]
pub(crate) struct Circuit {
    state: u8,
    /// Consecutive trips without an intervening clean probe.
    trips: u32,
    /// No new trip before this deadline (exponential cooldown).
    cooldown_until: Option<SimTime>,
}

impl Circuit {
    fn turn(&mut self, state: u8, at: &mut At<'_>) {
        self.state = state;
        at.ctx.emit(TelemetryEvent::BreakerTransition {
            node: at.node,
            state,
            at: at.now,
        });
    }
}

/// The breaker's part of the skeleton: the circuit and its cooldown.
pub(crate) struct Breaker;

impl Stage for Breaker {
    type Node = Circuit;

    /// A clean half-open probe (quiet past the settle + observation
    /// window) closes the circuit and restarts the row; a trip waits out
    /// the cooldown.
    fn gate(own: &mut Circuit, walk: &mut Walk, enough: bool, at: &mut At<'_>) -> bool {
        if own.state == HALF_OPEN && !enough {
            let end = walk.last_recovery_end().unwrap_or(SimTime::ZERO);
            if at.now - end > SETTLE + at.ctx.config.observation {
                own.trips = 0;
                walk.restart();
                own.turn(CLOSED, at);
            }
        }
        own.cooldown_until.is_none_or(|until| at.now >= until)
    }

    /// Every trip climbs, whatever the observation window says: only a
    /// clean probe resets. The rung follows the trip count, so the
    /// dead-process floor lifts one decision, not the count.
    fn step(
        own: &mut Circuit,
        walk: &mut Walk,
        _relapsed: Option<bool>,
        top: usize,
        at: &mut At<'_>,
    ) {
        own.trips += 1;
        walk.rung = (own.trips as usize - 1).min(top);
        own.turn(OPEN, at);
        // Back off harder the more the breaker flaps (bounded so
        // convergence stays within grace).
        let exp = (own.trips - 1).min(3);
        own.cooldown_until = Some(at.now + at.ctx.config.storm_backoff * (1u64 << exp));
    }

    fn acked(own: &mut Circuit, at: &mut At<'_>) {
        if own.state == OPEN {
            own.turn(HALF_OPEN, at);
        }
    }
}
