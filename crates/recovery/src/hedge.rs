//! Retry-budget-with-hedging recovery: spend a deferral budget letting
//! client retries absorb the failure before committing to reboots.
//!
//! Each time the evidence crosses the threshold while budget remains, the
//! policy *defers* — it clears the evidence and lets the retry layer mask
//! the fault — and, on a seeded coin flip, also *hedges* with a cheap
//! suspect microreboot (paying a small reboot cost now against the chance
//! the deferral alone would not have cured it). A quiet spell refills the
//! budget; an exhausted budget drops the policy onto its row
//! ([`crate::rung::RETRY_HEDGE`]).

use simcore::telemetry::TelemetryEvent;
use simcore::SimRng;

use crate::rung::{At, Stage, Walk};

/// Deferrals granted per quiet period.
const BUDGET: u32 = 3;

/// A node's remaining deferrals.
pub(crate) struct Budget(u32);

impl Default for Budget {
    fn default() -> Self {
        Budget(BUDGET)
    }
}

/// The hedge's part of the skeleton: the budget, and the seeded coin —
/// the only randomness any shipped policy draws, reproduced bit-for-bit
/// from the build seed. The coin survives a crash: it models the policy's
/// code, not its volatile state.
pub(crate) struct Hedge {
    rng: SimRng,
}

impl Hedge {
    pub(crate) fn new(seed: u64) -> Self {
        Hedge {
            rng: SimRng::seed_from(seed ^ 0x4ed6_e5ed_6e44_5eed),
        }
    }
}

impl Stage for Hedge {
    type Node = Budget;

    fn step(
        own: &mut Budget,
        walk: &mut Walk,
        relapsed: Option<bool>,
        top: usize,
        _at: &mut At<'_>,
    ) {
        if walk.step(relapsed, top) {
            own.0 = BUDGET;
        }
    }

    fn defer(&mut self, own: &mut Budget, dead: bool, at: &mut At<'_>) -> Option<bool> {
        if dead {
            // A dead process cannot be retried around: stop deferring.
            own.0 = 0;
        }
        if own.0 == 0 {
            return None;
        }
        own.0 -= 1;
        at.ctx.emit(TelemetryEvent::HedgeDeferred {
            node: at.node,
            budget_left: own.0,
            at: at.now,
        });
        Some(self.rng.chance(0.5))
    }
}
