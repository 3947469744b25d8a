//! The recovery-policy layer: the rungs a policy can stand on and the
//! one table that turns a rung into an action, the [`RecoveryPolicy`]
//! interface, and the tournament registry.
//!
//! "RM first microreboots EJBs, then eBid's WAR, then the entire eBid
//! application, then the JVM running the JBoss application server, and
//! finally reboots the OS; if none of these actions cure the failure
//! symptoms, RM notifies a human administrator." (Section 4)
//!
//! That recursive ladder is one *policy* among several: the systematic
//! review of resilient-microservice patterns catalogues circuit breakers,
//! bulkhead isolation, retry budgets with hedging, and failover-first
//! strategies as competitors. Each is a deterministic, seeded,
//! telemetry-fed [`RecoveryPolicy`]; the
//! [`RecoveryManager`](crate::RecoveryManager) hosts whichever one
//! [`PolicyChoice`] names, and `urb chaos tournament` races them
//! under an identical fault matrix.

use simcore::telemetry::{DecisionKind, SharedBus, TelemetryEvent, TelemetrySink};
use simcore::{MetricsRegistry, SimTime};
use urb_core::OpCode;
use workload::detect::FailureReport;

use crate::evidence::Scored;
use crate::manager::{RecoveryAction, RmConfig};
use crate::rung::{self, RungPolicy};

/// One rung a policy can stand on, cheapest first: the paper's ladder
/// (`Ejb` … `Human`) plus the two holds its competitors open with.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PolicyLevel {
    /// Shed the suspect's traffic behind admission control for a hold
    /// period; reboot nothing.
    Isolate,
    /// Move the node's traffic to its peers for a hold period; reboot
    /// nothing.
    Failover,
    /// Microreboot the suspected EJB (and its recovery group) — or the web
    /// component, when the evidence names no suspect.
    Ejb,
    /// Microreboot the web component.
    War,
    /// Restart the whole application.
    App,
    /// Restart the JVM process.
    Process,
    /// Reboot the operating system.
    Os,
    /// Out of automated options: page a human.
    Human,
}

impl PolicyLevel {
    /// Returns the next-coarser rung of the paper's ladder.
    pub(crate) fn escalate(self) -> PolicyLevel {
        match self {
            PolicyLevel::Isolate | PolicyLevel::Failover => PolicyLevel::Ejb,
            PolicyLevel::Ejb => PolicyLevel::War,
            PolicyLevel::War => PolicyLevel::App,
            PolicyLevel::App => PolicyLevel::Process,
            PolicyLevel::Process => PolicyLevel::Os,
            // `Human` saturates: there is no rung past a human.
            PolicyLevel::Os | PolicyLevel::Human => PolicyLevel::Human,
        }
    }

    /// The rung table: the action a policy standing on this rung commands,
    /// and the decision kind it announces. `hinted` overrides the scored
    /// suspect (the ladder under the conductor trusts error-page hints).
    pub(crate) fn action(
        self,
        scored: &Scored,
        hinted: Option<&'static str>,
        ctx: &PolicyCtx,
    ) -> (RecoveryAction, DecisionKind) {
        let suspect = || hinted.or_else(|| scored.suspect(ctx));
        match self {
            PolicyLevel::Isolate => (
                RecoveryAction::isolate(&[suspect().unwrap_or(ctx.web)]),
                DecisionKind::Isolate,
            ),
            PolicyLevel::Failover => (RecoveryAction::Failover, DecisionKind::Failover),
            PolicyLevel::Ejb => match suspect() {
                Some(comp) => (
                    RecoveryAction::microreboot(&[comp]),
                    DecisionKind::EjbMicroreboot,
                ),
                None => PolicyLevel::War.action(scored, None, ctx),
            },
            PolicyLevel::War => (
                RecoveryAction::microreboot(&[ctx.web]),
                DecisionKind::WarMicroreboot,
            ),
            PolicyLevel::App => (RecoveryAction::RestartApp, DecisionKind::AppRestart),
            PolicyLevel::Process => (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart),
            PolicyLevel::Os => (RecoveryAction::RebootOs, DecisionKind::OsReboot),
            PolicyLevel::Human => (RecoveryAction::NotifyHuman, DecisionKind::NotifyHuman),
        }
    }
}

/// URL-prefix → component-path mapping used by diagnosis.
pub(crate) type PathOf = fn(OpCode) -> &'static [&'static str];

/// What the host hands a policy on every call: the build's configuration
/// and the emission side-channel. Policies own nothing but volatile
/// diagnosis state, so the ReHype crash wipe (`crash`) is total by
/// construction — everything here is the host's stable storage and is
/// held once, by the [`RecoveryManager`](crate::RecoveryManager).
pub(crate) struct PolicyCtx {
    /// Manager configuration.
    pub config: RmConfig,
    /// URL-prefix → component-path mapping (from static analysis).
    pub path_of: PathOf,
    /// Name of the web component, scored down (it is on every path).
    pub web: &'static str,
    pub metrics: MetricsRegistry,
    pub bus: Option<SharedBus>,
}

impl PolicyCtx {
    /// Folds `ev` into the host's registry and forwards it to its bus.
    pub fn emit(&mut self, ev: TelemetryEvent) {
        self.metrics.on_event(&ev);
        if let Some(bus) = &self.bus {
            bus.borrow_mut().emit(&ev);
        }
    }
}

/// A pluggable recovery strategy.
///
/// Contract (enforced by `bench/tests/policy_conformance.rs`):
///
/// * **Deterministic**: decisions are a pure function of the observation
///   history and the build seed — no wall clocks, no ambient randomness.
/// * **Convergent**: under any campaign fault (including `FlapSchedule`
///   re-injection) every episode terminates within bounded grace; no
///   absorbing state may swallow the ladder.
/// * **Ack-conserving**: each `Some(action)` returned from `decide` is
///   answered by exactly one `recovery_finished` call; policies gate on
///   their own in-flight bookkeeping.
/// * **Crash-survivable**: `crash` wipes all volatile per-node state (the
///   ReHype scenario — the RM host reboots mid-episode); the policy must
///   re-converge from fresh evidence afterwards, and tolerate late
///   `recovery_finished` acks for decisions it no longer remembers.
pub(crate) trait RecoveryPolicy {
    /// Ingests one failure report (`DetectorFired` has already been
    /// emitted by the host).
    fn observe(&mut self, r: &FailureReport);

    /// Decides whether (and how) to recover `node` right now. A returned
    /// action must eventually be acknowledged via `recovery_finished`.
    fn decide(&mut self, node: usize, now: SimTime, ctx: &mut PolicyCtx) -> Option<RecoveryAction>;

    /// Acknowledges one completed (or abandoned) action on `node`.
    fn recovery_finished(&mut self, node: usize, now: SimTime, ctx: &mut PolicyCtx);

    /// Actions issued on `node` still awaiting acknowledgement.
    fn in_flight(&self, node: usize) -> usize;

    /// The RM host crashed (ReHype): all volatile state is lost. The
    /// in-flight counts vanish with it — late conductor acks must be
    /// absorbed safely (saturating decrements).
    fn crash(&mut self);
}

simcore::code_enum! {
    /// The tournament registry: every [`RecoveryPolicy`] the repo ships,
    /// one row each — its wire code (the `PolicyArmed` telemetry payload)
    /// and its stable label (report keys, CLI `--policies`). `ALL` is
    /// tournament order. [`PolicyChoice::build`] matches exhaustively, so
    /// a row without a constructor does not compile.
    #[derive(PartialOrd, Ord)]
    pub enum PolicyChoice {
        /// The paper's recursive ladder (the pinned default).
        Ladder = 0 => "paper-ladder",
        /// The ladder started at the JVM rung: the "recover by process
        /// restart" baseline the paper compares microreboots against.
        RebootFirst = 1 => "reboot-first",
        /// Circuit breaker: trip on error-rate windows, half-open probe
        /// after recovery, escalating cooldowns and rungs on re-trips.
        CircuitBreaker = 2 => "circuit-breaker",
        /// Bulkhead: admission-isolate the suspect blast radius first;
        /// only reboot when isolation alone does not clear the evidence.
        Bulkhead = 3 => "bulkhead",
        /// Retry budget with hedging: spend a deferral budget letting
        /// client retries absorb the failure, hedging with a cheap
        /// microreboot; escalate when the budget runs dry.
        RetryHedge = 4 => "retry-hedge",
        /// Failover-first: move traffic away before rebooting anything.
        FailoverFirst = 5 => "failover-first",
    }
}

impl PolicyChoice {
    /// Builds the policy for an `nodes`-node cluster. `start_level` is the
    /// paper ladder's first rung; `seed` feeds the one randomized choice
    /// any policy makes (`RetryHedge`'s coin), and the same seed must
    /// reproduce the same decision stream bit-for-bit.
    pub(crate) fn build(
        self,
        nodes: usize,
        start_level: PolicyLevel,
        seed: u64,
    ) -> Box<dyn RecoveryPolicy> {
        use crate::ladder::LadderPolicy;
        match self {
            PolicyChoice::Ladder => Box::new(LadderPolicy::new(nodes, start_level)),
            PolicyChoice::RebootFirst => Box::new(LadderPolicy::new(nodes, PolicyLevel::Process)),
            PolicyChoice::CircuitBreaker => Box::new(RungPolicy::new(
                &rung::BREAKER,
                crate::breaker::Breaker,
                nodes,
            )),
            PolicyChoice::Bulkhead => {
                Box::new(RungPolicy::new(&rung::BULKHEAD, rung::Plain, nodes))
            }
            PolicyChoice::RetryHedge => Box::new(RungPolicy::new(
                &rung::RETRY_HEDGE,
                crate::hedge::Hedge::new(seed),
                nodes,
            )),
            PolicyChoice::FailoverFirst => {
                Box::new(RungPolicy::new(&rung::FAILOVER_FIRST, rung::Plain, nodes))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_matches_the_paper() {
        let mut level = PolicyLevel::Ejb;
        let expected = [
            PolicyLevel::War,
            PolicyLevel::App,
            PolicyLevel::Process,
            PolicyLevel::Os,
            PolicyLevel::Human,
        ];
        for e in expected {
            assert!(level < e, "rungs are ordered cheapest first");
            level = level.escalate();
            assert_eq!(level, e);
        }
        assert_eq!(PolicyLevel::Human.escalate(), PolicyLevel::Human);
    }

    #[test]
    fn registry_labels_and_codes_are_distinct() {
        let mut labels: Vec<&str> = PolicyChoice::ALL.iter().map(|c| c.label()).collect();
        let mut codes: Vec<u8> = PolicyChoice::ALL.iter().map(|c| c.code()).collect();
        labels.sort_unstable();
        labels.dedup();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(labels.len(), PolicyChoice::ALL.len());
        assert_eq!(codes.len(), PolicyChoice::ALL.len());
        for c in PolicyChoice::ALL {
            assert_eq!(PolicyChoice::from_label(c.label()), Some(*c));
        }
        assert_eq!(PolicyChoice::from_label("no-such-policy"), None);
    }

    #[test]
    fn every_registered_policy_builds_idle() {
        for c in PolicyChoice::ALL {
            let p = c.build(2, PolicyLevel::Ejb, 0x5eed);
            assert_eq!(p.in_flight(0), 0);
            assert_eq!(p.in_flight(1), 0);
        }
    }
}
