//! The recovery-policy layer: the ladder's rungs, the [`RecoveryPolicy`]
//! trait every strategy implements, and the tournament registry.
//!
//! "RM first microreboots EJBs, then eBid's WAR, then the entire eBid
//! application, then the JVM running the JBoss application server, and
//! finally reboots the OS; if none of these actions cure the failure
//! symptoms, RM notifies a human administrator." (Section 4)
//!
//! That recursive ladder is one *policy* among several: the systematic
//! review of resilient-microservice patterns catalogues circuit breakers,
//! bulkhead isolation, retry budgets with hedging, and failover-first
//! strategies as competitors. Each lives behind [`RecoveryPolicy`], a
//! deterministic, seeded, telemetry-fed decision interface; the
//! [`RecoveryManager`](crate::RecoveryManager) hosts whichever one
//! [`PolicyChoice`] names, and `urb chaos tournament` races them
//! under an identical fault matrix.

use components::CompName;
use simcore::telemetry::{SharedBus, TelemetryEvent, TelemetrySink};
use simcore::{MetricsRegistry, SimTime};
use urb_core::OpCode;
use workload::detect::{FailureKind, FailureReport};

use crate::manager::{RecoveryAction, RmConfig};

/// One rung of the recursive recovery ladder.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PolicyLevel {
    /// Microreboot the suspected EJB (and its recovery group).
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
    /// Returns the next-coarser rung.
    pub fn escalate(self) -> PolicyLevel {
        match self {
            PolicyLevel::Ejb => PolicyLevel::War,
            PolicyLevel::War => PolicyLevel::App,
            PolicyLevel::App => PolicyLevel::Process,
            PolicyLevel::Process => PolicyLevel::Os,
            PolicyLevel::Os => PolicyLevel::Human,
            // Already saturated: there is no rung past a human.
            PolicyLevel::Human => PolicyLevel::Human,
        }
    }

    /// Returns a display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyLevel::Ejb => "EJB microreboot",
            PolicyLevel::War => "WAR microreboot",
            PolicyLevel::App => "application restart",
            PolicyLevel::Process => "JVM restart",
            PolicyLevel::Os => "OS reboot",
            PolicyLevel::Human => "notify human",
        }
    }
}

/// The emission side-channel a policy decides through: every telemetry
/// event a policy produces folds into the host manager's metrics registry
/// and is forwarded to the attached bus, exactly as the pre-trait manager
/// emitted. Handed in per call so policies never own bus handles (their
/// state stays crash-wipeable for the ReHype scenarios).
pub struct PolicyCtx<'a> {
    /// The host manager's metrics registry.
    pub metrics: &'a mut MetricsRegistry,
    /// The host manager's telemetry bus, if attached.
    pub bus: &'a Option<SharedBus>,
}

impl PolicyCtx<'_> {
    /// Folds `ev` into the registry and forwards it to the bus.
    pub fn emit(&mut self, ev: TelemetryEvent) {
        self.metrics.on_event(&ev);
        if let Some(bus) = self.bus {
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
pub trait RecoveryPolicy {
    /// The policy's registry label.
    fn name(&self) -> &'static str;

    /// Ingests one failure report (`DetectorFired` has already been
    /// emitted by the host).
    fn observe(&mut self, r: &FailureReport, ctx: &mut PolicyCtx<'_>);

    /// Decides whether (and how) to recover `node` right now. A returned
    /// action must eventually be acknowledged via `recovery_finished`.
    fn decide(
        &mut self,
        node: usize,
        now: SimTime,
        ctx: &mut PolicyCtx<'_>,
    ) -> Option<RecoveryAction>;

    /// Acknowledges one completed (or abandoned) action on `node`.
    fn recovery_finished(&mut self, node: usize, now: SimTime, ctx: &mut PolicyCtx<'_>);

    /// Actions issued on `node` still awaiting acknowledgement.
    fn in_flight(&self, node: usize) -> usize;

    /// The node's current escalation rung (reporting only).
    fn level_of(&self, node: usize) -> PolicyLevel;

    /// The RM host crashed (ReHype): all volatile state is lost. The
    /// in-flight counts vanish with it — late conductor acks must be
    /// absorbed safely (saturating decrements).
    fn crash(&mut self, now: SimTime, ctx: &mut PolicyCtx<'_>);
}

simcore::code_enum! {
    /// The tournament registry: every [`RecoveryPolicy`] implementation
    /// the repo ships, one row each — its wire code (the `PolicyArmed`
    /// telemetry payload) and its stable label (report keys, CLI
    /// `--policies`, [`RecoveryPolicy::name`]). `ALL` is tournament order.
    /// [`PolicyChoice::build`] matches exhaustively, so a row without a
    /// constructor does not compile.
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

/// URL-prefix → component-path mapping used by diagnosis.
pub type PathOf = fn(OpCode) -> &'static [&'static str];

impl PolicyChoice {
    /// Builds the policy for an `nodes`-node cluster.
    ///
    /// `seed` feeds any randomized tie-breaking the policy performs (only
    /// `RetryHedge` draws from it today); the same seed must reproduce
    /// the same decision stream bit-for-bit.
    pub fn build(
        self,
        nodes: usize,
        config: RmConfig,
        path_of: PathOf,
        web: &'static str,
        seed: u64,
    ) -> Box<dyn RecoveryPolicy> {
        match self {
            PolicyChoice::Ladder => Box::new(crate::ladder::LadderPolicy::new(
                nodes, config, path_of, web,
            )),
            PolicyChoice::RebootFirst => Box::new(crate::ladder::LadderPolicy::new(
                nodes,
                RmConfig {
                    start_level: PolicyLevel::Process,
                    ..config
                },
                path_of,
                web,
            )),
            PolicyChoice::CircuitBreaker => Box::new(crate::breaker::CircuitBreakerPolicy::new(
                nodes, config, path_of, web,
            )),
            PolicyChoice::Bulkhead => Box::new(crate::bulkhead::BulkheadPolicy::new(
                nodes, config, path_of, web,
            )),
            PolicyChoice::RetryHedge => Box::new(crate::hedge::RetryHedgePolicy::new(
                nodes, config, path_of, web, seed,
            )),
            PolicyChoice::FailoverFirst => Box::new(crate::failover::FailoverFirstPolicy::new(
                nodes, config, path_of, web,
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared evidence bookkeeping for the non-ladder policies
// ---------------------------------------------------------------------------

/// Per-node failure evidence shared by the non-ladder policies: the same
/// report hygiene the ladder applies (session-loss skip, aftershock
/// settle suppression, sliding-window pruning) without the ladder's
/// escalation state. The ladder keeps its own verbatim bookkeeping so the
/// pinned digests cannot move.
#[derive(Debug, Default)]
pub(crate) struct Evidence {
    /// Recent reports: (time, op for path scoring — `None` for network
    /// failures — and the error page's component hint, if any).
    pub recent: Vec<(SimTime, Option<OpCode>, Option<CompName>)>,
    /// When the oldest surviving report arrived.
    pub first_report_at: Option<SimTime>,
    /// When the last acknowledged recovery completed.
    pub last_recovery_end: Option<SimTime>,
}

impl Evidence {
    /// Ingests one report with the standard hygiene.
    pub fn observe(&mut self, r: &FailureReport, settle: simcore::SimDuration) {
        if r.kind == FailureKind::SessionLoss {
            return;
        }
        if let Some(end) = self.last_recovery_end {
            if r.at <= end + settle {
                return;
            }
        }
        self.first_report_at.get_or_insert(r.at);
        match r.kind {
            FailureKind::Network => self.recent.push((r.at, None, None)),
            _ => self.recent.push((r.at, Some(r.op), r.hint)),
        }
    }

    /// Forgets reports older than `window`.
    pub fn prune(&mut self, now: SimTime, window: simcore::SimDuration) {
        self.recent.retain(|(t, _, _)| now - *t <= window);
        self.first_report_at = self.recent.first().map(|(t, _, _)| *t);
    }

    /// Drops all evidence (a decision consumed it).
    pub fn clear(&mut self) {
        self.recent.clear();
        self.first_report_at = None;
    }

    /// `(network_reports, other_reports)` counts over the window.
    pub fn counts(&self) -> (u64, u64) {
        let network = self.recent.iter().filter(|(_, op, _)| op.is_none()).count() as u64;
        (network, self.recent.len() as u64 - network)
    }

    /// Whether the evidence implicates a single component (or shows enough
    /// connection failures) to cross `threshold` — the ladder's trigger
    /// condition, shared so policies fire at comparable sensitivities.
    pub fn enough(&self, threshold: f64, path_of: PathOf, web: &'static str) -> bool {
        let (network, _) = self.counts();
        if network as f64 >= threshold {
            return true;
        }
        let mut scores: std::collections::BTreeMap<&'static str, f64> =
            std::collections::BTreeMap::new();
        for (_, op, _) in &self.recent {
            if let Some(op) = op {
                for comp in (path_of)(*op) {
                    let w = if *comp == web { 0.2 } else { 1.0 };
                    *scores.entry(comp).or_insert(0.0) += w;
                }
            }
        }
        scores.values().copied().fold(0.0, f64::max) >= threshold
    }

    /// The most suspicious non-web component (ladder's diagnosis, shared).
    pub fn suspect(&self, path_of: PathOf, web: &'static str) -> Option<&'static str> {
        let mut scores: std::collections::BTreeMap<&'static str, f64> =
            std::collections::BTreeMap::new();
        let mut failing_ops: Vec<OpCode> = Vec::new();
        for (_, op, _) in &self.recent {
            if let Some(op) = op {
                if !failing_ops.contains(op) {
                    failing_ops.push(*op);
                }
                for comp in (path_of)(*op) {
                    let w = if *comp == web { 0.2 } else { 1.0 };
                    *scores.entry(comp).or_insert(0.0) += w;
                }
            }
        }
        crate::ladder::pick_suspect(&failing_ops, &scores, path_of, web)
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
            level = level.escalate();
            assert_eq!(level, e);
        }
        assert_eq!(PolicyLevel::Human.escalate(), PolicyLevel::Human);
    }

    #[test]
    fn levels_are_ordered_cheapest_first() {
        assert!(PolicyLevel::Ejb < PolicyLevel::War);
        assert!(PolicyLevel::War < PolicyLevel::Process);
        assert!(PolicyLevel::Os < PolicyLevel::Human);
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
    fn every_registered_policy_builds_and_reports_its_name() {
        for c in PolicyChoice::ALL {
            let p = c.build(2, RmConfig::default(), |_| &["WAR"], "WAR", 0x5eed);
            assert_eq!(p.name(), c.label());
            assert_eq!(p.in_flight(0), 0);
        }
    }
}
