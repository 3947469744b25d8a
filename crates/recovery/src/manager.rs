//! The recovery manager: the host that wires a pluggable
//! [`RecoveryPolicy`] to monitors, telemetry and the executor.
//!
//! The manager owns the configuration, the metrics registry and the
//! telemetry bus; the hosted policy (the paper's recursive ladder by
//! default) owns all diagnosis state and nothing else. The host is also
//! what makes the RM itself rebootable (ReHype-style):
//! [`RecoveryManager::crash`] wipes the policy's volatile state while the
//! host survives, and late acknowledgements for pre-crash actions are
//! absorbed safely.

use simcore::telemetry::{RebootLevel, SharedBus, TelemetryEvent};
use simcore::{MetricsRegistry, SimDuration, SimTime};
use workload::detect::{FailureKind, FailureReport};

use components::CompName;

use crate::policy::{PathOf, PolicyChoice, PolicyCtx, RecoveryPolicy};

/// A recovery action the manager wants executed on a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Microreboot these components (the server expands recovery groups).
    Microreboot {
        /// Interned component names to reboot — the same symbols the
        /// naming registry keys on, so the conductor's conflict sets and
        /// the server's group expansion agree by identity, not by string.
        components: Vec<CompName>,
    },
    /// Restart the whole application.
    RestartApp,
    /// Restart the JVM process.
    RestartProcess,
    /// Reboot the operating system.
    RebootOs,
    /// Quarantine these components behind admission control instead of
    /// rebooting anything (the bulkhead policy's first rung). The
    /// executor sheds their traffic for a hold period, then acknowledges.
    Isolate {
        /// Interned component names to wall off.
        components: Vec<CompName>,
    },
    /// Redirect the node's traffic to its peers before (instead of)
    /// recovering in place — the failover-first policy's opening move.
    Failover,
    /// Automated recovery is exhausted or failures recur endlessly.
    NotifyHuman,
}

impl RecoveryAction {
    /// Builds a microreboot action from string names, interning them.
    pub fn microreboot(names: &[&'static str]) -> RecoveryAction {
        RecoveryAction::Microreboot {
            components: names.iter().map(|n| CompName::intern(n)).collect(),
        }
    }

    /// Builds an isolation action from string names, interning them.
    pub(crate) fn isolate(names: &[&'static str]) -> RecoveryAction {
        RecoveryAction::Isolate {
            components: names.iter().map(|n| CompName::intern(n)).collect(),
        }
    }

    /// The depth of reboot the action commands; `None` for the holds and
    /// the page, which reboot nothing.
    pub fn reboot_level(&self) -> Option<RebootLevel> {
        match self {
            RecoveryAction::Microreboot { .. } => Some(RebootLevel::Component),
            RecoveryAction::RestartApp => Some(RebootLevel::Application),
            RecoveryAction::RestartProcess => Some(RebootLevel::Process),
            RecoveryAction::RebootOs => Some(RebootLevel::OperatingSystem),
            RecoveryAction::Isolate { .. }
            | RecoveryAction::Failover
            | RecoveryAction::NotifyHuman => None,
        }
    }
}

/// Manager configuration.
#[derive(Clone, Copy, Debug)]
pub struct RmConfig {
    /// Failure reports needed before the manager acts (the hand-tuned
    /// threshold of Section 4).
    pub score_threshold: f64,
    /// Reports older than this are forgotten — scores are computed over a
    /// sliding window so background noise never accumulates into a
    /// spurious recovery.
    pub score_window: SimDuration,
    /// Extra detection delay before acting on the first report (the
    /// `Tdet` knob swept in Figure 5).
    pub detection_delay: SimDuration,
    /// How long after a recovery completes (past the settle window) new
    /// failures count as "the same problem" and escalate the ladder.
    pub observation: SimDuration,
    /// How many completed recovery episodes within `recurrence_window`
    /// trigger a human notification for a recurring failure pattern.
    pub recurrence_limit: u32,
    /// Window for recurrence detection.
    pub recurrence_window: SimDuration,
    /// How many component microreboots may be in flight per node at once.
    ///
    /// At the default of 1 the manager behaves exactly as the serial
    /// baseline (one decision, then silence until it is acknowledged).
    /// Above 1 — which only makes sense with a conductor cap above 1 —
    /// each issued microreboot *consumes* the evidence that implicated its
    /// suspect, so the next `decide` call in the same poll can diagnose a
    /// different concurrent fault from what remains.
    pub max_concurrent: usize,
    /// Reboot-storm damper: once a component has been microrebooted this
    /// many consecutive times (within `flap_window` of each other), an
    /// exponential backoff defers further microreboots of it. `0`
    /// disables the damper (the pre-hardening behaviour).
    pub storm_limit: u32,
    /// Base backoff of the storm damper; doubles with every strike past
    /// `storm_limit`.
    pub storm_backoff: SimDuration,
    /// Flap-driven escalation: a component microrebooted this many times
    /// within `flap_window` escalates the ladder instead of being
    /// microrebooted forever. `0` disables flap escalation.
    ///
    /// The window is deliberately longer than `observation`: a slow flap
    /// (one that recurs after the quiet period resets the ladder) is
    /// exactly the pattern the plain ladder cannot see.
    pub flap_limit: u32,
    /// Window over which same-component microreboots count as a flap.
    pub flap_window: SimDuration,
    /// Convergence watchdog: a failure episode older than this bound
    /// forces an extra escalation on every decision until it converges.
    /// `None` disables the watchdog.
    pub watchdog_bound: Option<SimDuration>,
}

impl Default for RmConfig {
    fn default() -> Self {
        RmConfig {
            score_threshold: 6.0,
            score_window: SimDuration::from_secs(10),
            detection_delay: SimDuration::ZERO,
            observation: SimDuration::from_secs(30),
            recurrence_limit: 8,
            recurrence_window: SimDuration::from_secs(120),
            max_concurrent: 1,
            storm_limit: 0,
            storm_backoff: SimDuration::from_secs(5),
            flap_limit: 0,
            flap_window: SimDuration::from_secs(300),
            watchdog_bound: None,
        }
    }
}

impl RmConfig {
    /// The hardened configuration every chaos campaign runs: storm
    /// damper, flap escalation and convergence watchdog all armed.
    pub fn hardened() -> Self {
        RmConfig {
            // A fault on a rarely-exercised op produces evidence at well
            // under one report per default window; a wider window lets
            // sparse evidence aggregate. Safe against self-flapping:
            // scores are cleared when an episode closes, and aftershocks
            // are settle-suppressed on ingest.
            score_window: SimDuration::from_secs(90),
            storm_limit: 3,
            storm_backoff: SimDuration::from_secs(10),
            flap_limit: 3,
            flap_window: SimDuration::from_secs(300),
            watchdog_bound: Some(SimDuration::from_secs(180)),
            ..RmConfig::default()
        }
    }
}

/// Lifetime counters.
///
/// A *view* over the manager's [`MetricsRegistry`]: the manager folds
/// every emitted [`TelemetryEvent`] into the registry and
/// [`RmStats::from_registry`] materialises the classic counter struct
/// from registry reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct RmStats {
    /// Reports received.
    pub reports: u64,
    /// EJB microreboots commanded.
    pub ejb_microreboots: u64,
    /// WAR microreboots commanded.
    pub war_microreboots: u64,
    /// Application restarts commanded.
    pub app_restarts: u64,
    /// Microreboot decisions deferred by the reboot-storm damper.
    pub storm_damped: u64,
    /// Escalations forced by flap detection.
    pub flap_escalations: u64,
}

impl RmStats {
    /// Reads the classic counter struct out of the manager's registry.
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        use simcore::symbol;
        RmStats {
            reports: reg.counter_sym(symbol::DETECTOR_FIRES),
            ejb_microreboots: reg.counter_sym(symbol::DECISIONS_EJB_MICROREBOOT),
            war_microreboots: reg.counter_sym(symbol::DECISIONS_WAR_MICROREBOOT),
            app_restarts: reg.counter_sym(symbol::DECISIONS_APP_RESTART),
            storm_damped: reg.counter_sym(symbol::STORM_DAMPED),
            flap_escalations: reg.counter_sym(symbol::FLAP_ESCALATIONS),
        }
    }
}

/// The recovery manager: telemetry plumbing around a hosted
/// [`RecoveryPolicy`].
///
/// One manager oversees a whole cluster; diagnosis state lives in the
/// policy, per node. The simulation forwards monitor reports via
/// [`RecoveryManager::report`], polls [`RecoveryManager::decide`], and
/// acknowledges completed actions via
/// [`RecoveryManager::recovery_finished`]. A crash keeps `choice`, `ctx`
/// and `store_evidence` and wipes only the policy's per-node state.
pub struct RecoveryManager {
    /// Registry identity: a ReHype reboot restarts the same policy.
    choice: PolicyChoice,
    policy: Box<dyn RecoveryPolicy>,
    /// The host's stable storage — configuration, registry, bus — lent to
    /// the policy on every call; `crash` wipes the policy, never this.
    ctx: PolicyCtx,
    /// An evidence tally for the run report, not diagnosis state.
    store_evidence: u64,
}

impl RecoveryManager {
    /// Creates a manager hosting the paper's ladder — the pinned-digest
    /// default, bit-identical to the pre-trait manager.
    pub fn new(nodes: usize, config: RmConfig, path_of: PathOf, web: &'static str) -> Self {
        Self::with_policy(PolicyChoice::Ladder, nodes, config, path_of, web, 0)
    }

    /// Creates a manager hosting the named policy.
    pub fn with_policy(
        choice: PolicyChoice,
        nodes: usize,
        config: RmConfig,
        path_of: PathOf,
        web: &'static str,
        seed: u64,
    ) -> Self {
        RecoveryManager {
            choice,
            policy: choice.build(nodes, seed),
            ctx: PolicyCtx {
                config,
                path_of,
                web,
                metrics: MetricsRegistry::new(),
                bus: None,
            },
            store_evidence: 0,
        }
    }

    /// Attaches a telemetry bus: every event the manager emits is
    /// forwarded to it (in addition to updating the local counters).
    ///
    /// Non-default policies announce themselves with a `PolicyArmed`
    /// event; the ladder stays silent so pinned baseline traces are
    /// byte-identical to the pre-trait manager's.
    pub fn attach_telemetry(&mut self, bus: SharedBus) {
        self.ctx.bus = Some(bus);
        if self.choice != PolicyChoice::Ladder {
            self.ctx.emit(TelemetryEvent::PolicyArmed {
                policy: self.choice.code(),
                at: SimTime::ZERO,
            });
        }
    }

    /// Returns lifetime counters (a view over the metrics registry).
    pub fn stats(&self) -> RmStats {
        RmStats::from_registry(&self.ctx.metrics)
    }

    /// Returns the manager's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.ctx.metrics
    }

    /// Actions issued on `node` still awaiting `recovery_finished`.
    pub fn in_flight(&self, node: usize) -> usize {
        self.policy.in_flight(node)
    }

    /// Ingests one failure report from a monitor.
    pub fn report(&mut self, r: &FailureReport) {
        self.ctx.emit(TelemetryEvent::DetectorFired {
            node: r.node,
            op: r.op.0,
            at: r.at,
        });
        // Store-attributed failures are evidence against the state store,
        // not the component that happened to touch it: feeding them to the
        // policy would microreboot a healthy EJB every time the SSM brick
        // or the node↔store link is the culprit (the paper's "recover the
        // faulty part, not the innocent bystander"). Tally and stop.
        if r.kind == FailureKind::StateStore {
            self.store_evidence += 1;
            return;
        }
        self.policy.observe(r);
    }

    /// Reports attributed to the state store rather than any component
    /// (withheld from the hosted policy).
    pub fn store_evidence(&self) -> u64 {
        self.store_evidence
    }

    /// Decides whether (and how) to recover `node` right now.
    ///
    /// Returns `None` while evidence is insufficient, detection is still
    /// within `Tdet`, or a recovery is already in flight.
    pub fn decide(&mut self, node: usize, now: SimTime) -> Option<RecoveryAction> {
        self.policy.decide(node, now, &mut self.ctx)
    }

    /// Marks a commanded recovery as finished, closing the episode.
    pub fn recovery_finished(&mut self, node: usize, now: SimTime) {
        self.policy.recovery_finished(node, now, &mut self.ctx);
    }

    /// The RM host crashes (ReHype): the hosted policy loses all volatile
    /// diagnosis state; the registry and bus (stable storage) survive.
    pub fn crash(&mut self, now: SimTime) {
        self.ctx.emit(TelemetryEvent::RmCrashed { at: now });
        self.policy.crash();
    }

    /// The RM host finishes rebooting and resumes duty.
    pub fn rebooted(&mut self, now: SimTime) {
        self.ctx.emit(TelemetryEvent::RmRebooted { at: now });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyLevel;
    use urb_core::OpCode;

    fn path(op: OpCode) -> &'static [&'static str] {
        match op.0 {
            0 => &["WAR", "Browse", "Item"],
            1 => &["WAR", "Bid", "Item"],
            2 => &["WAR", "Account"],
            _ => &["WAR"],
        }
    }

    fn rm(config: RmConfig) -> RecoveryManager {
        // Tests drive single-digit report volumes; pin a low threshold
        // (production default is tuned for 70 req/s noise floors).
        let config = RmConfig {
            score_threshold: 3.0,
            ..config
        };
        RecoveryManager::new(2, config, path, "WAR")
    }

    /// A manager whose ladder starts every episode on the `Human` rung.
    fn rm_at_human(config: RmConfig) -> RecoveryManager {
        let mut m = rm(config);
        m.policy = Box::new(crate::ladder::LadderPolicy::new(2, PolicyLevel::Human));
        m
    }

    fn rep(op: u16, node: usize, at: u64, kind: FailureKind) -> FailureReport {
        FailureReport {
            at: SimTime::from_secs(at),
            op: OpCode(op),
            kind,
            node,
            hint: None,
        }
    }

    #[test]
    fn no_action_below_threshold() {
        let mut m = rm(RmConfig::default());
        m.report(&rep(0, 0, 1, FailureKind::Http));
        assert_eq!(m.decide(0, SimTime::from_secs(1)), None);
    }

    #[test]
    fn scores_pick_the_common_component() {
        let mut m = rm(RmConfig::default());
        // Ops 0 and 1 both traverse Item; it should outscore Browse/Bid.
        m.report(&rep(0, 0, 1, FailureKind::Http));
        m.report(&rep(1, 0, 1, FailureKind::Http));
        m.report(&rep(0, 0, 2, FailureKind::Keyword));
        let action = m.decide(0, SimTime::from_secs(2)).unwrap();
        assert_eq!(action, RecoveryAction::microreboot(&["Item"]));
        assert_eq!(m.stats().ejb_microreboots, 1);
    }

    #[test]
    fn store_evidence_is_withheld_from_the_policy() {
        let mut m = rm(RmConfig::default());
        // A flood of store-attributed reports must not push any component
        // over the threshold: the store is the culprit, not the beans.
        for t in 0..10 {
            m.report(&rep(0, 0, t, FailureKind::StateStore));
        }
        assert_eq!(m.decide(0, SimTime::from_secs(10)), None);
        assert_eq!(m.store_evidence(), 10);
        // Reports still count as detector fires for the run record.
        assert_eq!(m.stats().reports, 10);
        // Component-attributed evidence still escalates as before.
        for _ in 0..3 {
            m.report(&rep(0, 0, 11, FailureKind::Http));
        }
        assert!(m.decide(0, SimTime::from_secs(11)).is_some());
    }

    #[test]
    fn busy_recovering_defers_new_actions() {
        let mut m = rm(RmConfig::default());
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
        }
        assert!(m.decide(0, SimTime::from_secs(1)).is_some());
        m.report(&rep(0, 0, 2, FailureKind::Http));
        assert_eq!(m.decide(0, SimTime::from_secs(2)), None, "in flight");
    }

    #[test]
    fn persistent_failures_escalate_the_ladder() {
        let mut m = rm(RmConfig::default());
        let mut t = 1;
        let mut labels = Vec::new();
        for _ in 0..5 {
            for _ in 0..3 {
                m.report(&rep(0, 0, t, FailureKind::Http));
            }
            let action = m.decide(0, SimTime::from_secs(t)).unwrap();
            labels.push(format!("{action:?}"));
            m.recovery_finished(0, SimTime::from_secs(t + 1));
            // New failures after the settle window but inside the
            // observation window.
            t += 6;
        }
        assert!(labels[0].contains("Microreboot"));
        assert!(labels[1].contains("WAR") || labels[1].contains("Microreboot"));
        assert!(labels[2].contains("RestartApp"));
        assert!(labels[3].contains("RestartProcess"));
        assert!(labels[4].contains("RebootOs"));
    }

    #[test]
    fn quiet_period_resets_the_ladder() {
        let mut m = rm(RmConfig::default());
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
        }
        m.decide(0, SimTime::from_secs(1)).unwrap();
        m.recovery_finished(0, SimTime::from_secs(2));
        // A long quiet spell, then a fresh failure burst.
        for _ in 0..3 {
            m.report(&rep(1, 0, 500, FailureKind::Http));
        }
        let action = m.decide(0, SimTime::from_secs(500)).unwrap();
        assert!(
            matches!(action, RecoveryAction::Microreboot { .. }),
            "ladder restarted at the cheapest rung"
        );
    }

    #[test]
    fn network_failures_jump_to_process_restart() {
        let mut m = rm(RmConfig::default());
        for _ in 0..4 {
            m.report(&rep(0, 0, 1, FailureKind::Network));
        }
        assert_eq!(
            m.decide(0, SimTime::from_secs(1)),
            Some(RecoveryAction::RestartProcess)
        );
    }

    #[test]
    fn detection_delay_postpones_action() {
        let mut m = rm(RmConfig {
            detection_delay: SimDuration::from_secs(10),
            ..RmConfig::default()
        });
        for _ in 0..5 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
        }
        assert_eq!(m.decide(0, SimTime::from_secs(5)), None, "within Tdet");
        assert!(m.decide(0, SimTime::from_secs(11)).is_some());
    }

    #[test]
    fn reboot_first_models_the_jvm_restart_baseline() {
        let mut m = rm(RmConfig::default());
        m.policy = PolicyChoice::RebootFirst.build(2, 0);
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
        }
        assert_eq!(
            m.decide(0, SimTime::from_secs(1)),
            Some(RecoveryAction::RestartProcess)
        );
    }

    #[test]
    fn recurring_episodes_notify_a_human() {
        let mut m = rm(RmConfig {
            recurrence_limit: 3,
            ..RmConfig::default()
        });
        let mut t = 1;
        let mut saw_human = false;
        for _ in 0..6 {
            for _ in 0..3 {
                m.report(&rep(0, 0, t, FailureKind::Http));
            }
            if m.decide(0, SimTime::from_secs(t)) == Some(RecoveryAction::NotifyHuman) {
                saw_human = true;
                break;
            }
            m.recovery_finished(0, SimTime::from_secs(t + 1));
            t += 6;
        }
        assert!(saw_human);
    }

    #[test]
    fn hardened_recurrence_pages_once_then_keeps_reviving_the_node() {
        // The un-hardened recurrence branch absorbs the policy: every page
        // acks as a completed episode, so once it trips it re-trips on
        // every poll, and a node that dies afterwards is never restarted.
        // With the watchdog armed the page is one-shot per recurrence
        // window and the ladder (including the dead-node Process floor)
        // keeps running underneath it.
        let mut m = rm(RmConfig {
            recurrence_limit: 2,
            recurrence_window: SimDuration::from_secs(1_000),
            watchdog_bound: Some(SimDuration::from_secs(100_000)),
            ..RmConfig::default()
        });
        let mut t = 1;
        loop {
            for _ in 0..3 {
                m.report(&rep(0, 0, t, FailureKind::Http));
            }
            let action = m.decide(0, SimTime::from_secs(t)).expect("enough evidence");
            m.recovery_finished(0, SimTime::from_secs(t + 1));
            t += 50;
            if action == RecoveryAction::NotifyHuman {
                break;
            }
        }
        // The node dies: every report is now a connection failure. The
        // already-paged manager must restart the process, not page again.
        for _ in 0..3 {
            m.report(&rep(0, 0, t, FailureKind::Network));
        }
        assert_eq!(
            m.decide(0, SimTime::from_secs(t)),
            Some(RecoveryAction::RestartProcess)
        );
    }

    #[test]
    fn dead_node_floor_restarts_process_even_at_human() {
        // Hardened: connection-dominated evidence at the Human rung drops
        // back to Process — a page cannot revive a dead JVM.
        let mut m = rm_at_human(RmConfig {
            watchdog_bound: Some(SimDuration::from_secs(100_000)),
            ..RmConfig::default()
        });
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Network));
        }
        assert_eq!(
            m.decide(0, SimTime::from_secs(1)),
            Some(RecoveryAction::RestartProcess)
        );
        // Un-hardened, the same evidence keeps paging (baseline pinned).
        let mut m = rm_at_human(RmConfig::default());
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Network));
        }
        assert_eq!(
            m.decide(0, SimTime::from_secs(1)),
            Some(RecoveryAction::NotifyHuman)
        );
    }

    #[test]
    fn parallel_mode_diagnoses_concurrent_faults_in_one_poll() {
        let mut m = rm(RmConfig {
            max_concurrent: 4,
            ..RmConfig::default()
        });
        // Two concurrent faults with disjoint evidence: op 0 (Browse/Item)
        // and op 2 (Account).
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
            m.report(&rep(2, 0, 1, FailureKind::Http));
        }
        let first = m.decide(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(first, RecoveryAction::microreboot(&["Account"]));
        // Issuing the first action consumed the Account evidence; the next
        // call in the same poll diagnoses the other stream.
        let second = m.decide(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(second, RecoveryAction::microreboot(&["Browse"]));
        assert_eq!(m.decide(0, SimTime::from_secs(1)), None, "evidence spent");
        // Both stay in flight until acknowledged.
        m.recovery_finished(0, SimTime::from_secs(2));
        m.recovery_finished(0, SimTime::from_secs(2));
    }

    #[test]
    fn hints_separate_overlapping_failure_streams() {
        let hrep = |op: u16, at: u64, hint: &'static str| FailureReport {
            hint: Some(components::CompName::intern(hint)),
            ..rep(op, 0, at, FailureKind::Keyword)
        };
        let mut m = rm(RmConfig {
            max_concurrent: 4,
            ..RmConfig::default()
        });
        // Ops 0 and 1 share Item, so path intersection alone would blame
        // Item; the error pages name the true culprits.
        for _ in 0..3 {
            m.report(&hrep(0, 1, "Browse"));
            m.report(&hrep(1, 1, "Bid"));
        }
        let first = m.decide(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(first, RecoveryAction::microreboot(&["Bid"]));
        let second = m.decide(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(second, RecoveryAction::microreboot(&["Browse"]));
    }

    #[test]
    fn serial_mode_ignores_hints() {
        let mut m = rm(RmConfig::default());
        for _ in 0..3 {
            m.report(&FailureReport {
                hint: Some(components::CompName::intern("Browse")),
                ..rep(1, 0, 1, FailureKind::Keyword)
            });
        }
        // max_concurrent = 1: the pre-conductor intersection diagnosis
        // must be reproduced exactly (Bid is on fewer paths than Item).
        let action = m.decide(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(action, RecoveryAction::microreboot(&["Bid"]));
    }

    #[test]
    fn storm_damper_defers_repeated_microreboots() {
        let mut m = rm(RmConfig {
            storm_limit: 2,
            storm_backoff: SimDuration::from_secs(100),
            ..RmConfig::default()
        });
        let mut t = 1;
        let mut issued = 0;
        for _ in 0..4 {
            for _ in 0..3 {
                m.report(&rep(0, 0, t, FailureKind::Http));
            }
            if m.decide(0, SimTime::from_secs(t)).is_some() {
                issued += 1;
                m.recovery_finished(0, SimTime::from_secs(t + 1));
            }
            // Recur outside settle + observation so the undamped ladder
            // would reset and re-microreboot forever.
            t += 40;
        }
        assert_eq!(issued, 2, "third and fourth attempts sit in backoff");
        assert!(m.stats().storm_damped >= 2);
    }

    #[test]
    fn flap_escalation_climbs_instead_of_re_microrebooting() {
        let mut m = rm(RmConfig {
            flap_limit: 2,
            flap_window: SimDuration::from_secs(600),
            ..RmConfig::default()
        });
        let mut t = 1;
        let mut actions = Vec::new();
        for _ in 0..6 {
            for _ in 0..3 {
                m.report(&rep(0, 0, t, FailureKind::Http));
            }
            if let Some(a) = m.decide(0, SimTime::from_secs(t)) {
                actions.push(a);
                m.recovery_finished(0, SimTime::from_secs(t + 1));
            }
            t += 40; // slow flap: each burst looks like a fresh episode
        }
        assert!(
            actions.contains(&RecoveryAction::RestartApp),
            "flap escalation must leave the microreboot rungs: {actions:?}"
        );
        let same_comp_urbs = actions
            .iter()
            .filter(|a| matches!(a, RecoveryAction::Microreboot { components } if components[0].as_str() == "Item"))
            .count();
        assert!(same_comp_urbs <= 2, "flap cap exceeded: {actions:?}");
        assert!(m.stats().flap_escalations >= 1);
    }

    #[test]
    fn watchdog_escalates_overlong_episodes() {
        let mut m = rm(RmConfig {
            watchdog_bound: Some(SimDuration::from_secs(10)),
            ..RmConfig::default()
        });
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
        }
        assert!(m.decide(0, SimTime::from_secs(1)).is_some());
        m.recovery_finished(0, SimTime::from_secs(2));
        // Still failing 19 s into the episode: the plain ladder would only
        // reach War; the watchdog forces one extra rung.
        for _ in 0..3 {
            m.report(&rep(0, 0, 20, FailureKind::Http));
        }
        assert_eq!(
            m.decide(0, SimTime::from_secs(20)),
            Some(RecoveryAction::RestartApp)
        );
        assert_eq!(
            m.metrics()
                .counter_sym(simcore::symbol::WATCHDOG_ESCALATIONS),
            1
        );
    }

    #[test]
    fn saturation_at_human_is_visible() {
        let mut m = rm(RmConfig {
            recurrence_limit: 100,
            ..RmConfig::default()
        });
        let mut t = 1;
        for _ in 0..8 {
            for _ in 0..3 {
                m.report(&rep(0, 0, t, FailureKind::Http));
            }
            let _ = m.decide(0, SimTime::from_secs(t));
            m.recovery_finished(0, SimTime::from_secs(t + 1));
            t += 6;
        }
        use simcore::symbol;
        assert!(
            m.metrics().counter_sym(symbol::ESCALATIONS_SATURATED) >= 1,
            "escalating past Human must be counted, not silent"
        );
        assert!(m.metrics().counter_sym(symbol::DECISIONS_NOTIFY_HUMAN) >= 2);
    }

    #[test]
    fn nodes_are_diagnosed_independently() {
        let mut m = rm(RmConfig::default());
        for _ in 0..3 {
            m.report(&rep(0, 1, 1, FailureKind::Http));
        }
        assert_eq!(m.decide(0, SimTime::from_secs(1)), None);
        assert!(m.decide(1, SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn rm_crash_wipes_volatile_state_and_absorbs_late_acks() {
        let mut m = rm(RmConfig::default());
        for _ in 0..3 {
            m.report(&rep(0, 0, 1, FailureKind::Http));
        }
        assert!(m.decide(0, SimTime::from_secs(1)).is_some());
        assert_eq!(m.in_flight(0), 1);
        // The RM host crashes mid-episode (ReHype): volatile state gone.
        m.crash(SimTime::from_secs(2));
        assert_eq!(m.in_flight(0), 0);
        m.rebooted(SimTime::from_secs(4));
        // A late ack for the pre-crash action lands on zero, safely.
        m.recovery_finished(0, SimTime::from_secs(5));
        assert_eq!(m.in_flight(0), 0);
        // The crash and reboot are visible in telemetry.
        use simcore::symbol;
        assert_eq!(m.metrics().counter_sym(symbol::RM_CRASHES), 1);
        assert_eq!(m.metrics().counter_sym(symbol::RM_REBOOTS), 1);
        // Fresh evidence re-converges from the bottom rung.
        for _ in 0..3 {
            m.report(&rep(0, 0, 40, FailureKind::Http));
        }
        assert!(matches!(
            m.decide(0, SimTime::from_secs(40)),
            Some(RecoveryAction::Microreboot { .. })
        ));
    }
}
