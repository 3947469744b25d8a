//! Deterministic randomized fault-injection campaigns (urb chaos).
//!
//! A campaign is a seeded sweep over the adversarial scenario space:
//! fault kind × target component × injection time × an optional second
//! fault landing mid-recovery × a flapping (re-injection) schedule ×
//! detector kind × recovery-manager concurrency. Every scenario is drawn
//! from a forked [`SimRng`] stream, so a campaign is a pure function of
//! `(seed, runs)` — re-running it must reproduce every run bit-for-bit,
//! which is what lets the harness assert digest equality as an invariant.
//!
//! The module only *describes* scenarios; executing them against a
//! `cluster::Sim` lives in `urb chaos` (crates/bench), keeping this crate free
//! of a dependency cycle with the cluster layer.

use simcore::rng::SimRng;
use statestore::session::CorruptKind;

use crate::kind::{draw, FaultKind, Tier};
use crate::Fault;

/// A second fault injected while the system is (likely) still recovering
/// from the first — the overlapping-failure case.
#[derive(Clone, Copy, Debug)]
pub struct SecondFault {
    /// The fault to inject.
    pub fault: Fault,
    /// Absolute injection time, seconds into the run. Drawn close behind
    /// the first fault so it lands inside the recovery episode.
    pub at_s: u64,
}

/// A flapping schedule: the primary fault is re-injected after each
/// recovery, so the same component keeps failing until the policy either
/// escalates past the microreboot level or damps the reboot storm.
#[derive(Clone, Copy, Debug)]
pub struct FlapSchedule {
    /// How many times the fault recurs after the initial injection.
    pub recurrences: u32,
    /// Gap between recurrences, seconds. Longer than a microreboot +
    /// settle window, so each recurrence lands on a "recovered" system.
    pub gap_s: u64,
}

/// A crash of the recovery manager's own host mid-run (ReHype-style):
/// the RM loses its volatile diagnosis state and drops reports and
/// acknowledgements until it reboots `outage_s` later.
#[derive(Clone, Copy, Debug)]
pub struct RmCrashSchedule {
    /// Absolute crash time, seconds into the run.
    pub at_s: u64,
    /// How long the RM stays down, seconds.
    pub outage_s: u64,
}

/// One deterministic campaign scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Run index within the campaign.
    pub run: u64,
    /// Seed for the run's `cluster::Sim` (clients, service times, …).
    pub sim_seed: u64,
    /// The primary fault.
    pub fault: Fault,
    /// When the primary fault is injected, seconds into the run.
    pub inject_at_s: u64,
    /// Optional second fault landing mid-recovery.
    pub second: Option<SecondFault>,
    /// Optional flapping schedule for the primary fault.
    pub flap: Option<FlapSchedule>,
    /// Run with the comparison detector instead of the simple one.
    pub comparison_detector: bool,
    /// Run with a concurrency-4 recovery manager behind the conductor
    /// instead of the serial manager.
    pub parallel_rm: bool,
    /// Optional mid-run crash of the RM itself. `None` in the classic
    /// campaign (so its pinned digests never move); the policy tournament
    /// schedules it on a fraction of runs.
    pub rm_crash: Option<RmCrashSchedule>,
    /// Arm the budgeted client-side retry policy (exponential backoff
    /// with jitter) instead of no client retries. Only the netstate
    /// campaign sets this; the classic generators leave it off so their
    /// pinned digests never move.
    pub budgeted_retry: bool,
}

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Number of scenarios to generate.
    pub runs: u64,
}

/// Draws from `tier` until the fault is of the kind a round-robin over
/// the tier's kinds assigns to `run` — deterministic, and every draw still
/// flows through the tier's one distribution.
fn draw_round_robin(tier: Tier, run: u64, rng: &mut SimRng) -> Fault {
    let kinds = FaultKind::tier_kinds(tier);
    let want = kinds[(run % kinds.len() as u64) as usize];
    loop {
        let fault = draw(tier, rng);
        if fault.kind() == want {
            return fault;
        }
    }
}

/// True if the scenario's goodput is expected to return to (near)
/// steady-state once recovery converges. Faults whose damage can outlive
/// any reboot — database corruption, the wrong-value divergence rows the
/// paper marks ≈, bit flips, or a persistent code-bug leak — are excluded
/// from the availability invariant (but still run under all the
/// structural ones).
pub fn goodput_recovers(fault: &Fault) -> bool {
    !matches!(
        fault,
        Fault::CorruptDb { .. }
            | Fault::CorruptPrimaryKeys {
                kind: CorruptKind::SetWrong
            }
            | Fault::CorruptTxnMap {
                kind: CorruptKind::SetWrong,
                ..
            }
            | Fault::CorruptBeanAttrs {
                kind: CorruptKind::SetWrong,
                ..
            }
            | Fault::CorruptFastS {
                kind: CorruptKind::SetWrong
            }
            | Fault::AppMemoryLeak {
                persistent: true,
                ..
            }
            | Fault::BitFlipMemory
            | Fault::BitFlipRegisters
    )
}

/// Generates the campaign's scenarios: a pure, deterministic function of
/// the config. Each run gets a forked rng stream, so inserting a new draw
/// into one scenario never shifts the scenarios after it.
pub fn scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    let mut master = SimRng::seed_from(cfg.seed ^ 0xc4a0_5eed_0000_0000);
    (0..cfg.runs)
        .map(|run| {
            let mut rng = master.fork();
            let fault = draw(Tier::Classic, &mut rng);
            let inject_at_s = 8 + rng.uniform_u64(8);
            let second = if rng.chance(0.30) {
                Some(SecondFault {
                    fault: draw(Tier::Classic, &mut rng),
                    // Lands 2–10 s behind the first fault: inside the
                    // detection + reboot window of every recovery level.
                    at_s: inject_at_s + 2 + rng.uniform_u64(8),
                })
            } else {
                None
            };
            let flap = if fault.kind().flappable() && rng.chance(0.35) {
                Some(FlapSchedule {
                    recurrences: 1 + rng.uniform_u64(3) as u32,
                    gap_s: 35 + rng.uniform_u64(15),
                })
            } else {
                None
            };
            Scenario {
                run,
                sim_seed: cfg.seed ^ (run + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                fault,
                inject_at_s,
                second,
                flap,
                comparison_detector: rng.chance(0.5),
                parallel_rm: rng.chance(0.4),
                rm_crash: None,
                budgeted_retry: false,
            }
        })
        .collect()
}

/// Generates the policy-tournament scenarios: like [`scenarios`], but the
/// fault kind is forced round-robin over the classic tier's kinds so a
/// small per-policy matrix still covers every kind, the RM is always
/// serial (policies own their escalation, the conductor stays out of the
/// comparison), and a quarter of the runs crash the RM itself mid-run.
/// Equally deterministic: a pure function of the config.
pub fn tournament_scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    let mut master = SimRng::seed_from(cfg.seed ^ 0x70ac_4a3e_0000_0000);
    (0..cfg.runs)
        .map(|run| {
            let mut rng = master.fork();
            let fault = draw_round_robin(Tier::Classic, run, &mut rng);
            let inject_at_s = 8 + rng.uniform_u64(8);
            let second = if rng.chance(0.25) {
                Some(SecondFault {
                    fault: draw(Tier::Classic, &mut rng),
                    at_s: inject_at_s + 2 + rng.uniform_u64(8),
                })
            } else {
                None
            };
            let flap = if fault.kind().flappable() && rng.chance(0.5) {
                Some(FlapSchedule {
                    recurrences: 1 + rng.uniform_u64(3) as u32,
                    gap_s: 35 + rng.uniform_u64(15),
                })
            } else {
                None
            };
            let rm_crash = if rng.chance(0.25) {
                Some(RmCrashSchedule {
                    at_s: inject_at_s + 1 + rng.uniform_u64(20),
                    outage_s: 10 + rng.uniform_u64(30),
                })
            } else {
                None
            };
            Scenario {
                run,
                sim_seed: cfg.seed ^ (run + 1).wrapping_mul(0x517c_c1b7_2722_0a95),
                fault,
                inject_at_s,
                second,
                flap,
                comparison_detector: rng.chance(0.5),
                parallel_rm: false,
                rm_crash,
                budgeted_retry: false,
            }
        })
        .collect()
}

/// Generates the degraded campaign matrix: every run injects a fail-slow
/// [`Fault::Degraded`], and a fraction re-inject it after recovery (the
/// warm-restart-residual scenario — each microreboot leaves the slowdown
/// behind, so the ladder must climb). A pure function of the config,
/// with forked per-run streams like [`scenarios`].
pub fn degraded_scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    let mut master = SimRng::seed_from(cfg.seed ^ 0xd39d_4ded_0000_0000);
    (0..cfg.runs)
        .map(|run| {
            let mut rng = master.fork();
            let fault = draw(Tier::Degraded, &mut rng);
            // Injection lands after the perf plane's default 30 s
            // baseline freeze: a fail-slow fault is only detectable
            // against a frozen pre-fault snapshot.
            let inject_at_s = 35 + rng.uniform_u64(10);
            let flap = if rng.chance(0.30) {
                Some(FlapSchedule {
                    recurrences: 1 + rng.uniform_u64(2) as u32,
                    gap_s: 35 + rng.uniform_u64(15),
                })
            } else {
                None
            };
            Scenario {
                run,
                sim_seed: cfg.seed ^ (run + 1).wrapping_mul(0xa076_1d64_78bd_642f),
                fault,
                inject_at_s,
                second: None,
                flap,
                comparison_detector: false,
                parallel_rm: false,
                rm_crash: None,
                budgeted_retry: false,
            }
        })
        .collect()
}

/// Generates the netstate campaign matrix: every run injects one
/// state-plane or network fault, round-robin over the tier's kinds so even a
/// small matrix covers the whole tier, with half the runs arming the
/// budgeted client retry policy. A pure function of the config, with
/// forked per-run streams like [`scenarios`].
pub fn netstate_scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    let mut master = SimRng::seed_from(cfg.seed ^ 0x4e75_7a7e_0000_0000);
    (0..cfg.runs)
        .map(|run| {
            let mut rng = master.fork();
            let fault = draw_round_robin(Tier::Netstate, run, &mut rng);
            let inject_at_s = 8 + rng.uniform_u64(8);
            Scenario {
                run,
                sim_seed: cfg.seed ^ (run + 1).wrapping_mul(0x2545_f491_4f6c_dd1d),
                fault,
                inject_at_s,
                second: None,
                flap: None,
                comparison_detector: rng.chance(0.5),
                parallel_rm: false,
                rm_crash: None,
                budgeted_retry: rng.chance(0.5),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DEGRADED_TARGETS;
    use crate::NetEdge;

    #[test]
    fn scenarios_are_deterministic() {
        let cfg = CampaignConfig { seed: 7, runs: 64 };
        let a = scenarios(&cfg);
        let b = scenarios(&cfg);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn campaign_covers_the_adversarial_kinds() {
        // 200 runs at the acceptance seed must exercise the paper's
        // catalogue *and* the adversarial extensions.
        let cfg = CampaignConfig { seed: 7, runs: 200 };
        let all = scenarios(&cfg);
        let has = |pred: &dyn Fn(&Fault) -> bool| {
            all.iter()
                .any(|s| pred(&s.fault) || s.second.is_some_and(|sf| pred(&sf.fault)))
        };
        assert!(has(&|f| matches!(f, Fault::Intermittent { .. })));
        assert!(has(&|f| matches!(f, Fault::SpuriousReports { .. })));
        assert!(has(&|f| matches!(f, Fault::Deadlock { .. })));
        assert!(has(&|f| matches!(f, Fault::CorruptDb { .. })));
        assert!(has(&|f| matches!(f, Fault::MemLeakExtraJvm { .. })));
        assert!(has(&|f| matches!(f, Fault::BitFlipRegisters)));
        assert!(all.iter().any(|s| s.flap.is_some()), "flapping covered");
        assert!(
            all.iter().any(|s| s.second.is_some()),
            "fault-during-recovery covered"
        );
        assert!(
            all.iter().any(|s| s.comparison_detector) && all.iter().any(|s| !s.comparison_detector)
        );
        assert!(all.iter().any(|s| s.parallel_rm) && all.iter().any(|s| !s.parallel_rm));
    }

    #[test]
    fn tournament_round_robin_covers_every_fault_kind() {
        let cfg = CampaignConfig { seed: 7, runs: 18 };
        let all = tournament_scenarios(&cfg);
        let kinds: Vec<FaultKind> = all.iter().map(|s| s.fault.kind()).collect();
        assert_eq!(kinds, FaultKind::tier_kinds(Tier::Classic));
        assert!(
            all.iter().all(|s| !s.parallel_rm),
            "tournament RM is serial"
        );
        // Determinism: same config, same scenarios.
        let again = tournament_scenarios(&cfg);
        for (x, y) in all.iter().zip(&again) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn tournament_schedules_rm_crashes_on_a_fraction_of_runs() {
        let cfg = CampaignConfig { seed: 7, runs: 100 };
        let all = tournament_scenarios(&cfg);
        let crashes = all.iter().filter(|s| s.rm_crash.is_some()).count();
        assert!(crashes > 5 && crashes < 50, "got {crashes} rm crashes");
        for s in &all {
            if let Some(c) = s.rm_crash {
                assert!(c.outage_s >= 10);
                assert!(c.at_s > s.inject_at_s);
            }
        }
    }

    #[test]
    fn degraded_scenarios_are_deterministic_and_all_fail_slow() {
        let cfg = CampaignConfig { seed: 7, runs: 48 };
        let a = degraded_scenarios(&cfg);
        let b = degraded_scenarios(&cfg);
        assert_eq!(a.len(), 48);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        for s in &a {
            match s.fault {
                Fault::Degraded {
                    factor_permille, ..
                } => {
                    assert!((3000..=6000).contains(&factor_permille));
                }
                other => panic!("degraded campaign drew {other:?}"),
            }
            assert!(
                (35..45).contains(&s.inject_at_s),
                "injection must land after the 30 s baseline freeze"
            );
            assert!(s.second.is_none() && s.rm_crash.is_none() && !s.parallel_rm);
        }
        assert!(a.iter().any(|s| s.flap.is_some()), "residual flap covered");
        // Every target component is eventually drawn.
        let mut hit: Vec<&str> = a
            .iter()
            .map(|s| match s.fault {
                Fault::Degraded { component, .. } => component,
                _ => unreachable!(),
            })
            .collect();
        hit.sort_unstable();
        hit.dedup();
        assert_eq!(
            hit.len(),
            DEGRADED_TARGETS.len(),
            "all hot-path targets covered: {hit:?}"
        );
        assert!(
            hit.iter().all(|c| DEGRADED_TARGETS.contains(c)),
            "only hot-path targets drawn: {hit:?}"
        );
    }

    #[test]
    fn netstate_round_robin_covers_the_whole_tier() {
        let cfg = CampaignConfig { seed: 7, runs: 32 };
        let all = netstate_scenarios(&cfg);
        let tier = FaultKind::tier_kinds(Tier::Netstate);
        let kinds: Vec<FaultKind> = all.iter().map(|s| s.fault.kind()).collect();
        assert_eq!(kinds, tier.repeat(32 / tier.len()));
        // Both client populations are represented.
        assert!(all.iter().any(|s| s.budgeted_retry) && all.iter().any(|s| !s.budgeted_retry));
        // Both faultable edges are represented.
        let edges: Vec<NetEdge> = all
            .iter()
            .filter_map(|s| match s.fault {
                Fault::LinkPartition { edge, .. }
                | Fault::LinkLossy { edge, .. }
                | Fault::LinkDelay { edge, .. }
                | Fault::LinkDupe { edge, .. } => Some(edge),
                _ => None,
            })
            .collect();
        assert!(edges.contains(&NetEdge::LbNode) && edges.contains(&NetEdge::NodeStore));
        // Structural knobs the netstate campaign never uses stay off.
        for s in &all {
            assert!(s.second.is_none() && s.flap.is_none() && s.rm_crash.is_none());
            assert!(!s.parallel_rm);
            assert!((8..16).contains(&s.inject_at_s));
        }
        // Determinism: same config, same scenarios.
        let again = netstate_scenarios(&cfg);
        for (x, y) in all.iter().zip(&again) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn classic_generators_never_arm_client_retries() {
        let cfg = CampaignConfig { seed: 7, runs: 50 };
        assert!(scenarios(&cfg).iter().all(|s| !s.budgeted_retry));
        assert!(tournament_scenarios(&cfg).iter().all(|s| !s.budgeted_retry));
        assert!(degraded_scenarios(&cfg).iter().all(|s| !s.budgeted_retry));
    }

    #[test]
    fn flapping_only_targets_microreboot_curable_faults() {
        let cfg = CampaignConfig {
            seed: 11,
            runs: 300,
        };
        for s in scenarios(&cfg) {
            if s.flap.is_some() {
                assert!(s.fault.kind().flappable(), "{:?} cannot flap", s.fault);
            }
        }
    }
}
