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
//! The campaigns differ only in data: each is a `Draws` row (`CLASSIC`,
//! `TOURNAMENT`, `DEGRADED`, `NETSTATE`) read by the one per-run loop,
//! `generate`, behind [`scenarios`], [`tournament_scenarios`],
//! [`degraded_scenarios`] and [`netstate_scenarios`]; and a scenario's
//! injections are walked in one place, [`Scenario::schedule`].
//!
//! The module only *describes* scenarios; executing them against a
//! `cluster::Sim` lives in `urb chaos` (crates/bench), keeping this crate free
//! of a dependency cycle with the cluster layer.

use simcore::rng::SimRng;

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
    /// Run with a concurrency-4 recovery manager behind a cap-4,
    /// quarantining conductor instead of the serial schedule.
    pub parallel_rm: bool,
    /// Optional mid-run crash of the RM itself. Only the policy
    /// tournament schedules it, on a fraction of runs.
    pub rm_crash: Option<RmCrashSchedule>,
    /// Arm the budgeted client-side retry policy (exponential backoff
    /// with jitter) instead of no client retries. Only the netstate
    /// campaign sets this.
    pub budgeted_retry: bool,
}

/// One step of a scenario's injection schedule (see [`Scenario::schedule`]).
#[derive(Clone, Copy, Debug)]
pub enum Injection {
    /// Inject the fault into node 0: the primary or the second fault.
    Fault(Fault),
    /// Re-inject the primary fault into node 0 if it is up: one flap
    /// recurrence.
    Recurrence(Fault),
    /// Crash the recovery manager.
    RmCrash(RmCrashSchedule),
}

impl Scenario {
    /// Everything the scenario injects, as `(second, injection)`: the
    /// primary fault, the second fault, the RM crash, then the flap
    /// recurrences. The runner schedules them in this order and
    /// same-time events fire in insertion order, so the order is part of
    /// every pinned campaign digest.
    pub fn schedule(&self) -> impl Iterator<Item = (u64, Injection)> {
        let (fault, at_s) = (self.fault, self.inject_at_s);
        let recurrences = self.flap.into_iter().flat_map(move |f| {
            (1..=u64::from(f.recurrences))
                .map(move |k| (at_s + k * f.gap_s, Injection::Recurrence(fault)))
        });
        [
            Some((at_s, Injection::Fault(fault))),
            self.second.map(|sf| (sf.at_s, Injection::Fault(sf.fault))),
            self.rm_crash.map(|c| (c.at_s, Injection::RmCrash(c))),
        ]
        .into_iter()
        .flatten()
        .chain(recurrences)
    }
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

/// What one campaign draws for each run: everything the four campaigns
/// differ in is a value of this row, and `generate` is their one
/// per-run loop. An item with probability `0.0` draws nothing
/// ([`SimRng::chance`] consumes no randomness at the bounds), so a
/// campaign that never arms an item spends no draw on it and rows can be
/// added without moving another campaign's scenarios.
struct Draws {
    /// XORed into the master seed: each campaign's stream of its own.
    salt: u64,
    /// Run `r`'s `sim_seed` is `seed ^ (r + 1) * seed_mul`.
    seed_mul: u64,
    /// The tier the primary (and any second) fault is drawn from.
    tier: Tier,
    /// Force the primary fault's kind round-robin over the tier's kinds,
    /// so even a small matrix covers the whole tier.
    round_robin: bool,
    /// The primary injection lands at `start + uniform(span)` seconds.
    inject: (u64, u64),
    /// Probability of a second fault landing mid-recovery.
    second: f64,
    /// Probability that a flappable primary fault recurs.
    flap: f64,
    /// A flap recurs `1 + uniform(flap_max)` times.
    flap_max: u64,
    /// Probability of a mid-run recovery-manager crash.
    rm_crash: f64,
    /// Probability of the comparison detector.
    comparison: f64,
    /// Probability of the concurrency-4 RM behind the conductor.
    parallel_rm: f64,
    /// Probability of the budgeted client retry policy.
    budgeted_retry: f64,
}

/// The classic campaign: every classic-tier fault, overlapping second
/// faults, flaps, both detectors and both RM shapes.
const CLASSIC: Draws = Draws {
    salt: 0xc4a0_5eed_0000_0000,
    seed_mul: 0x9e37_79b9_7f4a_7c15,
    tier: Tier::Classic,
    round_robin: false,
    inject: (8, 8),
    second: 0.30,
    flap: 0.35,
    flap_max: 3,
    rm_crash: 0.0,
    comparison: 0.5,
    parallel_rm: 0.4,
    budgeted_retry: 0.0,
};

/// The policy tournament: like `CLASSIC`, but the fault kind is
/// round-robin so a small per-policy matrix covers every kind, the RM is
/// always serial (policies own their escalation; the conductor stays at
/// cap 1), and a quarter of the runs crash the RM mid-run.
const TOURNAMENT: Draws = Draws {
    salt: 0x70ac_4a3e_0000_0000,
    seed_mul: 0x517c_c1b7_2722_0a95,
    round_robin: true,
    second: 0.25,
    flap: 0.5,
    rm_crash: 0.25,
    parallel_rm: 0.0,
    ..CLASSIC
};

/// The degraded campaign: every run injects a fail-slow
/// [`Fault::Degraded`], and some re-inject it after recovery (the
/// warm-restart residual: each microreboot leaves the slowdown behind,
/// so the ladder must climb). The injection lands after the perf plane's
/// 30 s baseline freeze: a fail-slow fault is only detectable against a
/// frozen pre-fault snapshot.
const DEGRADED: Draws = Draws {
    salt: 0xd39d_4ded_0000_0000,
    seed_mul: 0xa076_1d64_78bd_642f,
    tier: Tier::Degraded,
    inject: (35, 10),
    second: 0.0,
    flap: 0.30,
    flap_max: 2,
    comparison: 0.0,
    parallel_rm: 0.0,
    ..CLASSIC
};

/// The netstate campaign: one state-plane or network fault per run,
/// round-robin over the tier, with half the runs arming the budgeted
/// client retry policy.
const NETSTATE: Draws = Draws {
    salt: 0x4e75_7a7e_0000_0000,
    seed_mul: 0x2545_f491_4f6c_dd1d,
    tier: Tier::Netstate,
    round_robin: true,
    second: 0.0,
    flap: 0.0,
    parallel_rm: 0.0,
    budgeted_retry: 0.5,
    ..CLASSIC
};

/// Generates a campaign's scenarios: a pure, deterministic function of
/// the row and the config. Each run gets a forked rng stream, so inserting
/// a new draw into one scenario never shifts the scenarios after it.
fn generate(d: &Draws, cfg: &CampaignConfig) -> Vec<Scenario> {
    let mut master = SimRng::seed_from(cfg.seed ^ d.salt);
    (0..cfg.runs)
        .map(|run| {
            let mut rng = master.fork();
            let fault = if d.round_robin {
                draw_round_robin(d.tier, run, &mut rng)
            } else {
                draw(d.tier, &mut rng)
            };
            let inject_at_s = d.inject.0 + rng.uniform_u64(d.inject.1);
            let second = rng.chance(d.second).then(|| SecondFault {
                fault: draw(d.tier, &mut rng),
                // Lands 2–10 s behind the first fault: inside the
                // detection + reboot window of every recovery level.
                at_s: inject_at_s + 2 + rng.uniform_u64(8),
            });
            let flap = (fault.kind().flappable() && rng.chance(d.flap)).then(|| FlapSchedule {
                recurrences: 1 + rng.uniform_u64(d.flap_max) as u32,
                gap_s: 35 + rng.uniform_u64(15),
            });
            let rm_crash = rng.chance(d.rm_crash).then(|| RmCrashSchedule {
                at_s: inject_at_s + 1 + rng.uniform_u64(20),
                outage_s: 10 + rng.uniform_u64(30),
            });
            Scenario {
                run,
                sim_seed: cfg.seed ^ (run + 1).wrapping_mul(d.seed_mul),
                fault,
                inject_at_s,
                second,
                flap,
                comparison_detector: rng.chance(d.comparison),
                parallel_rm: rng.chance(d.parallel_rm),
                rm_crash,
                budgeted_retry: rng.chance(d.budgeted_retry),
            }
        })
        .collect()
}

/// The classic campaign's scenarios (`CLASSIC`).
pub fn scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    generate(&CLASSIC, cfg)
}

/// The policy tournament's scenarios (`TOURNAMENT`).
pub fn tournament_scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    generate(&TOURNAMENT, cfg)
}

/// The degraded campaign's scenarios (`DEGRADED`).
pub fn degraded_scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    generate(&DEGRADED, cfg)
}

/// The netstate campaign's scenarios (`NETSTATE`).
pub fn netstate_scenarios(cfg: &CampaignConfig) -> Vec<Scenario> {
    generate(&NETSTATE, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DEGRADED_TARGETS;
    use crate::NetEdge;

    /// Every campaign's row; only the last arms client retries.
    const ROWS: [&Draws; 4] = [&CLASSIC, &TOURNAMENT, &DEGRADED, &NETSTATE];

    #[test]
    fn scenarios_are_deterministic() {
        let cfg = CampaignConfig { seed: 7, runs: 64 };
        for draws in ROWS {
            let a = generate(draws, &cfg);
            assert_eq!(a.len(), 64);
            assert_eq!(format!("{a:?}"), format!("{:?}", generate(draws, &cfg)));
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
        assert_eq!(a.len(), 48);
        assert_eq!(format!("{a:?}"), format!("{:?}", degraded_scenarios(&cfg)));
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
    }

    #[test]
    fn classic_generators_never_arm_client_retries() {
        let cfg = CampaignConfig { seed: 7, runs: 50 };
        for draws in &ROWS[..3] {
            assert!(generate(draws, &cfg).iter().all(|s| !s.budgeted_retry));
        }
    }

    #[test]
    fn flapping_only_targets_microreboot_curable_faults() {
        let cfg = CampaignConfig {
            seed: 11,
            runs: 300,
        };
        for draws in ROWS {
            let all = generate(draws, &cfg);
            for s in &all {
                if s.flap.is_some() {
                    assert!(s.fault.kind().flappable(), "{:?} cannot flap", s.fault);
                }
            }
            // A campaign that flaps at all flaps some of its runs.
            assert_eq!(draws.flap > 0.0, all.iter().any(|s| s.flap.is_some()));
        }
    }
}
