//! The netstate campaign's share of the chaos runner: how its scenarios
//! run, and the session-integrity stage
//! [`run_scenario`](crate::chaos::run_scenario) runs when
//! [`RunOptions::integrity`] is set.
//!
//! Where the classic campaign asks "does recovery converge?", netstate
//! asks "did recovery *preserve the data*?". Every run is a two-node SSM
//! failover cluster with one [`IntegrityLedger`] between the client pool
//! (commit intents) and the store (applied ids, expiries, removals); one
//! store-tier or link-tier fault from
//! [`faults::Tier::Netstate`] is injected and heals, and then:
//!
//! 1. **No committed write lost** — every session an end user saw commit
//!    is still probeable in the store, or disappeared through an
//!    accounted path (lease expiry, logout).
//! 2. **No write applied twice** — a duplicated wire delivery must be
//!    discarded by the store's applied-id check, never re-mutate state.
//! 3. **No stale lease served** — reads past a lease's expiry are a
//!    protocol violation, storm or not.
//! 4. **Store blame stays off the ladder** — store-tier evidence is
//!    tallied by the recovery manager but withheld from the policy, so a
//!    sick store never earns a healthy component a microreboot.
//!
//! on top of the structural and goodput stages every campaign shares
//! (every netstate fault heals, so goodput must recover) and, under
//! `--strict`, bit-identical digest reproduction on re-run.

use cluster::World;
use faults::campaign::Scenario;
use faults::{Fault, NetEdge};
use simcore::{MetricsRegistry, SimDuration};
use statestore::{IntegrityLedger, SessionId};
use workload::RetryPolicy;

use crate::chaos::RunOptions;

/// The budgeted retry policy the campaign's retry arm runs under: a
/// small per-request budget with exponential backoff from 250 ms, capped
/// at 8 s. Amplification stays under 2x even when every attempt fails.
pub(crate) fn budgeted_policy() -> RetryPolicy {
    RetryPolicy::Budgeted {
        budget: 4,
        base: SimDuration::from_millis(250),
        cap: SimDuration::from_secs(8),
    }
}

/// How a netstate scenario runs.
pub fn options(s: &Scenario) -> RunOptions {
    RunOptions {
        nodes: 2,
        retry: if s.budgeted_retry {
            budgeted_policy()
        } else {
            RetryPolicy::None
        },
        integrity: true,
        ..RunOptions::default()
    }
}

/// What the integrity plane observed over one netstate run.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntegrityOutcome {
    /// Commit intents the ledger recorded (client-visible commits over
    /// sessions with at least one applied write).
    pub commit_intents: u64,
    /// Duplicate wire deliveries the store discarded (the dupe defense
    /// firing, not failing).
    pub dupes_discarded: u64,
    /// Store-tier failure reports the recovery manager withheld from the
    /// policy instead of blaming a component.
    pub store_evidence: u64,
    /// Client retries issued under the run's retry policy.
    pub retries_issued: u64,
    /// Client operations that reached a terminal outcome (ok or failed).
    /// Retried attempts are not terminal, so attempt amplification is
    /// `(total_ops + retries_issued) / total_ops`.
    pub total_ops: u64,
}

/// Session-integrity invariants, checked ledger-against-store on the
/// finished run.
pub(crate) fn integrity_stage(
    s: &Scenario,
    led: &IntegrityLedger,
    reg: &MetricsRegistry,
    world: &World,
    violations: &mut Vec<String>,
) -> IntegrityOutcome {
    let ssm = world.ssm.as_ref().expect("the integrity plane runs on SSM");
    let store = ssm.borrow();
    let lost = led
        .committed_sessions()
        .filter(|&sid| !store.probe(SessionId(sid)) && !led.accounted_gone(sid))
        .count();
    if lost > 0 {
        violations.push(format!(
            "{lost} committed session(s) vanished from the store unaccounted"
        ));
    }
    if led.double_applied() > 0 {
        violations.push(format!(
            "{} write(s) applied twice despite the applied-id check",
            led.double_applied()
        ));
    }
    if led.stale_serves() > 0 {
        violations.push(format!(
            "{} read(s) served state past its lease expiry",
            led.stale_serves()
        ));
    }
    if matches!(
        s.fault,
        Fault::LinkDupe {
            edge: NetEdge::NodeStore,
            ..
        }
    ) && led.dupes_discarded() == 0
    {
        violations.push("node-store dupe fault ran but the dupe defense never fired".into());
    }
    // A store-tier fault leaves the cluster's nodes healthy, so any reboot
    // the ladder starts is misdirected recovery.
    let store_tier = matches!(
        s.fault,
        Fault::BrickCrash { .. }
            | Fault::BrickCorrupt { .. }
            | Fault::LeaseStorm
            | Fault::StoreSlow { .. }
    );
    let reboots_begun = reg.counter("reboots_begun");
    if store_tier && reboots_begun > 0 {
        violations.push(format!(
            "store-tier fault drew {reboots_begun} reboot(s) onto healthy components"
        ));
    }
    IntegrityOutcome {
        commit_intents: led.total_intents(),
        dupes_discarded: led.dupes_discarded(),
        store_evidence: world
            .rm
            .as_ref()
            .map_or(0, recovery::RecoveryManager::store_evidence),
        retries_issued: world.pool.retries_issued(),
        total_ops: reg.counter("client_ops"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::run_scenario;
    use faults::campaign::{netstate_scenarios, CampaignConfig};

    fn scenario_matching(pred: impl Fn(&Scenario) -> bool) -> Scenario {
        netstate_scenarios(&CampaignConfig { seed: 7, runs: 64 })
            .into_iter()
            .find(|s| pred(s))
            .expect("64 seeded draws cover every scenario shape")
    }

    #[test]
    fn a_store_tier_run_holds_every_integrity_invariant() {
        let s = scenario_matching(|s| matches!(s.fault, Fault::BrickCrash { .. }));
        let out = run_scenario(&s, &options(&s));
        assert_eq!(out.violations, Vec::<String>::new());
        let integrity = out.integrity.expect("integrity plane armed");
        assert!(integrity.commit_intents > 0, "clients committed work");
    }

    #[test]
    fn a_node_store_dupe_run_exercises_the_dupe_defense() {
        let s = scenario_matching(|s| {
            matches!(
                s.fault,
                Fault::LinkDupe {
                    edge: NetEdge::NodeStore,
                    ..
                }
            )
        });
        let out = run_scenario(&s, &options(&s));
        assert_eq!(out.violations, Vec::<String>::new());
        let integrity = out.integrity.expect("integrity plane armed");
        assert!(integrity.dupes_discarded > 0, "dupe defense fired");
    }

    #[test]
    fn netstate_runs_reproduce_their_digest() {
        let s = scenario_matching(|s| matches!(s.fault, Fault::LinkPartition { .. }));
        let a = run_scenario(&s, &options(&s));
        let b = run_scenario(&s, &options(&s));
        assert_eq!(a.digest, b.digest);
    }

    /// The retry-storm regression. Link faults fail *slowly* (the client
    /// timeout paces every attempt), so the storm case needs a fault
    /// that fails *fast*: a component throwing on every call returns an
    /// HTTP error in milliseconds, and a naive immediate-retry client
    /// hammers it until recovery lands. On that same scenario the
    /// budgeted client must stay under 2x attempt amplification while
    /// the naive client storms well past it.
    #[test]
    fn budgeted_retries_do_not_storm_while_naive_ones_do() {
        let s = Scenario {
            run: 0,
            sim_seed: 0x0057_0611,
            fault: Fault::TransientException {
                component: "BrowseCategories",
                calls: u32::MAX,
            },
            inject_at_s: 10,
            second: None,
            flap: None,
            comparison_detector: false,
            parallel_rm: false,
            rm_crash: None,
            budgeted_retry: false,
        };
        let under = |retry| {
            let opts = RunOptions {
                retry,
                ..options(&s)
            };
            run_scenario(&s, &opts)
                .integrity
                .expect("integrity plane armed")
        };
        let budgeted = under(budgeted_policy());
        // "Retry hard until it works": no backoff, a budget so deep the
        // client hammers the sick component for its whole failure burst.
        let naive = under(RetryPolicy::NaiveImmediate { retries: 100 });
        assert!(
            budgeted.retries_issued > 0,
            "the throwing component forced retries"
        );
        // Attempt amplification = (terminal ops + retries) / terminal ops.
        let b_amp = (budgeted.total_ops + budgeted.retries_issued) as f64
            / budgeted.total_ops.max(1) as f64;
        assert!(
            b_amp < 2.0,
            "budgeted amplification {b_amp:.2}x over {} ops",
            budgeted.total_ops
        );
        assert!(
            naive.retries_issued > 10 * budgeted.retries_issued,
            "naive clients should storm: {} retries vs budgeted {}",
            naive.retries_issued,
            budgeted.retries_issued
        );
    }
}
