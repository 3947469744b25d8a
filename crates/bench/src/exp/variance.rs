//! Seed-sweep variance of the headline result.
//!
//! The paper reports averages over repeated trials; this reproduction is
//! deterministic per seed, so variance lives across seeds instead. This
//! experiment reruns Figure 1's second fault (the corrupted JNDI entry,
//! recovered automatically) across ten seeds for both recovery modes and
//! reports mean ± standard deviation of the failed-request counts — the
//! error bars for the headline "order of magnitude" claim.

use super::recovered_run;
use crate::report::{banner, ratio, Table};
use cluster::SimConfig;
use faults::Fault;
use recovery::PolicyChoice;
use simcore::stats::Summary;
use statestore::session::CorruptKind;

fn measure(policy: PolicyChoice, seed: u64) -> u64 {
    let config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let fault = Fault::CorruptJndi {
        component: "RegisterNewUser",
        kind: CorruptKind::SetNull,
    };
    let world = recovered_run(policy, config, None, &[(3 * 60, fault)], 7 * 60);
    world.pool.taw_ref().summary().bad_ops
}

pub(super) fn run() -> Result<(), String> {
    banner("Variance: one fault, one automatic recovery, ten seeds");
    let seeds: Vec<u64> = (1..=10).map(|i| 0x5eed_0000 + i * 7919).collect();
    let mut restart = Summary::new();
    let mut urb = Summary::new();
    let mut t = Table::new(&["seed", "restart failed", "uRB failed"]);
    for seed in &seeds {
        let r = measure(PolicyChoice::RebootFirst, *seed);
        let u = measure(PolicyChoice::Ladder, *seed);
        restart.record(r as f64);
        urb.record(u as f64);
        t.row_owned(vec![format!("{seed:#x}"), format!("{r}"), format!("{u}")]);
    }
    t.print();
    println!(
        "\nprocess restart: {:.0} ± {:.0} failed requests (min {:.0}, max {:.0})",
        restart.mean(),
        restart.stddev(),
        restart.min(),
        restart.max()
    );
    println!(
        "microreboot:     {:.0} ± {:.0} failed requests (min {:.0}, max {:.0})",
        urb.mean(),
        urb.stddev(),
        urb.min(),
        urb.max()
    );
    println!(
        "\nthe gap ({}) dwarfs the seed-to-seed spread: the order-of-magnitude",
        ratio(restart.mean(), urb.mean().max(1.0))
    );
    println!("claim is robust to workload randomness, as the paper's 10-trial");
    println!("averages found on real hardware.");
    Ok(())
}
