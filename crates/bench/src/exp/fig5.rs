//! Figure 5 — relaxing failure detection with cheap recovery.
//!
//! **Left graph:** a fault is injected into the most frequently called
//! component and recovery is deliberately delayed by `Tdet`; failed
//! requests are plotted against the detection time for microreboot vs
//! process-restart recovery. Because a microreboot wastes so few requests,
//! a monitor may take tens of seconds longer to detect a failure and
//! still beat a restart with instant detection (paper: up to 53.5 s).
//!
//! **Right graph:** false positives — `n` useless recoveries (triggered by
//! mistaken detections on a healthy system) followed by one useful one.
//! With microreboots, availability stays above the restart-with-perfect-
//! detection line even at very high false-positive rates (paper: 98%).

use super::{commanded_run, recovered_run, HOT_FAULT};
use crate::report::{banner, ratio, Table};
use cluster::SimConfig;
use recovery::{PolicyChoice, RecoveryAction, RmConfig};
use simcore::SimDuration;

/// Failed requests when detection takes `tdet` seconds.
fn bad_ops(policy: PolicyChoice, tdet: u64) -> u64 {
    let config = SimConfig {
        rm: Some(RmConfig {
            detection_delay: SimDuration::from_secs(tdet),
            ..RmConfig::default()
        }),
        ..SimConfig::default()
    };
    let until = 2 * 60 + tdet + 4 * 60;
    let world = recovered_run(policy, config, None, &[(2 * 60, HOT_FAULT)], until);
    world.pool.taw_ref().summary().bad_ops
}

fn useless_recoveries(n: u32, action: RecoveryAction) -> u64 {
    let spacing = match action {
        RecoveryAction::RestartProcess => 40,
        _ => 10,
    };
    let world = commanded_run(SimConfig::default(), &action, n, spacing, 120);
    world.pool.taw_ref().summary().bad_ops
}

pub(super) fn run() -> Result<(), String> {
    banner("Figure 5 (left): failed requests vs detection time Tdet");
    let mut t = Table::new(&["Tdet (s)", "process restart", "microreboot"]);
    let restart_at_zero = bad_ops(PolicyChoice::RebootFirst, 0);
    let mut crossover = None;
    for tdet in [0u64, 5, 10, 20, 30, 40, 53, 60, 80, 100] {
        let restart = if tdet == 0 {
            restart_at_zero
        } else {
            bad_ops(PolicyChoice::RebootFirst, tdet)
        };
        let urb = bad_ops(PolicyChoice::Ladder, tdet);
        if crossover.is_none() && urb > restart_at_zero {
            crossover = Some(tdet);
        }
        t.row_owned(vec![
            format!("{tdet}"),
            format!("{restart}"),
            format!("{urb}"),
        ]);
    }
    t.print();
    match crossover {
        Some(s) => println!(
            "\ncrossover: with uRB recovery a monitor may take up to ~{s} s to detect\n\
             and still beat a process restart with instant detection (paper: 53.5 s)."
        ),
        None => println!(
            "\nno crossover within 100 s: uRB recovery with 100 s detection delay\n\
             still failed fewer requests than an instantly-detected restart\n\
             (paper's crossover was 53.5 s)."
        ),
    }

    banner("Figure 5 (right): failed requests vs false-positive rate");
    println!("(n useless recoveries between correct ones; FP rate = n/(n+1))\n");
    let per_restart = useless_recoveries(1, RecoveryAction::RestartProcess);
    let per_urb_burst = useless_recoveries(10, RecoveryAction::microreboot(&["BrowseCategories"]));
    let per_urb = per_urb_burst as f64 / 10.0;
    let mut t = Table::new(&["n (false positives)", "FP rate", "restart f(n)", "uRB f(n)"]);
    for n in [0u64, 1, 4, 9, 19, 49, 99] {
        let fp = 100.0 * n as f64 / (n + 1) as f64;
        let restart_f = (n + 1) * per_restart;
        let urb_f = ((n + 1) as f64 * per_urb) as u64;
        t.row_owned(vec![
            format!("{n}"),
            format!("{fp:.0}%"),
            format!("{restart_f}"),
            format!("{urb_f}"),
        ]);
    }
    t.print();
    let max_n = (per_restart as f64 / per_urb - 1.0).max(0.0);
    let max_fp = 100.0 * max_n / (max_n + 1.0);
    println!(
        "\none useless restart fails ~{per_restart} requests; one useless uRB ~{per_urb:.0}\n\
         ({}): uRB recovery beats a false-positive-free restart regime up to a\n\
         false-positive rate of ~{max_fp:.0}% (paper: 98%).",
        ratio(per_restart as f64, per_urb)
    );
    Ok(())
}
