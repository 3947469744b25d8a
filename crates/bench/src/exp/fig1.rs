//! Figure 1 — action-weighted throughput: JVM restart vs microreboot.
//!
//! Reproduces the paper's headline experiment: a 40-minute run with 500
//! clients on one node (FastS), injecting three different faults at
//! t = 10, 20 and 30 minutes:
//!
//! * t=10: corrupt the transaction method map of the `EntityGroup`
//!   (the recovery group that takes the longest to recover),
//! * t=20: corrupt the JNDI entry of `RegisterNewUser` (next slowest),
//! * t=30: a transient exception in `BrowseCategories` (the most
//!   frequently called EJB in the workload).
//!
//! Recovery is automatic via the recovery manager; the baseline run
//! starts the recursive policy at the JVM-restart rung, the microreboot
//! run at the EJB rung. Paper result: 11,752 failed requests (3,101
//! actions) with process restarts vs 233 (34) with microreboots — i.e.,
//! ~3,917 failed requests per restart vs ~78 per microreboot, a 98%
//! reduction.

use std::cell::RefCell;
use std::rc::Rc;

use super::{recovered_run, HOT_FAULT};
use crate::report::{banner, print_telemetry, ratio, write_target, Table};
use cluster::SimConfig;
use faults::Fault;
use recovery::PolicyChoice;
use simcore::telemetry::shared_bus;
use simcore::MetricsRegistry;
use statestore::session::CorruptKind;
use workload::TawSummary;

/// Runs the 40-minute scenario; returns (summary, per-10s bad series,
/// recovery count, telemetry fold).
fn measure(policy: PolicyChoice) -> (TawSummary, Vec<(u64, f64, f64)>, usize, MetricsRegistry) {
    let bus = shared_bus();
    let telemetry = Rc::new(RefCell::new(MetricsRegistry::new()));
    bus.borrow_mut().add_sink(Box::new(telemetry.clone()));
    let faults = [
        (
            10 * 60,
            Fault::CorruptTxnMap {
                component: "Item",
                kind: CorruptKind::SetNull,
            },
        ),
        (
            20 * 60,
            Fault::CorruptJndi {
                component: "RegisterNewUser",
                kind: CorruptKind::SetNull,
            },
        ),
        (30 * 60, HOT_FAULT),
    ];
    let world = recovered_run(policy, SimConfig::default(), Some(bus), &faults, 40 * 60);
    let taw = world.pool.taw_ref();
    let mut series = Vec::new();
    for bucket in 0..(40 * 6) {
        let from = bucket * 10;
        let to = from + 9;
        series.push((from, taw.good_in(from, to), taw.bad_in(from, to)));
    }
    let summary = taw.summary();
    let fold = telemetry.borrow().clone();
    let recoveries = fold.counter("reboots_finished") as usize;
    (summary, series, recoveries, fold)
}

pub(super) fn run() -> Result<(), String> {
    banner("Figure 1: Taw comparison — JVM process restart vs EJB microreboot");
    println!("(three faults at t=10/20/30 min; 500 clients, 1 node, FastS)\n");

    let (restart, restart_series, restart_events, restart_telemetry) =
        measure(PolicyChoice::RebootFirst);
    let (urb, urb_series, urb_events, urb_telemetry) = measure(PolicyChoice::Ladder);

    // Full per-10s series as JSON, for plotting. Hand-rolled writer: the
    // rows are flat numbers, so a serializer dependency isn't warranted.
    let mut json = String::from("[\n");
    for (i, ((t, rg, rb), (_, ug, ub))) in restart_series.iter().zip(&urb_series).enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "  {{ \"t\": {t}, \"restart_good\": {rg}, \"restart_bad\": {rb}, \
             \"urb_good\": {ug}, \"urb_bad\": {ub} }}"
        ));
    }
    json.push_str("\n]\n");
    match write_target("fig1_series.json", &json) {
        Ok(path) => println!("(full per-10s Taw series written to {path})\n"),
        Err(why) => eprintln!("{why}"),
    }

    let mut t = Table::new(&["metric", "process restart", "microreboot", "paper"]);
    t.row_owned(vec![
        "failed requests (total)".into(),
        format!("{}", restart.bad_ops),
        format!("{}", urb.bad_ops),
        "11,752 vs 233".into(),
    ]);
    t.row_owned(vec![
        "failed actions (total)".into(),
        format!("{}", restart.bad_actions),
        format!("{}", urb.bad_actions),
        "3,101 vs 34".into(),
    ]);
    t.row_owned(vec![
        "recovery events".into(),
        format!("{restart_events}"),
        format!("{urb_events}"),
        "3 vs 3".into(),
    ]);
    t.row_owned(vec![
        "failed requests / recovery".into(),
        format!(
            "{:.0}",
            restart.bad_ops as f64 / restart_events.max(1) as f64
        ),
        format!("{:.0}", urb.bad_ops as f64 / urb_events.max(1) as f64),
        "3,917 vs 78".into(),
    ]);
    t.row_owned(vec![
        "good requests (total)".into(),
        format!("{}", restart.good_ops),
        format!("{}", urb.good_ops),
        "-".into(),
    ]);
    t.print();

    let reduction = 100.0 * (1.0 - urb.bad_ops as f64 / restart.bad_ops.max(1) as f64);
    println!(
        "\nmicroreboots reduce failed requests by {reduction:.1}% (paper: 98%), a {} improvement",
        ratio(restart.bad_ops as f64, urb.bad_ops.max(1) as f64)
    );

    println!("\nTaw timeline (10 s buckets, req/s averaged; dips mark recovery):");
    let mut series_t = Table::new(&[
        "t (s)",
        "restart good/s",
        "restart bad/s",
        "uRB good/s",
        "uRB bad/s",
    ]);
    for (i, (from, rg, rb)) in restart_series.iter().enumerate() {
        let (_, ug, ub) = urb_series[i];
        // Print only the interesting windows around the fault times.
        let interesting = [
            590, 600, 610, 620, 630, 1190, 1200, 1210, 1220, 1230, 1790, 1800, 1810, 1820, 1830,
        ]
        .contains(from);
        if interesting {
            series_t.row_owned(vec![
                format!("{from}"),
                format!("{:.1}", rg / 10.0),
                format!("{:.1}", rb / 10.0),
                format!("{:.1}", ug / 10.0),
                format!("{:.1}", ub / 10.0),
            ]);
        }
    }
    series_t.print();

    print_telemetry(&restart_telemetry, "Telemetry fold — process-restart run:");
    print_telemetry(&urb_telemetry, "Telemetry fold — microreboot run:");
    Ok(())
}
