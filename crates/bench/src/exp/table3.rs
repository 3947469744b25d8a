//! Table 3 — average recovery times under load.
//!
//! Microreboots each eBid component 10 times on a single-node system under
//! sustained load from 500 concurrent clients and reports the average
//! total/crash/reinit times, then does the same for the whole application,
//! the JVM process, and (beyond the paper's table) the OS.

use super::commanded_run;
use crate::report::{banner, Table};
use cluster::{SimConfig, World};
use recovery::RecoveryAction;
use simcore::SimDuration;

/// The paper's Table 3 microreboot rows: (component, µRB ms).
const PAPER: [(&str, u64); 23] = [
    ("AboutMe", 551),
    ("Authenticate", 491),
    ("BrowseCategories", 411),
    ("BrowseRegions", 416),
    ("BuyNow", 471),
    ("CommitBid", 533),
    ("CommitBuyNow", 471),
    ("CommitUserFeedback", 531),
    ("DoBuyNow", 427),
    ("Item", 825), // EntityGroup, reached via any member
    ("IdentityManager", 461),
    ("LeaveUserFeedback", 484),
    ("MakeBid", 514),
    ("OldItem", 529),
    ("RegisterNewItem", 447),
    ("RegisterNewUser", 601),
    ("SearchItemsByCategory", 442),
    ("SearchItemsByRegion", 572),
    ("UserFeedback", 483),
    ("ViewBidHistory", 507),
    ("ViewUserInfo", 415),
    ("ViewItem", 446),
    ("WAR", 1028),
];

/// Commands `action` `trials` times, `spacing` seconds apart, under steady
/// 500-client load; returns the mean recovery time in ms and the world.
fn measure(action: &RecoveryAction, trials: u32, spacing: u64) -> (f64, World) {
    let world = commanded_run(SimConfig::default(), action, trials, spacing, 0);
    let reboots = world.nodes[0].metrics().histogram("reboot_ms");
    let avg = reboots.map_or(0.0, |h| h.mean().as_millis_f64());
    (avg, world)
}

fn measure_microreboots(component: &'static str, trials: u32) -> (f64, f64, f64) {
    let (avg, world) = measure(&RecoveryAction::microreboot(&[component]), trials, 20);
    // Crash time is the calibrated group cost; reinit is the (jittered)
    // remainder.
    let crash = {
        let server = &world.nodes[0];
        let graph = server.graph();
        let id = graph.id_of(component).expect("known component");
        let group = graph.recovery_group(id);
        let max_crash = group
            .iter()
            .map(|m| {
                server
                    .container(graph.name_of(*m))
                    .expect("container exists")
                    .descriptor
                    .crash_cost
            })
            .fold(SimDuration::ZERO, SimDuration::max);
        (max_crash + urb_core::calib::GROUP_EXTRA_CRASH * (group.len() as u64 - 1)).as_millis_f64()
    };
    (avg, crash, avg - crash)
}

pub(super) fn run() -> Result<(), String> {
    banner("Table 3: average recovery times under load (10 trials per component)");
    let mut t = Table::new(&[
        "component",
        "paper uRB (ms)",
        "measured uRB (ms)",
        "crash (ms)",
        "reinit (ms)",
    ]);
    for (component, paper_total) in PAPER {
        let (avg, crash, reinit) = measure_microreboots(component, 10);
        let shown = match component {
            "Item" => "EntityGroup (via Item)",
            "WAR" => "WAR (Web component)",
            _ => component,
        };
        t.row_owned(vec![
            shown.to_string(),
            format!("{paper_total}"),
            format!("{avg:.0}"),
            format!("{crash:.0}"),
            format!("{reinit:.0}"),
        ]);
    }
    let (app, _) = measure(&RecoveryAction::RestartApp, 5, 60);
    t.row_owned(vec![
        "Entire eBid application".into(),
        "7699".into(),
        format!("{app:.0}"),
        "33".into(),
        format!("{:.0}", app - 33.0),
    ]);
    let (jvm, _) = measure(&RecoveryAction::RestartProcess, 5, 60);
    t.row_owned(vec![
        "JVM/JBoss process restart".into(),
        "19083".into(),
        format!("{jvm:.0}"),
        "~0".into(),
        format!("{jvm:.0}"),
    ]);
    let (os, _) = measure(&RecoveryAction::RebootOs, 2, 60);
    t.row_owned(vec![
        "OS reboot (not in paper's table)".into(),
        "-".into(),
        format!("{os:.0}"),
        "-".into(),
        "-".into(),
    ]);
    t.print();
    println!("\nEJB microreboots are ~13-46x faster than a JVM restart (paper: 411-825 ms vs 19,083 ms).");
    Ok(())
}
