//! Section 6.1 — alternative failover schemes and the six-nines budget.
//!
//! Measures the average failed requests per recovery event in three
//! regimes on a cluster:
//!
//! * JVM restart with node failover (today's standard practice),
//! * microreboot with node failover,
//! * microreboot **without** failover (requests keep flowing to the
//!   recovering node and simply retry) — the paper's recommendation.
//!
//! Then reruns the paper's six-nines arithmetic: a 24-node cluster serving
//! what our 8-node cluster serves, extrapolated to a year, may fail at
//! most 0.0001% of requests; the failure budget divided by the per-event
//! cost gives how many failures per year each regime tolerates
//! (paper: 23 restarts vs 329 failovers+uRBs vs 683 uRBs).

use super::recovered_run;
use crate::report::{banner, Table};
use cluster::SimConfig;
use faults::Fault;
use recovery::PolicyChoice;

struct Regime {
    label: &'static str,
    policy: PolicyChoice,
    failover: bool,
    retry: bool,
}

fn measure(regime: &Regime, events: u32) -> (f64, u64) {
    let config = SimConfig {
        nodes: 8,
        failover: regime.failover,
        retry_enabled: regime.retry,
        ..SimConfig::default()
    };
    let fault = Fault::TransientException {
        component: "BrowseCategories",
        calls: 4000,
    };
    let events = u64::from(events);
    let faults: Vec<_> = (0..events).map(|i| (120 + 90 * i, fault)).collect();
    let until = 120 + 90 * events + 120;
    let world = recovered_run(regime.policy, config, None, &faults, until);
    let s = world.pool.taw_ref().summary();
    (s.bad_ops as f64 / events as f64, s.good_ops + s.bad_ops)
}

pub(super) fn run() -> Result<(), String> {
    banner("Section 6.1: pre-failover microreboots and the six-nines budget");
    let regimes = [
        Regime {
            label: "JVM restart + failover",
            policy: PolicyChoice::RebootFirst,
            failover: true,
            retry: false,
        },
        Regime {
            label: "uRB + failover",
            policy: PolicyChoice::Ladder,
            failover: true,
            retry: false,
        },
        Regime {
            label: "uRB, no failover, retries",
            policy: PolicyChoice::Ladder,
            failover: false,
            retry: true,
        },
    ];
    let mut total_served = 0u64;
    let mut per_event = Vec::new();
    for regime in &regimes {
        let (avg_failed, served) = measure(regime, 4);
        total_served = total_served.max(served);
        per_event.push(avg_failed);
    }
    // Six-nines arithmetic, following the paper: extrapolate the 8-node
    // cluster's request volume to 24 nodes over a year; the budget is
    // 0.0001% of that.
    let run_secs = 120.0 + 90.0 * 4.0 + 120.0;
    let rps_8node = total_served as f64 / run_secs;
    let yearly_24node = rps_8node * 3.0 * 365.25 * 24.0 * 3600.0;
    let budget = yearly_24node * 1e-6;
    let paper = ["23", "329", "683"];
    let mut t = Table::new(&[
        "regime",
        "failed req / recovery",
        "allowed failures/yr @ six nines",
        "paper",
    ]);
    for (i, regime) in regimes.iter().enumerate() {
        t.row_owned(vec![
            regime.label.to_string(),
            format!("{:.0}", per_event[i]),
            format!("{:.0}", budget / per_event[i].max(1.0)),
            paper[i].to_string(),
        ]);
    }
    t.print();
    println!(
        "\n(24-node cluster serving ~{:.1}e9 requests/year; six-nines budget {:.0}k failures)",
        yearly_24node / 1e9,
        budget / 1e3
    );
    println!("\nPaper's conclusion: writing microrebootable software that may fail almost");
    println!("twice a day beats writing software that must not fail more than once every");
    println!("two weeks.");
    Ok(())
}
