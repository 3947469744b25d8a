//! Table 6 — masking microreboots with HTTP/1.1 `Retry-After`.
//!
//! Microreboots four different components 10 times each under load, in
//! three configurations:
//!
//! * **no retry** — sentinel hits answer 503 and fail,
//! * **retry** — idempotent requests hitting the sentinel get
//!   `Retry-After 2s` and transparently re-issue (Section 6.2),
//! * **delay & retry** — additionally, a 200 ms drain between the
//!   sentinel rebind and the crash phase lets in-flight requests finish.
//!
//! The paper found transparent retry masks roughly half the failures and
//! the drain removes most of the rest (failures left: ViewItem 23→16→8,
//! BrowseCategories 20→8→0, SearchItemsByCategory 31→15→0,
//! Authenticate 20→9→1).

use super::commanded_run;
use crate::report::{banner, Table};
use cluster::{Sim, SimConfig};
use recovery::RecoveryAction;
use simcore::{SimDuration, SimTime};

const TRIALS: u32 = 10;

/// Returns total failed requests over a run of 10 microreboots of
/// `component`, 30 s apart (the caller subtracts the fault-free baseline
/// of the same seed and interval).
fn measure(component: &'static str, retry: bool, drain: bool) -> f64 {
    let config = SimConfig {
        retry_enabled: retry,
        drain: drain.then_some(urb_core::calib::DRAIN_DELAY),
        ..SimConfig::default()
    };
    let action = RecoveryAction::microreboot(&[component]);
    let world = commanded_run(config, &action, TRIALS, 30, 60);
    world.pool.taw_ref().summary().bad_ops as f64
}

/// Fault-free baseline failures for the same interval (background noise).
fn baseline() -> f64 {
    let mut sim = Sim::new(SimConfig::default());
    sim.run_until(SimTime::from_secs(60 + 30 * u64::from(TRIALS) + 60));
    sim.finish().pool.taw_ref().summary().bad_ops as f64
}

pub(super) fn run() -> Result<(), String> {
    banner("Table 6: masking microreboots with HTTP/1.1 Retry-After");
    println!("(total failed requests across 10 microreboots of each component)\n");
    let base = baseline();
    let components = [
        ("ViewItem", (23, 16, 8)),
        ("BrowseCategories", (20, 8, 0)),
        ("SearchItemsByCategory", (31, 15, 0)),
        ("Authenticate", (20, 9, 1)),
    ];
    let mut t = Table::new(&[
        "component",
        "paper (no/retry/delay)",
        "no retry",
        "retry",
        "delay & retry",
    ]);
    for (component, (p_no, p_retry, p_delay)) in components {
        let no_retry = (measure(component, false, false) - base).max(0.0);
        let retry = (measure(component, true, false) - base).max(0.0);
        let delay = (measure(component, true, true) - base).max(0.0);
        t.row_owned(vec![
            component.to_string(),
            format!("{p_no} / {p_retry} / {p_delay}"),
            format!("{no_retry:.0}"),
            format!("{retry:.0}"),
            format!("{delay:.0}"),
        ]);
    }
    t.print();
    println!(
        "\n(the 200 ms delay adds {} to each microreboot; the paper did not",
        {
            let d: SimDuration = urb_core::calib::DRAIN_DELAY;
            format!("{d}")
        }
    );
    println!("analyze that trade-off further — urb exp ablation_drain does)");
    Ok(())
}
