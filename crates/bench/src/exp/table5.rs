//! Table 5 — fault-free performance impact.
//!
//! Measures steady-state throughput and mean latency in the four
//! configurations of Table 5: original JBoss vs the microreboot-enabled
//! server (whose hooks — sentinel binding, retry interception — are the
//! only additions on the fast path), each with FastS and with SSM.

use crate::report::{banner, Table};
use cluster::{Sim, SimConfig, StoreChoice};
use simcore::SimTime;

fn measure(store: StoreChoice, urb_enabled: bool) -> (f64, f64) {
    let mut sim = Sim::new(SimConfig {
        store,
        // The µRB-enabled server's fast-path additions are the retry
        // interceptor and sentinel checks; the plain configuration runs
        // without them.
        retry_enabled: urb_enabled,
        ..SimConfig::default()
    });
    let mins = 10;
    sim.run_until(SimTime::from_mins(mins));
    let mut world = sim.finish();
    let s = world.pool.taw_ref().summary();
    let rps = (s.good_ops + s.bad_ops) as f64 / (mins as f64 * 60.0);
    let latency = world.pool.taw().response_ms().mean();
    (rps, latency)
}

pub(super) fn run() -> Result<(), String> {
    banner("Table 5: performance comparison (steady state, fault-free, 500 clients)");
    // (configuration, paper req/s, paper ms, store, microreboot-enabled)
    let configs = [
        (
            "JBoss + eBid/FastS",
            72.09,
            15.02,
            StoreChoice::FastS,
            false,
        ),
        (
            "JBossuRB + eBid/FastS",
            72.42,
            16.08,
            StoreChoice::FastS,
            true,
        ),
        ("JBoss + eBid/SSM", 71.63, 28.43, StoreChoice::Ssm, false),
        ("JBossuRB + eBid/SSM", 70.86, 27.69, StoreChoice::Ssm, true),
    ];
    let mut t = Table::new(&[
        "configuration",
        "paper thr (req/s)",
        "measured thr",
        "paper lat (ms)",
        "measured lat",
    ]);
    for (label, p_thr, p_lat, store, urb) in configs {
        let (rps, lat) = measure(store, urb);
        t.row_owned(vec![
            label.to_string(),
            format!("{p_thr:.2}"),
            format!("{rps:.2}"),
            format!("{p_lat:.2}"),
            format!("{lat:.2}"),
        ]);
    }
    t.print();
    println!("\nShape check: throughput within ~2% across configurations; SSM adds");
    println!("marshalling + network latency (paper: +70-90% latency).");
    Ok(())
}
