//! Table 1 — the client workload mix.
//!
//! Drives the 25-state Markov client emulator against a live single-node
//! eBid server for 20 simulated minutes and reports the observed request
//! mix by class, next to the paper's Table 1.

use crate::report::{banner, Table};
use cluster::{Sim, SimConfig};
use simcore::SimTime;
use workload::catalog::MixClass;

pub(super) fn run() -> Result<(), String> {
    banner("Table 1: client workload used in evaluating microreboot-based recovery");
    let mut sim = Sim::new(SimConfig::default());
    sim.run_until(SimTime::from_mins(20));
    let world = sim.finish();

    let mut t = Table::new(&[
        "user operation results mostly in...",
        "paper %",
        "measured %",
    ]);
    for class in MixClass::ALL {
        t.row_owned(vec![
            class.label().to_string(),
            format!("{:.0}", class.paper_percent()),
            format!("{:.1}", world.pool.mix().percent(class)),
        ]);
    }
    t.print();
    println!("\ntotal requests issued: {}", world.pool.mix().total());
    Ok(())
}
