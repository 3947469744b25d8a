//! Pre-failover microreboots in a 4-node cluster (Section 6.1).
//!
//! Compares two recovery regimes for the same fault on the same cluster:
//! the classic "fail over, then restart the node", and the paper's
//! recommendation — microreboot first, without failover, masking the
//! blip with transparent `Retry-After` call retries.
//!
//! Run with: `cargo run --release --example cluster_failover`

use microreboot::cluster::{Sim, SimConfig};
use microreboot::faults::Fault;
use microreboot::recovery::{PolicyChoice, RmConfig};
use microreboot::simcore::SimTime;

fn run(label: &str, policy: PolicyChoice, failover: bool, retry: bool) {
    let mut sim = Sim::new(SimConfig {
        nodes: 4,
        failover,
        retry_enabled: retry,
        rm: Some(RmConfig::default()),
        policy,
        ..SimConfig::default()
    });
    sim.schedule_fault(
        SimTime::from_mins(2),
        0,
        Fault::TransientException {
            component: "BrowseCategories",
            calls: u32::MAX,
        },
    );
    sim.run_until(SimTime::from_mins(6));
    let world = sim.finish();
    let s = world.pool.taw_ref().summary();
    println!(
        "{label:<42} {:>6} failed requests, {:>4} sessions failed over",
        s.bad_ops,
        world.lb.failed_over()
    );
}

fn main() {
    println!("one fault, 4 nodes, 500 clients each, FastS:\n");
    run(
        "JVM restart + node failover (status quo)",
        PolicyChoice::RebootFirst,
        true,
        false,
    );
    run(
        "microreboot + node failover",
        PolicyChoice::Ladder,
        true,
        false,
    );
    run(
        "microreboot, no failover, call retries",
        PolicyChoice::Ladder,
        false,
        true,
    );
    println!("\nthe cheapest recovery is a microreboot on the spot: failover itself");
    println!("costs sessions (FastS is node-local), so skipping it wins when the");
    println!("recovery is quick enough — the paper's 'alternative failover scheme'.");
}
