//! Rolling microrejuvenation (Section 6.4): reclaiming leaked memory by
//! parts, without ever shutting the service down.
//!
//! Two components leak on every invocation. The rejuvenation service
//! watches free heap; when it drops below the alarm it microreboots
//! components one at a time — learning which ones release the most
//! memory — until free heap is comfortable again.
//!
//! Run with: `cargo run --release --example rolling_rejuvenation`

use microreboot::cluster::{Sim, SimConfig};
use microreboot::faults::Fault;
use microreboot::simcore::{SimDuration, SimTime};

fn main() {
    let mut sim = Sim::new(SimConfig::default());
    sim.schedule_fault(
        SimTime::from_secs(5),
        0,
        Fault::AppMemoryLeak {
            component: "ViewItem",
            bytes_per_call: 300 << 10,
            persistent: true,
        },
    );
    sim.schedule_fault(
        SimTime::from_secs(5),
        0,
        Fault::AppMemoryLeak {
            component: "Item",
            bytes_per_call: 16 << 10,
            persistent: true,
        },
    );
    // Alarm at 350 MB free, rejuvenate until 800 MB free, check every 5 s.
    sim.enable_rejuvenation(0, 350 << 20, 800 << 20, SimDuration::from_secs(5));

    println!("time     free-heap  note");
    let mut rebooted = 0;
    for tick in 0..90 {
        let t = SimTime::from_secs(tick * 10);
        sim.run_until(t);
        let node = &sim.world().nodes[0];
        let free_mb = node.available_memory() >> 20;
        // Every finished component reboot here is a rejuvenation.
        let finished = node.metrics().counter("reboots_finished_component");
        let note = match finished - rebooted {
            0 => String::new(),
            n => format!("{n} microreboot(s) finished"),
        };
        rebooted = finished;
        let bar = "#".repeat((free_mb / 24) as usize);
        println!("{:>5}s  {:>5} MB  {bar} {note}", tick * 10, free_mb);
    }
    let world = sim.finish();
    let s = world.pool.taw_ref().summary();
    println!(
        "\n15 simulated minutes: {} good requests, {} failed — the heap was",
        s.good_ops, s.bad_ops
    );
    println!("rejuvenated by parts and good throughput never stopped.");
}
