//! A day (well, ten minutes) in the life of the eBid auction site.
//!
//! Runs the full simulated testbed — 500 Markov-chain users against a
//! single microreboot-enabled node — injects a mid-run fault, lets the
//! recovery manager diagnose and microreboot the culprit, and prints a
//! narrated timeline plus the action-weighted throughput accounting.
//!
//! Run with: `cargo run --release --example auction_day`

use std::cell::RefCell;
use std::rc::Rc;

use microreboot::cluster::{Sim, SimConfig};
use microreboot::faults::Fault;
use microreboot::recovery::RmConfig;
use microreboot::simcore::telemetry::{shared_bus, DecisionKind};
use microreboot::simcore::trace::TraceRecorder;
use microreboot::simcore::{SimTime, TelemetryEvent};
use microreboot::statestore::session::CorruptKind;

fn main() {
    let mut sim = Sim::new(SimConfig {
        rm: Some(RmConfig::default()),
        retry_enabled: true,
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    bus.borrow_mut().add_sink(Box::new(recorder.clone()));
    sim.attach_telemetry(bus);

    // Minute 5: a bug corrupts the transaction method map of the Item
    // entity bean — the recovery group that takes the longest to recover.
    let (fault_at, fault) = (
        SimTime::from_mins(5),
        Fault::CorruptTxnMap {
            component: "Item",
            kind: CorruptKind::SetNull,
        },
    );
    sim.schedule_fault(fault_at, 0, fault);
    sim.run_until(SimTime::from_mins(10));
    let world = sim.finish();

    println!("== recovery timeline ==");
    println!("{fault_at}  FAULT      {fault:?}");
    for e in recorder.borrow().events() {
        match *e {
            TelemetryEvent::RecoveryDecision {
                decision: DecisionKind::NotifyHuman,
                at,
                ..
            } => println!("{at}  PAGE THE HUMAN"),
            TelemetryEvent::RecoveryDecision { decision, at, .. } => {
                println!("{at}  DECISION   {}", decision.label());
            }
            TelemetryEvent::RebootBegun {
                level, members, at, ..
            } => println!("{at}  REBOOT     {} ({members} members)", level.label()),
            TelemetryEvent::RebootFinished {
                level,
                duration,
                at,
                ..
            } => println!("{at}  RECOVERED  {} (took {duration})", level.label()),
            _ => {}
        }
    }

    let taw = world.pool.taw_ref();
    let s = taw.summary();
    println!("\n== action-weighted throughput ==");
    println!("good requests: {:>7}", s.good_ops);
    println!("bad  requests: {:>7}", s.bad_ops);
    println!("good actions:  {:>7}", s.good_actions);
    println!("bad  actions:  {:>7}", s.bad_actions);
    println!("\n== minute-by-minute ==");
    for m in 0..10 {
        let good = taw.good_in(m * 60, m * 60 + 59);
        let bad = taw.bad_in(m * 60, m * 60 + 59);
        let bar = "#".repeat((good / 150.0) as usize);
        let xbar = "x".repeat((bad / 15.0).ceil() as usize);
        println!("min {m}: {bar}{xbar}  ({good:.0} good, {bad:.0} bad)");
    }
    println!("\nserver stats: {:?}", world.nodes[0].stats());
}
