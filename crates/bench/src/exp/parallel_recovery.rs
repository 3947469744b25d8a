//! Parallel recovery — K disjoint faults recover in ≈max, not ≈sum.
//!
//! Three disjoint session beans (`BrowseCategories`, `BrowseRegions`,
//! `SearchItemsByCategory` — each a singleton recovery group with no
//! shared call path) suffer simultaneous transient-exception faults at
//! t = 30 s on a single node under 500-client load. Two automatic-recovery
//! arms, identical except for the conductor:
//!
//! * **serialized** — the pre-conductor baseline: the manager issues one
//!   microreboot at a time, so the node pays the *sum* of the three
//!   recovery times (plus a diagnosis round-trip between each);
//! * **conducted** — the conductor expands, checks conflicts, and runs
//!   all three microreboots concurrently under quarantine admission, so
//!   total unavailability collapses to ≈ the *slowest single* recovery.
//!
//! The acceptance bar: conducted union-of-downtime within 25% of the
//! slowest single recovery; serialized ≈ the sum; fewer failed requests
//! in the conducted arm.

use std::cell::RefCell;
use std::rc::Rc;

use super::recovered_run;
use crate::report::{banner, print_telemetry, ratio, JsonReport, Table};
use cluster::{LogEvent, SimConfig};
use faults::Fault;
use recovery::conductor::ConductorConfig;
use recovery::{PolicyLevel, RmConfig};
use simcore::telemetry::shared_bus;
use simcore::trace::{Trace, TraceRecorder};
use simcore::{MetricsRegistry, SimDuration, SimTime};
use workload::TawSummary;

const FAULTED: [&str; 3] = ["BrowseCategories", "BrowseRegions", "SearchItemsByCategory"];

struct Arm {
    taw: TawSummary,
    telemetry: MetricsRegistry,
    /// Per-recovery (started, finished) intervals.
    intervals: Vec<(SimTime, SimTime)>,
    /// The arm's full telemetry trace (written to `target/TRACE_*.jsonl`).
    trace: Trace,
}

fn measure(conducted: bool) -> Arm {
    let rm = RmConfig {
        // A uniform detection floor keeps arrival skew out of the
        // comparison: all three faults are diagnosed in the same poll.
        detection_delay: SimDuration::from_secs(5),
        observation: SimDuration::ZERO,
        max_concurrent: if conducted { 4 } else { 1 },
        ..RmConfig::default()
    };
    let config = SimConfig {
        retry_enabled: true,
        rm: Some(rm),
        conductor: conducted.then_some(ConductorConfig {
            max_concurrent_per_node: 4,
            quarantine: true,
        }),
        ..SimConfig::default()
    };
    let bus = shared_bus();
    let telemetry = Rc::new(RefCell::new(MetricsRegistry::new()));
    bus.borrow_mut().add_sink(Box::new(telemetry.clone()));
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    bus.borrow_mut().add_sink(Box::new(recorder.clone()));
    let faults = FAULTED.map(|component| {
        let fault = Fault::TransientException {
            component,
            calls: 100_000,
        };
        (30, fault)
    });
    let world = recovered_run(PolicyLevel::Ejb, config, Some(bus), &faults, 4 * 60);
    let intervals = world
        .log
        .iter()
        .filter_map(|e| match e {
            LogEvent::RecoveryFinished { at, started, .. } => Some((*started, *at)),
            _ => None,
        })
        .collect();
    let fold = telemetry.borrow().clone();
    let trace = Trace::from_events(recorder.borrow().events().to_vec());
    Arm {
        taw: world.pool.taw_ref().summary(),
        telemetry: fold,
        intervals,
        trace,
    }
}

/// Union of possibly-overlapping time intervals.
fn union_of(intervals: &[(SimTime, SimTime)]) -> SimDuration {
    let mut spans = intervals.to_vec();
    spans.sort();
    let mut union = SimDuration::ZERO;
    let mut cursor: Option<(SimTime, SimTime)> = None;
    for (s, e) in spans {
        match &mut cursor {
            Some((_, ce)) if s <= *ce => {
                if e > *ce {
                    *ce = e;
                }
            }
            _ => {
                if let Some((cs, ce)) = cursor {
                    union += ce - cs;
                }
                cursor = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cursor {
        union += ce - cs;
    }
    union
}

fn sum_of(intervals: &[(SimTime, SimTime)]) -> SimDuration {
    intervals
        .iter()
        .fold(SimDuration::ZERO, |acc, (s, e)| acc + (*e - *s))
}

fn max_of(intervals: &[(SimTime, SimTime)]) -> SimDuration {
    intervals
        .iter()
        .map(|(s, e)| *e - *s)
        .fold(SimDuration::ZERO, SimDuration::max)
}

pub(super) fn run() -> Result<(), String> {
    banner("Parallel recovery: 3 disjoint faults, conductor vs serialized baseline");
    println!(
        "(faults in {FAULTED:?} at t=30s; 500 clients, 1 node, retries on;\n\
         serialized = manager alone, conducted = conductor, cap 4, quarantine)\n"
    );

    let serial = measure(false);
    let conducted = measure(true);

    println!("serialized recoveries:");
    for (s, e) in &serial.intervals {
        println!("  {:>9.3} s -> {:>9.3} s", s.as_secs_f64(), e.as_secs_f64());
    }
    println!("conducted recoveries:");
    for (s, e) in &conducted.intervals {
        println!("  {:>9.3} s -> {:>9.3} s", s.as_secs_f64(), e.as_secs_f64());
    }

    let s_union = union_of(&serial.intervals);
    let c_union = union_of(&conducted.intervals);
    let c_max = max_of(&conducted.intervals);
    let c_sum = sum_of(&conducted.intervals);

    let mut t = Table::new(&["metric", "serialized", "conducted"]);
    t.row_owned(vec![
        "recoveries".into(),
        serial.intervals.len().to_string(),
        conducted.intervals.len().to_string(),
    ]);
    t.row_owned(vec![
        "downtime union (ms)".into(),
        format!("{:.0}", s_union.as_millis_f64()),
        format!("{:.0}", c_union.as_millis_f64()),
    ]);
    t.row_owned(vec![
        "sum of recovery times (ms)".into(),
        format!("{:.0}", sum_of(&serial.intervals).as_millis_f64()),
        format!("{:.0}", c_sum.as_millis_f64()),
    ]);
    t.row_owned(vec![
        "slowest single recovery (ms)".into(),
        format!("{:.0}", max_of(&serial.intervals).as_millis_f64()),
        format!("{:.0}", c_max.as_millis_f64()),
    ]);
    t.row_owned(vec![
        "failed requests (bad ops)".into(),
        serial.taw.bad_ops.to_string(),
        conducted.taw.bad_ops.to_string(),
    ]);
    t.row_owned(vec![
        "failed actions".into(),
        serial.taw.bad_actions.to_string(),
        conducted.taw.bad_actions.to_string(),
    ]);
    t.row_owned(vec![
        "good ops".into(),
        serial.taw.good_ops.to_string(),
        conducted.taw.good_ops.to_string(),
    ]);
    t.print();

    println!(
        "\nunavailability compression: serialized/conducted = {}",
        ratio(s_union.as_millis_f64(), c_union.as_millis_f64())
    );
    println!(
        "conducted union vs slowest single recovery: {:.0} ms vs {:.0} ms ({:+.1}%)",
        c_union.as_millis_f64(),
        c_max.as_millis_f64(),
        100.0 * (c_union.as_millis_f64() - c_max.as_millis_f64()) / c_max.as_millis_f64()
    );

    print_telemetry(&serial.telemetry, "serialized telemetry");
    print_telemetry(&conducted.telemetry, "conducted telemetry");

    // Full JSONL traces for `urb trace` inspection, plus the
    // machine-readable BENCH report accumulating the perf trajectory.
    let _ = std::fs::create_dir_all("target");
    for (name, arm) in [
        ("parallel_recovery_serialized", &serial),
        ("parallel_recovery_conducted", &conducted),
    ] {
        let path = format!("target/TRACE_{name}.jsonl");
        match arm.trace.write_to(std::path::Path::new(&path)) {
            Ok(()) => println!(
                "\ntrace: {} events, digest {:016x} -> {path}",
                arm.trace.events.len(),
                arm.trace.digest
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let mut json = JsonReport::new("parallel_recovery");
    json.metric_f64("serialized_downtime_union_ms", s_union.as_millis_f64());
    json.metric_f64("conducted_downtime_union_ms", c_union.as_millis_f64());
    json.metric_f64("conducted_slowest_single_ms", c_max.as_millis_f64());
    json.metric("serialized_failed_requests", serial.taw.bad_ops);
    json.metric("conducted_failed_requests", conducted.taw.bad_ops);
    json.metric("serialized_recoveries", serial.intervals.len() as u64);
    json.metric("conducted_recoveries", conducted.intervals.len() as u64);
    json.text(
        "serialized_digest",
        &format!("{:016x}", serial.trace.digest),
    );
    json.digest(conducted.trace.digest);
    json.telemetry(&conducted.telemetry);
    match json.write() {
        Ok(path) => println!("machine-readable report -> {path}"),
        Err(e) => eprintln!("could not write BENCH report: {e}"),
    }

    // Machine-checkable acceptance criteria.
    let within_25 = c_union.as_millis_f64() <= 1.25 * c_max.as_millis_f64();
    let serial_is_sum = s_union.as_millis_f64() >= 0.9 * sum_of(&serial.intervals).as_millis_f64();
    let fewer_failures = conducted.taw.bad_ops < serial.taw.bad_ops;
    println!("\nacceptance:");
    println!("  conducted union ≈ max (within 25%): {within_25}");
    println!("  serialized union ≈ sum:             {serial_is_sum}");
    println!("  conducted fails fewer requests:     {fewer_failures}");
    let mut missed = Vec::new();
    let mut bar = |held: bool, what: &'static str| {
        if !held {
            missed.push(what);
        }
    };
    let recoveries = conducted.intervals.len();
    bar(recoveries >= 3, "three faults must yield three recoveries");
    bar(within_25, "parallel recovery must approach the slowest one");
    bar(serial_is_sum, "the baseline must pay the serial sum");
    bar(
        fewer_failures,
        "quarantined recovery must fail fewer requests",
    );
    if missed.is_empty() {
        Ok(())
    } else {
        Err(missed.join("; "))
    }
}
