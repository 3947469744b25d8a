//! `urb trace` — inspect deterministic JSONL telemetry traces.
//!
//! Turns the opaque FNV trace digest into an actionable view of what a
//! run's recovery actually looked like, per episode and per second:
//!
//! * `record <out.jsonl> [--seed N]` — run the standard seeded fault
//!   scenario (two simulated minutes, a transient exception in
//!   `BrowseCategories` at t=60 s, automatic recovery) and write its
//!   full trace, so CI and the other commands have a cheap input;
//!   `--degraded` records the fail-slow scenario instead (performance
//!   plane armed, a 4x slowdown injected at t=40 s) so the summary and
//!   timeline views have anomaly and parity marks to show;
//! * `summary <trace.jsonl>` — one row per recovery episode: trigger,
//!   rung, duration, lost work, paper-style Taw dip;
//! * `timeline <trace.jsonl>` — per-second availability in the style of
//!   the paper's Figures 1/2/4/6;
//! * `diff <a.jsonl> <b.jsonl>` — first diverging event plus per-kind
//!   count deltas (exit 1 when the traces diverge);
//! * `verify <trace.jsonl> [--strict]` — recompute the FNV digest and
//!   check it against the `meta` line (exit 1 on mismatch); with
//!   `--strict`, also re-run episode assembly and fail unless every
//!   event is attributed to an episode or to steady state.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;

use bench::report::Table;
use cluster::{Sim, SimConfig};
use faults::Fault;
use recovery::RmConfig;
use simcore::telemetry::shared_bus;
use simcore::trace::{
    assemble_episodes, availability_timeline, event_to_json, taw_dip, KernelGauges, Trace,
    TraceRecorder,
};
use simcore::{MetricsRegistry, QuantileSketch, SimTime, TelemetryEvent};
use workload::FunctionalGroup;

/// `urb trace <command> <args>`.
pub(crate) fn run(args: &[String]) -> Result<ExitCode, String> {
    let (command, args) = args.split_first().ok_or("trace needs a command")?;
    match command.as_str() {
        "record" => cmd_record(args),
        "summary" => cmd_summary(args),
        "timeline" => cmd_timeline(args),
        "diff" => cmd_diff(args),
        "verify" => cmd_verify(args),
        other => Err(format!("unknown trace command {other:?}")),
    }
}

fn load(path: &str) -> Result<Trace, String> {
    Trace::read_from(Path::new(path))
}

// ---------------------------------------------------------------------------
// record
// ---------------------------------------------------------------------------

/// The standard seeded scenario (mirrors the `telemetry_trace` digest-pin
/// test): two simulated minutes, 500 clients on one node, a transient
/// exception injected into `BrowseCategories` at t=60 s, recovery via the
/// default recovery-manager policy.
fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let out = args.first().ok_or("record needs an output path")?;
    let mut seed = 7;
    let mut degraded = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = crate::number(&mut it, a)?,
            "--degraded" => degraded = true,
            other => return Err(format!("unknown record flag {other}")),
        }
    }

    let mut sim = if degraded {
        // The fail-slow scenario (mirrors the `degraded_episode` golden
        // test): triple client load for window density, the performance
        // plane armed, a 4x slowdown on the hot search path at t=40 s.
        Sim::new(SimConfig {
            seed,
            clients_per_node: 180,
            detector: workload::DetectorKind::LatencyAnomaly,
            perf: true,
            rm: Some(RmConfig::default()),
            ..SimConfig::default()
        })
    } else {
        Sim::new(SimConfig {
            seed,
            rm: Some(RmConfig::default()),
            ..SimConfig::default()
        })
    };
    let bus = shared_bus();
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    bus.borrow_mut().add_sink(Box::new(recorder.clone()));
    sim.attach_telemetry(bus);
    if degraded {
        sim.schedule_fault(
            SimTime::from_secs(40),
            0,
            Fault::Degraded {
                component: "SearchItemsByCategory",
                factor_permille: 4000,
            },
        );
        sim.run_until(SimTime::from_secs(420));
    } else {
        sim.schedule_fault(
            SimTime::from_mins(1),
            0,
            Fault::TransientException {
                component: "BrowseCategories",
                calls: 30,
            },
        );
        sim.run_until(SimTime::from_mins(2));
    }

    // Stamp the kernel's end-of-run health onto the meta line so
    // `summary` can surface it offline. Only the deterministic gauges go
    // in; wall-clock throughput stays a live-run concern.
    let mut reg = MetricsRegistry::new();
    sim.record_kernel_gauges(&mut reg, None);
    sim.finish();
    let mut trace = Trace::from_events(recorder.borrow().events().to_vec());
    trace.kernel = Some(KernelGauges {
        events_fired: reg.gauge("des_events_fired") as u64,
        queue_depth: reg.gauge("des_queue_depth") as u64,
        sim_micros: (reg.gauge("sim_seconds") * 1e6).round() as u64,
    });
    trace
        .write_to(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    println!(
        "recorded {} events (seed {seed}, digest {:016x}, {} episodes) to {out}",
        trace.events.len(),
        trace.digest,
        assemble_episodes(&trace.events).len()
    );
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------------

fn cmd_summary(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("summary needs a trace path")?;
    let trace = load(path)?;
    let episodes = assemble_episodes(&trace.events);
    let timeline = availability_timeline(&trace.events);

    println!(
        "{path}: {} events, digest {:016x}, {} recovery episode(s)\n",
        trace.events.len(),
        trace.digest,
        episodes.len()
    );
    if let Some(k) = trace.kernel {
        let sim_s = k.sim_micros as f64 / 1e6;
        let rate = if sim_s > 0.0 {
            k.events_fired as f64 / sim_s
        } else {
            0.0
        };
        println!(
            "DES kernel: {} events fired, {} pending at exit, {sim_s:.1} sim-seconds \
             ({rate:.0} events/sim-second)\n",
            k.events_fired, k.queue_depth
        );
    }
    print_latency_table(&trace.events);
    print_perf_marks(&trace.events);
    if episodes.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }

    let mut t = Table::new(&[
        "#",
        "node",
        "trigger",
        "rung",
        "begun (s)",
        "reboot (ms)",
        "detect->ok (ms)",
        "killed",
        "failed",
        "retried",
        "lost",
        "Taw dip",
    ]);
    for (i, ep) in episodes.iter().enumerate() {
        t.row_owned(vec![
            i.to_string(),
            ep.node.to_string(),
            ep.trigger(),
            ep.level.label().to_string(),
            format!("{:.3}", ep.begun_at.as_secs_f64()),
            format!("{:.1}", ep.duration.as_millis_f64()),
            ep.detection_to_recovery()
                .map(|d| format!("{:.1}", d.as_millis_f64()))
                .unwrap_or_else(|| "-".into()),
            ep.killed.to_string(),
            ep.failed.to_string(),
            ep.retried.to_string(),
            ep.lost_work().to_string(),
            format!("{:.1}%", 100.0 * taw_dip(&timeline, ep)),
        ]);
    }
    t.print();
    Ok(ExitCode::SUCCESS)
}

/// Client-observed latency quantiles per functional group, replayed from
/// the trace's `ClientOp` events through the same streaming sketch the
/// live performance plane uses.
fn print_latency_table(events: &[TelemetryEvent]) {
    let mut sketches: BTreeMap<u8, QuantileSketch> = BTreeMap::new();
    for ev in events {
        if let TelemetryEvent::ClientOp {
            group,
            started_at,
            finished_at,
            ok: true,
            ..
        } = *ev
        {
            sketches
                .entry(group)
                .or_default()
                .observe((finished_at - started_at).as_micros());
        }
    }
    if sketches.is_empty() {
        return;
    }
    println!("client-observed latency by functional group (successful ops):\n");
    let mut t = Table::new(&["group", "ops", "p50 (ms)", "p95 (ms)", "p99 (ms)"]);
    for (code, sketch) in &sketches {
        let label = FunctionalGroup::from_code(*code)
            .map(|g| g.label().to_string())
            .unwrap_or_else(|| format!("group {code}"));
        t.row_owned(vec![
            label,
            sketch.count().to_string(),
            format!("{:.1}", sketch.quantile(0.50) as f64 / 1000.0),
            format!("{:.1}", sketch.quantile(0.95) as f64 / 1000.0),
            format!("{:.1}", sketch.quantile(0.99) as f64 / 1000.0),
        ]);
    }
    t.print();
    println!();
}

/// The performance plane's marks, when the trace contains any: baseline
/// freezes, degraded injections, confirmed anomalies and parity
/// restorations — when performance, not just liveness, recovered.
fn print_perf_marks(events: &[TelemetryEvent]) {
    let mut lines = Vec::new();
    let mut anomalies = 0u64;
    let mut first_anomaly: Option<(SimTime, usize, u32)> = None;
    for ev in events {
        match *ev {
            TelemetryEvent::PerfBaselineFrozen {
                node,
                components,
                at,
            } => lines.push(format!(
                "baseline frozen at {:.3} s (node {node}, {components} ops)",
                at.as_secs_f64()
            )),
            TelemetryEvent::DegradedInjected {
                node,
                factor_permille,
                at,
            } => lines.push(format!(
                "degraded injected at {:.3} s (node {node}, {:.1}x service time)",
                at.as_secs_f64(),
                f64::from(factor_permille) / 1000.0
            )),
            TelemetryEvent::LatencyAnomaly {
                node,
                op,
                ratio_permille,
                at,
            } => {
                anomalies += 1;
                if first_anomaly.is_none() {
                    first_anomaly = Some((at, node, ratio_permille));
                    lines.push(format!(
                        "first latency anomaly at {:.3} s (node {node}, op {op}, {:.1}x baseline)",
                        at.as_secs_f64(),
                        f64::from(ratio_permille) / 1000.0
                    ));
                }
            }
            TelemetryEvent::ParityRestored { node, after, at } => lines.push(format!(
                "parity restored at {:.3} s (node {node}, {:.1} s after first anomaly)",
                at.as_secs_f64(),
                after.as_secs_f64()
            )),
            _ => {}
        }
    }
    if lines.is_empty() {
        return;
    }
    println!("performance plane ({anomalies} anomaly window(s)):");
    for line in &lines {
        println!("  {line}");
    }
    println!();
}

// ---------------------------------------------------------------------------
// timeline
// ---------------------------------------------------------------------------

fn cmd_timeline(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("timeline needs a trace path")?;
    let trace = load(path)?;
    let timeline = availability_timeline(&trace.events);
    if timeline.is_empty() {
        println!("{path}: no client operations in trace");
        return Ok(ExitCode::SUCCESS);
    }
    // One annotation set per second: reboot boundaries (liveness
    // recovery) plus the performance plane's marks (fail-slow injection,
    // anomaly confirmation, parity restoration). A `BTreeSet` dedups the
    // several per-op anomaly events a single window close can emit.
    let mut marks_by_second: BTreeMap<u64, std::collections::BTreeSet<&'static str>> =
        BTreeMap::new();
    for ev in &trace.events {
        let mark = match *ev {
            TelemetryEvent::RebootBegun { at, .. } => Some((at, "<reboot begun")),
            TelemetryEvent::RebootFinished { at, .. } => Some((at, "<reboot done")),
            TelemetryEvent::DegradedInjected { at, .. } => Some((at, "<degraded injected")),
            TelemetryEvent::LatencyAnomaly { at, .. } => Some((at, "<latency anomaly")),
            TelemetryEvent::ParityRestored { at, .. } => Some((at, "<parity restored")),
            // The netstate plane's marks: store bricks dying and coming
            // back, leases expiring en masse, link faults arming/healing.
            TelemetryEvent::BrickFailed { at, .. } => Some((at, "<brick failed")),
            TelemetryEvent::BrickRestored { at, .. } => Some((at, "<brick restored")),
            TelemetryEvent::LeaseExpired { at, .. } => Some((at, "<lease expired")),
            TelemetryEvent::NetFaultInjected { at, .. } => Some((at, "<net fault injected")),
            TelemetryEvent::NetFaultHealed { at, .. } => Some((at, "<net fault healed")),
            _ => None,
        };
        if let Some((at, label)) = mark {
            marks_by_second
                .entry(at.second_index())
                .or_default()
                .insert(label);
        }
    }
    println!("{path}: per-second client-observed availability (idle seconds omitted)\n");
    println!(
        "{:>5}  {:>5}  {:>5}  {:>6}  {:<40}",
        "sec", "ok", "fail", "avail", ""
    );
    for cell in timeline.iter().filter(|c| c.ok + c.fail > 0) {
        let avail = cell.availability();
        let bar = "#".repeat((avail * 40.0).round() as usize);
        let marks: String = marks_by_second
            .get(&cell.second)
            .map(|set| {
                set.iter()
                    .map(|label| format!(" {label}"))
                    .collect::<String>()
            })
            .unwrap_or_default();
        println!(
            "{:>5}  {:>5}  {:>5}  {:>5.1}%  {bar}{marks}",
            cell.second,
            cell.ok,
            cell.fail,
            avail * 100.0
        );
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("diff needs exactly two trace paths".into());
    };
    let a = load(a_path)?;
    let b = load(b_path)?;

    println!(
        "a: {a_path} ({} events, digest {:016x})",
        a.events.len(),
        a.digest
    );
    println!(
        "b: {b_path} ({} events, digest {:016x})",
        b.events.len(),
        b.digest
    );

    if a.digest == b.digest && a.events == b.events {
        println!("\ntraces are identical: zero divergence");
        return Ok(ExitCode::SUCCESS);
    }

    // First diverging event, by position in emission order.
    let first = a
        .events
        .iter()
        .zip(&b.events)
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.events.len().min(b.events.len()));
    println!("\nfirst divergence at event index {first}:");
    match (a.events.get(first), b.events.get(first)) {
        (Some(x), Some(y)) => {
            println!("  a: {}", event_to_json(x));
            println!("  b: {}", event_to_json(y));
        }
        (Some(x), None) => println!("  a: {}\n  b: <end of trace>", event_to_json(x)),
        (None, Some(y)) => println!("  a: <end of trace>\n  b: {}", event_to_json(y)),
        (None, None) => println!("  (event streams equal; digests differ in meta only)"),
    }

    // Per-kind count deltas.
    let mut kinds: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for ev in &a.events {
        kinds.entry(ev.kind()).or_insert((0, 0)).0 += 1;
    }
    for ev in &b.events {
        kinds.entry(ev.kind()).or_insert((0, 0)).1 += 1;
    }
    println!("\nper-kind event counts:");
    let mut t = Table::new(&["kind", "a", "b", "delta"]);
    for (kind, (na, nb)) in &kinds {
        t.row_owned(vec![
            (*kind).to_string(),
            na.to_string(),
            nb.to_string(),
            if na == nb {
                "=".into()
            } else {
                format!("{:+}", *nb as i64 - *na as i64)
            },
        ]);
    }
    t.print();
    Ok(ExitCode::FAILURE)
}

// ---------------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------------

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut strict = false;
    for arg in args {
        match arg.as_str() {
            "--strict" => strict = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("verify: unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or("verify needs a trace path")?;
    let trace = load(&path)?;
    let recomputed = trace.recomputed_digest();
    if recomputed != trace.digest {
        eprintln!(
            "{path}: DIGEST MISMATCH — meta declares {:016x}, events hash to {recomputed:016x}",
            trace.digest
        );
        return Ok(ExitCode::FAILURE);
    }
    if strict {
        let report = simcore::trace::strict_attribution(&trace.events);
        if !report.is_fully_attributed() {
            eprintln!(
                "{path}: STRICT FAILURE — {} event(s) belong to neither an episode nor steady state:",
                report.unattributed.len()
            );
            for (idx, kind) in report.unattributed.iter().take(10) {
                eprintln!("  event #{idx}: {kind}");
            }
            if report.unattributed.len() > 10 {
                eprintln!("  … and {} more", report.unattributed.len() - 10);
            }
            return Ok(ExitCode::FAILURE);
        }
        let attributed: u64 = report.per_episode.iter().sum();
        println!(
            "{path}: OK — {} events, digest {:016x} matches; strict: {} episode(s), {} episode-attributed, {} steady",
            trace.events.len(),
            trace.digest,
            report.episodes.len(),
            attributed,
            report.steady
        );
    } else {
        println!(
            "{path}: OK — {} events, digest {:016x} matches",
            trace.events.len(),
            trace.digest
        );
    }
    Ok(ExitCode::SUCCESS)
}
