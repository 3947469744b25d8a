//! The command: one workload run for the driver, or the whole report.
//!
//! `urbmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and ends with one JSON result line. Without
//! `--workload` the command reports every workload: it re-executes itself
//! once per (workload, round), one child at a time, rounds interleaved.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::calib::HostClock;
use crate::json::{self, Json};
use crate::layers;
use crate::metrics::{self, EndToEnd, TracedRun, Value, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, Quartiles};
use crate::trace::Tracer;
use crate::workloads::{plan, run_round, Round, RunSpec, Sizes, Workload};

/// Rounds per workload in the report: noise on the development box came
/// in multi-second epochs, and medians of 7 interleaved rounds agreed.
const REPORT_ROUNDS: usize = 7;
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 20.0;
/// `setup_s` medians this close in absolute terms agree whatever their
/// ratio: the steady workloads set up in a few hundredths of a second.
const SETUP_ABS_TOLERANCE_S: f64 = 0.02;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    rounds: Option<usize>,
    check: bool,
    contract: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        rounds: None,
        check: false,
        contract: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rounds" => {
                let n: usize = value()?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if n == 0 || n > 1_000 {
                    return Err("--rounds must be in 1..=1000".into());
                }
                args.rounds = Some(n);
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--contract" => args.contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs the command; returns the process exit code.
pub fn main() -> i32 {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("urbmark: {e}");
            return 2;
        }
    };
    if args.contract {
        print!("{}", contract_json());
        return 0;
    }
    match args.workload {
        Some(workload) => run_workload(workload, &args, started),
        None => report(&args),
    }
}

// ---- one workload, in this process ---------------------------------------

/// True once another round would overshoot the time budget by more than
/// half a round (or the requested round count is reached).
fn budget_spent(args: &Args, started: Instant, done: usize) -> bool {
    match args.rounds {
        Some(n) => done >= n,
        None => {
            let elapsed = started.elapsed().as_secs_f64();
            done >= 2 && elapsed + elapsed / done as f64 / 2.0 > args.seconds
        }
    }
}

fn run_workload(workload: Workload, args: &Args, started: Instant) -> i32 {
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let specs = plan(workload, args.seed, sizes);
    let mut problems = Vec::new();
    let Outcome {
        values,
        attempted,
        mut failed,
        fingerprint,
    } = if args.trace {
        traced_run(workload, &specs, args, started, &mut problems)
    } else {
        untraced_run(workload, &specs, args, started, &mut problems)
    };
    for v in &values {
        println!("{:<48} {:>18.6} {}", v.name, v.value, v.unit);
    }
    println!(
        "sim_fingerprint {} {} {fingerprint:016x}",
        workload.name(),
        args.seed
    );
    for p in &problems {
        println!("VIOLATION {p}");
    }
    if !problems.is_empty() {
        failed = failed.max(1);
    }
    println!(
        "{}",
        result_line(problems.is_empty(), attempted, failed, &values)
    );
    i32::from(!problems.is_empty())
}

/// What one workload run reports.
struct Outcome {
    values: Vec<Value>,
    /// Simulation runs made, and how many of them broke a gate.
    attempted: u64,
    failed: u64,
    fingerprint: u64,
}

/// Runs one round with the reference kernel timed on either side of it.
fn timed_round(
    host: &mut HostClock,
    workload: Workload,
    specs: &[RunSpec],
    tracer: Option<&mut Tracer>,
) -> Round {
    let (mut round, speed) = host.around(|| run_round(workload, specs, tracer));
    round.host_speed = speed;
    round
}

/// Collects the rounds' gate violations and checks that each simulated
/// the same thing as `reference`, a round of the same seed.
fn judge(reference: &Round, rounds: &[Round], with_allocs: bool, problems: &mut Vec<String>) {
    for r in rounds {
        problems.extend(r.violations.iter().cloned());
        if !r.same_simulation(reference, with_allocs) {
            problems.push(format!(
                "two rounds of one seed simulated different things: fingerprint {:016x} vs {:016x}, {} vs {} allocations, {:?} vs {:?}",
                r.fingerprint, reference.fingerprint, r.allocs, reference.allocs, r.counts, reference.counts
            ));
        }
    }
}

/// (attempted, failed) simulation runs over `rounds`.
fn tally<'a>(rounds: impl Iterator<Item = &'a Round>) -> (u64, u64) {
    rounds.fold((0, 0), |(a, f), r| (a + r.runs, f + r.failed_runs))
}

fn untraced_run(
    workload: Workload,
    specs: &[RunSpec],
    args: &Args,
    started: Instant,
    problems: &mut Vec<String>,
) -> Outcome {
    let mut host = HostClock::start();
    let mut rounds = Vec::new();
    while !budget_spent(args, started, rounds.len()) {
        rounds.push(timed_round(&mut host, workload, specs, None));
    }
    judge(&rounds[0], &rounds, true, problems);
    let (attempted, failed) = tally(rounds.iter());
    let describe = |name: &str, unit: &str, of: fn(&Round) -> f64| {
        let q = quartiles(&rounds.iter().map(of).collect::<Vec<_>>());
        println!(
            "# {name} over {} rounds: median {:.6} q1 {:.6} q3 {:.6} {unit}",
            q.n, q.median, q.q1, q.q3
        );
    };
    describe("setup_s", "s", Round::norm_setup_s);
    describe("sim_s_per_wall_s", "sim-s/s", Round::sim_s_per_wall_s);
    describe("raw setup_s", "s", |r| r.setup_s);
    describe(
        "raw sim_s_per_wall_s",
        "sim-s/s",
        Round::raw_sim_s_per_wall_s,
    );
    describe("host speed", "of nominal", |r| r.host_speed);
    Outcome {
        values: metrics::end_to_end(&rounds),
        attempted,
        failed,
        fingerprint: rounds[0].fingerprint,
    }
}

fn traced_run(
    workload: Workload,
    specs: &[RunSpec],
    args: &Args,
    started: Instant,
    problems: &mut Vec<String>,
) -> Outcome {
    let mut tracer = Tracer::default();
    let unit_costs = layers::run_all(&mut tracer, args.seed, args.quick);
    // Untraced and traced rounds alternate, so the overhead ratio compares
    // neighbours in time, not epochs of different machine noise.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut host = HostClock::start();
    while untraced.is_empty() || !budget_spent(args, started, untraced.len()) {
        untraced.push(timed_round(&mut host, workload, specs, None));
        traced.push(timed_round(&mut host, workload, specs, Some(&mut tracer)));
    }
    judge(&untraced[0], &untraced, true, problems);
    // Tracing must not change what is simulated; its own allocations are
    // not the program's.
    judge(&untraced[0], &traced, false, problems);
    let (attempted, failed) = tally(untraced.iter().chain(&traced));
    let values = metrics::per_layer(&TracedRun {
        workload,
        untraced: &untraced,
        traced: &traced,
        unit_costs: &unit_costs,
    });
    // The est shares and the unattributed rest sum to 1 by definition;
    // what can go wrong is layers counted twice (a negative rest) or a
    // bus that saw nothing (phases summing to 0).
    let of = |name: &str| {
        values
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.value)
    };
    let unattributed = of("cluster.sim.unattributed_share");
    let phases: f64 = values
        .iter()
        .filter(|v| v.name.starts_with("cluster.sim.phase_share."))
        .map(|v| v.value)
        .sum();
    if !(0.0..=1.0).contains(&unattributed) || (phases - 1.0).abs() > 0.01 {
        problems.push(format!(
            "attribution is off: unattributed share {unattributed}, phase shares sum to {phases}"
        ));
    }
    let path = spans_path(workload);
    if let Err(e) = std::fs::write(&path, tracer.to_jsonl(workload.name())) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    } else {
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Outcome {
        values,
        attempted,
        failed,
        fingerprint: untraced[0].fingerprint,
    }
}

/// Build outputs live two levels above the executable
/// (`<target>/release/urbmark`); the spans go beside them.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn spans_path(workload: Workload) -> PathBuf {
    target_dir().join(format!("spans.{}.jsonl", workload.name()))
}

fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        attempted.max(1),
        failed.min(attempted.max(1))
    );
    for (i, v) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            v.name, v.unit
        );
    }
    out.push_str("}}");
    out
}

// ---- the contract ------------------------------------------------------------

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift;
/// a package test compares the committed file with this.
pub fn contract_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {},", DEFAULT_SECONDS as u64);
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

// ---- the report: every workload, one child process at a time -----------------

struct ChildResult {
    metrics: Vec<(String, f64, String)>,
    fingerprint: String,
}

/// Re-executes this binary on one workload and reads its result line.
/// The DES is single-threaded and the box is shared: one child at a
/// time, so `peak_rss_mb` and allocator state are per (workload, round).
fn run_child(workload: Workload, args: &Args, extra: &[&str]) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
    ]);
    cmd.args(extra);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let violations: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("VIOLATION"))
        .collect();
    if !output.status.success() || !violations.is_empty() {
        return Err(format!(
            "{} failed ({}): {}",
            workload.name(),
            output.status,
            violations.join("; ")
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc =
        json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: result not correct", workload.name()));
    }
    let metrics = doc
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_fingerprint "))
        .and_then(|l| l.split_whitespace().nth(2))
        .unwrap_or("")
        .to_string();
    Ok(ChildResult {
        metrics,
        fingerprint,
    })
}

/// One complete set: `rounds` rounds of every workload, interleaved.
struct Set {
    /// Per workload, per end-to-end metric: one sample per round.
    samples: Vec<Vec<Vec<f64>>>,
    fingerprints: Vec<String>,
}

fn run_set(args: &Args, rounds: usize, problems: &mut Vec<String>) -> Set {
    let mut set = Set {
        samples: vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()],
        fingerprints: vec![String::new(); Workload::ALL.len()],
    };
    for round in 0..rounds {
        for (wi, &w) in Workload::ALL.iter().enumerate() {
            match run_child(w, args, &["--rounds", "1", "--trace", "0"]) {
                Err(e) => problems.push(e),
                Ok(child) => {
                    for (mi, m) in END_TO_END.iter().enumerate() {
                        match child.metrics.iter().find(|(n, _, _)| n == m.name) {
                            Some((_, v, _)) => set.samples[wi][mi].push(*v),
                            None => problems.push(format!("{}: {} missing", w.name(), m.name)),
                        }
                    }
                    if round == 0 {
                        set.fingerprints[wi] = child.fingerprint;
                    } else if set.fingerprints[wi] != child.fingerprint {
                        problems.push(format!(
                            "{}: sim_fingerprint {} in round {round}, {} in round 0",
                            w.name(),
                            child.fingerprint,
                            set.fingerprints[wi]
                        ));
                    }
                }
            }
        }
    }
    // Same seed, same simulated statistics, whatever the round.
    for (wi, w) in Workload::ALL.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let s = &set.samples[wi][mi];
            if m.exact && s.iter().any(|v| *v != s[0]) {
                problems.push(format!(
                    "{}: {} differs between rounds: {s:?}",
                    w.name(),
                    m.name
                ));
            }
        }
    }
    set
}

fn print_set(label: &str, set: &Set) {
    println!("== end-to-end, {label}: median [q1, q3] n ==");
    for (wi, w) in Workload::ALL.iter().enumerate() {
        println!("{} sim_fingerprint {}", w.name(), set.fingerprints[wi]);
        for (mi, m) in END_TO_END.iter().enumerate() {
            let q = quartiles(&set.samples[wi][mi]);
            println!(
                "{:<18} {:<20} {:>16.6} [{:.6}, {:.6}] n={} {}",
                w.name(),
                m.name,
                q.median,
                q.q1,
                q.q3,
                q.n,
                m.unit
            );
        }
    }
}

/// Whether two medians of one metric agree within the metric's bound.
fn agree(m: &EndToEnd, a: &Quartiles, b: &Quartiles) -> bool {
    if m.exact {
        return a.median == b.median;
    }
    let gap = (a.median - b.median).abs();
    gap <= m.bound * a.median.min(b.median) || (m.name == "setup_s" && gap <= SETUP_ABS_TOLERANCE_S)
}

fn report(args: &Args) -> i32 {
    let rounds = args
        .rounds
        .unwrap_or(if args.quick { 2 } else { REPORT_ROUNDS });
    let mut problems = Vec::new();
    println!(
        "urbmark report: seed {}, {rounds} interleaved rounds x {} workloads, one child process at a time",
        args.seed,
        Workload::ALL.len()
    );
    let first = run_set(args, rounds, &mut problems);
    print_set("set 1", &first);

    if args.check {
        let second = run_set(args, rounds, &mut problems);
        print_set("set 2", &second);
        println!("== check: two sets of the same code ==");
        for (wi, w) in Workload::ALL.iter().enumerate() {
            if first.fingerprints[wi] != second.fingerprints[wi] {
                problems.push(format!(
                    "{}: sim_fingerprint differs between sets",
                    w.name()
                ));
            }
            for (mi, m) in END_TO_END.iter().enumerate() {
                let (a, b) = (
                    quartiles(&first.samples[wi][mi]),
                    quartiles(&second.samples[wi][mi]),
                );
                let ok = agree(m, &a, &b);
                println!(
                    "{:<18} {:<20} {:>16.6} vs {:>16.6} {} {}",
                    w.name(),
                    m.name,
                    a.median,
                    b.median,
                    m.unit,
                    if ok { "ok" } else { "DISAGREE" }
                );
                if !ok {
                    problems.push(format!(
                        "{}: {} medians {} and {} disagree beyond {}",
                        w.name(),
                        m.name,
                        a.median,
                        b.median,
                        if m.exact {
                            "exact equality".to_string()
                        } else {
                            format!("{}%", m.bound * 100.0)
                        }
                    ));
                }
            }
        }
    }

    // The traced round: per-layer metrics, never end-to-end ones.
    println!("== per-layer, traced round ==");
    let seconds = if args.quick { "1" } else { "16" };
    let mut spans = String::new();
    for &w in &Workload::ALL {
        match run_child(w, args, &["--seconds", seconds, "--trace", "1"]) {
            Err(e) => problems.push(e),
            Ok(child) => {
                for (name, value, unit) in &child.metrics {
                    println!("{:<18} {:<48} {:>18.6} {unit}", w.name(), name, value);
                }
                match std::fs::read_to_string(spans_path(w)) {
                    Ok(s) => spans.push_str(&s),
                    Err(e) => problems.push(format!("{}: spans not readable: {e}", w.name())),
                }
            }
        }
    }
    let all_spans = target_dir().join("spans.jsonl");
    match std::fs::write(&all_spans, &spans) {
        Ok(()) => println!("spans of all workloads: {}", all_spans.display()),
        Err(e) => problems.push(format!("cannot write {}: {e}", all_spans.display())),
    }

    for p in &problems {
        println!("FAILED {p}");
    }
    println!(
        "urbmark report: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    i32::from(!problems.is_empty())
}
