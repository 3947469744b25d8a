//! `urb chaos` — deterministic fault-injection campaigns.
//!
//! A campaign sweeps a seeded scenario space (fault kind × target ×
//! injection time × optional second fault mid-recovery × flapping
//! schedule × detector kind × recovery-manager concurrency), runs each
//! scenario through [`bench::chaos::run_scenario`] — which asserts the
//! recovery invariants on every run — and, with `--strict`, re-runs it
//! and requires the trace digest to reproduce bit-for-bit. Each run folds
//! into a `CampaignRunDone` telemetry event; the campaign digest is the
//! FNV fold of those events, so the whole campaign is reproducible from
//! `(seed, runs)` alone.
//!
//! Four campaigns share the one driver, [`run_campaign`]; each is a
//! [`Campaign`] value in [`CAMPAIGNS`] holding only what is its own: the
//! classic campaign (no name given), the policy `tournament`, the
//! fail-slow `degraded` campaign (performance-parity stage armed) and the
//! store- and link-fault `netstate` campaign (session-integrity stage
//! armed). DESIGN.md §8 describes the harness.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::chaos::{describe, injected, run_scenario, RunOptions, RunOutcome, CLIENTS};
use bench::netstate;
use bench::report::{JsonReport, Table};
use faults::campaign::{self, CampaignConfig, Injection, Scenario};
use recovery::PolicyChoice;
use simcore::telemetry::{TelemetrySink, TraceHashSink};
use simcore::trace::event_to_json;
use simcore::TelemetryEvent;

use crate::number;

/// `urb chaos [<campaign>] <flags>`: the named campaign, else the classic.
pub(crate) fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.split_first() {
        Some((name, flags)) if !name.starts_with("--") => {
            let campaign = CAMPAIGNS[1..]
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("unknown campaign {name:?}"))?;
            run_campaign(campaign, flags)
        }
        _ => run_campaign(&CAMPAIGNS[0], args),
    }
}

/// One chaos campaign: everything the driver needs to know about a
/// flavor, and nothing the flavors share.
pub(crate) struct Campaign {
    /// Its name on the command line (empty for the classic campaign).
    pub(crate) name: &'static str,
    /// The seeded scenario generator.
    scenarios: fn(&CampaignConfig) -> Vec<Scenario>,
    /// How a scenario runs under one of the campaign's policies.
    options: fn(&Scenario, PolicyChoice) -> RunOptions,
    /// `--runs` when not given.
    default_runs: u64,
    /// The policies the scenarios are swept across; more than one makes
    /// `--policies` a flag of this campaign.
    policies: &'static [PolicyChoice],
    /// `BENCH_<report>.json` stem; `None` means no `--json` flag.
    report: Option<&'static str>,
    /// Prints the flavor's summary, folded from the outcomes, and records
    /// the same numbers in the report.
    summarize: fn(&[Scenario], &[Sweep], &mut JsonReport),
    /// The closing line of a clean campaign.
    held: &'static str,
}

/// A parsed command line.
#[derive(Default)]
struct Invocation {
    seed: u64,
    runs: u64,
    only: Option<u64>,
    strict: bool,
    verbose: bool,
    json: bool,
    policies: Vec<PolicyChoice>,
}

/// One policy's pass over the campaign's scenarios.
struct Sweep {
    policy: PolicyChoice,
    /// One outcome per scenario, in scenario order.
    outcomes: Vec<RunOutcome>,
    /// FNV fold of every run's `CampaignRunDone` event.
    digest: u64,
    /// Invariant violations over all runs.
    violations: u64,
}

fn parse(c: &Campaign, args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation {
        seed: 7,
        runs: c.default_runs,
        policies: c.policies.to_vec(),
        ..Invocation::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => inv.seed = number(&mut it, flag)?,
            "--runs" => inv.runs = number(&mut it, flag)?,
            "--only" => inv.only = Some(number(&mut it, flag)?),
            "--strict" => inv.strict = true,
            "--verbose" => inv.verbose = true,
            "--json" if c.report.is_some() => inv.json = true,
            "--policies" if c.policies.len() > 1 => {
                inv.policies = it
                    .next()
                    .ok_or("--policies needs a list")?
                    .split(',')
                    .map(policy_from_label)
                    .collect::<Result<_, _>>()?;
                let policies = &inv.policies;
                let mut named = policies.iter().enumerate();
                if let Some((_, p)) = named.find(|&(i, p)| policies[..i].contains(p)) {
                    // Racing a policy against itself prints it twice and
                    // writes each of its report keys twice.
                    return Err(format!("policy {:?} named twice", p.label()));
                }
            }
            _ => return Err(format!("unknown flag {flag:?} for this campaign")),
        }
    }
    if inv.runs == 0 {
        // Zero runs would check no invariant and still report them held.
        return Err("--runs must be at least 1".to_string());
    }
    if inv.only.is_some_and(|run| run >= inv.runs) {
        // So would `--only` naming a run past the last one.
        return Err(format!("--only must be below --runs ({})", inv.runs));
    }
    Ok(inv)
}

fn policy_from_label(label: &str) -> Result<PolicyChoice, String> {
    PolicyChoice::from_label(label).ok_or_else(|| {
        let known: Vec<_> = PolicyChoice::ALL.iter().map(|p| p.label()).collect();
        format!("unknown policy {label:?}; known: {}", known.join(", "))
    })
}

/// The one campaign driver: parses the command line, runs every scenario
/// under every policy (re-running under `--strict`), folds each run into
/// the sweep's digest, lets the flavor summarize, writes the report, and
/// turns violations into the failure list and the exit code.
fn run_campaign(c: &Campaign, args: &[String]) -> Result<ExitCode, String> {
    let inv = parse(c, args)?;
    let mut scenarios = (c.scenarios)(&CampaignConfig {
        seed: inv.seed,
        runs: inv.runs,
    });
    if let Some(run) = inv.only {
        scenarios.retain(|s| s.run == run);
    }
    let sweeping = c.policies.len() > 1;
    let arms = match inv.policies.len() {
        n if sweeping => format!(" x {n} policies"),
        _ => String::new(),
    };
    let strict = if inv.strict { ", strict" } else { "" };
    let title = format!("urb chaos {}", c.name);
    println!(
        "{}: seed {}, {} run(s){arms}{strict}",
        title.trim_end(),
        inv.seed,
        inv.runs
    );

    let mut sweeps = Vec::new();
    for &policy in &inv.policies {
        let mut hash = TraceHashSink::new();
        let (mut outcomes, mut violations) = (Vec::new(), 0);
        for s in &scenarios {
            let opts = (c.options)(s, policy);
            let mut out = run_scenario(s, &opts);
            if inv.strict {
                let again = run_scenario(s, &opts);
                if again.digest != out.digest {
                    out.violations.push(format!(
                        "nondeterministic: digest {:016x} vs {:016x} on re-run",
                        out.digest, again.digest
                    ));
                }
            }
            hash.on_event(&TelemetryEvent::CampaignRunDone {
                run: s.run,
                digest: out.digest,
                violations: out.violations.len() as u32,
            });
            if inv.verbose {
                if inv.only.is_some() {
                    print_schedule(s);
                    out.log
                        .iter()
                        .for_each(|ev| println!("  {}", event_to_json(ev)));
                }
                println!("{}", run_line(sweeping.then_some(policy), s, &out));
            }
            violations += out.violations.len() as u64;
            outcomes.push(out);
        }
        sweeps.push(Sweep {
            policy,
            outcomes,
            digest: hash.value(),
            violations,
        });
    }

    // A sweep across policies reports one digest per policy in its own
    // table; a single-policy campaign's digest is the campaign's.
    let mut report = JsonReport::new(c.report.unwrap_or(c.name));
    report.metric("seed", inv.seed);
    if sweeping {
        report.metric("runs_per_policy", inv.runs);
        report.metric("policies", sweeps.len() as u64);
    } else {
        report.metric("runs", inv.runs);
        report.metric("violations", sweeps[0].violations);
    }
    (c.summarize)(&scenarios, &sweeps, &mut report);
    if !sweeping {
        let label = format!("{} campaign digest", c.name);
        println!(
            "{} {:016x} over {} run(s), {} violation(s)",
            label.trim_start(),
            sweeps[0].digest,
            sweeps[0].outcomes.len(),
            sweeps[0].violations,
        );
        report.digest(sweeps[0].digest);
    }
    if inv.json {
        match report.write() {
            Ok(path) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write report: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    if sweeps.iter().all(|sweep| sweep.violations == 0) {
        println!("{}", c.held);
        return Ok(ExitCode::SUCCESS);
    }
    for sweep in &sweeps {
        let under = if sweeping {
            format!(" under {}", sweep.policy.label())
        } else {
            String::new()
        };
        for (s, out) in scenarios.iter().zip(&sweep.outcomes) {
            if !out.violations.is_empty() {
                eprintln!("run {} ({}){under}:", s.run, describe(s));
                for v in &out.violations {
                    eprintln!("  - {v}");
                }
            }
        }
    }
    Ok(ExitCode::FAILURE)
}

/// The `--only --verbose` dump's head: what the scenario injects and when,
/// before the run's control-plane events follow as trace JSONL.
fn print_schedule(s: &Scenario) {
    for (at_s, injection) in s.schedule() {
        let what = match injection {
            Injection::Fault(fault) => format!("inject {fault:?}"),
            Injection::Recurrence(fault) => format!("inject {fault:?} if node 0 is up"),
            Injection::RmCrash(c) => format!("crash the recovery manager for {} s", c.outage_s),
        };
        println!("  at {at_s} s {what}");
    }
}

/// One `--verbose` line: the run, what it injected, what each armed
/// stage measured, its trace digest and its verdict.
fn run_line(policy: Option<PolicyChoice>, s: &Scenario, out: &RunOutcome) -> String {
    let mut line = policy.map_or(String::new(), |p| format!("{:<16} ", p.label()));
    line += &format!("run {:>4}  {:<48}  ", s.run, describe(s));
    line += &format!("downtime {:>7} ms  ", out.downtime_ms);
    if let Some(p) = out.perf {
        let ms = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
        line += &format!(
            "detect {:>6} ms  parity {:>7} ms  depth {:<15}  ",
            ms(p.detection_latency_ms),
            ms(p.parity_after_ms),
            DEPTHS[usize::from(p.escalation_depth.min(4))],
        );
    }
    if let Some(i) = out.integrity {
        line += &format!(
            "intents {:>5}  dupes {:>4}  evidence {:>3}  retries {:>4}  ",
            i.commit_intents, i.dupes_discarded, i.store_evidence, i.retries_issued,
        );
    }
    line += &format!("digest {:016x}  ", out.digest);
    if out.violations.is_empty() {
        line + "ok"
    } else {
        line + "VIOLATIONS: " + &out.violations.join("; ")
    }
}

/// Prints injections per fault kind; returns how many kinds were covered.
fn print_coverage(scenarios: &[Scenario]) -> usize {
    let mut coverage: BTreeMap<&'static str, u64> = BTreeMap::new();
    for fault in scenarios.iter().flat_map(injected) {
        *coverage.entry(fault.kind().label()).or_insert(0) += 1;
    }
    let mut t = Table::new(&["fault kind", "runs"]);
    for (kind, n) in &coverage {
        t.row_owned(vec![(*kind).to_string(), n.to_string()]);
    }
    t.print();
    coverage.len()
}

/// The campaigns, classic first; the rest are chosen by name.
pub(crate) static CAMPAIGNS: [Campaign; 4] = [
    Campaign {
        name: "",
        scenarios: campaign::scenarios,
        options: |_, _| RunOptions::default(),
        default_runs: 64,
        policies: &[PolicyChoice::Ladder],
        report: None,
        summarize: classic_summary,
        held: "all invariants held",
    },
    Campaign {
        name: "tournament",
        scenarios: campaign::tournament_scenarios,
        options: |_, policy| RunOptions {
            nodes: 2,
            policy,
            ..RunOptions::default()
        },
        // 18 covers every fault kind once.
        default_runs: 18,
        policies: PolicyChoice::ALL,
        report: Some("policy_tournament"),
        summarize: tournament_summary,
        held: "all conformance invariants held",
    },
    Campaign {
        name: "degraded",
        scenarios: campaign::degraded_scenarios,
        options: |_, _| RunOptions {
            // Three times the classic client load: fail-slow detection is
            // statistical, and the degraded targets' ops need enough
            // traffic per judgement window (>= min_window_ops) to earn
            // verdicts. The classic campaigns keep the lighter load their
            // digests pin.
            clients: 3 * CLIENTS,
            ..RunOptions::default()
        },
        default_runs: 12,
        policies: &[PolicyChoice::Ladder],
        report: Some("degraded_parity"),
        summarize: degraded_summary,
        held: "all parity invariants held",
    },
    Campaign {
        name: "netstate",
        scenarios: campaign::netstate_scenarios,
        options: |s, _| netstate::options(s),
        default_runs: 100,
        policies: &[PolicyChoice::Ladder],
        report: Some("netstate_integrity"),
        summarize: netstate_summary,
        held: "all session-integrity invariants held",
    },
];

fn classic_summary(scenarios: &[Scenario], _: &[Sweep], _: &mut JsonReport) {
    let kinds = print_coverage(scenarios);
    println!(
        "\nfault kinds covered: {kinds}; flapping runs: {}; second-fault runs: {}",
        scenarios.iter().filter(|s| s.flap.is_some()).count(),
        scenarios.iter().filter(|s| s.second.is_some()).count(),
    );
}

/// Scores each policy on four minimized frontier metrics — downtime,
/// failed requests, reboot cost, pages — and marks the Pareto frontier: a
/// policy is on it iff no other is at-least-as-good on all four and
/// strictly better on one.
fn tournament_summary(_: &[Scenario], sweeps: &[Sweep], r: &mut JsonReport) {
    let total = |sweep: &Sweep, metric: fn(&RunOutcome) -> f64| {
        sweep.outcomes.iter().map(metric).sum::<f64>()
    };
    let scores: Vec<[f64; 4]> = sweeps
        .iter()
        .map(|sweep| {
            [
                total(sweep, |o| o.downtime_ms as f64),
                total(sweep, |o| o.failed_requests as f64),
                total(sweep, |o| o.reboot_cost_s),
                total(sweep, |o| o.pages as f64),
            ]
        })
        .collect();
    let dominates = |b: &[f64; 4], a: &[f64; 4]| {
        (0..4).all(|k| b[k] <= a[k] + f64::EPSILON) && (0..4).any(|k| b[k] + f64::EPSILON < a[k])
    };

    let mut t = Table::new(&[
        "policy",
        "downtime (s)",
        "failed reqs",
        "reboot cost (s)",
        "pages",
        "violations",
        "digest",
        "pareto",
    ]);
    let mut frontier = Vec::new();
    for (sweep, score) in sweeps.iter().zip(&scores) {
        let l = sweep.policy.label();
        let [downtime_ms, failed_requests, reboot_cost_s, pages] = *score;
        let pareto = !scores.iter().any(|other| dominates(other, score));
        t.row_owned(vec![
            l.to_string(),
            format!("{:.1}", downtime_ms / 1000.0),
            failed_requests.to_string(),
            format!("{reboot_cost_s:.1}"),
            pages.to_string(),
            sweep.violations.to_string(),
            format!("{:016x}", sweep.digest),
            if pareto { "*" } else { "" }.to_string(),
        ]);
        r.metric(&format!("{l}.downtime_ms"), downtime_ms as u64);
        r.metric(&format!("{l}.failed_requests"), failed_requests as u64);
        r.metric_f64(&format!("{l}.reboot_cost_s"), reboot_cost_s);
        r.metric(&format!("{l}.pages"), pages as u64);
        r.metric(&format!("{l}.violations"), sweep.violations);
        r.text(&format!("{l}.digest"), &format!("{:016x}", sweep.digest));
        r.metric(&format!("{l}.pareto"), u64::from(pareto));
        if pareto {
            frontier.push(l);
        }
    }
    t.print();
    println!("\nPareto frontier: {}", frontier.join(", "));
    r.text("pareto_frontier", &frontier.join(","));
}

/// Labels of [`bench::chaos::PerfOutcome::escalation_depth`] values.
const DEPTHS: [&str; 5] = [
    "none",
    "microreboot",
    "app-restart",
    "process-restart",
    "os-reboot",
];

fn degraded_summary(_: &[Scenario], sweeps: &[Sweep], r: &mut JsonReport) {
    let perf: Vec<_> = sweeps[0]
        .outcomes
        .iter()
        .map(|o| o.perf.unwrap_or_default())
        .collect();
    let detection_ms: Vec<u64> = perf.iter().filter_map(|p| p.detection_latency_ms).collect();
    let parity_ms: Vec<u64> = perf.iter().filter_map(|p| p.parity_after_ms).collect();
    let anomaly_windows: u64 = perf.iter().map(|p| p.anomalies).sum();
    let mut depth_counts = [0u64; 5];
    for p in &perf {
        depth_counts[usize::from(p.escalation_depth.min(4))] += 1;
    }
    let mut t = Table::new(&["metric", "value"]);
    r.metric("anomaly_windows", anomaly_windows);
    for (label, key, ms) in [
        ("detection latency", "detection_latency_ms", &detection_ms),
        ("parity restoration", "parity_restore_ms", &parity_ms),
    ] {
        let mean = ms.iter().sum::<u64>() / ms.len().max(1) as u64;
        let max = ms.iter().copied().max().unwrap_or(0);
        t.row_owned(vec![
            format!("{label} (ms, mean/max)"),
            format!("{mean} / {max}"),
        ]);
        r.metric(&format!("{key}_mean"), mean);
        r.metric(&format!("{key}_max"), max);
    }
    t.row_owned(vec!["anomaly windows".into(), anomaly_windows.to_string()]);
    for (label, count) in DEPTHS.iter().zip(depth_counts) {
        t.row_owned(vec![
            format!("escalation depth: {label}"),
            count.to_string(),
        ]);
        r.metric(&format!("escalation.{label}"), count);
    }
    t.print();
}

fn netstate_summary(scenarios: &[Scenario], sweeps: &[Sweep], r: &mut JsonReport) {
    let outcomes = &sweeps[0].outcomes;
    let integrity: Vec<_> = outcomes
        .iter()
        .map(|o| o.integrity.unwrap_or_default())
        .collect();
    let commit_intents: u64 = integrity.iter().map(|i| i.commit_intents).sum();
    let dupes_discarded: u64 = integrity.iter().map(|i| i.dupes_discarded).sum();
    let store_evidence: u64 = integrity.iter().map(|i| i.store_evidence).sum();
    let retries_issued: u64 = integrity.iter().map(|i| i.retries_issued).sum();
    let downtime_ms: u64 = outcomes.iter().map(|o| o.downtime_ms).sum();
    let retry_runs = scenarios.iter().filter(|s| s.budgeted_retry).count() as u64;

    let kinds = print_coverage(scenarios);
    println!(
        "\ncommit intents: {commit_intents}; dupes discarded: {dupes_discarded}; \
         store evidence withheld: {store_evidence}; client retries: {retries_issued} \
         ({retry_runs} budgeted run(s)); degraded time: {downtime_ms} ms"
    );

    r.metric("commit_intents", commit_intents);
    r.metric("dupes_discarded", dupes_discarded);
    r.metric("store_evidence_withheld", store_evidence);
    r.metric("retries_issued", retries_issued);
    r.metric("budgeted_retry_runs", retry_runs);
    r.metric("downtime_ms", downtime_ms);
    r.metric("fault_kinds_covered", kinds as u64);
}
