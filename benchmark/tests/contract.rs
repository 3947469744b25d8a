//! The benchmark's own contract: what the command prints is what
//! `BENCHMARK.json` declares, on every workload, traced and untraced.

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Mutex;

use urbmark::json::{self, Json};
use urbmark::workloads::Workload;

/// Traced runs of one workload share a spans file, and the box has two
/// cores: tests that start the binary take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(doc: &Json, list: &str) -> BTreeSet<String> {
    doc.get(list)
        .expect("the contract has this list")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Runs the binary and returns (exit ok, stdout).
fn urbmark(args: &[&str]) -> (bool, String) {
    let _turn = ONE_AT_A_TIME
        .lock()
        .expect("a test that held the lock panicked");
    let out = Command::new(env!("CARGO_BIN_EXE_urbmark"))
        .args(args)
        .output()
        .expect("the binary starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn result_of(stdout: &str) -> Json {
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_is_generated_from_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    assert_eq!(
        committed,
        urbmark::cli::contract_json(),
        "regenerate with: benchmark/run.sh --contract > BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_is_within_the_drivers_limits() {
    let doc = contract();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for m in doc.get(list).unwrap().items() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "{name} is used twice");
            if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
                assert!(
                    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                    "{unit}"
                );
            }
            if let Some(why) = m.get("why").and_then(Json::as_str) {
                assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            }
            if let Some(bound) = m.get("bound").and_then(Json::as_f64) {
                assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
            }
        }
    }
    assert_eq!(names(&doc, "workloads").len(), Workload::ALL.len());
    assert!(names(&doc, "end_to_end").contains("setup_s"));
    assert!(names(&doc, "per_layer").len() <= 128);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let doc = contract();
    for workload in names(&doc, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = urbmark(&[
                "--workload",
                &workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let result = result_of(&stdout);
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let printed: BTreeSet<String> = result
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
                    name.clone()
                })
                .collect();
            assert_eq!(printed, names(&doc, list), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for workload in Workload::ALL {
        let (ok, stdout) = urbmark(&[
            "--workload",
            workload.name(),
            "--seed",
            "11",
            "--rounds",
            "2",
            "--trace",
            "0",
            "--quick",
        ]);
        assert!(ok, "{} at seed 11 failed:\n{stdout}", workload.name());
        assert!(!stdout.contains("VIOLATION"), "{stdout}");
    }
}

#[test]
fn the_quick_report_names_every_workload_and_metric() {
    let doc = contract();
    let (ok, stdout) = urbmark(&["--quick"]);
    assert!(ok, "the quick report failed:\n{stdout}");
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&doc, list) {
            assert!(stdout.contains(&name), "the report never mentions {name}");
        }
    }
    assert!(stdout.contains("urbmark report: ok"));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x"],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = urbmark(args);
        assert!(!ok && stdout.is_empty(), "{args:?} was accepted");
    }
}
