//! Pins what the one campaign driver must not move: each `urb chaos`
//! flavor reproduces the campaign digest captured from the four
//! hand-copied drivers it replaced, with zero violations (the lines are in
//! `tests/pins.txt`), one run's `--verbose` dump is trace JSONL, and every
//! campaign turns a bad command line into exit code 2 plus usage.

use std::process::{Command, Output};

use simcore::trace::event_from_json;
use urb_core::testkit::assert_pins;

fn urb_chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_urb"))
        .arg("chaos")
        .args(args)
        .output()
        .expect("urb runs")
}

/// Runs a campaign, compares each named pin with the first stdout line
/// that starts with its prefix, then asserts the campaign exited clean.
fn assert_campaign(args: &[&str], pins: &[(&str, &str)]) {
    let out = urb_chaos(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let got: Vec<_> = pins
        .iter()
        .map(|&(name, prefix)| {
            let line = stdout.lines().find(|l| l.starts_with(prefix));
            (name, line.unwrap_or("(no such line)").to_string())
        })
        .collect();
    assert_pins(&got);
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
}

/// The chaos-200 digest DESIGN.md quotes.
#[test]
fn classic_campaign_digest_is_pinned() {
    assert_campaign(
        &["--seed", "7", "--runs", "200", "--strict"],
        &[
            ("chaos.classic.header", "urb chaos:"),
            ("chaos.classic.digest", "campaign digest"),
            ("chaos.classic.verdict", "all "),
        ],
    );
}

#[test]
fn netstate_campaign_digest_is_pinned() {
    assert_campaign(
        &["netstate", "--runs", "8"],
        &[
            ("chaos.netstate.digest", "netstate campaign digest"),
            ("chaos.netstate.ledger", "commit intents:"),
        ],
    );
}

#[test]
fn degraded_campaign_digest_is_pinned() {
    assert_campaign(
        &["degraded", "--runs", "2"],
        &[("chaos.degraded.digest", "degraded campaign digest")],
    );
}

#[test]
fn tournament_digests_are_pinned_per_policy() {
    assert_campaign(
        &[
            "tournament",
            "--runs",
            "6",
            "--policies",
            "paper-ladder,reboot-first",
        ],
        &[
            ("tournament.header", "urb chaos tournament:"),
            ("tournament.paper-ladder", "paper-ladder "),
            ("tournament.reboot-first", "reboot-first "),
            ("tournament.frontier", "Pareto frontier:"),
        ],
    );
}

/// `--only K --verbose` prints run K's injection schedule, then its
/// recovery control plane as trace JSONL. Seed 7's run 0 climbs the whole
/// ladder and then pages.
#[test]
fn the_verbose_dump_of_one_run_is_trace_jsonl() {
    let out = urb_chaos(&["--seed", "7", "--runs", "8", "--only", "0", "--verbose"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let (schedule, dump): (Vec<&str>, Vec<&str>) = stdout
        .lines()
        .filter(|l| l.starts_with("  "))
        .partition(|l| l.starts_with("  at "));
    assert!(!schedule.is_empty(), "no injection schedule:\n{stdout}");
    let kinds: Vec<&str> = dump
        .iter()
        .map(|l| event_from_json(l.trim()).unwrap_or_else(|e| panic!("{l}: {e}")))
        .map(|ev| ev.kind())
        .collect();
    for kind in ["reboot_begun", "reboot_finished", "recovery_decision"] {
        assert!(kinds.contains(&kind), "no {kind} in the dump:\n{stdout}");
    }
    assert!(
        dump.iter()
            .any(|l| l.contains("\"decision\":\"notify_human\"")),
        "the dump shows pages:\n{stdout}"
    );
}

#[test]
fn a_bad_command_line_exits_2_with_usage_on_every_campaign() {
    for sub in [None, Some("tournament"), Some("degraded"), Some("netstate")] {
        for bad in [
            &["--bogus"][..],
            &["--runs"],
            &["--runs", "0"],
            &["--runs", "2", "--only", "5"],
            &["--seed", "x"],
            &["--policies", "no-such-policy"],
            &["--runs", "1", "--policies", "paper-ladder,paper-ladder"],
            &["no-such-campaign"],
        ] {
            let args: Vec<&str> = sub.into_iter().chain(bad.iter().copied()).collect();
            let out = urb_chaos(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("usage: urb exp"), "{args:?}: {stderr}");
            assert!(stderr.contains("tournament, degraded, netstate"));
        }
    }
    // `--json` exists only where there is a report to write.
    assert_eq!(urb_chaos(&["--json"]).status.code(), Some(2));
    let unknown = urb_chaos(&["tournament", "--policies", "paper-ladder,nope"]);
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown policy \"nope\""));
}
