//! Pins what the one campaign driver must not move: each `urb chaos`
//! flavor at a small size reproduces the campaign digest captured from
//! the four hand-copied drivers it replaced, with zero violations, and
//! every campaign turns a bad command line into exit code 2 plus usage.

use std::process::{Command, Output};

fn urb_chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_urb"))
        .arg("chaos")
        .args(args)
        .output()
        .expect("urb runs")
}

/// Runs a campaign and asserts it exits clean with `expected` lines among
/// its stdout.
fn assert_campaign(args: &[&str], expected: &[&str]) {
    let out = urb_chaos(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    for want in expected {
        assert!(
            stdout.lines().any(|l| l.contains(want)),
            "{args:?}: no line with {want:?} in:\n{stdout}"
        );
    }
}

#[test]
fn classic_campaign_digest_is_pinned() {
    assert_campaign(
        &["--seed", "7", "--runs", "16", "--strict"],
        &[
            "urb chaos: seed 7, 16 run(s), strict",
            "campaign digest 8487a1c45ea4ff74 over 16 run(s), 0 violation(s)",
            "all invariants held",
        ],
    );
}

#[test]
fn netstate_campaign_digest_is_pinned() {
    assert_campaign(
        &["netstate", "--runs", "8"],
        &[
            "netstate campaign digest 62d5dece4fce2be8 over 8 run(s), 0 violation(s)",
            "commit intents: 9467; dupes discarded: 15; store evidence withheld: 261",
        ],
    );
}

#[test]
fn degraded_campaign_digest_is_pinned() {
    assert_campaign(
        &["degraded", "--runs", "2"],
        &["degraded campaign digest 49c69d9482783e25 over 2 run(s), 0 violation(s)"],
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
            "urb chaos tournament: seed 7, 6 run(s) x 2 policies",
            "paper-ladder  27.0          281          148.5            0      0           1aa4ced07bc51f48  *",
            "reboot-first  19.0          380          242.7            0      0           6fd1a13ca94d0ed0  *",
            "Pareto frontier: paper-ladder, reboot-first",
        ],
    );
}

#[test]
fn a_bad_command_line_exits_2_with_usage_on_every_campaign() {
    for sub in [None, Some("tournament"), Some("degraded"), Some("netstate")] {
        for bad in [
            &["--bogus"][..],
            &["--runs"],
            &["--runs", "0"],
            &["--seed", "x"],
            &["--policies", "no-such-policy"],
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
