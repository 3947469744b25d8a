//! The full action sequence every registered policy issues, rung by rung.
//!
//! The tournament's pinned digests exercise the cheap rungs only (it
//! reports `pages: 0` for five of six policies), so this walks each
//! policy through scripted evidence — persistent component failures until
//! it pages and beyond, connection-dominated evidence from a cold start
//! and from every rung, a quiet spell followed by a fresh burst, an RM
//! crash mid-episode with a late acknowledgement, the `Tdet` and
//! in-flight gates — and compares the transcript (decisions plus the
//! breaker's transitions and the hedge's deferral/coin stream) with
//! `rung_walk.txt`, recorded from the per-policy files this table-driven
//! layer replaced. On a mismatch the test names the first differing line
//! and leaves the whole transcript under `target/tmp/`.

use std::cell::RefCell;
use std::rc::Rc;

use recovery::{PolicyChoice, RecoveryAction, RecoveryManager, RmConfig};
use simcore::telemetry::{shared_bus, DecisionKind, TelemetryEvent, TelemetrySink};
use simcore::{SimDuration, SimTime};
use urb_core::OpCode;
use workload::detect::{FailureKind, FailureReport};

fn path(op: OpCode) -> &'static [&'static str] {
    match op.0 {
        0 => &["WAR", "Browse", "Item"],
        1 => &["WAR", "Bid", "Item"],
        2 => &["WAR", "Account"],
        _ => &["WAR"],
    }
}

#[derive(Default)]
struct Log(Vec<TelemetryEvent>);

impl TelemetrySink for Log {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.0.push(*event);
    }
}

/// What one scripted burst of reports looks like.
#[derive(Clone, Copy)]
enum Burst {
    /// Three HTTP failures of op 0 (suspect: `Browse`).
    Component,
    /// Four connection failures.
    Network,
    /// Fifteen failures of an op only the web component serves.
    WebOnly,
}

struct Walk {
    rm: RecoveryManager,
    log: Rc<RefCell<Log>>,
    t: u64,
    out: Vec<String>,
}

impl Walk {
    fn new(choice: PolicyChoice, config: RmConfig, seed: u64) -> Walk {
        let mut rm = RecoveryManager::with_policy(choice, 2, config, path, "WAR", seed);
        let log = Rc::new(RefCell::new(Log::default()));
        let bus = shared_bus();
        bus.borrow_mut().add_sink(Box::new(log.clone()));
        rm.attach_telemetry(bus);
        Walk {
            rm,
            log,
            t: 1,
            out: Vec::new(),
        }
    }

    fn burst(&mut self, burst: Burst) {
        let (n, op, kind) = match burst {
            Burst::Component => (3, 0, FailureKind::Http),
            Burst::Network => (4, 0, FailureKind::Network),
            Burst::WebOnly => (15, 3, FailureKind::Http),
        };
        for _ in 0..n {
            self.rm.report(&FailureReport {
                at: SimTime::from_secs(self.t),
                op: OpCode(op),
                kind,
                node: 0,
                hint: None,
            });
        }
    }

    /// Moves the telemetry seen since the last call into the transcript
    /// and returns the decision kind of the last `RecoveryDecision`.
    fn drain(&mut self) -> Option<DecisionKind> {
        let mut decided = None;
        for ev in self.log.borrow_mut().0.drain(..) {
            let token = match ev {
                TelemetryEvent::RecoveryDecision { decision, .. } => {
                    decided = Some(decision);
                    continue;
                }
                TelemetryEvent::DetectorFired { .. } | TelemetryEvent::PolicyArmed { .. } => {
                    continue
                }
                TelemetryEvent::BreakerTransition { state, .. } => {
                    format!(
                        "breaker={}",
                        ["closed", "open", "half-open"][state as usize]
                    )
                }
                TelemetryEvent::HedgeDeferred { budget_left, .. } => {
                    format!("defer({budget_left})")
                }
                TelemetryEvent::FlapEscalated { flaps, .. } => format!("flap({flaps})"),
                TelemetryEvent::StormDamped {
                    strikes, backoff, ..
                } => format!("damped({strikes},{}s)", backoff.as_micros() / 1_000_000),
                other => other.kind().to_string(),
            };
            self.out.push(token);
        }
        decided
    }

    /// One decision poll of node 0; true if an action was issued.
    fn poll(&mut self) -> bool {
        let action = self.rm.decide(0, SimTime::from_secs(self.t));
        let decided = self.drain();
        let token = match (&action, decided) {
            (None, None) => "-".to_string(),
            (Some(action), Some(kind)) => {
                let members = match action {
                    RecoveryAction::Microreboot { components }
                    | RecoveryAction::Isolate { components } => {
                        let names: Vec<&str> = components.iter().map(|c| c.as_str()).collect();
                        format!("[{}]", names.join(","))
                    }
                    _ => String::new(),
                };
                let agrees = matches!(
                    (action, kind),
                    (
                        RecoveryAction::Microreboot { .. },
                        DecisionKind::EjbMicroreboot | DecisionKind::WarMicroreboot
                    ) | (RecoveryAction::Isolate { .. }, DecisionKind::Isolate)
                        | (RecoveryAction::Failover, DecisionKind::Failover)
                        | (RecoveryAction::RestartApp, DecisionKind::AppRestart)
                        | (RecoveryAction::RestartProcess, DecisionKind::ProcessRestart)
                        | (RecoveryAction::RebootOs, DecisionKind::OsReboot)
                        | (RecoveryAction::NotifyHuman, DecisionKind::NotifyHuman)
                );
                assert!(agrees, "{action:?} announced as {kind:?}");
                format!("{}{members}", kind.label())
            }
            (action, decided) => panic!("{action:?} returned but {decided:?} announced"),
        };
        self.out.push(token);
        assert_eq!(self.rm.in_flight(0), usize::from(action.is_some()));
        action.is_some()
    }

    fn ack(&mut self, at: u64) {
        self.rm.recovery_finished(0, SimTime::from_secs(at));
        self.drain();
        assert_eq!(self.rm.in_flight(0), 0);
    }

    /// Burst, poll, acknowledge a second later, then move on six seconds:
    /// past the settle window, inside the observation window.
    fn rounds(&mut self, n: usize, burst: Burst) {
        for _ in 0..n {
            self.burst(burst);
            if self.poll() {
                self.ack(self.t + 1);
            }
            self.t += 6;
        }
    }

    /// Forgets the transcript so far (a scenario's set-up prefix).
    fn cut(&mut self) {
        self.out.clear();
    }
}

fn base() -> RmConfig {
    // Single-digit report volumes: a low threshold, as in the manager's
    // unit tests (the default is tuned for 70 req/s noise floors).
    RmConfig {
        score_threshold: 3.0,
        ..RmConfig::default()
    }
}

/// One scripted scenario of one (policy, configuration, seed) row, as a
/// transcript line.
fn scenario(row: &Row<'_>, name: &str, script: &dyn Fn(&mut Walk)) -> String {
    let mut w = Walk::new(row.choice, row.config, row.seed);
    script(&mut w);
    format!("{} {name}: {}", row.label, w.out.join(" "))
}

/// Rounds enough for every policy to page and carry on: the breaker's
/// cooldown doubles per trip, so under the hardened 10 s backoff its
/// sixth trip comes 243 s in.
const LONG: usize = 44;

struct Row<'a> {
    label: &'a str,
    choice: PolicyChoice,
    config: RmConfig,
    seed: u64,
}

fn walk_row(row: &Row<'_>, lines: &mut Vec<String>) {
    lines.push(scenario(row, "persistent", &|w| {
        w.rounds(LONG, Burst::Component)
    }));
    lines.push(scenario(row, "web-only", &|w| w.rounds(5, Burst::WebOnly)));
    for k in 0..=7 {
        lines.push(scenario(row, &format!("network@{k}"), &|w| {
            w.rounds(k, Burst::Component);
            w.cut();
            w.rounds(4, Burst::Network);
        }));
    }
    for k in [1, 2, 4, LONG] {
        lines.push(scenario(row, &format!("quiet@{k}"), &|w| {
            w.rounds(k, Burst::Component);
            w.cut();
            w.t += 200;
            w.poll(); // idle: no evidence survives the quiet spell
            w.t += 1;
            w.rounds(if k == LONG { LONG } else { 3 }, Burst::Component);
        }));
    }
    for k in [0, 1, 3] {
        lines.push(scenario(row, &format!("crash@{k}"), &|w| {
            w.rounds(k, Burst::Component);
            w.cut();
            w.burst(Burst::Component);
            w.poll();
            w.rm.crash(SimTime::from_secs(w.t + 1));
            assert_eq!(w.rm.in_flight(0), 0, "crash forgets in-flight actions");
            w.rm.rebooted(SimTime::from_secs(w.t + 3));
            w.ack(w.t + 4); // late: lands on zero
            w.t += 6;
            w.rounds(3, Burst::Component);
        }));
    }
}

/// `Tdet` postpones the action; an unacknowledged one blocks the next.
fn gates(choice: PolicyChoice) -> String {
    let row = Row {
        label: choice.label(),
        choice,
        config: RmConfig {
            detection_delay: SimDuration::from_secs(5),
            ..base()
        },
        seed: 7,
    };
    scenario(&row, "tdet5", &|w| {
        w.burst(Burst::Component);
        for at in [1, 4, 6] {
            w.t = at;
            w.poll();
        }
        if w.rm.in_flight(0) == 1 {
            w.t = 8;
            w.burst(Burst::Component);
            let busy = w.rm.decide(0, SimTime::from_secs(8));
            assert_eq!(busy, None, "in flight");
            w.ack(9);
        }
        w.t = 14;
        w.rounds(2, Burst::Component);
    })
}

fn transcript() -> String {
    let mut lines = Vec::new();
    for &choice in PolicyChoice::ALL {
        let label = choice.label();
        let (config, seed) = (base(), 7);
        walk_row(
            &Row {
                label,
                choice,
                config,
                seed,
            },
            &mut lines,
        );
        walk_row(
            &Row {
                label: &format!("{label}+hardened"),
                choice,
                config: RmConfig {
                    score_threshold: base().score_threshold,
                    ..RmConfig::hardened()
                },
                seed,
            },
            &mut lines,
        );
        lines.push(gates(choice));
    }
    // The hedge's coin is the one seeded draw any policy makes.
    walk_row(
        &Row {
            label: "retry-hedge@seed11",
            choice: PolicyChoice::RetryHedge,
            config: base(),
            seed: 11,
        },
        &mut lines,
    );
    lines.join("\n") + "\n"
}

#[test]
fn every_policy_walks_its_rungs_as_recorded() {
    let got = transcript();
    let want = include_str!("rung_walk.txt");
    if got == want {
        return;
    }
    // Leave the whole transcript where a deliberate change can pick it up.
    let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/rung_walk.actual.txt");
    std::fs::write(actual, &got).expect("target tmpdir is writable");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "rung_walk.txt line {} (transcript: {actual})", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count (transcript: {actual})"
    );
}
