//! Fuzz-style property tests of the client pool's state machine: any
//! sequence of response outcomes must leave the pool consistent.
//!
//! Sequences are generated with the deterministic [`SimRng`], so every run
//! covers the same cases and failures reproduce without a shrink step.

use simcore::{SimDuration, SimRng, SimTime, WeightTable};
use statestore::SessionId;
use urb_core::{BodyMarkers, OpCode, Response, Status};
use workload::catalog::{ArgKind, Catalog, FunctionalGroup, MixClass, OpSpec};
use workload::{ClientPool, ClientPoolConfig, DeliverOutcome};

fn catalog() -> Catalog {
    let op = |code: u16, name, is_login: bool, is_logout: bool, needs: bool| OpSpec {
        op: OpCode(code),
        name,
        group: FunctionalGroup::BrowseView,
        mix: MixClass::ReadOnlyDb,
        idempotent: true,
        commit_point: code.is_multiple_of(3),
        needs_session: needs,
        is_login,
        is_logout,
        arg: ArgKind::Range(1, 50),
    };
    Catalog {
        ops: vec![
            op(0, "Home", false, false, false),
            op(1, "Login", true, false, false),
            op(2, "Browse", false, false, false),
            op(3, "Bid", false, false, true),
            op(4, "Logout", false, true, true),
        ],
        transitions: vec![
            vec![(1, 1.0), (2, 2.0)],
            vec![(2, 1.0), (3, 1.0)],
            vec![(1, 0.5), (2, 1.0), (3, 1.0), (4, 0.3)],
            vec![(2, 1.0), (4, 0.5)],
            vec![(0, 1.0)],
        ],
        abandon_weight: vec![0.2; 5],
        entry_state: 0,
    }
}

/// The outcome classes we can hand a client.
#[derive(Clone, Copy, Debug)]
enum Outcome {
    Ok,
    OkWithCookie,
    ServerError,
    NetworkError,
    TimedOut,
    RetryAfter,
    LoginPrompt,
    Tainted,
}

/// Draws an outcome with the same weights the proptest version used
/// (Ok 5, OkWithCookie 2, everything else 1).
fn draw_outcome(rng: &mut SimRng) -> Outcome {
    const CHOICES: &[(Outcome, f64)] = &[
        (Outcome::Ok, 5.0),
        (Outcome::OkWithCookie, 2.0),
        (Outcome::ServerError, 1.0),
        (Outcome::NetworkError, 1.0),
        (Outcome::TimedOut, 1.0),
        (Outcome::RetryAfter, 1.0),
        (Outcome::LoginPrompt, 1.0),
        (Outcome::Tainted, 1.0),
    ];
    let weights: WeightTable = CHOICES.iter().map(|(_, w)| *w).collect();
    CHOICES[rng.weighted_index(&weights).unwrap()].0
}

/// Whatever the server answers, the pool stays consistent: every
/// request gets exactly one accounting entry, Taw totals add up, the
/// pool neither leaks pending requests nor double-counts, and every
/// cookie it was handed is either still held by a client or reported
/// dropped exactly once (logout, login-prompt reset, abandonment, or
/// replacement by a newer cookie).
#[test]
fn pool_survives_arbitrary_response_sequences() {
    let mut logouts = 0;
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xF00D + case);
        let seed = rng.uniform_u64(1000);
        let len = 1 + rng.uniform_usize(299);
        let outcomes: Vec<Outcome> = (0..len).map(|_| draw_outcome(&mut rng)).collect();

        let mut pool = ClientPool::new(
            catalog(),
            ClientPoolConfig {
                clients: 8,
                detector: workload::DetectorKind::Comparison,
                seed,
                ..ClientPoolConfig::default()
            },
        );
        let mut now = SimTime::from_secs(1);
        let mut next_cookie = 100u64;
        let mut issued = 0u64;
        let mut client = 0usize;
        let mut cookies_out = std::collections::BTreeSet::new();
        for outcome in &outcomes {
            now += SimDuration::from_millis(500);
            let Some(out) = pool.wake(client, now) else {
                continue;
            };
            issued += 1;
            let mut resp = Response {
                req: out.req.id,
                op: out.req.op,
                status: Status::Ok,
                markers: BodyMarkers::default(),
                tainted: false,
                finished_at: now + SimDuration::from_millis(20),
                failed_component: None,
                set_cookie: None,
                clear_cookie: false,
            };
            match outcome {
                // The logout page clears the cookie.
                Outcome::Ok if out.req.op == OpCode(4) => {
                    resp.clear_cookie = true;
                    logouts += 1;
                }
                Outcome::Ok => {}
                Outcome::OkWithCookie => {
                    next_cookie += 1;
                    resp.set_cookie = Some(SessionId(next_cookie));
                    cookies_out.insert(SessionId(next_cookie));
                }
                Outcome::ServerError => resp.status = Status::ServerError(500),
                Outcome::NetworkError => resp.status = Status::NetworkError,
                Outcome::TimedOut => resp.status = Status::TimedOut,
                Outcome::RetryAfter => resp.status = Status::RetryAfter(SimDuration::from_secs(2)),
                Outcome::LoginPrompt => resp.markers.login_prompt = true,
                Outcome::Tainted => resp.tainted = true,
            }
            let delivered = pool.deliver(&resp, 0, now);
            assert!(
                delivered.is_some(),
                "fresh response must belong to someone (case {case})"
            );
            let (who, what) = delivered.unwrap();
            assert_eq!(who, client);
            if let DeliverOutcome::RetryAt(t) = what {
                assert!(t > now, "retry is in the future");
            }
            for dropped in pool.drain_dropped_sessions().collect::<Vec<_>>() {
                assert!(
                    cookies_out.remove(&dropped),
                    "{dropped:?} dropped twice or never issued (case {case})"
                );
            }
            assert_eq!(cookies_out.len(), pool.with_session(), "case {case}");
            client = (client + 1) % 8;
        }
        // No request is still owned unless it is an unanswered wake (we
        // answered every one we issued).
        assert!(issued <= outcomes.len() as u64);
        pool.taw().close_all();
        let s = pool.taw_ref().summary();
        // Retries are re-issues of the same logical operation, so
        // accounted ops never exceed issued requests.
        assert!(s.good_ops + s.bad_ops <= issued);
        // Every failure report corresponds to a bad op of some action.
        let reports = pool.drain_reports().len() as u64;
        assert!(
            reports <= s.bad_ops + 8,
            "reports {} vs bad {} (case {case})",
            reports,
            s.bad_ops
        );
    }
    assert!(logouts > 20, "the cases reach the logout page: {logouts}");
}

/// Same seed, same behaviour: the pool is deterministic.
#[test]
fn pool_is_deterministic() {
    for seed in (0..1000u64).step_by(17) {
        let run = || {
            let mut pool = ClientPool::new(
                catalog(),
                ClientPoolConfig {
                    clients: 4,
                    seed,
                    ..ClientPoolConfig::default()
                },
            );
            let mut ops = Vec::new();
            let now = SimTime::from_secs(1);
            for i in 0..40 {
                let client = i % 4;
                if let Some(out) = pool.wake(client, now) {
                    ops.push((out.req.op, out.req.arg));
                    let resp = Response {
                        req: out.req.id,
                        op: out.req.op,
                        status: Status::Ok,
                        markers: BodyMarkers::default(),
                        tainted: false,
                        finished_at: now,
                        failed_component: None,
                        set_cookie: None,
                        clear_cookie: false,
                    };
                    pool.deliver(&resp, 0, now);
                }
            }
            ops
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}
