//! Property-style tests of the recovery lifecycle state machine: the
//! escalation ladder, coarse-supersedes-finer cancellation, and the
//! guarantee that no in-flight request survives a microreboot crash.

use simcore::rng::SimRng;
use simcore::SimTime;
use statestore::FastS;
use urb_core::server::{make_request, ProcState, RebootLevel, ServerFault};
use urb_core::testkit::{ops, ToyApp};
use urb_core::{share_db, AppServer, ServerConfig, SessionBackend, SubmitOutcome};

fn server() -> AppServer<ToyApp> {
    let db = share_db(ToyApp::seeded_db(100));
    AppServer::new(
        ToyApp::new(),
        ServerConfig::default(),
        db,
        SessionBackend::FastS(FastS::new()),
    )
}

/// The recursive recovery ladder is exactly µRB → app restart → process
/// restart → OS reboot, with no cycles, skips or repeats.
#[test]
fn escalation_ladder_matches_paper() {
    let mut chain = vec![RebootLevel::Component];
    while let Some(next) = chain.last().unwrap().escalate() {
        chain.push(next);
    }
    assert_eq!(
        chain,
        [
            RebootLevel::Component,
            RebootLevel::Application,
            RebootLevel::Process,
            RebootLevel::OperatingSystem,
        ],
        "escalation visits every level once, finest to coarsest"
    );
}

/// `supersedes` is the strict order induced by the escalation chain: a
/// coarser level subsumes every strictly finer one and nothing else.
#[test]
fn supersedes_is_strictly_coarser() {
    let levels = [
        RebootLevel::Component,
        RebootLevel::Application,
        RebootLevel::Process,
        RebootLevel::OperatingSystem,
    ];
    for (i, a) in levels.iter().enumerate() {
        for (j, b) in levels.iter().enumerate() {
            assert_eq!(
                a.supersedes(*b),
                i > j,
                "{a:?}.supersedes({b:?}) must mirror ladder depth"
            );
        }
    }
}

/// Beginning a coarser recovery cancels any active finer one: the
/// cancelled microreboot's scheduled completion becomes a no-op instead
/// of resurrecting component state mid-JVM-restart.
#[test]
fn coarse_recovery_cancels_active_microreboot() {
    let mut srv = server();
    let t = SimTime::from_secs(1);
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    assert_eq!(srv.active_microreboots().len(), 1);

    let restart = srv
        .begin_recovery(RebootLevel::Process, &[], t, None)
        .unwrap();
    srv.recovery_crash(restart.id, t);
    assert_eq!(
        srv.active_microreboots().len(),
        0,
        "process restart supersedes the in-flight microreboot"
    );

    // The stale completion fires after the cancel: it must not touch
    // anything (in particular it must not flip components to Active
    // while the JVM is still down).
    let revived = srv.microreboot_complete(ticket.id, ticket.done_at);
    assert!(revived.is_empty(), "cancelled reboot completes nothing");
    assert!(matches!(srv.state(), ProcState::JvmRestarting { .. }));

    srv.recovery_complete(restart.id, restart.done_at);
    assert!(srv.is_up());
}

/// Across random interleavings of completed / in-flight / queued
/// requests, `microreboot_crash` of the Web tier (which every ToyApp
/// request touches) kills exactly the in-flight set: nothing that was
/// running or parked survives, and the queue is untouched.
#[test]
fn no_inflight_request_survives_web_microreboot_crash() {
    for seed in 0..12u64 {
        let mut rng = SimRng::seed_from(0xdead_0000 + seed);
        let mut srv = server();
        let t = SimTime::from_secs(1);

        // Half the seeds park some requests via a deadlock in Store.
        if seed % 2 == 0 {
            srv.inject(ServerFault::Deadlock { component: "Store" }, t);
        }

        let mut admitted = Vec::new();
        for id in 0..30u64 {
            let op = [ops::GET, ops::PUT, ops::CART_ADD][rng.uniform_usize(3)];
            let req = make_request(id, op, None, op == ops::GET, 1 + id as i64 % 50, t);
            match srv.submit(req, t) {
                SubmitOutcome::Admitted => admitted.push(id),
                SubmitOutcome::Rejected(_) => {}
            }
        }
        let started = srv.pump(t).to_vec();

        // Complete a random subset of what started running.
        let mut completed = Vec::new();
        for s in &started {
            if rng.chance(0.5) {
                srv.complete(s.req, s.cpu_done_at)
                    .expect("request completes");
                completed.push(s.req);
            }
        }

        let queued_before = srv.queued();
        let in_flight = admitted.len() - completed.len() - queued_before;

        // Crash Web's recovery group. Running requests all touched Web,
        // so they die; requests parked in Store's group are *not* cured
        // by a Web microreboot (a deadlocked Store thread needs a Store
        // reboot) and must stay accounted for as hung.
        let ticket = srv.begin_microreboot(&["Web"], t, None).unwrap();
        let mut killed = srv.microreboot_crash(ticket.id, t);
        assert_eq!(
            killed.len() + srv.hung(),
            in_flight,
            "seed {seed}: the Web crash kills every running request and \
             leaves only Store-parked ones"
        );
        assert_eq!(
            srv.queued(),
            queued_before,
            "seed {seed}: queued requests never entered a component, so \
             the crash leaves them alone"
        );

        // Now crash Store's group (disjoint, so it can run concurrently):
        // between the two crashes no in-flight request may survive.
        if srv.hung() > 0 {
            let t2 = srv.begin_microreboot(&["Store"], t, None).unwrap();
            killed.extend(srv.microreboot_crash(t2.id, t));
            srv.microreboot_complete(t2.id, t2.done_at);
        }
        assert_eq!(
            killed.len(),
            in_flight,
            "seed {seed}: every running or parked request is killed, \
             no more, no fewer"
        );
        assert_eq!(srv.hung(), 0, "seed {seed}: no parked request survives");
        for r in &killed {
            assert!(
                !completed.contains(&r.req),
                "seed {seed}: a completed request cannot be killed again"
            );
            // The kill already delivered the response; a later complete
            // for the same id must find nothing.
            assert!(
                srv.complete(r.req, ticket.done_at).is_none(),
                "seed {seed}: killed request {:?} still in the pipeline",
                r.req
            );
        }
        srv.microreboot_complete(ticket.id, ticket.done_at);
        assert!(srv.is_up());
    }
}

/// Regression for the conductor's no-double-kill contract: a microreboot
/// that overlaps an in-flight one — even partially — deterministically
/// rejects the *whole* action with `AlreadyRebooting`. Rebooting only the
/// non-overlapping remainder would split a recovery group (members reboot
/// together or not at all), and re-crashing an already-crashed container
/// would kill its requests mid-reinit. The conductor coalesces overlapping
/// actions before they reach this API; a caller that sees the rejection
/// bypassed it and must retry after the in-flight reboot completes.
#[test]
fn partial_overlap_with_in_flight_microreboot_rejects_whole_action() {
    let mut srv = server();
    let t = SimTime::from_secs(1);
    // Store expands to its recovery group {Store, Ledger}.
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    // Front is free, but Ledger is mid-reboot: the whole action must be
    // rejected, not trimmed down to a Front-only reboot.
    let err = srv
        .begin_microreboot(&["Front", "Ledger"], t, None)
        .unwrap_err();
    assert_eq!(err, urb_core::RebootError::AlreadyRebooting);
    // The rejection did not disturb the in-flight reboot...
    srv.microreboot_crash(ticket.id, t);
    let members = srv.microreboot_complete(ticket.id, ticket.done_at);
    assert_eq!(members, vec!["Store", "Ledger"]);
    // ...and Front itself was never touched: it is immediately rebootable.
    let t2 = ticket.done_at;
    let front = srv.begin_microreboot(&["Front"], t2, None).unwrap();
    srv.microreboot_crash(front.id, t2);
    assert_eq!(
        srv.microreboot_complete(front.id, front.done_at),
        vec!["Front"]
    );
}

/// An overlapping action arriving *after* the crash phase must also
/// reject rather than re-crash the container mid-reinit.
#[test]
fn overlap_after_crash_phase_cannot_double_kill() {
    let mut srv = server();
    let t = SimTime::from_secs(1);
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    let err = srv.begin_microreboot(&["Ledger"], t, None).unwrap_err();
    assert_eq!(err, urb_core::RebootError::AlreadyRebooting);
    // No new ticket exists and the crash is idempotent per ticket, so no
    // further kills can happen before reinit completes.
    assert!(srv.microreboot_crash(ticket.id, t).is_empty());
    assert_eq!(
        srv.microreboot_complete(ticket.id, ticket.done_at),
        vec!["Store", "Ledger"]
    );
}

/// Property: disjoint same-level reboots never cancel each other. Across
/// randomized begin and completion orders, every reboot of a disjoint
/// unit completes with exactly its own members.
#[test]
fn disjoint_microreboots_never_cancel_each_other() {
    // ToyApp's disjoint component units (Store's group covers Ledger).
    const UNITS: [(&str, &[&str]); 3] = [
        ("Web", &["Web"]),
        ("Front", &["Front"]),
        ("Store", &["Store", "Ledger"]),
    ];
    let mut rng = SimRng::seed_from(0x05ee_dd15);
    for round in 0..50 {
        let mut srv = server();
        let t = SimTime::from_secs(1);
        let mut order: Vec<usize> = (0..UNITS.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut tickets = Vec::new();
        for &u in &order {
            let (target, expected) = UNITS[u];
            let ticket = srv
                .begin_microreboot(&[target], t, None)
                .expect("disjoint reboots must all be admitted");
            tickets.push((ticket, expected));
        }
        for (ticket, _) in &tickets {
            srv.microreboot_crash(ticket.id, t);
        }
        shuffle(&mut tickets, &mut rng);
        for (ticket, expected) in tickets {
            let members = srv.microreboot_complete(ticket.id, ticket.done_at);
            assert_eq!(
                members, expected,
                "round {round}: a disjoint reboot was cancelled or reshaped"
            );
        }
        assert!(srv.is_up());
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        let j = rng.uniform_usize(i + 1);
        v.swap(i, j);
    }
}
