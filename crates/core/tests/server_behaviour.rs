//! End-to-end behaviour of the microreboot-enabled server on the toy
//! application: request lifecycle, microreboot semantics, sentinels and
//! retries, coarser reboots, hangs and TTLs, heap and rejuvenation.

use faults::Fault;
use simcore::{SimDuration, SimTime};
use statestore::session::CorruptKind;
use statestore::{FastS, Ssm, Value};
use urb_core::server::{make_request, ProcState, RebootLevel, RebootTicket};
use urb_core::testkit::{ops, ToyApp};
use urb_core::{
    share_db, share_ssm, AppServer, Application, CallContext, CallError, RejuvenationAction,
    RejuvenationService, Request, ServerConfig, SessionBackend, Started, Status, SubmitOutcome,
};

fn server(retry: bool) -> AppServer<ToyApp> {
    let db = share_db(ToyApp::seeded_db(100));
    AppServer::new(
        ToyApp::new(),
        ServerConfig {
            retry_enabled: retry,
            ..ServerConfig::default()
        },
        db,
        SessionBackend::FastS(FastS::new()),
    )
}

/// Begins a coarse restart and runs its crash phase (coarse levels kill at
/// once); the caller completes it with `recovery_complete`.
fn begin_restart(
    srv: &mut AppServer<ToyApp>,
    level: RebootLevel,
    now: SimTime,
) -> (RebootTicket, Vec<urb_core::Response>) {
    let ticket = srv.begin_recovery(level, &[], now, None).unwrap();
    let killed = srv.recovery_crash(ticket.id, now);
    (ticket, killed)
}

/// Runs one request synchronously: submit, pump, complete.
fn run_one<A: Application>(
    srv: &mut AppServer<A>,
    id: u64,
    op: urb_core::OpCode,
    session: Option<statestore::SessionId>,
    arg: i64,
    now: SimTime,
) -> urb_core::Response {
    let req = make_request(id, op, session, op == ops::GET, arg, now);
    match srv.submit(req, now) {
        SubmitOutcome::Rejected(r) => r,
        SubmitOutcome::Admitted => {
            let started = srv.pump(now);
            assert_eq!(started.len(), 1, "one request should start");
            let Started { req, cpu_done_at } = started[0];
            srv.complete(req, cpu_done_at).expect("request completes")
        }
    }
}

#[test]
fn get_and_put_roundtrip() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let r = run_one(&mut srv, 1, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::Ok);
    assert!(!r.simple_detector_flags());

    let r = run_one(&mut srv, 2, ops::PUT, None, 5, t);
    assert_eq!(r.status, Status::Ok);
    let db = srv.db();
    let row = db.borrow().read_committed("items", 5).unwrap().unwrap();
    assert_eq!(row[1], Value::Int(1), "PUT committed");
}

#[test]
fn request_costs_are_charged() {
    let mut srv = server(false);
    let now = SimTime::from_secs(1);
    let req = make_request(1, ops::GET, None, true, 5, now);
    srv.submit(req, now);
    let started = srv.pump(now);
    let cpu = started[0].cpu_done_at - now;
    // 8 ms base + call overheads + one DB read.
    assert!(cpu >= SimDuration::from_millis(8));
    assert!(cpu < SimDuration::from_millis(20));
}

#[test]
fn login_session_and_cart() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let r = run_one(&mut srv, 1, ops::LOGIN, None, 42, t);
    assert_eq!(r.status, Status::Ok);
    let sid = r.set_cookie.expect("login sets a cookie");

    let r = run_one(&mut srv, 2, ops::CART_ADD, Some(sid), 7, t);
    assert_eq!(r.status, Status::Ok);
    assert!(!r.markers.login_prompt);

    // Without a cookie the cart prompts for login.
    let r = run_one(&mut srv, 3, ops::CART_ADD, None, 7, t);
    assert!(r.markers.login_prompt);

    let r = run_one(&mut srv, 4, ops::LOGOUT, Some(sid), 0, t);
    assert!(r.clear_cookie);
    assert_eq!(srv.session().live_sessions(), 0);
}

#[test]
fn microreboot_cures_jndi_corruption() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(
        Fault::CorruptJndi {
            component: "Store",
            kind: CorruptKind::SetNull,
        },
        t,
    );
    let r = run_one(&mut srv, 1, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::ServerError(500));
    assert!(r.markers.exception_text);
    assert_eq!(r.failed_component, Some("Store"));

    // Microreboot Store: its recovery group includes Ledger.
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    let killed = srv.microreboot_crash(ticket.id, ticket.crash_at);
    assert!(killed.is_empty(), "no requests in flight");
    srv.microreboot_complete(ticket.id, ticket.done_at);
    // Deployment started each container once; the reboot restarted the
    // whole group and nothing else.
    let starts =
        ["Web", "Front", "Store", "Ledger"].map(|c| srv.container(c).unwrap().microreboots());
    assert_eq!(starts, [1, 1, 2, 2], "whole group rebooted");

    let r = run_one(&mut srv, 2, ops::GET, None, 5, ticket.done_at);
    assert_eq!(r.status, Status::Ok, "rebind cured the lookup");
}

/// One call site, one naming lookup per call: it reaches the component
/// before a microreboot, meets the sentinel during it and the fresh
/// binding after it, and each JNDI corruption fails it until the next
/// microreboot rebinds the name.
#[test]
fn a_call_site_follows_its_binding_through_microreboots_and_corruption() {
    let mut srv = server(true);
    let mut t = SimTime::from_secs(1);
    let mut next_id = 0;
    let mut get = |srv: &mut AppServer<ToyApp>, at| {
        next_id += 1;
        run_one(srv, next_id, ops::GET, None, 5, at)
    };
    assert_eq!(get(&mut srv, t).status, Status::Ok, "active");
    for kind in [
        None,
        Some(CorruptKind::SetNull),
        Some(CorruptKind::SetInvalid),
        Some(CorruptKind::SetWrong),
    ] {
        if let Some(kind) = kind {
            let component = "Store";
            srv.inject(Fault::CorruptJndi { component, kind }, t);
            let r = get(&mut srv, t);
            assert_eq!(r.status, Status::ServerError(500), "{kind:?}");
            assert!(r.markers.exception_text, "{kind:?}");
            assert_eq!(r.failed_component, Some("Store"), "{kind:?}");
        }
        let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
        srv.microreboot_crash(ticket.id, ticket.crash_at);
        let during = get(&mut srv, ticket.crash_at);
        assert_eq!(
            during.status,
            Status::RetryAfter(urb_core::calib::RETRY_AFTER),
            "sentinel while rebooting (after {kind:?})"
        );
        srv.microreboot_complete(ticket.id, ticket.done_at);
        t = ticket.done_at;
        assert_eq!(
            get(&mut srv, t).status,
            Status::Ok,
            "rebound after {kind:?}"
        );
    }
}

#[test]
fn microreboot_duration_matches_calibration() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let ticket = srv.begin_microreboot(&["Front"], t, None).unwrap();
    let dur = ticket.done_at - t;
    // Front: 10 ms crash + 450±35 ms reinit.
    assert!(dur >= SimDuration::from_millis(425), "got {dur}");
    assert!(dur <= SimDuration::from_millis(495), "got {dur}");

    // Group reboot costs roughly the slowest member plus increments, far
    // less than the sum.
    let ticket2 = srv.begin_microreboot(&["Store"], t, None).unwrap();
    let dur2 = ticket2.done_at - t;
    assert!(dur2 < SimDuration::from_millis(750), "got {dur2}");
}

#[test]
fn sentinel_gives_retry_for_idempotent_when_enabled() {
    let mut srv = server(true);
    let t = SimTime::from_secs(1);
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);

    // Idempotent GET → Retry-After.
    let r = run_one(&mut srv, 1, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::RetryAfter(urb_core::calib::RETRY_AFTER));
    assert!(!r.simple_detector_flags(), "retry is not a failure");

    // Non-idempotent PUT → 503 failure.
    let r = run_one(&mut srv, 2, ops::PUT, None, 5, t);
    assert_eq!(r.status, Status::ServerError(503));
}

#[test]
fn sentinel_fails_everything_when_retry_disabled() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    let r = run_one(&mut srv, 1, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::ServerError(503));
}

#[test]
fn microreboot_kills_overlapping_inflight_and_rolls_back() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    // Start a PUT but do not complete it.
    let req = make_request(1, ops::PUT, None, false, 5, t);
    srv.submit(req, t);
    let started = srv.pump(t).to_vec();
    assert_eq!(started.len(), 1);

    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    let killed = srv.microreboot_crash(ticket.id, t);
    assert_eq!(killed.len(), 1, "in-flight PUT killed");
    assert_eq!(killed[0].status, Status::ServerError(500));

    // The kill aborted the transaction: no update is visible.
    let db = srv.db();
    let row = db.borrow().read_committed("items", 5).unwrap().unwrap();
    assert_eq!(row[1], Value::Int(0), "write rolled back");

    // Completing the killed request later returns nothing.
    assert!(srv
        .complete(started[0].req, started[0].cpu_done_at)
        .is_none());
}

#[test]
fn drain_delay_lets_inflight_finish() {
    let mut srv = server(true);
    let t = SimTime::from_secs(1);
    let req = make_request(1, ops::GET, None, true, 5, t);
    srv.submit(req, t);
    let started = srv.pump(t).to_vec();
    let ticket = srv
        .begin_microreboot(&["Store"], t, Some(urb_core::calib::DRAIN_DELAY))
        .unwrap();
    assert_eq!(ticket.crash_at, t + urb_core::calib::DRAIN_DELAY);

    // The GET completes (~10 ms) before the 200 ms drain ends.
    let r = srv
        .complete(started[0].req, started[0].cpu_done_at)
        .expect("completes during drain");
    assert_eq!(r.status, Status::Ok);

    let killed = srv.microreboot_crash(ticket.id, ticket.crash_at);
    assert!(killed.is_empty(), "nothing left to kill after the drain");
}

#[test]
fn deadlock_hangs_until_microreboot() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(Fault::Deadlock { component: "Store" }, t);
    let req = make_request(1, ops::GET, None, true, 5, t);
    srv.submit(req, t);
    let started = srv.pump(t).to_vec();
    assert!(
        started.is_empty(),
        "hung request never schedules completion"
    );
    assert_eq!(srv.hung(), 1);

    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    let killed = srv.microreboot_crash(ticket.id, t);
    assert_eq!(killed.len(), 1, "hung thread killed by microreboot");
    srv.microreboot_complete(ticket.id, ticket.done_at);
    assert_eq!(srv.hung(), 0);

    // After the microreboot the deadlock fault is gone.
    let r = run_one(&mut srv, 2, ops::GET, None, 5, ticket.done_at);
    assert_eq!(r.status, Status::Ok);
}

#[test]
fn hung_request_expires_by_ttl() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(Fault::Deadlock { component: "Store" }, t);
    let req = make_request(1, ops::GET, None, true, 5, t);
    srv.submit(req, t);
    srv.pump(t);
    assert_eq!(srv.hung(), 1);

    let later = t + urb_core::calib::REQUEST_TTL;
    let killed = srv.maintenance(later);
    assert_eq!(killed.len(), 1);
    assert_eq!(killed[0].status, Status::TimedOut);
    assert_eq!(srv.hung(), 0);
    assert_eq!(srv.stats().ttl_kills, 1);
}

#[test]
fn transient_exception_fails_n_calls_then_clears() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(
        Fault::TransientException {
            component: "Front",
            calls: 2,
        },
        t,
    );
    assert_eq!(
        run_one(&mut srv, 1, ops::GET, None, 5, t).status,
        Status::ServerError(500)
    );
    assert_eq!(
        run_one(&mut srv, 2, ops::GET, None, 5, t).status,
        Status::ServerError(500)
    );
    assert_eq!(
        run_one(&mut srv, 3, ops::GET, None, 5, t).status,
        Status::Ok
    );
}

#[test]
fn corrupt_bean_attrs_null_naturally_expunged() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(
        Fault::CorruptBeanAttrs {
            component: "Front",
            kind: CorruptKind::SetNull,
        },
        t,
    );
    // Eight pooled instances fail one by one as they are hit, each being
    // discarded; afterwards service recovers with no reboot at all.
    let mut failures = 0;
    for i in 0..10 {
        let r = run_one(&mut srv, i, ops::GET, None, 5, t);
        if r.status.is_error() {
            failures += 1;
        }
    }
    assert!(failures > 0 && failures <= 8);
    let r = run_one(&mut srv, 99, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::Ok, "bad instances all expunged");
}

#[test]
fn corrupt_bean_attrs_wrong_taints_silently() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(
        Fault::CorruptBeanAttrs {
            component: "Front",
            kind: CorruptKind::SetWrong,
        },
        t,
    );
    let r = run_one(&mut srv, 1, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::Ok);
    assert!(!r.simple_detector_flags(), "simple detector blind");
    assert!(r.comparison_detector_flags(), "oracle sees the taint");
}

#[test]
fn wrong_txn_map_makes_writes_unrollbackable() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(
        Fault::CorruptTxnMap {
            component: "Store",
            kind: CorruptKind::SetWrong,
        },
        t,
    );
    // Start a PUT; its write autocommits because the corrupted map says
    // NotSupported.
    let req = make_request(1, ops::PUT, None, false, 5, t);
    srv.submit(req, t);
    srv.pump(t);
    // Kill it mid-flight via microreboot: the write should PERSIST (this
    // is the ≈ "manual repair" row of Table 2).
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    let db = srv.db();
    let row = db.borrow().read_committed("items", 5).unwrap().unwrap();
    assert_eq!(row[1], Value::Int(1), "autocommitted write survived abort");
}

#[test]
fn process_restart_loses_fasts_sessions() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let r = run_one(&mut srv, 1, ops::LOGIN, None, 42, t);
    let sid = r.set_cookie.unwrap();

    let (restart, killed) = begin_restart(&mut srv, RebootLevel::Process, t);
    let ready = restart.done_at;
    assert!(killed.is_empty());
    assert!(ready - t >= SimDuration::from_secs(19), "~19 s restart");
    assert_eq!(srv.state(), ProcState::JvmRestarting { until: ready });

    // Down: requests fail at the connection level.
    let r = run_one(
        &mut srv,
        2,
        ops::GET,
        None,
        5,
        t + SimDuration::from_secs(5),
    );
    assert_eq!(r.status, Status::NetworkError);

    srv.recovery_complete(restart.id, ready);
    assert!(srv.is_up());
    assert_eq!(srv.app().restarts, 1);

    // Session cookie is stale: cart prompts for login again.
    let r = run_one(&mut srv, 3, ops::CART_ADD, Some(sid), 7, ready);
    assert!(r.markers.login_prompt, "FastS content lost in restart");
}

#[test]
fn ssm_sessions_survive_process_restart() {
    let db = share_db(ToyApp::seeded_db(10));
    let ssm = share_ssm(Ssm::new(3));
    let mut srv = AppServer::new(
        ToyApp::new(),
        ServerConfig::default(),
        db,
        SessionBackend::Ssm(ssm),
    );
    let t = SimTime::from_secs(1);
    let r = run_one(&mut srv, 1, ops::LOGIN, None, 42, t);
    let sid = r.set_cookie.unwrap();
    let (restart, _) = begin_restart(&mut srv, RebootLevel::Process, t);
    let ready = restart.done_at;
    srv.recovery_complete(restart.id, ready);
    let r = run_one(&mut srv, 2, ops::CART_ADD, Some(sid), 7, ready);
    assert!(!r.markers.login_prompt, "SSM session survived the restart");
    assert_eq!(r.status, Status::Ok);
}

/// `ToyApp`, except that CART_ADD writes its cart object, ignores the
/// store's verdict, reads the session back in the same request and records
/// the `cart_item` that read saw (`None` inside: the read failed).
#[derive(Default)]
struct WriteThenRead {
    toy: ToyApp,
    read_back: Option<Option<i64>>,
}

impl Application for WriteThenRead {
    fn descriptors(&self) -> Vec<components::descriptor::ComponentDescriptor> {
        self.toy.descriptors()
    }
    fn base_cost(&self, op: urb_core::OpCode) -> SimDuration {
        self.toy.base_cost(op)
    }
    fn handle(&mut self, ctx: &mut CallContext<'_>, req: &Request) -> Result<(), CallError> {
        if req.op != ops::CART_ADD {
            return self.toy.handle(ctx, req);
        }
        let mut obj = statestore::SessionObject::new();
        obj.set("user_id", 42i64);
        obj.set("cart_item", ctx.arg());
        let _ = ctx.session_write(obj);
        let cart = |o: statestore::SessionObject| o.get("cart_item").and_then(Value::as_int);
        self.read_back = Some(ctx.session_read().ok().flatten().and_then(cart));
        Ok(())
    }
    fn session_valid(&self, obj: &statestore::SessionObject) -> bool {
        self.toy.session_valid(obj)
    }
    fn on_component_reinit(&mut self, component: &str) {
        self.toy.on_component_reinit(component);
    }
    fn on_process_restart(&mut self) {
        self.toy.on_process_restart();
    }
}

#[test]
fn a_rejected_session_write_is_not_served_back_to_the_same_request() {
    let ssm = share_ssm(Ssm::new(3));
    let mut srv = AppServer::new(
        WriteThenRead::default(),
        ServerConfig::default(),
        share_db(ToyApp::seeded_db(10)),
        SessionBackend::Ssm(ssm.clone()),
    );
    let t = SimTime::from_secs(1);
    let sid = run_one(&mut srv, 1, ops::LOGIN, None, 42, t)
        .set_cookie
        .unwrap();
    run_one(&mut srv, 2, ops::CART_ADD, Some(sid), 7, t);
    assert_eq!(
        srv.app().read_back,
        Some(Some(7)),
        "an accepted write reads back"
    );

    // Partitioned store: the write is refused, and so is the read — the
    // request must not be handed the object the store never took.
    ssm.borrow_mut().set_partitioned(true);
    run_one(&mut srv, 3, ops::CART_ADD, Some(sid), 8, t);
    assert_eq!(srv.app().read_back, Some(None));
    ssm.borrow_mut().clear_net_faults();

    // Lossy link that drops every second access: burn the passing one, so
    // the request's write is dropped and its read gets through — to what
    // the store holds, which is still the cart of request 2.
    ssm.borrow_mut().set_lossy(500);
    statestore::SessionStore::read(&mut *ssm.borrow_mut(), sid).unwrap();
    run_one(&mut srv, 4, ops::CART_ADD, Some(sid), 9, t);
    assert_eq!(srv.app().read_back, Some(Some(7)));
}

#[test]
fn app_restart_is_cheaper_than_process_restart_and_keeps_fasts() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let r = run_one(&mut srv, 1, ops::LOGIN, None, 42, t);
    let sid = r.set_cookie.unwrap();

    let (restart, _) = begin_restart(&mut srv, RebootLevel::Application, t);
    let ready = restart.done_at;
    let dur = ready - t;
    assert!(dur > SimDuration::from_secs(7) && dur < SimDuration::from_secs(9));

    // While the app restarts, JBoss answers 503.
    let r = run_one(
        &mut srv,
        2,
        ops::GET,
        None,
        5,
        t + SimDuration::from_secs(1),
    );
    assert_eq!(r.status, Status::ServerError(503));

    srv.recovery_complete(restart.id, ready);
    // FastS lives in the server, outside the application: it survived.
    let r = run_one(&mut srv, 3, ops::CART_ADD, Some(sid), 7, ready);
    assert!(!r.markers.login_prompt);
}

#[test]
fn session_revalidation_after_war_microreboot() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let sid1 = run_one(&mut srv, 1, ops::LOGIN, None, 42, t)
        .set_cookie
        .unwrap();
    let sid2 = run_one(&mut srv, 2, ops::LOGIN, None, 43, t)
        .set_cookie
        .unwrap();
    // Corrupt one session with null, one with wrong.
    {
        let fasts = srv.session_mut().fasts_mut().unwrap();
        fasts.corrupt(sid1, CorruptKind::SetNull);
        fasts.corrupt(sid2, CorruptKind::SetWrong);
    }
    let ticket = srv.begin_microreboot(&["Web"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    srv.microreboot_complete(ticket.id, ticket.done_at);

    // The nulled session failed validation and was evicted; wrong passed.
    let r = run_one(&mut srv, 3, ops::CART_ADD, Some(sid1), 7, ticket.done_at);
    assert!(r.markers.login_prompt, "nulled session evicted");
    let r = run_one(&mut srv, 4, ops::CART_ADD, Some(sid2), 7, ticket.done_at);
    assert_eq!(r.status, Status::Ok);
    assert!(r.tainted, "wrong session survives, silently wrong");
}

#[test]
fn bit_flip_registers_crashes_the_process() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(Fault::BitFlipRegisters, t);
    assert_eq!(srv.state(), ProcState::Crashed);
    let r = run_one(&mut srv, 1, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::NetworkError);
    let (restart, _) = begin_restart(&mut srv, RebootLevel::Process, t);
    srv.recovery_complete(restart.id, restart.done_at);
    assert!(srv.is_up());
}

#[test]
fn memory_leak_and_rejuvenation() {
    let mut srv = server(false);
    let t0 = SimTime::from_secs(1);
    let free0 = srv.available_memory();
    srv.inject(
        Fault::AppMemoryLeak {
            component: "Front",
            bytes_per_call: 8 << 20,
            persistent: false,
        },
        t0,
    );
    for i in 0..20 {
        run_one(&mut srv, i, ops::GET, None, 5, t0);
    }
    let free1 = srv.available_memory();
    assert!(free0 - free1 >= 150 << 20, "leak visible in the heap gauge");

    // A rejuvenation service with a high alarm reboots Front and learns.
    let comps = vec!["Front", "Store", "Ledger", "Web"];
    let mut rejuv = RejuvenationService::new(comps, free0, free0 + (1 << 20));
    let action = rejuv.check(&mut srv, t0);
    let (component, ticket) = match action {
        RejuvenationAction::Microreboot { component, ticket } => (component, ticket),
        other => panic!("expected a microreboot, got {other:?}"),
    };
    assert_eq!(component, "Front", "first in deployment order");
    srv.microreboot_crash(ticket.id, ticket.crash_at);
    srv.microreboot_complete(ticket.id, ticket.done_at);
    rejuv.record_completion(srv.available_memory());
    assert!(
        *rejuv.released_table().get("Front").unwrap() >= 150 << 20,
        "service learned Front released the memory"
    );
    assert!(srv.available_memory() > free1, "memory reclaimed");
}

#[test]
fn oom_without_rejuvenation_kills_the_jvm() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    srv.inject(
        Fault::MemLeakIntraJvm {
            bytes_per_sec: 200 << 20,
        },
        t,
    );
    // Ten seconds of 200 MB/s exhausts the 1 GB heap.
    let mut killed = Vec::new();
    for s in 1..=10 {
        killed.extend(srv.maintenance(t + SimDuration::from_secs(s)));
    }
    assert_eq!(srv.state(), ProcState::DownOom);
    // JVM restart reclaims the intra-JVM leak.
    let at = t + SimDuration::from_secs(11);
    let (restart, _) = begin_restart(&mut srv, RebootLevel::Process, at);
    srv.recovery_complete(restart.id, restart.done_at);
    assert!(srv.available_memory() > 800 << 20);
}

#[test]
fn thread_pool_exhaustion_returns_503() {
    let db = share_db(ToyApp::seeded_db(10));
    let mut srv = AppServer::new(
        ToyApp::new(),
        ServerConfig {
            cpus: 1,
            threads: 2,
            ..ServerConfig::default()
        },
        db,
        SessionBackend::FastS(FastS::new()),
    );
    let t = SimTime::from_secs(1);
    srv.inject(Fault::Deadlock { component: "Store" }, t);
    for i in 0..2 {
        let req = make_request(i, ops::GET, None, true, 5, t);
        srv.submit(req, t);
        srv.pump(t);
    }
    // Both threads are parked in the deadlock; the next request bounces.
    let r = run_one(&mut srv, 99, ops::GET, None, 5, t);
    assert_eq!(r.status, Status::ServerError(503));
}

#[test]
fn microreboot_rejected_while_down_and_double_targets_coalesce() {
    let mut srv = server(false);
    let t = SimTime::from_secs(1);
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    // Ledger is already covered by Store's recovery group.
    let err = srv.begin_microreboot(&["Ledger"], t, None).unwrap_err();
    assert_eq!(err, urb_core::RebootError::AlreadyRebooting);
    srv.microreboot_crash(ticket.id, t);
    srv.microreboot_complete(ticket.id, ticket.done_at);

    begin_restart(&mut srv, RebootLevel::Process, ticket.done_at);
    let err = srv
        .begin_microreboot(&["Store"], ticket.done_at, None)
        .unwrap_err();
    assert_eq!(err, urb_core::RebootError::ProcessNotUp);
}

#[test]
fn stats_count_the_things_that_happened() {
    let mut srv = server(true);
    let t = SimTime::from_secs(1);
    run_one(&mut srv, 1, ops::GET, None, 5, t);
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    run_one(&mut srv, 2, ops::GET, None, 5, t); // retry sent
    srv.microreboot_complete(ticket.id, ticket.done_at);
    let s = srv.stats();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.microreboots, 1);
    assert_eq!(s.retries_sent, 1);
}

/// `webs` web components (the first is handle 0) and `beans` entity beans
/// `B1..`, each its own recovery group; a request calls the bean its
/// argument names.
struct WideApp {
    webs: usize,
    beans: usize,
}

impl Application for WideApp {
    fn descriptors(&self) -> Vec<components::descriptor::ComponentDescriptor> {
        use components::descriptor::{ComponentDescriptor, ComponentKind};
        let bean = |i| -> &'static str { Box::leak(format!("B{i}").into_boxed_str()) };
        ["Web", "Web2"][..self.webs]
            .iter()
            .map(|web| ComponentDescriptor::new(web, ComponentKind::Web))
            .chain((1..=self.beans).map(|i| {
                ComponentDescriptor::new(bean(i), ComponentKind::EntityBean).with_methods(&["op"])
            }))
            .collect()
    }
    fn base_cost(&self, _op: urb_core::OpCode) -> SimDuration {
        SimDuration::from_millis(8)
    }
    fn handle(&mut self, ctx: &mut CallContext<'_>, req: &Request) -> Result<(), CallError> {
        let bean = components::descriptor::ComponentId(req.arg as usize);
        ctx.call(bean, "op", |_| Ok(()))
    }
    fn session_valid(&self, _obj: &statestore::SessionObject) -> bool {
        true
    }
    fn on_component_reinit(&mut self, _component: &str) {}
    fn on_process_restart(&mut self) {}
}

fn wide_server(webs: usize, beans: usize) -> AppServer<WideApp> {
    AppServer::new(
        WideApp { webs, beans },
        ServerConfig::default(),
        share_db(ToyApp::seeded_db(1)),
        SessionBackend::FastS(FastS::new()),
    )
}

#[test]
fn the_touched_set_spans_all_64_components() {
    // A request through handles 0 (Web) and 63 (the last bean) dies with
    // either, and only with those.
    for (target, dies) in [("Web", true), ("B63", true), ("B62", false), ("B1", false)] {
        let mut srv = wide_server(1, 63);
        let t = SimTime::from_secs(1);
        srv.submit(make_request(1, ops::GET, None, true, 63, t), t);
        assert_eq!(srv.pump(t).len(), 1);
        let ticket = srv.begin_microreboot(&[target], t, None).unwrap();
        let killed = srv.microreboot_crash(ticket.id, t).len();
        assert_eq!(killed, usize::from(dies), "microreboot of {target}");
    }
}

#[test]
#[should_panic(expected = "65 components deployed")]
fn a_65th_component_is_refused_at_deployment() {
    wide_server(1, 64);
}

#[test]
#[should_panic(expected = "0 web components declared")]
fn a_deployment_without_a_web_component_is_refused() {
    wide_server(0, 1);
}

#[test]
#[should_panic(expected = "2 web components declared")]
fn a_deployment_with_two_web_components_is_refused() {
    wide_server(2, 1);
}
