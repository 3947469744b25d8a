//! Quickstart: host a tiny crash-only application on the
//! microreboot-enabled server and surgically recover a corrupted
//! component without disturbing the rest of the application.
//!
//! Run with: `cargo run --example quickstart`

use microreboot::core::server::make_request;
use microreboot::core::testkit::{ops, ToyApp};
use microreboot::core::{share_db, AppServer, ServerConfig, SessionBackend, Status, SubmitOutcome};
use microreboot::faults::Fault;
use microreboot::simcore::SimTime;
use microreboot::statestore::session::CorruptKind;
use microreboot::statestore::FastS;

fn run_one(
    srv: &mut AppServer<ToyApp>,
    id: u64,
    op: microreboot::core::OpCode,
    arg: i64,
    now: SimTime,
) -> microreboot::core::Response {
    let req = make_request(id, op, None, true, arg, now);
    match srv.submit(req, now) {
        SubmitOutcome::Rejected(resp) => resp,
        SubmitOutcome::Admitted => {
            let started = srv.pump(now)[0];
            srv.complete(started.req, started.cpu_done_at)
                .expect("request completes")
        }
    }
}

fn main() {
    // A crash-only app: all persistent state in the transactional store,
    // components declared via descriptors, handlers running against the
    // server's capability context.
    let db = share_db(ToyApp::seeded_db(100));
    let mut server = AppServer::new(
        ToyApp::new(),
        ServerConfig::default(),
        db,
        SessionBackend::FastS(FastS::new()),
    );
    let t0 = SimTime::from_secs(1);

    let ok = run_one(&mut server, 1, ops::GET, 5, t0);
    println!("healthy GET      -> {:?}", ok.status);

    // Corrupt the naming-service entry for the Store component (one of
    // Table 2's fault classes). Lookups now fail.
    server.inject(
        Fault::CorruptJndi {
            component: "Store",
            kind: CorruptKind::SetNull,
        },
        t0,
    );
    let broken = run_one(&mut server, 2, ops::GET, 5, t0);
    println!("corrupted GET    -> {:?}", broken.status);
    assert_eq!(broken.status, Status::ServerError(500));

    // Microreboot the component: destroy its instances, discard its
    // metadata, rebind its name — in ~half a second, without touching
    // anything else.
    let ticket = server
        .begin_microreboot(&["Store"], t0, None)
        .expect("component exists and the server is up");
    server.microreboot_crash(ticket.id, ticket.crash_at);
    let (members, ..) = server.active_microreboots().remove(0);
    server.microreboot_complete(ticket.id, ticket.done_at);
    println!("microrebooted {:?} in {}", members, ticket.done_at - t0);

    let healed = run_one(&mut server, 3, ops::GET, 5, ticket.done_at);
    println!("recovered GET    -> {:?}", healed.status);
    assert_eq!(healed.status, Status::Ok);
    println!("\nthe microreboot cured the fault at ~1/40th the cost of a JVM restart");
}
