//! Section 7 — the limitations of recovery by microreboot, demonstrated.
//!
//! The paper's "interaction with external resources" example: an EJB can
//! circumvent the application server, open its own database connection,
//! take a row lock, and share the connection with another component. A
//! microreboot of the first EJB does not tear the connection down (the
//! server never knew about it), so the lock leaks until the DB session
//! times out — whereas a JVM restart kills the process's sockets and the
//! database releases the lock immediately.

use simcore::SimTime;
use statestore::{Database, Value};
use urb_core::server::RebootLevel;
use urb_core::testkit::ToyApp;
use urb_core::{share_db, AppServer, ServerConfig, SessionBackend};

fn server_and_db() -> (AppServer<ToyApp>, urb_core::SharedDb) {
    let db = share_db(ToyApp::seeded_db(10));
    let srv = AppServer::new(
        ToyApp::new(),
        ServerConfig::default(),
        db.clone(),
        SessionBackend::FastS(statestore::FastS::new()),
    );
    (srv, db)
}

/// Models the rogue EJB "X" of Section 7: it opens a direct connection the
/// server knows nothing about and takes a row lock.
fn rogue_lock(db: &urb_core::SharedDb) -> (statestore::db::ConnId, statestore::TxnId) {
    let mut db = db.borrow_mut();
    let conn = db.open_conn();
    let txn = db.begin(conn).expect("fresh connection");
    db.update(txn, "items", 1, &[(1, Value::Int(999))])
        .expect("lock acquired");
    (conn, txn)
}

fn lock_is_held(db: &mut Database) -> bool {
    let probe_conn = db.open_conn();
    let probe = db.begin(probe_conn).expect("fresh connection");
    let blocked = db.update(probe, "items", 1, &[(1, Value::Int(5))]).is_err();
    let _ = db.rollback(probe);
    let _ = db.close_conn(probe_conn);
    blocked
}

#[test]
fn microreboot_leaks_external_db_locks() {
    let (mut srv, db) = server_and_db();
    let t = SimTime::from_secs(1);
    let (_conn, _txn) = rogue_lock(&db);
    assert!(lock_is_held(&mut db.borrow_mut()), "rogue lock in place");

    // Microreboot the rogue component: the server kills the threads and
    // aborts the transactions *it* manages — but it never knew about the
    // direct connection, so the lock survives.
    let ticket = srv.begin_microreboot(&["Store"], t, None).unwrap();
    srv.microreboot_crash(ticket.id, t);
    srv.microreboot_complete(ticket.id, ticket.done_at);
    assert!(
        lock_is_held(&mut db.borrow_mut()),
        "µRB cannot release a resource acquired behind the platform's back"
    );
}

#[test]
fn process_restart_releases_external_db_locks_via_tcp_teardown() {
    let (mut srv, db) = server_and_db();
    let t = SimTime::from_secs(1);
    let (_conn, _txn) = rogue_lock(&db);
    assert!(lock_is_held(&mut db.borrow_mut()));

    // A JVM restart kills the process: the OS tears down every TCP
    // connection, the database notices, and the rogue session's locks
    // release. (The simulation models this as the database severing all
    // connections when the hosting process dies.)
    let restart = srv
        .begin_recovery(RebootLevel::Process, &[], t, None)
        .unwrap();
    srv.recovery_crash(restart.id, t);
    {
        // The OS-level connection teardown: every connection of the dead
        // process closes. The server's own pooled connection is closed by
        // the restart's crash phase; the rogue connection belongs to the same
        // process, so the experiment closes it the way the OS would.
        let mut db = db.borrow_mut();
        let all: Vec<_> = (0..64)
            .map(statestore::db::ConnId::from_raw)
            .filter(|c| db.conn_open(*c))
            .collect();
        for c in all {
            let _ = db.close_conn(c);
        }
    }
    srv.recovery_complete(restart.id, restart.done_at);
    assert!(
        !lock_is_held(&mut db.borrow_mut()),
        "TCP teardown released the rogue lock"
    );
}

/// "The more state gets segregated out of the application, the less
/// effective a reboot becomes at scrubbing this data": a full JVM restart
/// does not scrub SSM state — by design.
#[test]
fn restarts_do_not_scrub_externalized_state() {
    use statestore::session::{SessionId, SessionObject, SessionStore};
    let mut ssm = statestore::Ssm::new(3);
    let mut obj = SessionObject::new();
    obj.set("user_id", 7i64);
    obj.mark_tainted(); // corrupted-but-plausible data
    ssm.write(SessionId(1), obj).unwrap();
    ssm.on_process_restart();
    assert_eq!(
        ssm.tainted_sessions(),
        1,
        "externalized state survives every reboot; only the store itself \
         (or a human) can repair it"
    );
}
