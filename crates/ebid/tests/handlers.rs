//! Direct tests of every eBid request handler against a live server.

use ebid::ops::codes;
use ebid::{build_server, DatasetSpec, EBid};
use simcore::SimTime;
use statestore::db::Row;
use statestore::session::CorruptKind;
use statestore::{SessionId, TableId, Value};
use urb_core::server::make_request;
use urb_core::{AppServer, OpCode, Response, ServerConfig, SessionBackend, Status, SubmitOutcome};

struct Driver {
    srv: AppServer<EBid>,
    now: SimTime,
    next_id: u64,
}

impl Driver {
    fn new() -> Driver {
        let (srv, _) = build_server(
            DatasetSpec::tiny(),
            ServerConfig::default(),
            SessionBackend::FastS(statestore::FastS::new()),
            42,
        );
        Driver {
            srv,
            now: SimTime::from_secs(1),
            next_id: 0,
        }
    }

    fn run(&mut self, op: OpCode, session: Option<SessionId>, arg: i64) -> Response {
        self.next_id += 1;
        self.now += simcore::SimDuration::from_millis(100);
        let req = make_request(self.next_id, op, session, true, arg, self.now);
        match self.srv.submit(req, self.now) {
            SubmitOutcome::Rejected(r) => r,
            SubmitOutcome::Admitted => {
                let started = self.srv.pump(self.now)[0];
                self.srv
                    .complete(started.req, started.cpu_done_at)
                    .expect("completes")
            }
        }
    }

    fn login(&mut self, user: i64) -> SessionId {
        let r = self.run(codes::LOGIN, None, user);
        assert_eq!(r.status, Status::Ok);
        r.set_cookie.expect("login sets cookie")
    }
}

#[test]
fn every_operation_succeeds_on_a_healthy_server() {
    let mut d = Driver::new();
    let mut sid = d.login(3);
    let spec = DatasetSpec::tiny();
    // Logout last: it tears the session down.
    let mut order: Vec<_> = ebid::ops::all_ops()
        .filter(|o| *o != codes::LOGOUT)
        .collect();
    order.push(codes::LOGOUT);
    for op in order {
        let arg = match op {
            codes::BROWSE_ITEMS_IN_CATEGORY | codes::SEARCH_BY_CATEGORY => spec.categories,
            codes::BROWSE_ITEMS_IN_REGION | codes::SEARCH_BY_REGION => spec.regions,
            codes::VIEW_PAST_AUCTION => spec.old_items,
            codes::VIEW_USER_INFO
            | codes::LOGIN
            | codes::LEAVE_USER_FEEDBACK
            | codes::COMMIT_USER_FEEDBACK => spec.users,
            _ => spec.items,
        };
        // Fresh-session operations carry no cookie.
        let session = match op {
            codes::LOGIN | codes::REGISTER_NEW_USER => None,
            _ => Some(sid),
        };
        let r = d.run(op, session, arg);
        assert_eq!(
            r.status,
            Status::Ok,
            "{} should succeed",
            ebid::ops::name_of(op)
        );
        assert!(
            !r.simple_detector_flags(),
            "{} flagged: {:?}",
            ebid::ops::name_of(op),
            r.markers
        );
        if op == codes::REGISTER_NEW_USER {
            // Registration replaced our session; keep using the new one.
            sid = r.set_cookie.expect("registration sets a cookie");
        }
    }
}

#[test]
fn bid_flow_updates_the_database() {
    let mut d = Driver::new();
    let sid = d.login(2);
    let db = d.srv.db();
    let item = 7i64;
    let before = db.borrow().read_committed("items", item).unwrap().unwrap();
    let bids_before = before[7].as_int().unwrap();
    let max_bid_count = db.borrow().max_pk("bids").unwrap().unwrap();

    let r = d.run(codes::MAKE_BID, Some(sid), item);
    assert_eq!(r.status, Status::Ok);
    let r = d.run(codes::COMMIT_BID, Some(sid), item);
    assert_eq!(r.status, Status::Ok);

    let after = db.borrow().read_committed("items", item).unwrap().unwrap();
    assert_eq!(
        after[7].as_int().unwrap(),
        bids_before + 1,
        "nb_bids bumped"
    );
    let new_bid = db.borrow().max_pk("bids").unwrap().unwrap();
    assert_eq!(new_bid, max_bid_count + 1, "one bid row inserted");
    let bid = db
        .borrow()
        .read_committed("bids", new_bid)
        .unwrap()
        .unwrap();
    assert_eq!(bid[1], Value::Int(2), "bid belongs to the logged-in user");
    assert_eq!(bid[2], Value::Int(item), "bid names the selected item");
}

#[test]
fn registration_creates_user_and_session() {
    let mut d = Driver::new();
    let db = d.srv.db();
    let users_before = db.borrow().table_len("users").unwrap();
    let r = d.run(codes::REGISTER_NEW_USER, None, 0);
    assert_eq!(r.status, Status::Ok);
    assert!(r.set_cookie.is_some(), "registration logs the user in");
    assert_eq!(db.borrow().table_len("users").unwrap(), users_before + 1);
}

#[test]
fn feedback_flow_bumps_target_rating() {
    let mut d = Driver::new();
    let sid = d.login(1);
    let db = d.srv.db();
    let target = 4i64;
    let before = db
        .borrow()
        .read_committed("users", target)
        .unwrap()
        .unwrap()[2]
        .as_int()
        .unwrap();
    let r = d.run(codes::LEAVE_USER_FEEDBACK, Some(sid), target);
    assert_eq!(r.status, Status::Ok);
    let r = d.run(codes::COMMIT_USER_FEEDBACK, Some(sid), target);
    assert_eq!(r.status, Status::Ok);
    let after = db
        .borrow()
        .read_committed("users", target)
        .unwrap()
        .unwrap()[2]
        .as_int()
        .unwrap();
    assert_eq!(after, before + 1);
}

#[test]
fn needs_session_ops_prompt_without_cookie() {
    let mut d = Driver::new();
    for op in [
        codes::ABOUT_ME,
        codes::MAKE_BID,
        codes::COMMIT_BID,
        codes::SELL_ITEM_FORM,
        codes::REGISTER_NEW_ITEM,
    ] {
        let r = d.run(op, None, 1);
        assert!(
            r.markers.login_prompt,
            "{} should prompt for login",
            ebid::ops::name_of(op)
        );
    }
}

#[test]
fn stale_cookie_prompts_login_once() {
    let mut d = Driver::new();
    let sid = d.login(1);
    // The session vanishes (e.g., a restart elsewhere wiped FastS).
    d.srv
        .session_mut()
        .fasts_mut()
        .unwrap()
        .remove_all_for_test();
    let r = d.run(codes::BROWSE_CATEGORIES, Some(sid), 1);
    assert!(r.markers.login_prompt, "stale cookie detected immediately");
}

#[test]
fn corrupt_keygen_null_fails_all_writes() {
    let mut d = Driver::new();
    let sid = d.login(1);
    d.srv.app_mut().corrupt_keygen(CorruptKind::SetNull);
    for op in [
        codes::COMMIT_BID,
        codes::REGISTER_NEW_ITEM,
        codes::REGISTER_NEW_USER,
    ] {
        let session = if op == codes::REGISTER_NEW_USER {
            None
        } else {
            Some(sid)
        };
        let r = d.run(op, session, 3);
        assert_eq!(
            r.status,
            Status::ServerError(500),
            "{}",
            ebid::ops::name_of(op)
        );
    }
    // Reads are unaffected.
    let r = d.run(codes::VIEW_ITEM, Some(sid), 3);
    assert_eq!(r.status, Status::Ok);
}

#[test]
fn corrupt_keygen_wrong_silently_overwrites_and_taints() {
    let mut d = Driver::new();
    let sid = d.login(1);
    d.srv.app_mut().corrupt_keygen(CorruptKind::SetWrong);
    let db = d.srv.db();
    assert!(db.borrow().is_consistent());
    let r = d.run(codes::COMMIT_BID, Some(sid), 3);
    // The write "succeeds" — onto an existing row.
    assert_eq!(r.status, Status::Ok);
    assert!(r.tainted, "comparison oracle sees the divergence");
    assert!(!db.borrow().is_consistent(), "database now needs repair");
    // IdentityManager's reinit callback resets the generator.
    use urb_core::app::Application as _;
    d.srv.app_mut().on_component_reinit("IdentityManager");
    assert!(!d.srv.app().keygen_corrupt());
}

#[test]
fn corrupted_db_rows_taint_reads_until_repair() {
    let mut d = Driver::new();
    let db = d.srv.db();
    db.borrow_mut()
        .corrupt_cell("items", 3, 6, Value::Float(-10.0))
        .unwrap();
    let r = d.run(codes::VIEW_ITEM, None, 3);
    assert!(r.markers.invalid_data, "negative bid visible to the user");
    assert!(r.tainted);
    db.borrow_mut().repair();
    let r = d.run(codes::VIEW_ITEM, None, 3);
    assert_eq!(r.status, Status::Ok);
    assert!(!r.tainted);
}

/// Every equality query `app.rs` issues — `(table, column, row limit)` —
/// and the largest value its argument takes on the dataset.
fn query_shapes(spec: &DatasetSpec) -> [(&'static str, &'static str, usize, i64); 7] {
    [
        ("items", "category_id", 25, spec.categories),
        ("items", "region_id", 25, spec.regions),
        ("items", "seller_id", 10, spec.users),
        ("bids", "item_id", 20, spec.items),
        ("bids", "user_id", 10, spec.users),
        ("buy_now", "buyer_id", 10, spec.users),
        ("comments", "to_user", 10, spec.users),
    ]
}

/// Resolves a table and column name against the schema, independently of
/// the handles `app.rs` holds.
fn handle_of(table: &str, column: &str) -> (TableId, usize) {
    let schema = ebid::db_schema();
    let t = schema.iter().position(|t| t.name == table).unwrap();
    let c = schema[t].columns.iter().position(|c| *c == column);
    (TableId(t), c.unwrap())
}

/// Asserts every query shape, for every argument value (and one past
/// each end), visits what the full-scan reference returns.
fn assert_queries_match_full_scan(db: &mut statestore::Database, spec: &DatasetSpec) {
    for (table, column, limit, max) in query_shapes(spec) {
        let (_, col) = handle_of(table, column);
        for v in 0..=max + 1 {
            let expected = db
                .scan(table, |r| r[col].as_int() == Some(v), limit)
                .unwrap();
            let mut seen = Vec::new();
            let hits = db
                .scan_eq(table, col, v, limit, |r: &Row| seen.push(r.clone()))
                .unwrap();
            assert_eq!(seen, expected, "{table}.{column} = {v}");
            assert_eq!(hits.rows, expected.len());
        }
    }
    for (table, limit) in [("categories", 20), ("regions", 62)] {
        let mut seen = Vec::new();
        db.scan_all(table, limit, |r: &Row| seen.push(r.clone()))
            .unwrap();
        assert_eq!(seen, db.scan(table, |_| true, limit).unwrap());
    }
}

#[test]
fn indexed_queries_match_the_full_scan_on_the_default_dataset() {
    let spec = DatasetSpec::default();
    for (table, column, ..) in query_shapes(&spec) {
        assert!(
            ebid::schema::INDEXES.contains(&handle_of(table, column)),
            "{table}.{column} is queried by equality but not indexed"
        );
    }
    let mut db = spec.generate(7);
    db.check_indexes().unwrap();
    assert_queries_match_full_scan(&mut db, &spec);

    // Queries see a transaction's in-place writes before it commits, and
    // stop seeing them when it rolls back.
    let conn = db.open_conn();
    let txn = db.begin(conn).unwrap();
    let bid = db.max_pk("bids").unwrap().unwrap() + 1;
    db.insert(
        txn,
        "bids",
        vec![
            Value::Int(bid),
            Value::Int(1),
            Value::Int(1),
            Value::Float(1.0),
        ],
    )
    .unwrap();
    db.update(txn, "items", 1, &[(3, Value::Int(spec.categories))])
        .unwrap();
    db.delete(txn, "comments", 1).unwrap();
    let (_, item_col) = handle_of("bids", "item_id");
    let mut newest = 0;
    db.scan_eq("bids", item_col, 1, usize::MAX, |r: &Row| {
        newest = r[0].as_int().unwrap()
    })
    .unwrap();
    assert_eq!(newest, bid, "the uncommitted bid is the last hit");
    assert_queries_match_full_scan(&mut db, &spec);
    db.rollback(txn).unwrap();
    db.check_indexes().unwrap();
    assert_queries_match_full_scan(&mut db, &spec);
}

#[test]
fn a_tainted_query_hit_taints_the_response() {
    let mut d = Driver::new();
    let db = d.srv.db();
    // Corrupt a cell of bid 1 that no handler looks at.
    let item = db.borrow().read_committed("bids", 1).unwrap().unwrap()[2]
        .as_int()
        .unwrap();
    let other = if item == 1 { 2 } else { 1 };
    db.borrow_mut()
        .corrupt_cell("bids", 1, 3, Value::Float(-1.0))
        .unwrap();
    let r = d.run(codes::VIEW_BID_HISTORY, None, item);
    assert_eq!(r.status, Status::Ok);
    assert!(r.tainted, "the history of item {item} includes the bad bid");
    let r = d.run(codes::VIEW_BID_HISTORY, None, other);
    assert!(!r.tainted, "another item's history does not");
    db.borrow_mut().repair();
    assert!(!d.run(codes::VIEW_BID_HISTORY, None, item).tainted);
}
