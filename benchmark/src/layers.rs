//! Unit cost of each layer from an isolated driver: host nanoseconds per
//! call, median of at least 30 timed batches after a warm-up, inputs
//! generated from the seed. Each driver calls only public entry points.

use std::hint::black_box;
use std::time::{Duration, Instant};

use microreboot::cluster::LoadBalancer;
use microreboot::components::graph::DependencyGraph;
use microreboot::core::backend::{share_db, SessionBackend};
use microreboot::core::server::make_request;
use microreboot::core::{AppServer, BodyMarkers, OpCode, Response, ServerConfig, Status};
use microreboot::core::{Request, SubmitOutcome};
use microreboot::ebid::ops::codes;
use microreboot::ebid::{self, DatasetSpec, EBid};
use microreboot::faults::campaign::{scenarios, CampaignConfig};
use microreboot::recovery::conductor::{Conductor, ConductorConfig, Submission};
use microreboot::recovery::{RecoveryAction, RecoveryManager, RmConfig};
use microreboot::simcore::telemetry::Disposition;
use microreboot::simcore::telemetry::{TelemetryBus, TelemetryEvent, TelemetrySink, TraceHashSink};
use microreboot::simcore::{
    EventPayload, EventQueue, MetricsRegistry, SimDuration, SimRng, SimTime, TraceRecorder,
};
use microreboot::statestore::db::TableDef;
use microreboot::statestore::{
    Database, FastS, SessionId, SessionObject, SessionStore, Ssm, Value,
};
use microreboot::workload::catalog::FunctionalGroup;
use microreboot::workload::detect::classify;
use microreboot::workload::taw::{ActionId, TawTracker};
use microreboot::workload::{
    ClientPool, ClientPoolConfig, DetectorKind, FailureKind, FailureReport,
};

use crate::stats::median;
use crate::trace::Tracer;

const MIN_BATCHES: usize = 30;
const MEASURE: Duration = Duration::from_millis(160);
const WARMUP: Duration = Duration::from_millis(25);

/// One isolated driver's result.
pub struct UnitCost {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub batches: usize,
}

/// Runs the drivers, one span each.
pub struct Bench<'a> {
    pub tracer: &'a mut Tracer,
    pub quick: bool,
    pub out: Vec<UnitCost>,
}

impl Bench<'_> {
    /// Runs `batch` repeatedly. A batch makes `calls` calls inside
    /// [`timed`] (any preparation around it is not counted) and returns
    /// the timed part. Records the median cost per call.
    fn time(
        &mut self,
        name: &'static str,
        span: &'static str,
        calls: u64,
        mut batch: impl FnMut() -> Duration,
    ) {
        let id = self.tracer.enter(span);
        let (warmup, measure, min_batches) = if self.quick {
            (Duration::from_millis(2), Duration::from_millis(10), 3)
        } else {
            (WARMUP, MEASURE, MIN_BATCHES)
        };
        let start = Instant::now();
        while start.elapsed() < warmup {
            batch();
        }
        let mut samples = Vec::with_capacity(256);
        let start = Instant::now();
        while samples.len() < min_batches || start.elapsed() < measure {
            samples.push(batch().as_nanos() as f64 / calls as f64);
        }
        self.tracer.exit(id);
        self.out.push(UnitCost {
            name,
            unit: "ns",
            value: median(&samples),
            batches: samples.len(),
        });
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

// ---- simcore.event -------------------------------------------------------

#[derive(Default)]
struct ChainWorld {
    fired: u64,
    acc: u64,
}

/// A self-rescheduling chain step; every seventh firing also schedules
/// and cancels a decoy, so the cancellation path runs at a realistic rate.
enum ChainEvent {
    Step { k: u64, payload: [u64; 4] },
    Decoy,
}

impl EventPayload<ChainWorld> for ChainEvent {
    fn fire(self, w: &mut ChainWorld, q: &mut EventQueue<ChainWorld, ChainEvent>) {
        let ChainEvent::Step { k, payload } = self else {
            unreachable!("decoys are always cancelled");
        };
        w.fired += 1;
        let mut z = k
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(w.acc | 1);
        z ^= z >> 31;
        w.acc = w.acc.wrapping_add(z).wrapping_add(payload[0] ^ payload[3]);
        let delay = SimDuration::from_micros(1 + z % 16);
        if w.fired.is_multiple_of(7) {
            let decoy = q.schedule_event_in(delay, "decoy", ChainEvent::Decoy);
            q.cancel(decoy);
        }
        q.schedule_event_in(delay, "chain", ChainEvent::Step { k, payload });
    }
}

fn event_queue(b: &mut Bench<'_>, rng: &mut SimRng) {
    let mut q: EventQueue<ChainWorld, ChainEvent> = EventQueue::new();
    let mut w = ChainWorld::default();
    for k in 0..256 {
        let payload = [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ];
        q.schedule_event_at(
            SimTime::from_micros(k),
            "chain",
            ChainEvent::Step { k, payload },
        );
    }
    while w.fired < 50_000 {
        q.step(&mut w);
    }
    b.time(
        "simcore.event.ns_per_step",
        "driver.simcore.event",
        20_000,
        || {
            timed(|| {
                for _ in 0..20_000 {
                    black_box(q.step(&mut w));
                }
            })
        },
    );
    black_box(w.acc);
}

// ---- simcore.telemetry ---------------------------------------------------

/// The four events one healthy request puts on the bus.
fn request_events(req: u64) -> [TelemetryEvent; 4] {
    let at = SimTime::from_micros(req * 250);
    [
        TelemetryEvent::RequestSubmitted { node: 0, req, at },
        TelemetryEvent::RequestCompleted {
            node: 0,
            req,
            disposition: Disposition::Ok,
            at,
        },
        TelemetryEvent::ClientOp {
            action: req / 3,
            group: (req % 4) as u8,
            started_at: at,
            finished_at: at + SimDuration::from_millis(20 + req % 50),
            ok: true,
        },
        TelemetryEvent::ActionClosed { action: req / 3 },
    ]
}

fn telemetry(b: &mut Bench<'_>, rng: &mut SimRng) {
    let mut req = rng.uniform_u64(1 << 20);
    let mut emit = |name, sink: fn() -> Option<Box<dyn TelemetrySink>>| {
        b.time(name, "driver.simcore.telemetry", 4_000, || {
            // A fresh bus per batch, so the recorder's event log cannot
            // grow without bound over the measurement.
            let mut bus = TelemetryBus::new();
            if let Some(sink) = sink() {
                bus.add_sink(sink);
            }
            timed(|| {
                for _ in 0..1_000 {
                    req += 1;
                    for ev in &request_events(req) {
                        bus.emit(black_box(ev));
                    }
                }
            })
        });
    };
    emit("simcore.telemetry.ns_per_emit_nosink", || None);
    emit("simcore.telemetry.ns_per_emit_hash", || {
        Some(Box::new(TraceHashSink::new()))
    });
    emit("simcore.telemetry.ns_per_emit_metrics", || {
        Some(Box::new(MetricsRegistry::new()))
    });
    emit("simcore.telemetry.ns_per_emit_recorder", || {
        Some(Box::new(TraceRecorder::new()))
    });
}

// ---- cluster.lb ----------------------------------------------------------

fn load_balancer(b: &mut Bench<'_>, rng: &mut SimRng) {
    let mut lb = LoadBalancer::new(2);
    for sid in 0..1_000u64 {
        lb.assign(SessionId(sid), (sid % 2) as usize);
    }
    // Half the requests carry a cookie, as in the steady client mix.
    let reqs: Vec<Request> = (0..1_024u64)
        .map(|i| {
            let session = rng.chance(0.5).then(|| SessionId(rng.uniform_u64(1_000)));
            make_request(i, codes::VIEW_ITEM, session, true, 1, SimTime::ZERO)
        })
        .collect();
    let now = SimTime::from_secs(1);
    b.time(
        "cluster.lb.ns_per_route",
        "driver.cluster.lb",
        1_024,
        || {
            timed(|| {
                for r in &reqs {
                    black_box(lb.route(r, now));
                }
            })
        },
    );
}

// ---- core.server / core.lifecycle ---------------------------------------

/// One request through `submit` + `pump` + `complete` on an idle node.
fn serve(server: &mut AppServer<EBid>, req: Request, now: SimTime) -> Response {
    match server.submit(req, now) {
        SubmitOutcome::Admitted => {
            let started = server.pump(now)[0];
            server
                .complete(started.req, started.cpu_done_at)
                .expect("an idle node completes what it started")
        }
        SubmitOutcome::Rejected(r) => r,
    }
}

fn app_server(b: &mut Bench<'_>, rng: &mut SimRng, seed: u64) {
    let spec = DatasetSpec::default();
    let mut srv = AppServer::new(
        EBid::new(spec),
        ServerConfig::default(),
        share_db(spec.generate(seed)),
        SessionBackend::FastS(FastS::new()),
    );
    let mut now = SimTime::from_secs(1);
    let mut id = 0u64;
    let items: Vec<i64> = (0..256)
        .map(|_| 1 + rng.uniform_u64(spec.items as u64) as i64)
        .collect();

    b.time(
        "core.server.ns_per_read_request",
        "driver.core.server",
        256,
        || {
            timed(|| {
                for &item in &items {
                    id += 1;
                    now += SimDuration::from_millis(100);
                    let req = make_request(id, codes::VIEW_ITEM, None, true, item, now);
                    let resp = serve(&mut srv, req, now);
                    assert_eq!(resp.status, Status::Ok, "a browse request succeeds");
                }
            })
        },
    );

    // A logged-in user selects an item to bid on (session read + item
    // load + session write), then commits the bid (session read + one
    // transaction inserting the bid and updating the item).
    id += 1;
    let login = serve(
        &mut srv,
        make_request(id, codes::LOGIN, None, false, 1, now),
        now,
    );
    let sid = login.set_cookie.expect("login issues a cookie");
    b.time(
        "core.server.ns_per_write_request",
        "driver.core.server",
        256,
        || {
            timed(|| {
                for &item in &items[..128] {
                    for op in [codes::MAKE_BID, codes::COMMIT_BID] {
                        id += 1;
                        now += SimDuration::from_millis(100);
                        let req = make_request(id, op, Some(sid), false, item, now);
                        let resp = serve(&mut srv, req, now);
                        assert_eq!(resp.status, Status::Ok, "a bid succeeds");
                    }
                }
            })
        },
    );

    let mut t = now + SimDuration::from_secs(1);
    b.time(
        "core.lifecycle.ns_per_microreboot_cycle",
        "driver.core.lifecycle",
        16,
        || {
            timed(|| {
                for _ in 0..16 {
                    let ticket = srv
                        .begin_microreboot(&["ViewItem"], t, None)
                        .expect("the server is up");
                    black_box(srv.microreboot_crash(ticket.id, ticket.crash_at));
                    black_box(srv.microreboot_complete(ticket.id, ticket.done_at));
                    t = ticket.done_at;
                }
            })
        },
    );
}

// ---- statestore ------------------------------------------------------------

fn database(b: &mut Bench<'_>, rng: &mut SimRng) {
    let mut db = Database::new(vec![TableDef {
        name: "items",
        columns: &["id", "name", "value"],
    }]);
    let conn = db.open_conn();
    let mut next = 1i64;
    let mut insert = |db: &mut Database| {
        let txn = db.begin(conn).expect("connection is open");
        db.insert(
            txn,
            "items",
            vec![Value::Int(next), Value::from("x"), Value::Int(next % 7)],
        )
        .expect("fresh primary key");
        db.commit(txn).expect("transaction is active");
        next += 1;
    };
    for _ in 0..2_000 {
        insert(&mut db);
    }
    b.time(
        "statestore.db.ns_per_insert_commit",
        "driver.statestore.db",
        512,
        || {
            timed(|| {
                for _ in 0..512 {
                    insert(&mut db);
                }
            })
        },
    );
    let keys: Vec<i64> = (0..1_024)
        .map(|_| 1 + rng.uniform_u64(2_000) as i64)
        .collect();
    b.time(
        "statestore.db.ns_per_read",
        "driver.statestore.db",
        1_024,
        || {
            timed(|| {
                for &k in &keys {
                    black_box(db.read_committed("items", k).expect("table exists"));
                }
            })
        },
    );
    b.time(
        "statestore.db.ns_per_scan_100",
        "driver.statestore.db",
        16,
        || {
            timed(|| {
                for _ in 0..16 {
                    let rows = db
                        .scan("items", |r| r[2].as_int() == Some(0), 100)
                        .expect("table exists");
                    assert_eq!(rows.len(), 100, "the scan fills its limit");
                }
            })
        },
    );
}

fn session_store<S: SessionStore>(
    b: &mut Bench<'_>,
    rng: &mut SimRng,
    mut store: S,
    span: &'static str,
    read_name: &'static str,
    write_name: &'static str,
) {
    let mut obj = SessionObject::new();
    obj.set("user_id", rng.uniform_u64(100) as i64);
    obj.set("bid_item", rng.uniform_u64(1_320) as i64);
    obj.set("bid_amount", 110.5f64);
    for sid in 0..500 {
        store
            .write(SessionId(sid), obj.clone())
            .expect("healthy store");
    }
    let sids: Vec<SessionId> = (0..512).map(|_| SessionId(rng.uniform_u64(500))).collect();
    b.time(write_name, span, 512, || {
        timed(|| {
            for &sid in &sids {
                store.write(sid, obj.clone()).expect("healthy store");
            }
        })
    });
    b.time(read_name, span, 512, || {
        timed(|| {
            for &sid in &sids {
                let read = store.read(sid).expect("healthy store");
                assert!(read.is_some(), "a written session reads back");
            }
        })
    });
}

// ---- workload ---------------------------------------------------------------

fn ok_response(req: &Request, now: SimTime) -> Response {
    let grants_cookie = req.op == codes::LOGIN || req.op == codes::REGISTER_NEW_USER;
    Response {
        req: req.id,
        op: req.op,
        status: Status::Ok,
        markers: BodyMarkers::default(),
        tainted: false,
        finished_at: now,
        failed_component: None,
        set_cookie: grants_cookie.then_some(SessionId(req.id.0)),
        clear_cookie: req.op == codes::LOGOUT,
    }
}

fn clients(b: &mut Bench<'_>, seed: u64) {
    let mut pool = ClientPool::new(
        ebid::catalog(&DatasetSpec::default()),
        ClientPoolConfig {
            clients: 500,
            detector: DetectorKind::Comparison,
            seed,
            ..ClientPoolConfig::default()
        },
    );
    black_box(pool.initial_wakes(SimTime::ZERO));
    let mut now = SimTime::from_secs(1);
    let mut client = 0usize;
    b.time(
        "workload.client.ns_per_wake_deliver",
        "driver.workload.client",
        500,
        || {
            timed(|| {
                for _ in 0..500 {
                    client = (client + 1) % 500;
                    now += SimDuration::from_millis(14);
                    let out = pool
                        .wake(client, now)
                        .expect("an idle client issues a request");
                    let resp = ok_response(&out.req, now);
                    let next = pool.deliver(&resp, 0, now);
                    assert!(next.is_some(), "the response finds its client");
                }
            })
        },
    );
}

fn taw_and_detectors(b: &mut Bench<'_>, rng: &mut SimRng) {
    let mut taw = TawTracker::new();
    let mut i = 0u64;
    b.time(
        "workload.taw.ns_per_action",
        "driver.workload.taw",
        1_000,
        || {
            timed(|| {
                for _ in 0..1_000 {
                    i += 1;
                    let a = ActionId(i);
                    let t = SimTime::from_millis(i);
                    taw.record_op(a, FunctionalGroup::BrowseView, t, t, true);
                    taw.record_op(a, FunctionalGroup::BrowseView, t, t, true);
                    taw.close_action(a);
                }
            })
        },
    );
    assert_eq!(taw.summary().good_actions, i, "every action closed good");

    // Mostly healthy responses with the occasional failure, as a monitor
    // sees them.
    let req = make_request(1, codes::VIEW_ITEM, None, true, 1, SimTime::ZERO);
    let responses: Vec<Response> = (0..1_024)
        .map(|_| {
            let mut r = ok_response(&req, SimTime::from_secs(1));
            match rng.uniform_u64(50) {
                0 => r.status = Status::ServerError(500),
                1 => r.markers.exception_text = true,
                2 => r.tainted = true,
                _ => {}
            }
            r
        })
        .collect();
    b.time(
        "workload.detect.ns_per_response",
        "driver.workload.detect",
        1_024,
        || {
            timed(|| {
                for r in &responses {
                    black_box(classify(DetectorKind::Comparison, r, true));
                }
            })
        },
    );
}

// ---- recovery ----------------------------------------------------------------

fn recovery_manager(b: &mut Bench<'_>, rng: &mut SimRng) {
    let mut rm = RecoveryManager::new(1, RmConfig::default(), ebid::ops::call_path, "WAR");
    let ops: Vec<OpCode> = (0..64)
        .map(|_| OpCode(rng.uniform_u64(ebid::ops::OP_COUNT as u64) as u16))
        .collect();
    // Each batch lands 64 reports inside one scoring window; before the
    // next one an untimed poll an hour later prunes them without acting.
    let mut epoch = SimTime::from_secs(10);
    b.time(
        "recovery.manager.ns_per_report",
        "driver.recovery.manager",
        64,
        || {
            epoch += SimDuration::from_secs(3_600);
            assert!(rm.decide(0, epoch).is_none(), "stale evidence never acts");
            epoch += SimDuration::from_secs(3_600);
            timed(|| {
                for (i, &op) in ops.iter().enumerate() {
                    rm.report(&FailureReport {
                        at: epoch + SimDuration::from_millis(i as u64),
                        op,
                        kind: FailureKind::Http,
                        node: 0,
                        hint: None,
                    });
                }
            })
        },
    );
    // The idle poll: no evidence in the window, nothing in flight — what
    // a healthy cluster pays 3.3 times per simulated second per node.
    let mut now = epoch + SimDuration::from_secs(7_200);
    b.time(
        "recovery.manager.ns_per_decide",
        "driver.recovery.manager",
        1_000,
        || {
            timed(|| {
                for _ in 0..1_000 {
                    now += SimDuration::from_millis(300);
                    assert!(rm.decide(0, now).is_none(), "an idle poll never acts");
                }
            })
        },
    );
}

fn conductor_and_graph(b: &mut Bench<'_>) {
    let graph = DependencyGraph::build(&ebid::components::descriptors())
        .expect("the eBid roster is a valid graph");
    let mut c = Conductor::new(
        1,
        ConductorConfig {
            max_concurrent_per_node: 4,
            quarantine: true,
        },
        &graph,
        ebid::ops::call_path,
    );
    let now = SimTime::from_secs(1);
    // Three disjoint microreboots submitted and drained: three
    // submit + finish pairs per cycle.
    b.time(
        "recovery.conductor.ns_per_submit_finish",
        "driver.recovery.conductor",
        3 * 64,
        || {
            timed(|| {
                for _ in 0..64 {
                    let mut running = Vec::with_capacity(4);
                    for p in ["BrowseCategories", "BrowseRegions", "SearchItemsByCategory"] {
                        match c.submit(0, RecoveryAction::microreboot(&[p]), now) {
                            Submission::Started(cmd) => running.push(cmd.ticket),
                            Submission::Queued(id) | Submission::Coalesced(id) => running.push(id),
                        }
                    }
                    let mut acks = 0;
                    while let Some(id) = running.pop() {
                        let fin = c.on_finished(0, id, now);
                        running.extend(fin.start.into_iter().map(|cmd| cmd.ticket));
                        acks += fin.acks;
                    }
                    assert_eq!(acks, 3, "every decision is acknowledged once");
                }
            })
        },
    );

    let ids: Vec<_> = graph.all_ids().collect();
    b.time(
        "components.graph.ns_per_recovery_group",
        "driver.components.graph",
        ids.len() as u64 * 64,
        || {
            timed(|| {
                for _ in 0..64 {
                    for &id in &ids {
                        black_box(graph.recovery_group(id).len());
                    }
                }
            })
        },
    );
}

// ---- set-up costs --------------------------------------------------------------

fn setup_costs(b: &mut Bench<'_>, seed: u64) {
    let spec = DatasetSpec::default();
    let mut s = seed;
    b.time("ebid.schema.generate_ms", "driver.ebid.schema", 1, || {
        s = s.wrapping_add(1);
        timed(|| {
            black_box(spec.generate(s).row_count());
        })
    });
    let generate = b.out.last_mut().expect("just recorded");
    generate.value /= 1e6;
    generate.unit = "ms";
    b.time(
        "faults.campaign.ns_per_scenario",
        "driver.faults.campaign",
        64,
        || {
            s = s.wrapping_add(1);
            timed(|| {
                black_box(scenarios(&CampaignConfig { seed: s, runs: 64 }).len());
            })
        },
    );
}

/// Runs every isolated driver once.
pub fn run_all(tracer: &mut Tracer, seed: u64, quick: bool) -> Vec<UnitCost> {
    let mut b = Bench {
        tracer,
        quick,
        out: Vec::new(),
    };
    let mut rng = SimRng::seed_from(seed ^ 0x1a7e_55ed_0000_0000);
    event_queue(&mut b, &mut rng);
    telemetry(&mut b, &mut rng);
    load_balancer(&mut b, &mut rng);
    app_server(&mut b, &mut rng, seed);
    database(&mut b, &mut rng);
    session_store(
        &mut b,
        &mut rng,
        FastS::new(),
        "driver.statestore.fasts",
        "statestore.fasts.ns_per_read",
        "statestore.fasts.ns_per_write",
    );
    session_store(
        &mut b,
        &mut rng,
        Ssm::new(3),
        "driver.statestore.ssm",
        "statestore.ssm.ns_per_read",
        "statestore.ssm.ns_per_write",
    );
    clients(&mut b, seed);
    taw_and_detectors(&mut b, &mut rng);
    recovery_manager(&mut b, &mut rng);
    conductor_and_graph(&mut b);
    setup_costs(&mut b, seed);
    b.out
}
