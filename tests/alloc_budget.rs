//! Allocation budgets of the request path and of set-up — the
//! deterministic, host-independent cost counters ROADMAP aim 1 asks for.
//!
//! Wall-clock speed can only be reported; heap allocations at a fixed seed
//! repeat exactly on any machine, so they can be gated. The request-path
//! set-ups are the benchmark's two steady workloads with a shorter window:
//! `steady_fasts_1n` (1 node × 500 clients on FastS, no recovery manager,
//! no bus, no faults) and `steady_ssm_2n` (2 nodes × 500 clients on SSM
//! with failover, an idle recovery manager and the digest + metrics bus).
//! The set-up one is `chaos_ladder_1n`'s, which builds a fresh simulation
//! for every one of its scenarios. Below them, the contracts the budgets
//! stand on: how many allocations a session object's copy-on-write and a
//! warm database transaction make.
//!
//! When a budget fails, name the allocation sites of the steady FastS
//! window with
//! `cargo test --test alloc_budget alloc_sites -- --ignored --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use microreboot::cluster::{Sim, SimConfig, StoreChoice};
use microreboot::recovery::RmConfig;
use microreboot::simcore::telemetry::{shared_bus, TraceHashSink};
use microreboot::simcore::{MetricsRegistry, SimDuration, SimTime};
use microreboot::statestore::db::TableDef;
use microreboot::statestore::{Database, SessionObject, Value};

/// The command that names where the steady FastS window allocates.
const SITES: &str = "cargo test --test alloc_budget alloc_sites -- --ignored --nocapture";

/// Allocations per issued request the steady request path may make on
/// FastS. Measured 0.920 (7,910 over 8,600 requests) when the budget was
/// set — 1.694 while a session attribute was a `String` key in an
/// `Rc<BTreeMap>` and every transaction grew a fresh undo log and lock
/// list, 1.83 while every insert built, and dropped, the `String` of a
/// `NullKey` error it did not return and a table's rows were a `BTreeMap`
/// growing a node at a time; 5.17 before rows became shared `Rc` images,
/// 9.29 before session objects became copy-on-write, 34.02 before
/// database queries stopped copying rows. The 15 % of headroom is for the
/// path to grow a feature, not to absorb a per-request `Vec`, `clone` or
/// eagerly built error that crept back in.
const FASTS_BUDGET: f64 = 1.06;

/// The same on SSM, where a logged-in request also marshals its session
/// and every write reaches three bricks. Measured 1.609 (27,340 over
/// 16,989) when the budget was set (2.396 with the `BTreeMap` attributes
/// and fresh transaction buffers, 2.53 with the eager error and the row
/// tree, 5.86 with copied rows, 11.82 while each brick held its own deep
/// copy).
const SSM_BUDGET: f64 = 1.85;

/// Allocations per dataset row that building a simulation (`Sim::new`:
/// the 17,352-row dataset and its seven indexes, one server, 60 clients,
/// the hardened recovery manager) may make. Measured 1.246 (21,627) when
/// the budget was set: one per row is the row image itself, the rest the
/// text cells, the posting lists and everything that is not the dataset.
/// It was 2.34 (40,575) while admitting a row built the `NullKey` error's
/// `String` whether or not the key was null — one allocation per row, the
/// whole difference but 1,600 tree nodes — and 2.48 while `load` installed
/// a row at a time. The headroom is for set-up to grow a feature, not for
/// a second allocation per row to creep back in.
const SETUP_BUDGET: f64 = 1.43;

struct CountingAlloc;

/// One thread's allocation counter, and `alloc_sites`' sampler.
struct Counter {
    /// Allocations made by this thread, the sampler's own excepted.
    allocs: Cell<u64>,
    /// Capture a backtrace on every this-many-th allocation; 0 = never.
    every: Cell<u64>,
    /// Set while a backtrace is captured: the capture's own allocations
    /// are neither counted nor sampled.
    capturing: Cell<bool>,
    traces: RefCell<Vec<Backtrace>>,
}

thread_local! {
    /// Per thread, because the test harness runs tests (and prints their
    /// results) on other threads of the same process while a test is
    /// counting.
    static COUNTER: Counter = const {
        Counter {
            allocs: Cell::new(0),
            every: Cell::new(0),
            capturing: Cell::new(false),
            traces: RefCell::new(Vec::new()),
        }
    };
}

/// Counts one allocation, sampling it if it is due; a thread being torn
/// down no longer counts.
fn count() {
    let _ = COUNTER.try_with(|c| {
        if c.capturing.get() {
            return;
        }
        let n = c.allocs.get() + 1;
        c.allocs.set(n);
        let every = c.every.get();
        if every != 0 && n % every == 0 {
            c.capturing.set(true);
            let trace = Backtrace::force_capture();
            c.traces.borrow_mut().push(trace);
            c.capturing.set(false);
        }
    });
}

fn allocs() -> u64 {
    COUNTER.with(|c| c.allocs.get())
}

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A simulation of `config`, with the digest + metrics bus if `bus`, run
/// to the start of the measured window.
fn warmed(config: SimConfig, bus: bool) -> Sim {
    let mut sim = Sim::new(config);
    if bus {
        let bus = shared_bus();
        bus.borrow_mut()
            .add_sink(Box::new(Rc::new(RefCell::new(TraceHashSink::new()))));
        bus.borrow_mut()
            .add_sink(Box::new(Rc::new(RefCell::new(MetricsRegistry::new()))));
        sim.attach_telemetry(bus);
    }
    sim.run_until(SimTime::from_secs(60));
    sim
}

/// Runs the measured window of a [`warmed`] simulation; returns
/// (allocations, requests issued) in it.
fn window(sim: &mut Sim) -> (u64, u64) {
    let issued_before = sim.world().pool.mix().total();
    let made = allocations(|| sim.run_until(SimTime::from_secs(180)));
    (made, sim.world().pool.mix().total() - issued_before)
}

/// Measures `config` twice and holds the (exactly repeating) allocations
/// per issued request against `budget`.
fn assert_within_budget(name: &str, config: SimConfig, bus: bool, budget: f64) {
    let first = window(&mut warmed(config.clone(), bus));
    assert_eq!(
        first,
        window(&mut warmed(config, bus)),
        "same seed, same allocations and requests"
    );
    let (allocs, requests) = first;
    assert!(requests > 5_000, "the window carries load: {requests}");
    let per_request = allocs as f64 / requests as f64;
    assert!(
        per_request <= budget,
        "{per_request:.2} allocations per request ({allocs} over {requests}) exceeds {budget}; \
         name the sites with `{SITES}`"
    );
    println!("{name} allocations per request: {per_request:.3} ({allocs} over {requests})");
}

/// `steady_fasts_1n`'s configuration.
fn steady_fasts() -> SimConfig {
    SimConfig {
        nodes: 1,
        clients_per_node: 500,
        store: StoreChoice::FastS,
        rm: None,
        seed: 7,
        ..SimConfig::default()
    }
}

#[test]
fn steady_request_path_stays_within_its_allocation_budget() {
    assert_within_budget("FastS", steady_fasts(), false, FASTS_BUDGET);
}

#[test]
fn steady_ssm_request_path_stays_within_its_allocation_budget() {
    assert_within_budget(
        "SSM",
        SimConfig {
            nodes: 2,
            clients_per_node: 500,
            store: StoreChoice::Ssm,
            failover: true,
            rm: Some(RmConfig::default()),
            seed: 7,
            ..SimConfig::default()
        },
        true,
        SSM_BUDGET,
    );
}

#[test]
fn simulation_set_up_stays_within_its_allocation_budget() {
    let config = SimConfig {
        nodes: 1,
        clients_per_node: 60,
        store: StoreChoice::FastS,
        rm: Some(RmConfig {
            score_window: SimDuration::from_secs(90),
            storm_limit: 3,
            storm_backoff: SimDuration::from_secs(10),
            flap_limit: 3,
            flap_window: SimDuration::from_secs(300),
            watchdog_bound: Some(SimDuration::from_secs(180)),
            ..RmConfig::default()
        }),
        seed: 7,
        ..SimConfig::default()
    };
    let measure = || {
        let before = allocs();
        let sim = Sim::new(config.clone());
        let made = allocs() - before;
        let rows = sim.world().nodes[0].db().borrow().row_count();
        (made, rows)
    };
    // The first simulation a thread builds also fills once-per-thread and
    // once-per-process tables (8 allocations); which test pays for the
    // latter depends on the order the harness runs them in.
    drop(Sim::new(config.clone()));
    let (allocs, rows) = measure();
    assert_eq!((allocs, rows), measure(), "same seed, same set-up");
    assert!(rows > 15_000, "the default dataset: {rows}");
    let per_row = allocs as f64 / rows as f64;
    assert!(
        per_row <= SETUP_BUDGET,
        "{per_row:.2} allocations per dataset row ({allocs} over {rows}) exceeds {SETUP_BUDGET}; \
         name the sites of the request path with `{SITES}`"
    );
    println!("set-up allocations per dataset row: {per_row:.3} ({allocs} over {rows})");
}

/// A session object's copy-on-write, counted: an unshared object
/// overwrites an attribute in place; a new key, or any change to an object
/// somebody else still holds, builds one new slice; removing an absent key
/// copies nothing.
#[test]
fn session_objects_copy_in_one_allocation() {
    let mut obj = SessionObject::new();
    obj.set("user_id", 7i64);
    obj.set("bid_item", 42i64);
    assert_eq!(
        allocations(|| obj.set("user_id", 8i64)),
        0,
        "overwrite, unshared"
    );
    assert_eq!(
        allocations(|| obj.set("bid_amount", 1.5)),
        1,
        "new key, unshared"
    );
    let mut held = vec![obj.clone()];
    assert_eq!(
        allocations(|| obj.set("user_id", 9i64)),
        1,
        "overwrite, shared"
    );
    held.push(obj.clone());
    assert_eq!(
        allocations(|| obj.set("buy_item", 3i64)),
        1,
        "new key, shared"
    );
    held.push(obj.clone());
    assert_eq!(
        allocations(|| drop(obj.remove("bid_item"))),
        1,
        "remove, shared"
    );
    held.push(obj.clone());
    assert_eq!(
        allocations(|| drop(obj.remove("absent"))),
        0,
        "absent key, shared"
    );
    assert_eq!(
        allocations(|| drop(obj.remove("user_id"))),
        1,
        "remove, shared"
    );
    assert_eq!(held.len(), 4, "every copy was still held when it was made");
}

/// A finished transaction's `undo` and `locks` buffers serve the next one:
/// a warm `begin` → `update` → `commit` allocates the new row image and
/// nothing else.
#[test]
fn a_warm_transaction_allocates_only_its_row_image() {
    let mut db = Database::new(vec![TableDef {
        name: "t",
        columns: &["id", "v"],
    }]);
    let conn = db.open_conn();
    let txn = db.begin(conn).unwrap();
    db.insert(txn, "t", vec![Value::Int(1), Value::Int(0)])
        .unwrap();
    db.commit(txn).unwrap();
    let mut write = |v: i64| {
        let txn = db.begin(conn).unwrap();
        db.update(txn, "t", 1, &[(1, Value::Int(v))]).unwrap();
        db.commit(txn).unwrap();
    };
    write(1);
    assert_eq!(allocations(|| write(2)), 1);
}

/// How many sampled allocation sites [`alloc_sites`] prints.
const TOP_SITES: usize = 20;

/// Where a sampled allocation came from: the two innermost workspace
/// functions of its rendered backtrace — frames whose source is under
/// `crates/` or `src/` — as `callee <- caller`. The standard library's
/// frames and this file's are skipped.
fn site(trace: &str) -> String {
    let mut frames: Vec<&str> = Vec::new();
    let mut name = "";
    for line in trace.lines().map(str::trim) {
        match line.strip_prefix("at ") {
            Some(at) if at.starts_with("./crates/") || at.starts_with("./src/") => {
                frames.push(name);
                if frames.len() == 2 {
                    break;
                }
            }
            Some(_) => {}
            None => name = line.split_once(": ").map_or(line, |(_, f)| f),
        }
    }
    match frames[..] {
        [] => "(no workspace frame)".to_string(),
        _ => frames.join(" <- "),
    }
}

/// Not a gate: names where the steady FastS window allocates. It captures
/// a backtrace on one allocation in `EVERY` and prints the workspace
/// functions they came from, by share.
#[test]
#[ignore = "a profile, not a check; run it when a budget fails"]
fn alloc_sites() {
    const EVERY: u64 = 7;
    let mut sim = warmed(steady_fasts(), false);
    COUNTER.with(|c| c.every.set(EVERY));
    let (allocs, requests) = window(&mut sim);
    let traces = COUNTER.with(|c| {
        c.every.set(0);
        c.traces.take()
    });
    let rendered: Vec<String> = traces.iter().map(ToString::to_string).collect();
    let mut sites: BTreeMap<String, u64> = BTreeMap::new();
    for trace in &rendered {
        *sites.entry(site(trace)).or_default() += 1;
    }
    let mut sites: Vec<(String, u64)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "steady FastS window: {allocs} allocations over {requests} requests ({:.3} per request); \
         {} sampled, 1 in {EVERY}",
        allocs as f64 / requests as f64,
        rendered.len()
    );
    for (name, n) in sites.into_iter().take(TOP_SITES) {
        let share = 100.0 * n as f64 / rendered.len() as f64;
        println!("{share:5.1} %  {n:5}  {name}");
    }
}
