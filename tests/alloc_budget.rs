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
//! for every one of its scenarios.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use microreboot::cluster::{Sim, SimConfig, StoreChoice};
use microreboot::recovery::RmConfig;
use microreboot::simcore::telemetry::{shared_bus, TraceHashSink};
use microreboot::simcore::{MetricsRegistry, SimDuration, SimTime};

/// Allocations per issued request the steady request path may make on
/// FastS. Measured 1.694 (14,567 over 8,600 requests) when the budget was
/// set — 1.83 while every insert built, and dropped, the `String` of a
/// `NullKey` error it did not return and a table's rows were a `BTreeMap`
/// growing a node at a time; 5.17 before rows became shared `Rc` images,
/// 9.29 before session objects became copy-on-write, 34.02 before
/// database queries stopped copying rows. The 15 % of headroom is for the
/// path to grow a feature, not to absorb a per-request `Vec`, `clone` or
/// eagerly built error that crept back in.
const FASTS_BUDGET: f64 = 1.95;

/// The same on SSM, where a logged-in request also marshals its session
/// and every write reaches three bricks. Measured 2.396 (40,704 over
/// 16,989) when the budget was set (2.53 with the eager error and the row
/// tree, 5.86 with copied rows, 11.82 while each brick held its own deep
/// copy).
const SSM_BUDGET: f64 = 2.76;

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

thread_local! {
    /// Allocations made by this thread. Per thread, because the test
    /// harness runs tests (and prints their results) on other threads of
    /// the same process while a test is counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation; a thread being torn down no longer counts.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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

/// Returns (allocations, requests issued) in the measured window of a
/// simulation of `config`, with the digest + metrics bus if `bus`.
fn measured_window(config: SimConfig, bus: bool) -> (u64, u64) {
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
    let issued_before = sim.world().pool.mix().total();
    let allocs_before = allocs();
    sim.run_until(SimTime::from_secs(180));
    let allocs = allocs() - allocs_before;
    (allocs, sim.world().pool.mix().total() - issued_before)
}

/// Measures `config` twice and holds the (exactly repeating) allocations
/// per issued request against `budget`.
fn assert_within_budget(config: SimConfig, bus: bool, budget: f64) {
    let first = measured_window(config.clone(), bus);
    assert_eq!(
        first,
        measured_window(config, bus),
        "same seed, same allocations and requests"
    );
    let (allocs, requests) = first;
    assert!(requests > 5_000, "the window carries load: {requests}");
    let per_request = allocs as f64 / requests as f64;
    assert!(
        per_request <= budget,
        "{per_request:.2} allocations per request ({allocs} over {requests}) exceeds {budget}"
    );
    println!("allocations per request: {per_request:.3} ({allocs} over {requests})");
}

#[test]
fn steady_request_path_stays_within_its_allocation_budget() {
    assert_within_budget(
        SimConfig {
            nodes: 1,
            clients_per_node: 500,
            store: StoreChoice::FastS,
            rm: None,
            seed: 7,
            ..SimConfig::default()
        },
        false,
        FASTS_BUDGET,
    );
}

#[test]
fn steady_ssm_request_path_stays_within_its_allocation_budget() {
    assert_within_budget(
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
        "{per_row:.2} allocations per dataset row ({allocs} over {rows}) exceeds {SETUP_BUDGET}"
    );
    println!("set-up allocations per dataset row: {per_row:.3} ({allocs} over {rows})");
}
