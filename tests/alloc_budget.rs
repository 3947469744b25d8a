//! Allocation budget of the request path — the deterministic, host-
//! independent cost counter ROADMAP aim 1 asks for.
//!
//! Wall-clock speed can only be reported; heap allocations per request at
//! a fixed seed repeat exactly on any machine, so they can be gated. The
//! set-up is the benchmark's `steady_fasts_1n` (1 node × 500 clients on
//! FastS, no recovery manager, no bus, no faults) with a shorter window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use microreboot::cluster::{Sim, SimConfig, StoreChoice};
use microreboot::simcore::SimTime;

/// Allocations per issued request the steady request path may make.
/// Measured 9.29 when the budget was set (11.64 before the client pool
/// and the Taw tracker stopped building a `Vec` per wake and per action,
/// 34.02 before database queries stopped copying rows). The 15 % of
/// headroom is for the path to grow a feature, not to absorb a
/// per-request `Vec` or `clone` that crept back in.
const BUDGET: f64 = 10.7;

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

/// Returns (allocations, requests issued) in the measured window.
fn measured_window() -> (u64, u64) {
    let mut sim = Sim::new(SimConfig {
        nodes: 1,
        clients_per_node: 500,
        store: StoreChoice::FastS,
        rm: None,
        seed: 7,
        ..SimConfig::default()
    });
    sim.run_until(SimTime::from_secs(60));
    let issued_before = sim.world().pool.mix().total();
    let allocs_before = allocs();
    sim.run_until(SimTime::from_secs(180));
    let allocs = allocs() - allocs_before;
    (allocs, sim.world().pool.mix().total() - issued_before)
}

#[test]
fn steady_request_path_stays_within_its_allocation_budget() {
    let first = measured_window();
    assert_eq!(
        first,
        measured_window(),
        "same seed, same allocations and requests"
    );
    let (allocs, requests) = first;
    assert!(requests > 5_000, "the window carries load: {requests}");
    let per_request = allocs as f64 / requests as f64;
    assert!(
        per_request <= BUDGET,
        "{per_request:.2} allocations per request ({allocs} over {requests}) exceeds {BUDGET}"
    );
    println!("allocations per request: {per_request:.3} ({allocs} over {requests})");
}
