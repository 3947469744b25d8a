//! Allocation regression gate for the arena kernel.
//!
//! The slot-arena refactor's core claim is that steady-state event
//! traffic is allocation-free: slots are reused through the free list and
//! hot-slot hint, chain payloads live inline, and the metrics fold writes
//! dense symbol-indexed storage. This test pins that claim at exactly
//! zero heap allocations per event once the pool and containers are warm
//! — any future `Box`, map node, or accidental `Vec` growth on the
//! per-event path fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::kernel::{self, BenchWorld, ChainEvent};
use simcore::{EventQueue, QuantileSketch};

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

#[test]
fn warm_arena_kernel_allocates_nothing_per_event() {
    let mut queue: EventQueue<BenchWorld, ChainEvent> = EventQueue::new();
    let mut world = BenchWorld::default();
    kernel::seed_arena(&mut queue);
    // Warm everything that legitimately grows once: the slot pool, the
    // heap's backing vec, the in-flight window and the series hot row.
    while world.fired < 100_000 {
        queue.step(&mut world);
    }

    let before = allocs();
    let fired_before = world.fired;
    while world.fired < fired_before + 100_000 {
        queue.step(&mut world);
    }
    let allocs = allocs() - before;

    assert_eq!(
        allocs,
        0,
        "the warm arena kernel must fire events without heap allocation \
         ({} allocations over {} events)",
        allocs,
        world.fired - fired_before
    );
}

/// The performance plane's streaming sketch makes the same promise: its
/// bucket array is fixed at construction, so a warm `observe` — the call
/// the per-request hot path makes — never touches the heap.
#[test]
fn warm_sketch_observe_allocates_nothing() {
    let mut sketch = QuantileSketch::new();
    // Warm: construction allocates the fixed bucket array, and the first
    // observations touch every code path once.
    for v in 0..1_000u64 {
        sketch.observe(v * 37 + 1);
    }

    let before = allocs();
    for v in 0..100_000u64 {
        // Spread over several decades so every bucket stratum is hit.
        sketch.observe((v * 101) % 10_000_000 + v % 97 + 1);
    }
    let allocs = allocs() - before;
    let observed = sketch.quantile(0.95);

    assert_eq!(
        allocs, 0,
        "a warm sketch must absorb observations without heap allocation \
         ({allocs} allocations over 100000 observes, p95 {observed})"
    );
}
