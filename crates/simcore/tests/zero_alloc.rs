//! Allocation regression gate for the arena kernel.
//!
//! The slot-arena kernel's core claim is that steady-state event traffic
//! is allocation-free: slots are reused through the free list and
//! hot-slot hint, event payloads live inline, and the metrics fold writes
//! dense symbol-indexed storage. This test pins that claim at exactly
//! zero heap allocations per event once the pool and containers are warm
//! — any future `Box`, map node, or accidental `Vec` growth on the
//! per-event path fails it (the second test shows the counter biting on
//! exactly such a `Box`).
#![expect(
    clippy::disallowed_macros,
    reason = "the per-thread allocation counter is test instrumentation, not sim state"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simcore::telemetry::{Disposition, RebootLevel, TelemetryEvent, TelemetrySink};
use simcore::{EventPayload, EventQueue, MetricsRegistry, QuantileSketch, SimDuration, SimTime};

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

/// What the chain events fold into: a registry, fed the events a real
/// request emits through the fold the simulator runs.
struct World {
    fired: u64,
    metrics: MetricsRegistry,
    /// When set, every step also boxes its payload — the regression the
    /// gate exists to catch.
    boxing: bool,
    /// Steps fired per [`Structure`], indexed by its discriminant.
    held: [u64; 3],
}

/// The queue structure a chain's reschedules wait in.
#[derive(Clone, Copy)]
enum Structure {
    /// A second or more ahead.
    Far,
    /// A constant delay ahead, through `schedule_event_fifo`.
    Lane,
    /// Within 16 ms.
    Near,
}

impl Structure {
    /// A quarter of the chains keep to the far heap, a quarter to the
    /// lane, half to the near heap.
    fn of(k: u64) -> Structure {
        match k % 4 {
            0 => Structure::Far,
            1 => Structure::Lane,
            _ => Structure::Near,
        }
    }
}

/// The constant delay of the chains that reschedule through the FIFO lane.
const LANE_DELAY: SimDuration = SimDuration::from_secs(1);

/// A self-rescheduling chain step carrying its payload inline; chain `k`
/// keeps to [`Structure::of`]`(k)`. Every 7th step also schedules and
/// cancels a decoy, exercising slot reuse through the cancellation path.
enum Chain {
    Step { k: u64, payload: [u64; 4] },
    Decoy,
}

impl EventPayload<World> for Chain {
    fn fire(self, world: &mut World, queue: &mut EventQueue<World, Chain>) {
        let Chain::Step { k, payload } = self else {
            unreachable!("decoys are always cancelled");
        };
        world.fired += 1;
        let structure = Structure::of(k);
        world.held[structure as usize] += 1;
        let at = queue.now();
        let jitter = (k + world.fired) % 16;
        let delay = match structure {
            Structure::Far => SimDuration::from_millis(1_000 + 64 * jitter),
            Structure::Lane => LANE_DELAY,
            Structure::Near => SimDuration::from_millis(1 + jitter),
        };
        world.metrics.on_event(&TelemetryEvent::ClientOp {
            action: k,
            group: 0,
            started_at: at,
            finished_at: at + delay,
            ok: !world.fired.is_multiple_of(3),
        });
        world.metrics.on_event(&TelemetryEvent::RequestCompleted {
            node: 0,
            req: world.fired,
            disposition: Disposition::Ok,
            at,
        });
        if world.fired.is_multiple_of(50) {
            world.metrics.on_event(&TelemetryEvent::RebootFinished {
                node: 0,
                level: RebootLevel::Component,
                duration: delay,
                at,
            });
        }
        if world.boxing {
            std::hint::black_box(Box::new(payload));
        }
        if world.fired.is_multiple_of(7) {
            let decoy = queue.schedule_event_in(delay, "decoy", Chain::Decoy);
            queue.cancel(decoy);
        }
        let next = Chain::Step { k, payload };
        match structure {
            Structure::Lane => queue.schedule_event_fifo(at + delay, "chain", next),
            _ => queue.schedule_event_in(delay, "chain", next),
        };
    }
}

/// Allocations over 100 000 warm events of 256 chains, and how many of
/// those events each [`Structure`] held.
fn allocs_over_warm_events(boxing: bool) -> (u64, [u64; 3]) {
    let mut queue: EventQueue<World, Chain> = EventQueue::new();
    let mut world = World {
        fired: 0,
        metrics: MetricsRegistry::new(),
        boxing,
        held: [0; 3],
    };
    for k in 0..256 {
        let payload = [0x5eed, 0xbeef, 0xcafe, k];
        queue.schedule_event_at(SimTime::from_micros(k), "chain", Chain::Step { k, payload });
    }
    // Warm everything that legitimately grows once: the slot pool, the two
    // heaps' backing vecs and the lane's ring.
    while world.fired < 100_000 {
        queue.step(&mut world);
    }
    let (before, held_before) = (allocs(), world.held);
    while world.fired < 200_000 {
        queue.step(&mut world);
    }
    let held = [0, 1, 2].map(|i| world.held[i] - held_before[i]);
    (allocs() - before, held)
}

#[test]
fn warm_arena_kernel_allocates_nothing_per_event() {
    let (allocs, held) = allocs_over_warm_events(false);
    assert_eq!(
        allocs, 0,
        "the warm arena kernel must fire events and fold counters without \
         heap allocation ({allocs} allocations over 100000 events)"
    );
    // Every structure took part: a few hundred far and lane events each
    // among ~99,000 near ones.
    assert!(
        held.iter().all(|&n| n >= 100),
        "events per structure: {held:?}"
    );
}

#[test]
fn a_box_on_the_event_path_is_counted() {
    assert_eq!(allocs_over_warm_events(true).0, 100_000);
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
