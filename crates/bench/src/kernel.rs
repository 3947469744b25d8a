//! Kernel micro-benchmark workload: a self-rescheduling chain workload
//! with periodic cancellations on the slot-arena event queue, with a
//! per-event metrics fold standing in for handler work. `urb-bench kernel`
//! times it (`BENCH_kernel.json`, DESIGN.md §9) and `tests/zero_alloc.rs`
//! pins its steady state at zero allocations per event.
//!
//! The seed kernel (one `Box<dyn FnOnce>` per event, lazy cancellation
//! through a `HashSet`) used to be replicated here as a comparison
//! baseline; the arena kernel measured 3.3x over it when it landed
//! (EXPERIMENTS.md keeps that as history).

use std::time::{Duration, Instant};

use simcore::{symbol, EventPayload, EventQueue, MetricsRegistry, SimDuration, SimTime};

/// How many independent self-rescheduling chains the workload keeps live.
pub const CHAINS: u64 = 256;
/// Every `CANCEL_EVERY`-th chain step also schedules-then-cancels a decoy
/// event, exercising the cancellation path at a realistic (~14%) rate.
const CANCEL_EVERY: u64 = 7;

/// Counters each fired event rotates through, mirroring the 2–3 registry
/// bumps a real request-pipeline event folds.
const FOLD_SYMS: [simcore::Sym; 4] = [
    symbol::REQUESTS_SUBMITTED,
    symbol::REQUESTS_COMPLETED,
    symbol::REQUESTS_OK,
    symbol::RETRIES_SENT,
];

/// The benchmark world: a deterministic mixer standing in for handler
/// work, plus the metrics store and in-flight window each fired event
/// folds into, so the measured path covers the full per-event pipeline:
/// event storage, dispatch and the telemetry fold.
pub struct BenchWorld {
    /// Events fired so far.
    pub fired: u64,
    /// Running checksum, so per-event work cannot be optimized away.
    pub acc: u64,
    /// Dense symbol-indexed counters.
    pub metrics: MetricsRegistry,
    /// In-flight window: id-sorted vec with monotone append (the
    /// pipeline's `running` / the client pool's `req_owner` shape).
    pub running: Vec<(u64, [u64; 4])>,
}

impl Default for BenchWorld {
    fn default() -> Self {
        BenchWorld {
            fired: 0,
            acc: 0,
            // `new`, not `default`: the canonical histograms must be
            // registered for the fold's `observe_sym` to record.
            metrics: MetricsRegistry::new(),
            running: Vec::new(),
        }
    }
}

impl BenchWorld {
    fn touch(&mut self, now: SimTime, k: u64, payload: &[u64; 4]) -> SimDuration {
        self.fired += 1;
        // SplitMix-style mixing: cheap, but enough data dependency that
        // the event body is not dead code.
        let mut z = k
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(self.acc | 1);
        z ^= z >> 31;
        self.acc = self
            .acc
            .wrapping_add(z)
            .wrapping_add(payload[0] ^ payload[3]);
        let which = (z % 3) as usize;
        // The per-event fold: dense Vec bumps by symbol.
        self.metrics.inc_sym(symbol::CLIENT_OPS);
        self.metrics.inc_sym(FOLD_SYMS[which]);
        self.metrics.inc_sym(FOLD_SYMS[which + 1]);
        // Request bookkeeping, once per request lifecycle: monotone append
        // + binary-search removal on the id-sorted vec, then the fold's
        // completion arm — dense-slot histogram sample and hot-row series
        // bump.
        let id = self.fired;
        if id.is_multiple_of(EVENTS_PER_REQUEST) {
            self.running.push((id, *payload));
            if id >= INFLIGHT * EVENTS_PER_REQUEST {
                let gone = id - INFLIGHT * EVENTS_PER_REQUEST;
                if let Ok(slot) = self.running.binary_search_by_key(&gone, |&(i, _)| i) {
                    let (_, v) = self.running.remove(slot);
                    self.acc = self.acc.wrapping_add(v[1]);
                }
            }
            self.metrics
                .observe_sym(symbol::CLIENT_OP_MS, SimDuration::from_millis(z & 255));
            self.metrics.series_mut().incr_sym(now, symbol::OPS_OK);
        }
        SimDuration::from_micros(1 + (z % 16))
    }
}

/// Event payload standing in for the response structs the real
/// simulation's deliver/complete events carry by value.
const PAYLOAD: [u64; 4] = [0x5eed, 0xbeef, 0xcafe, 0xd00d];

/// Steady-state depth of the in-flight request window, sized like the
/// pipeline's per-node worker pool.
const INFLIGHT: u64 = 16;
/// One request lifecycle (submit, complete, deliver, timeout check) spans
/// about this many kernel events, so the per-request map churn runs every
/// `EVENTS_PER_REQUEST`-th event.
const EVENTS_PER_REQUEST: u64 = 4;

/// The inline event payload for the chain workload.
pub enum ChainEvent {
    /// One step of chain `k`: mix, fold, reschedule, sometimes cancel a
    /// decoy.
    Step {
        /// Chain index (perturbs the per-step delay).
        k: u64,
        /// Carried-by-value event data, inline in the arena slot.
        payload: [u64; 4],
    },
    /// A decoy event that is always cancelled before it can fire.
    Decoy,
}

impl EventPayload<BenchWorld> for ChainEvent {
    fn fire(self, world: &mut BenchWorld, queue: &mut EventQueue<BenchWorld, ChainEvent>) {
        match self {
            ChainEvent::Step { k, payload } => {
                let delay = world.touch(queue.now(), k, &payload);
                if world.fired.is_multiple_of(CANCEL_EVERY) {
                    let decoy = queue.schedule_event_in(delay, "decoy", ChainEvent::Decoy);
                    queue.cancel(decoy);
                }
                queue.schedule_event_in(delay, "chain", ChainEvent::Step { k, payload });
            }
            ChainEvent::Decoy => unreachable!("decoys are always cancelled"),
        }
    }
}

/// Seeds `CHAINS` chains into an arena queue.
pub fn seed_arena(queue: &mut EventQueue<BenchWorld, ChainEvent>) {
    for k in 0..CHAINS {
        queue.schedule_event_at(
            SimTime::from_micros(k),
            "chain",
            ChainEvent::Step {
                k,
                payload: PAYLOAD,
            },
        );
    }
}

/// Throughput of the kernel over the chain workload.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Events fired during the measured window.
    pub events: u64,
    /// Wall time of the measured window.
    pub wall: Duration,
}

impl Throughput {
    /// Events fired per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A queue seeded with the chain workload and stepped through `warmup`
/// events (which also fills the slot pool).
pub fn warm_arena(warmup: u64) -> (EventQueue<BenchWorld, ChainEvent>, BenchWorld) {
    let mut queue = EventQueue::new();
    let mut world = BenchWorld::default();
    seed_arena(&mut queue);
    while world.fired < warmup {
        queue.step(&mut world);
    }
    (queue, world)
}

/// Runs the chain workload for `events` fired events after a `warmup`
/// prefix.
pub fn run_arena(warmup: u64, events: u64) -> (Throughput, BenchWorld) {
    let (mut queue, mut world) = warm_arena(warmup);
    let start = Instant::now();
    while world.fired < warmup + events {
        queue.step(&mut world);
    }
    let wall = start.elapsed();
    (Throughput { events, wall }, world)
}

/// Per-event dispatch latencies (ns) over `samples` individually timed
/// steps, after `warmup` untimed events.
pub fn arena_dispatch_samples(warmup: u64, samples: usize) -> Vec<u64> {
    let (mut queue, mut world) = warm_arena(warmup);
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        queue.step(&mut world);
        out.push(t.elapsed().as_nanos() as u64);
    }
    out
}

/// The p-th percentile (0–100, nearest-rank) of a latency sample set.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workload_is_deterministic_and_folds_what_it_fires() {
        let (t, a) = run_arena(1_000, 10_000);
        let (_, b) = run_arena(1_000, 10_000);
        assert_eq!(t.events, 10_000);
        assert_eq!((a.fired, a.acc), (b.fired, b.acc));
        assert_eq!(a.metrics.counter_sym(symbol::CLIENT_OPS), a.fired);
        let h = a.metrics.histogram("client_op_ms").unwrap();
        assert_eq!(h.count(), a.fired / EVENTS_PER_REQUEST);
    }

    #[test]
    fn percentile_picks_the_right_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut s, 99.0), 99);
        assert_eq!(percentile(&mut s, 50.0), 50);
        assert_eq!(percentile(&mut [], 99.0), 0);
    }
}
