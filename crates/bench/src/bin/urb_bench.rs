//! `urb-bench`: pinned kernel performance measurements.
//!
//! The `kernel` subcommand measures the DES kernel four ways and writes
//! `target/BENCH_kernel.json` (CI copies it to the repo root and fails on
//! structural drift):
//!
//! * **events_per_sec** — slot-arena kernel throughput over the chain
//!   workload of [`bench::kernel`].
//! * **allocs_per_1k_events** — heap allocations per 1000 events at
//!   steady state, via a counting global allocator. The arena target is
//!   0.000: once the slot pool is warm, schedule/fire allocates nothing.
//! * **p99_dispatch_ns** — 99th percentile of individually timed
//!   schedule+fire steps.
//! * **sim_seconds_per_wall_second** — the full cluster simulation
//!   (seed-7 RM configuration), simulated seconds advanced per wall
//!   second: the end-to-end number the microbenchmarks exist to serve.
//!
//! Usage: `urb-bench kernel [--events N] [--json PATH]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::kernel::{self, percentile};
use bench::report::JsonReport;
use cluster::{Sim, SimConfig};
use recovery::RmConfig;
use simcore::SimTime;

/// A pass-through allocator that counts allocations, so the bench can
/// assert the arena kernel's zero-allocation steady state.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation count over one measured arena window, after warmup.
fn arena_allocs_per_1k(warmup: u64, events: u64) -> f64 {
    let (mut queue, mut world) = kernel::warm_arena(warmup);
    let before = allocs_now();
    while world.fired < warmup + events {
        queue.step(&mut world);
    }
    (allocs_now() - before) as f64 * 1000.0 / events as f64
}

/// Simulated seconds advanced per wall second on the real cluster sim.
fn cluster_sim_rate() -> f64 {
    let config = SimConfig {
        rm: Some(RmConfig::default()),
        seed: 7,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(config);
    let sim_secs = 120u64;
    let start = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(sim_secs));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    sim_secs as f64 / wall
}

fn run_kernel(events: u64, json_path: Option<&str>) -> std::io::Result<()> {
    let warmup = (events / 10).max(10_000);
    println!(
        "urb-bench kernel: {events} events (+{warmup} warmup), {} chains",
        kernel::CHAINS
    );

    let (arena, _) = kernel::run_arena(warmup, events);
    let arena_eps = arena.events_per_sec();

    let allocs_per_1k = arena_allocs_per_1k(warmup, events.min(500_000));

    let mut samples = kernel::arena_dispatch_samples(warmup, 100_000);
    let p99 = percentile(&mut samples, 99.0);
    let p50 = percentile(&mut samples, 50.0);

    let sim_rate = cluster_sim_rate();

    println!("  arena   {arena_eps:>14.0} events/s");
    println!("  allocs  {allocs_per_1k:>14.3} per 1k events (steady state)");
    println!("  dispatch p50 {p50} ns, p99 {p99} ns");
    println!("  cluster sim {sim_rate:>10.1} sim-seconds/wall-second (seed 7, RM on)");

    let mut report = JsonReport::new("kernel");
    report.metric("events", arena.events);
    report.metric_f64("events_per_sec", arena_eps);
    report.metric_f64("allocs_per_1k_events", allocs_per_1k);
    report.metric("p50_dispatch_ns", p50);
    report.metric("p99_dispatch_ns", p99);
    report.metric_f64("sim_seconds_per_wall_second", sim_rate);
    let path = match json_path {
        Some(p) => {
            std::fs::write(p, report.render())?;
            p.to_string()
        }
        None => report.write()?,
    };
    println!("wrote {path}");
    Ok(())
}

fn usage() -> ! {
    eprintln!("usage: urb-bench kernel [--events N] [--json PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd != "kernel" {
        usage();
    }
    let mut events = 2_000_000u64;
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--events" => {
                i += 1;
                events = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if let Err(e) = run_kernel(events, json_path.as_deref()) {
        eprintln!("urb-bench: {e}");
        std::process::exit(1);
    }
}
