//! Host-speed calibration.
//!
//! The box this benchmark runs on drifts: the same binary on the same
//! input ran 10–20 % slower for minutes at a time, for every workload at
//! once, with CPU time tracking wall time (it is not preemption, and no
//! median within one run removes it). A fixed reference kernel that
//! belongs to the benchmark — it calls nothing of the program under test —
//! is timed between rounds, and the two host-time end-to-end metrics are
//! reported per *normalised* host second: a second of a host that runs
//! the kernel at [`NOMINAL_ITERS_PER_S`]. A change to the program cannot
//! move the kernel, so a ratio between two commits is unaffected; only
//! drift of the machine cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's speed on the development box in a quiet period
/// (2-core Xeon @ 2.1 GHz, rustc 1.95). It only fixes the scale of the
/// normalised second; comparisons between commits do not depend on it.
pub const NOMINAL_ITERS_PER_S: f64 = 3_400_000.0;

const ITERS_PER_SAMPLE: u64 = 200_000;

/// Allocation, ordered-map, byte-fold and formatting work in roughly
/// the simulator's own mix: ~35 allocations per request, tree lookups,
/// small copies.
fn kernel(iters: u64) -> u64 {
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 4096;
        let value = vec![(x & 0xff) as u8; 24 + (x % 64) as usize];
        for b in &value {
            acc = (acc ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Some(old) = map.insert(key, value) {
            acc ^= old.len() as u64;
        }
        if i % 3 == 0 {
            map.remove(&((x >> 12) % 4096));
        }
        acc ^= format!("{key}:{acc}").len() as u64;
    }
    acc
}

/// Times the reference kernel between rounds and reports how fast the
/// host was around each one.
pub struct HostClock {
    /// Kernel speed ÷ nominal at the latest sample.
    last: f64,
}

fn sample() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(ITERS_PER_SAMPLE)));
    ITERS_PER_SAMPLE as f64 / t.elapsed().as_secs_f64() / NOMINAL_ITERS_PER_S
}

impl HostClock {
    pub fn start() -> Self {
        // The first sample also warms the allocator and the caches.
        sample();
        HostClock { last: sample() }
    }

    /// Runs `work` and returns its result with the host's speed around
    /// it: the mean of the samples taken just before and just after,
    /// as a share of nominal (1.0 = nominal, 0.9 = a slow epoch).
    pub fn around<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last;
        let out = work();
        self.last = sample();
        (out, (before + self.last) / 2.0)
    }
}
