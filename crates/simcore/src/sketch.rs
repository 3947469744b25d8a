//! Deterministic streaming quantile sketches.
//!
//! [`QuantileSketch`] is a fixed-bucket log-linear histogram in the HDR
//! style: values are bucketed by octave (the position of their highest set
//! bit) and, within each octave, by [`SUBBUCKETS`] linear subbuckets. The
//! relative error of any reported quantile is therefore bounded by
//! `1/SUBBUCKETS` (6.25%), independent of the data distribution, and the
//! whole structure is a plain `[u64; BUCKETS]` of counts:
//!
//! * `observe` is allocation-free and branch-cheap — two shifts, a
//!   saturation check and an array increment — so it is safe on the DES
//!   kernel hot path (the PR-6 zero-allocation contract, pinned by
//!   `simcore/tests/zero_alloc.rs`);
//! * quantile queries walk the cumulative counts and report a bucket's
//!   upper bound, so estimates are deterministic and never understate.
//!
//! Values are plain `u64`s; callers decide the unit (the performance
//! plane and `urb trace summary` record latencies in microseconds). Values above [`MAX_VALUE`] are
//! clamped into the top bucket rather than dropped, so the sketch never
//! loses mass — only resolution — on outliers.

/// Linear subbuckets per octave; bounds relative error to `1/SUBBUCKETS`.
pub(crate) const SUBBUCKETS: u64 = 16;
const SUBBUCKET_BITS: u32 = 4;
/// Octaves covered: values in `[0, 2^40)` (≈ 12.7 simulated days in µs)
/// resolve normally; larger values clamp into the top bucket.
const OCTAVES: u32 = 40;
/// Values `0..SUBBUCKETS` are identity-bucketed (one bucket per value);
/// each octave `SUBBUCKET_BITS..OCTAVES` then contributes `SUBBUCKETS`
/// linear subbuckets.
const BUCKETS: usize = (OCTAVES as usize - SUBBUCKET_BITS as usize + 1) * (SUBBUCKETS as usize);
/// Largest value the sketch resolves without clamping.
pub(crate) const MAX_VALUE: u64 = (1 << OCTAVES) - 1;

/// A fixed-bucket log-linear quantile sketch.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

/// Maps a value to its bucket index: octave of the highest set bit, then
/// one of [`SUBBUCKETS`] linear subbuckets within the octave.
fn bucket_of(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUBBUCKETS {
        // The first octave is the identity: one bucket per value.
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUBBUCKET_BITS here
    let sub = (v >> (octave - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
    ((octave - SUBBUCKET_BITS + 1) as usize) * (SUBBUCKETS as usize) + sub as usize
}

/// Upper bound of bucket `i`: the largest value that maps into it (every
/// member of the bucket is `<=` this, so quantiles never understate).
fn bucket_upper(i: usize) -> u64 {
    if i < SUBBUCKETS as usize {
        return i as u64;
    }
    let octave = (i / SUBBUCKETS as usize) as u32 + SUBBUCKET_BITS - 1;
    let sub = (i % SUBBUCKETS as usize) as u64;
    (1u64 << octave) + ((sub + 1) << (octave - SUBBUCKET_BITS)) - 1
}

impl QuantileSketch {
    /// Creates an empty sketch. The bucket array is the only allocation
    /// the sketch ever performs; `observe` is allocation-free.
    pub fn new() -> Self {
        QuantileSketch {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }

    /// Records one value. Allocation-free.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        if v > self.max {
            self.max = v.min(MAX_VALUE);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Returns true if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value (clamped to [`MAX_VALUE`]).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Forgets every recorded value, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * total)`.
    /// Returns 0 on an empty sketch. The estimate is deterministic and
    /// within `1/`[`SUBBUCKETS`] relative error of the exact quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Exact quantile over a sorted copy, matching the sketch's "first
    /// value whose rank reaches ceil(q*n)" convention.
    fn exact_quantile(values: &[u64], q: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn seeded_workload(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|i| {
                // A latency-shaped mix: a dense body with a long tail.
                let body = 500 + rng.uniform_u64(20_000);
                if i % 37 == 0 {
                    body + rng.uniform_u64(2_000_000)
                } else {
                    body
                }
            })
            .collect()
    }

    #[test]
    fn bucket_upper_bounds_every_bucket_member() {
        // Walk a dense sample of values: each must land in a bucket whose
        // upper bound is >= the value and within 1/SUBBUCKETS of it.
        let mut v = 0u64;
        while v < 1 << 24 {
            let b = bucket_of(v);
            let hi = bucket_upper(b);
            assert!(hi >= v, "upper({b}) = {hi} < {v}");
            assert!(
                hi - v <= v / SUBBUCKETS + 1,
                "bucket too wide at {v}: upper {hi}"
            );
            v = v * 17 / 16 + 1;
        }
    }

    #[test]
    fn quantiles_track_exact_within_bounded_relative_error() {
        for seed in [1u64, 7, 11, 42, 0xf1a9] {
            let values = seeded_workload(seed, 5_000);
            let mut sk = QuantileSketch::new();
            for &v in &values {
                sk.observe(v);
            }
            assert_eq!(sk.count(), values.len() as u64);
            for q in [0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
                let exact = exact_quantile(&values, q);
                let est = sk.quantile(q);
                assert!(est >= exact, "seed {seed} q{q}: est {est} < exact {exact}");
                let err = (est - exact) as f64 / exact.max(1) as f64;
                assert!(
                    err <= 1.0 / SUBBUCKETS as f64 + 1e-9,
                    "seed {seed} q{q}: est {est} vs exact {exact} (err {err:.4})"
                );
            }
        }
    }

    #[test]
    fn determinism_across_runs() {
        let values = seeded_workload(7, 2_000);
        let run = || {
            let mut sk = QuantileSketch::new();
            for &v in &values {
                sk.observe(v);
            }
            (sk.p50(), sk.p95(), sk.p99(), sk.count(), sk.max())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn small_values_are_exact() {
        let mut sk = QuantileSketch::new();
        for v in 0..SUBBUCKETS {
            sk.observe(v);
        }
        // The first octave is identity-bucketed: quantiles are exact.
        assert_eq!(sk.quantile(1.0), SUBBUCKETS - 1);
        assert_eq!(sk.quantile(1.0 / SUBBUCKETS as f64), 0);
    }

    #[test]
    fn outliers_clamp_instead_of_dropping() {
        let mut sk = QuantileSketch::new();
        sk.observe(u64::MAX);
        sk.observe(5);
        assert_eq!(sk.count(), 2);
        assert_eq!(sk.max(), MAX_VALUE);
        assert_eq!(sk.quantile(1.0), MAX_VALUE);
    }

    #[test]
    fn empty_and_clear() {
        let mut sk = QuantileSketch::new();
        assert!(sk.is_empty());
        assert_eq!(sk.quantile(0.5), 0);
        sk.observe(100);
        assert!(!sk.is_empty());
        sk.clear();
        assert!(sk.is_empty());
        assert_eq!(sk.count(), 0);
        assert_eq!(sk.max(), 0);
    }
}
