//! Seeded randomness with the distributions the evaluation needs.
//!
//! All stochastic behaviour in a simulation run flows through a single
//! [`SimRng`] so that a run is reproducible from its seed. The paper's client
//! emulator uses an exponential think-time distribution with a mean of 7
//! seconds capped at 70 seconds (after TPC-W), and Markov-chain transitions
//! with hand-chosen weights; both are provided here.

use crate::time::SimDuration;

/// A deterministic random source for simulation runs.
///
/// The generator is a self-contained xoshiro256++ (public-domain algorithm
/// by Blackman & Vigna) seeded through SplitMix64, so the simulation has no
/// external randomness dependency and a run is a pure function of its seed.
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_u64(100), b.uniform_u64(100));
/// ```
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut x = seed;
        SimRng {
            state: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator.
    ///
    /// Useful for giving each simulated client or node its own stream so
    /// that adding one entity does not perturb every other entity's draws.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "uniform_u64 bound must be positive");
        // Lemire's multiply-shift reduction; the bias is at most 2^-64 per
        // draw, far below anything a simulation statistic can observe.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_usize(&mut self, bound: usize) -> usize {
        self.uniform_u64(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // The top 53 bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Draws from an exponential distribution with the given mean.
    ///
    /// Returns [`SimDuration::ZERO`] when the mean is zero.
    pub(crate) fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        let u = self.unit_f64();
        let secs = -mean.as_secs_f64() * (1.0 - u).ln();
        SimDuration::from_secs_f64(secs)
    }

    /// Draws an exponential with the given mean, capped at `cap`.
    ///
    /// This is the paper's think-time distribution: mean 7 s, maximum 70 s
    /// (Section 4, following the TPC-W benchmark).
    pub fn exponential_capped(&mut self, mean: SimDuration, cap: SimDuration) -> SimDuration {
        self.exponential(mean).min(cap)
    }

    /// Draws a duration uniformly from `[base - spread, base + spread]`.
    ///
    /// Saturates at zero on the low side. Used to jitter calibrated service
    /// and reinitialization times.
    pub fn jittered(&mut self, base: SimDuration, spread: SimDuration) -> SimDuration {
        if spread.is_zero() {
            return base;
        }
        let lo = base.saturating_sub(spread);
        let hi = base + spread;
        let width = hi.as_micros() - lo.as_micros();
        SimDuration::from_micros(lo.as_micros() + self.uniform_u64(width + 1))
    }

    /// Picks an index according to non-negative `weights`.
    ///
    /// Returns `None` if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if x < *w {
                return Some(i);
            }
            x -= *w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Picks a random element of `items`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.uniform_usize(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(1_000_000), b.uniform_u64(1_000_000));
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SimRng::seed_from(7);
        let mut a = root.fork();
        let mut b = root.fork();
        let same = (0..64).all(|_| a.uniform_u64(1 << 30) == b.uniform_u64(1 << 30));
        assert!(!same, "independent forks should diverge");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(1);
        let mean = SimDuration::from_secs(7);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let observed = total / n as f64;
        assert!(
            (observed - 7.0).abs() < 0.2,
            "observed mean {observed} too far from 7.0"
        );
    }

    #[test]
    fn capped_exponential_never_exceeds_cap() {
        let mut rng = SimRng::seed_from(2);
        let mean = SimDuration::from_secs(7);
        let cap = SimDuration::from_secs(70);
        for _ in 0..10_000 {
            assert!(rng.exponential_capped(mean, cap) <= cap);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from(3);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} should be near 3");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut rng = SimRng::seed_from(4);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn jittered_stays_in_band() {
        let mut rng = SimRng::seed_from(5);
        let base = SimDuration::from_millis(500);
        let spread = SimDuration::from_millis(100);
        for _ in 0..1_000 {
            let d = rng.jittered(base, spread);
            assert!(d >= SimDuration::from_millis(400));
            assert!(d <= SimDuration::from_millis(600));
        }
    }

    #[test]
    fn jittered_saturates_at_zero() {
        let mut rng = SimRng::seed_from(6);
        let base = SimDuration::from_millis(10);
        let spread = SimDuration::from_millis(50);
        for _ in 0..1_000 {
            let d = rng.jittered(base, spread);
            assert!(d <= SimDuration::from_millis(60));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }
}
