//! Measurement utilities for regenerating the paper's tables and figures.
//!
//! * [`Summary`] — streaming mean/min/max plus exact percentiles on demand,
//! * [`Histogram`] — a count and a total of durations, read as their mean
//!   (the registry's `reboot_ms`).

use crate::time::SimDuration;

/// Streaming summary statistics over `f64` samples.
///
/// Stores all samples to support exact percentiles; the evaluation's sample
/// counts (tens of thousands of requests) make this cheap.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Returns the number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns the arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Returns the minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns the maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns the `p`-th percentile (`0.0..=1.0`), or 0.0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 1.0);
        let idx = ((self.samples.len() - 1) as f64 * p).round() as usize;
        self.samples[idx]
    }

    /// Returns the standard deviation, or 0.0 with fewer than two samples.
    pub fn stddev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

/// A count and a running total of durations.
///
/// # Examples
///
/// ```
/// use simcore::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let reboots = reg.histogram("reboot_ms").unwrap();
/// assert_eq!((reboots.count(), reboots.mean().as_micros()), (0, 0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    count: u64,
    total: SimDuration,
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.total += d;
    }

    /// Returns the total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the mean sample, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 4.0);
        assert!((s.stddev() - 1.2909944).abs() < 1e-6);
    }

    #[test]
    fn summary_empty_is_zero() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }
}
