//! Measurement utilities for regenerating the paper's tables and figures.
//!
//! * [`Summary`] — streaming mean/min/max plus exact percentiles on demand,
//! * [`Histogram`] — fixed-bucket latency histogram with a configurable
//!   threshold counter (the paper counts requests exceeding 8 seconds),
//! * [`SecondSeries`] — per-second counters for Taw-style timelines
//!   (Figures 1, 2, 4 and 6 are all per-second series).

use std::collections::BTreeMap;

use crate::symbol::{self, Sym};
use crate::time::{SimDuration, SimTime};

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

/// A latency histogram with fixed-width buckets.
///
/// # Examples
///
/// ```
/// use simcore::stats::Histogram;
/// use simcore::SimDuration;
///
/// let mut h = Histogram::new(SimDuration::from_millis(100), 100);
/// h.record(SimDuration::from_millis(50));
/// h.record(SimDuration::from_secs(11));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    bucket_width: SimDuration,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    total: SimDuration,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of width `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    pub fn new(bucket_width: SimDuration, buckets: usize) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be positive");
        assert!(buckets > 0, "bucket count must be positive");
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
            total: SimDuration::ZERO,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.total += d;
        let idx = (d.as_micros() / self.bucket_width.as_micros()) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
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

    /// Returns the bucket counts (overflow excluded).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Returns the number of samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Per-second counters keyed by metric name, for timeline figures.
///
/// Each `(second, key)` cell accumulates a count; [`SecondSeries::rows`]
/// yields dense rows suitable for printing gnuplot-style series like the
/// paper's Figure 1.
#[derive(Clone, Debug, Default)]
pub struct SecondSeries {
    cells: BTreeMap<(u64, &'static str), f64>,
    max_second: u64,
    /// The second the dense row below covers.
    hot_second: u64,
    /// Dense accumulators for canonical ([`Sym`]-interned) keys in the
    /// current second. The event fold bumps the same handful of keys many
    /// times within one second; accumulating those in a flat row and
    /// folding the row into `cells` only when the second rolls over keeps
    /// the per-event cost to an array index. Empty until the first
    /// symbol-keyed write.
    hot: Vec<f64>,
}

/// One dense row of a [`SecondSeries`].
#[derive(Clone, Debug)]
pub struct SeriesRow {
    /// The second index this row covers.
    pub second: u64,
    /// `(metric, value)` pairs present in this second.
    pub values: Vec<(String, f64)>,
}

impl SecondSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        SecondSeries::default()
    }

    /// Folds the dense hot row into the ordered cell map.
    fn flush_hot(&mut self) {
        for i in 0..self.hot.len() {
            if self.hot[i] != 0.0 {
                *self
                    .cells
                    .entry((self.hot_second, symbol::NAMES[i]))
                    .or_insert(0.0) += self.hot[i];
                self.hot[i] = 0.0;
            }
        }
    }

    /// Adds `amount` to metric `key` in the second containing `at`.
    pub fn add(&mut self, at: SimTime, key: &'static str, amount: f64) {
        match symbol::lookup(key) {
            Some(sym) => self.add_sym(at, sym, amount),
            None => {
                let s = at.second_index();
                self.max_second = self.max_second.max(s);
                *self.cells.entry((s, key)).or_insert(0.0) += amount;
            }
        }
    }

    /// Increments metric `key` by one in the second containing `at`.
    pub fn incr(&mut self, at: SimTime, key: &'static str) {
        self.add(at, key, 1.0);
    }

    /// Adds `amount` to canonical metric `sym` in the second containing
    /// `at`: a dense-row bump while `at` stays in the current second.
    pub(crate) fn add_sym(&mut self, at: SimTime, sym: Sym, amount: f64) {
        let s = at.second_index();
        if s != self.hot_second || self.hot.is_empty() {
            if s < self.hot_second {
                // Out-of-order write behind the hot second: rare enough to
                // go straight to the cell map.
                self.max_second = self.max_second.max(s);
                *self.cells.entry((s, sym.name())).or_insert(0.0) += amount;
                return;
            }
            if self.hot.is_empty() {
                self.hot = vec![0.0; symbol::COUNT];
            } else {
                self.flush_hot();
            }
            self.hot_second = s;
            self.max_second = self.max_second.max(s);
        }
        self.hot[sym.index()] += amount;
    }

    /// Increments canonical metric `sym` by one in the second containing
    /// `at`.
    pub fn incr_sym(&mut self, at: SimTime, sym: Sym) {
        self.add_sym(at, sym, 1.0);
    }

    /// Sets metric `key` to `value` in the second containing `at`,
    /// overwriting any previous value (gauge semantics).
    pub fn set(&mut self, at: SimTime, key: &'static str, value: f64) {
        // Fold any pending hot-row contribution first so it cannot be
        // added on top of the gauge value at a later flush.
        self.flush_hot();
        let s = at.second_index();
        self.max_second = self.max_second.max(s);
        self.cells.insert((s, key), value);
    }

    /// Returns the value of `key` in second `second`, or 0.0.
    pub fn get(&self, second: u64, key: &'static str) -> f64 {
        let mut v = self.cells.get(&(second, key)).copied().unwrap_or(0.0);
        if second == self.hot_second && !self.hot.is_empty() {
            if let Some(sym) = symbol::lookup(key) {
                v += self.hot[sym.index()];
            }
        }
        v
    }

    /// Sums metric `key` over the closed range `[from, to]` of seconds.
    pub fn sum_range(&self, key: &'static str, from: u64, to: u64) -> f64 {
        (from..=to).map(|s| self.get(s, key)).sum()
    }

    /// Sums metric `key` over the whole series.
    pub fn total(&self, key: &'static str) -> f64 {
        let mut sum: f64 = self
            .cells
            .iter()
            .filter(|((_, k), _)| *k == key)
            .map(|(_, v)| *v)
            .sum();
        if !self.hot.is_empty() {
            if let Some(sym) = symbol::lookup(key) {
                sum += self.hot[sym.index()];
            }
        }
        sum
    }

    /// Returns dense rows for every second from 0 to the last active one.
    pub fn rows(&self, keys: &[&'static str]) -> Vec<SeriesRow> {
        (0..=self.max_second)
            .map(|second| SeriesRow {
                second,
                values: keys
                    .iter()
                    .map(|k| (k.to_string(), self.get(second, k)))
                    .collect(),
            })
            .collect()
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

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(SimDuration::from_millis(10), 10);
        h.record(SimDuration::from_millis(5)); // bucket 0
        h.record(SimDuration::from_millis(15)); // bucket 1
        h.record(SimDuration::from_millis(95)); // bucket 9
        h.record(SimDuration::from_millis(200)); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(SimDuration::from_millis(10), 10);
        h.record(SimDuration::from_millis(10));
        h.record(SimDuration::from_millis(30));
        assert_eq!(h.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn second_series_accumulates() {
        let mut s = SecondSeries::new();
        s.incr(SimTime::from_millis(100), "good");
        s.incr(SimTime::from_millis(900), "good");
        s.incr(SimTime::from_millis(1100), "bad");
        assert_eq!(s.get(0, "good"), 2.0);
        assert_eq!(s.get(0, "bad"), 0.0);
        assert_eq!(s.get(1, "bad"), 1.0);
        assert_eq!(s.total("good"), 2.0);
        assert_eq!(s.sum_range("good", 0, 1), 2.0);
    }

    #[test]
    fn second_series_rows_are_dense() {
        let mut s = SecondSeries::new();
        s.incr(SimTime::from_secs(3), "x");
        let rows = s.rows(&["x"]);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].values[0].1, 1.0);
        assert_eq!(rows[1].values[0].1, 0.0);
    }

    #[test]
    fn second_series_gauge_set() {
        let mut s = SecondSeries::new();
        s.set(SimTime::from_secs(2), "mem", 800.0);
        s.set(SimTime::from_secs(2), "mem", 750.0);
        assert_eq!(s.get(2, "mem"), 750.0);
    }
}
