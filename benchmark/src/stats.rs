//! Order statistics over small sample sets.

/// Median and quartiles of a sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median: the
    /// run-to-run spread the benchmark's bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile at position `p` in (0, 1) by the exclusive method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so the spreads
/// printed here are the spreads the driver computes.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let a = v[lo - 1];
            let b = v[lo.min(n - 1)];
            a + (b - a) * frac
        }
    }
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let v = sorted(values);
    Quartiles {
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Nearest-rank percentile (`p` in 0–100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
