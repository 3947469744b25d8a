//! Simulated time.
//!
//! Time is represented as a monotone count of microseconds since the start of
//! a simulation run. Microsecond resolution is fine enough to resolve the
//! paper's smallest measured quantities (single-digit-millisecond component
//! crash times, 15 ms request latencies) while keeping 64-bit arithmetic
//! comfortably away from overflow for any plausible run length.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, measured in microseconds from run start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any time a simulation will reach.
    pub(crate) const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Returns the time as whole microseconds since run start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds since run start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the whole-second index this instant falls in.
    ///
    /// Used by per-second time series such as the Taw plots of Figure 1.
    pub const fn second_index(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to microseconds.
    ///
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e6).round() as u64)
    }

    /// Returns the duration as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(200);
        let b = SimDuration::from_millis(300);
        assert_eq!(a + b, SimDuration::from_millis(500));
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(100));
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(a * 3, SimDuration::from_millis(600));
        assert_eq!(b / 3, SimDuration::from_micros(100_000));
    }

    #[test]
    fn time_duration_interaction() {
        let t = SimTime::from_secs(10);
        let t2 = t + SimDuration::from_millis(1500);
        assert_eq!(t2.as_micros(), 11_500_000);
        assert_eq!(t2 - t, SimDuration::from_millis(1500));
        assert_eq!(t - t2, SimDuration::ZERO, "subtraction saturates");
    }

    #[test]
    fn second_index_buckets() {
        assert_eq!(SimTime::from_micros(999_999).second_index(), 0);
        assert_eq!(SimTime::from_secs(1).second_index(), 1);
        assert_eq!(SimTime::from_millis(2500).second_index(), 2);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn saturating_add_at_far_future() {
        let t = SimTime::FAR_FUTURE + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::FAR_FUTURE);
    }
}
