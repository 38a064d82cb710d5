//! Virtual time: integer nanoseconds since simulation start.
//!
//! Integer time makes event ordering exact and runs perfectly
//! reproducible; conversion helpers keep the model side (which works in
//! `f64` seconds) ergonomic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics on negative, NaN or out-of-range input.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics on negative, NaN or out-of-range input.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Creates a duration from milliseconds, saturating at the longest
    /// representable duration like every other time operation.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs >= 0.0 && !secs.is_nan(),
        "time must be non-negative, got {secs}"
    );
    let ns = secs * 1e9;
    // `u64::MAX as f64` rounds up to exactly 2^64 ns, which is already
    // out of range: the bound is strict.
    assert!(ns < u64::MAX as f64, "time {secs}s overflows the clock");
    ns.round() as u64
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

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(0.450);
        assert_eq!(t.as_nanos(), 450_000_000);
        assert!((t.as_secs_f64() - 0.450).abs() < 1e-12);
        let d = SimDuration::from_millis(150);
        assert_eq!(d.as_nanos(), 150_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!(t.since(SimTime::from_nanos(100)).as_nanos(), 50);
        // Saturation instead of underflow.
        assert_eq!(SimTime::from_nanos(10).since(t).as_nanos(), 0);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_nanos(7);
        assert_eq!(u.as_nanos(), 7);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn from_millis_saturates() {
        let max_ms = u64::MAX / 1_000_000;
        assert_eq!(
            SimDuration::from_millis(max_ms).as_nanos(),
            max_ms * 1_000_000
        );
        assert_eq!(SimDuration::from_millis(max_ms + 1).as_nanos(), u64::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX).as_nanos(), u64::MAX);
    }

    #[test]
    fn the_last_seconds_below_two_to_the_64_ns_convert() {
        // 18_446_744_073.709_55 s is the f64 just below 2^64 ns; times 1e9
        // it is 2^64 − 2048 ns, the largest f64 below 2^64, exactly.
        assert_eq!(
            SimTime::from_secs_f64(18_446_744_073.709_55).as_nanos(),
            u64::MAX - 2047
        );
    }

    #[test]
    #[should_panic(expected = "overflows the clock")]
    fn two_to_the_64_ns_panics() {
        // The next f64 up: times 1e9 it is exactly 2^64 ns, one past the
        // clock's range, which the `<=` bound let through to saturate.
        SimTime::from_secs_f64(18_446_744_073.709_553);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", SimDuration::from_millis(150)), "150.000ms");
    }
}
