//! Virtual time for the discrete-event simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// This time expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds since the origin.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration since `earlier`; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from fractional seconds, rounding to microseconds.
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Scales the duration by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
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
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1_000);
        assert_eq!(SimDuration::from_micros(7).as_micros(), 7);
        assert!((SimTime::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(0.125);
        assert_eq!(d.as_micros(), 125_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_micros(5);
        assert_eq!(t2.as_micros(), 5);
        assert_eq!(
            (SimDuration::from_secs(2) - SimDuration::from_secs(1)).as_micros(),
            1_000_000
        );
        // Saturation, not wrap-around.
        assert_eq!(
            (SimDuration::from_secs(1) - SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(b.since(a).as_micros(), 2_000_000);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(0.5).as_micros(),
            1_000_000
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(1).to_string(), "0.000001s");
    }
}
