//! Deterministic simulated time.
//!
//! All FIAT components run on simulated time so that every experiment is
//! reproducible bit-for-bit. `SimTime` is an absolute instant, `SimDuration`
//! a span; both are microsecond-resolution and wrap 64-bit counters.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in simulated time (microseconds since sim start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since sim start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since sim start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since sim start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of a duration.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Microseconds in the span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in the span (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds in the span as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds in the span as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Absolute difference between two spans.
    pub fn abs_diff(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.abs_diff(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Saturating difference: `earlier - later` is zero, never a panic or
    /// a wrap. Consumers comparing against a gap/window threshold thus
    /// read any backwards-in-time instant as "gap zero" — which means
    /// state that tracks a *latest-seen* instant (an event's `end`, the
    /// lockout episode times) must be maintained as a high-water mark
    /// (`max`), or a reordered packet silently rewinds it. Use
    /// [`SimTime::checked_sub`] where "in the past" must be distinguished
    /// from "now".
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 10_500);
        assert_eq!((t - SimTime::from_secs(10)).as_millis(), 500);
        // Saturating: earlier - later = 0.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(3).abs_diff(SimDuration::from_secs(5)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }
}
