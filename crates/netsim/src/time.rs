//! Virtual time used by the simulator and the sans-IO endpoints.
//!
//! Real wall-clock time would make campaigns over hundreds of thousands of
//! simulated connections both slow and non-deterministic.  Instead every
//! endpoint and every path shares a microsecond-granularity virtual timeline.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A span of virtual time with microsecond granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Construct from milliseconds (saturating).
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000))
    }

    /// Construct from seconds (saturating).
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000))
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    /// Multiply by an integer factor (saturating).
    fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    /// Saturating, like every other operation on the virtual timeline.
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// A point on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The origin of the timeline.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Construct from microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimInstant(micros)
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;

    /// Saturating: the end of the timeline is sticky, a deadline past it
    /// never wraps around into the past.
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.as_micros()))
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(7).as_micros(), 7);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(t1 - t0, SimDuration::from_millis(10));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn duration_display_scales() {
        assert_eq!(SimDuration::from_micros(500).to_string(), "500us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.0ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn saturating_and_mul() {
        assert_eq!(
            SimDuration::from_millis(4) * 3,
            SimDuration::from_millis(12)
        );

        // Every operation clamps at the end of the timeline.
        let forever = SimDuration::from_micros(u64::MAX);
        let end = SimInstant::from_micros(u64::MAX);
        let tick = SimDuration::from_micros(1);
        assert_eq!(end + tick, end);
        assert_eq!(SimInstant::EPOCH + forever + tick, end);
        assert_eq!(forever + tick, forever);
        let mut total = forever;
        total += tick;
        assert_eq!(total, forever);
        assert_eq!(forever * 2, forever);
        assert_eq!(SimDuration::from_millis(u64::MAX), forever);
        assert_eq!(SimDuration::from_secs(u64::MAX), forever);
        assert_eq!(SimDuration::from_secs(u64::MAX / 1_000_000 + 1), forever);
        assert_eq!(end - SimInstant::EPOCH, forever);
        assert_eq!(SimInstant::EPOCH - end, SimDuration::ZERO);
    }
}
