//! The single wall-clock seam of the workspace.
//!
//! Deterministic snapshots must never contain wall-clock readings, but an
//! operator watching a census still wants hosts/sec.  The compromise: all
//! wall-clock access goes through the [`Clock`] trait, whose only real
//! implementation ([`WallClock`]) lives in this module.  `lint.toml` lists
//! this file as the sole `no-wall-clock` allow-zone inside `crates/obs` —
//! a `std::time` mention anywhere else in the crate fails `qem-lint check`
//! (proven by a fixture test in `crates/lint/tests/fixtures.rs`).
//!
//! Rates derived from a [`Clock`] are operator output (stderr, progress
//! bars); they must never be written into a [`crate::MetricsSnapshot`] or
//! [`crate::RunTelemetry`], which CI byte-diffs across runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock.
pub trait Clock {
    /// Microseconds elapsed since an arbitrary (per-clock) origin.
    fn now_micros(&self) -> u64;
}

/// The real wall clock, anchored at construction time.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A hand-cranked clock for tests and simulations.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `start_micros`.
    pub fn new(start_micros: u64) -> ManualClock {
        ManualClock {
            now: AtomicU64::new(start_micros),
        }
    }

    /// Jump the clock to `micros`.
    pub fn set(&self, micros: u64) {
        self.now.store(micros, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// Measures an items-per-second rate against an injected [`Clock`].
#[derive(Debug, Clone, Copy)]
pub struct RateMeter {
    start_micros: u64,
}

impl RateMeter {
    /// Start measuring at `clock`'s current reading.
    pub fn start(clock: &dyn Clock) -> RateMeter {
        RateMeter {
            start_micros: clock.now_micros(),
        }
    }

    /// Microseconds elapsed since [`RateMeter::start`] (at least 1, so
    /// rates never divide by zero).
    pub fn elapsed_micros(&self, clock: &dyn Clock) -> u64 {
        clock.now_micros().saturating_sub(self.start_micros).max(1)
    }

    /// `items` per second since the meter started.
    pub fn per_second(&self, clock: &dyn Clock, items: u64) -> f64 {
        items as f64 * 1_000_000.0 / self.elapsed_micros(clock) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_drives_rates_exactly() {
        let clock = ManualClock::new(0);
        let meter = RateMeter::start(&clock);
        clock.set(2_000_000); // 2 s
        assert_eq!(meter.elapsed_micros(&clock), 2_000_000);
        assert!((meter.per_second(&clock, 500) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_never_divides_by_zero() {
        let clock = ManualClock::new(42);
        let meter = RateMeter::start(&clock);
        assert_eq!(meter.elapsed_micros(&clock), 1);
        assert!(meter.per_second(&clock, 10).is_finite());
    }

    #[test]
    fn wall_clock_is_monotone_from_its_origin() {
        let clock = WallClock::new();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }
}
