//! Summary of a set of per-pass times, and a fixed calibration kernel.
//!
//! Every pass of a workload does bit-identical work, so all spread between
//! passes is machine noise.  The summary therefore reports the fastest pass
//! next to the median and quartiles, and `noise_ratio = p50 / min` says how
//! far the machine was from quiet while the run was measured.

use std::hint::black_box;
use std::time::Instant;

/// A run whose median pass is this much slower than its fastest one was
/// measured in a noisy phase; a comparison against it is unresolved.
pub const NOISY_RATIO: f64 = 1.25;

/// Order statistics of one sample set (any unit; the harness uses ms).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Fastest sample.
    pub min: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// The highest of p90 / p95 / p99 that still has at least ten samples
    /// beyond it, with its label; `None` below 100 samples.
    pub tail: Option<(&'static str, f64)>,
    /// `p50 / min`.
    pub noise_ratio: f64,
}

impl Summary {
    /// Summarise `samples` (at least one, all finite).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // (label, quantile, 1 / share of samples beyond it)
        let tail = [("p99", 0.99, 100), ("p95", 0.95, 20), ("p90", 0.90, 10)]
            .into_iter()
            .find(|&(_, _, beyond)| n / beyond >= 10)
            .map(|(label, q, _)| (label, quantile(&sorted, q)));
        let (min, p50) = (sorted[0], quantile(&sorted, 0.5));
        Summary {
            n,
            min,
            p25: quantile(&sorted, 0.25),
            p50,
            p75: quantile(&sorted, 0.75),
            tail,
            noise_ratio: p50 / min,
        }
    }

    /// Whether the run was measured in a noisy phase.
    pub fn noisy(&self) -> bool {
        self.noise_ratio > NOISY_RATIO
    }
}

/// Linear interpolation between closest ranks of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Time a fixed integer kernel (an xorshift chain the compiler cannot
/// shorten) and return the fastest of five repetitions in nanoseconds.
/// Printed with every run, so a result measured on a shifted machine —
/// another host, a throttled one — is visible as such.
pub fn calib_ns() -> u64 {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            started.elapsed().as_nanos() as u64
        })
        .min()
        .expect("five repetitions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_of_a_fixed_sample() {
        // 1..=9 in scrambled order.
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!(s.n, 9);
        assert_eq!((s.min, s.p25, s.p50, s.p75), (1.0, 3.0, 5.0, 7.0));
        assert_eq!(s.noise_ratio, 5.0);
        assert!(s.noisy());
        assert_eq!(s.tail, None, "nine samples support no tail percentile");
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.p25, s.p50, s.p75), (17.5, 25.0, 32.5));
        assert!(!Summary::of(&[10.0, 11.0, 12.0]).noisy());
    }

    #[test]
    fn the_tail_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(Summary::of(&ramp(99)).tail, None);
        assert_eq!(Summary::of(&ramp(100)).tail.map(|t| t.0), Some("p90"));
        assert_eq!(Summary::of(&ramp(200)).tail.map(|t| t.0), Some("p95"));
        let (label, value) = Summary::of(&ramp(1001)).tail.expect("p99");
        assert_eq!((label, value), ("p99", 991.0));
    }

    #[test]
    fn a_single_sample_is_its_own_summary() {
        let s = Summary::of(&[3.5]);
        assert_eq!((s.min, s.p25, s.p50, s.p75), (3.5, 3.5, 3.5, 3.5));
        assert_eq!(s.noise_ratio, 1.0);
    }

    #[test]
    fn the_calibration_kernel_takes_measurable_time() {
        assert!(calib_ns() > 0);
    }
}
