//! Scanner resilience: a typed probe-error taxonomy and a bounded retry
//! policy with deterministic exponential backoff plus seeded jitter.
//!
//! The vocabulary follows draft-ietf-quic-recovery's PTO machinery: each
//! failed attempt doubles the backoff (capped), and a jitter fraction drawn
//! from the per-host RNG desynchronises retry storms without giving up
//! reproducibility — the whole schedule is a pure function of
//! `(seed, host id)`.  The default policy is a single attempt with no
//! backoff, which keeps every existing scan bit-identical.

use qem_netsim::SimDuration;
use qem_quic::ConnectionOutcome;
use rand::Rng;
use std::fmt;

/// Why a QUIC probe (or its final retry) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// Packets still flowed but the connection never completed inside the
    /// virtual probe budget.
    Timeout,
    /// Nothing ever came back from the server — the path ate every packet.
    Blackhole,
    /// The transport came up but the application reply was unusable
    /// (undecodable or missing).
    CorruptReply,
    /// Every attempt the [`RetryPolicy`] allowed has failed.
    Exhausted {
        /// Total attempts made before giving up.
        attempts: u32,
    },
}

impl ProbeError {
    /// Stable metric-name slug (`scan.probe_error.<slug>`).
    pub fn slug(&self) -> &'static str {
        match self {
            ProbeError::Timeout => "timeout",
            ProbeError::Blackhole => "blackhole",
            ProbeError::CorruptReply => "corrupt_reply",
            ProbeError::Exhausted { .. } => "exhausted",
        }
    }
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Timeout => write!(f, "probe timed out"),
            ProbeError::Blackhole => write!(f, "path blackholed every reply"),
            ProbeError::CorruptReply => write!(f, "reply was corrupt or missing"),
            ProbeError::Exhausted { attempts } => {
                write!(f, "all {attempts} probe attempts failed")
            }
        }
    }
}

/// Classify one QUIC connection attempt.
///
/// `Ok` means the probe measured what it came for: the handshake completed
/// and an application response arrived.  Failures split on what the client
/// saw: nothing at all ⇒ [`ProbeError::Blackhole`]; a live transport with
/// no usable reply ⇒ [`ProbeError::CorruptReply`] (corrupted datagrams are
/// dropped at decode, so corruption surfaces as missing application data);
/// anything else ⇒ [`ProbeError::Timeout`].  Classification is a pure
/// read — it consumes no RNG draws.
pub fn classify_probe(outcome: &ConnectionOutcome) -> Result<(), ProbeError> {
    let report = &outcome.report;
    if report.connected && report.response.is_some() {
        return Ok(());
    }
    if report.connected {
        return Err(ProbeError::CorruptReply);
    }
    if report.received_ecn.total() == 0 {
        return Err(ProbeError::Blackhole);
    }
    Err(ProbeError::Timeout)
}

/// Bounded retries with deterministic exponential backoff + seeded jitter.
///
/// `Copy` on purpose: the policy rides inside
/// [`ScanOptions`](crate::scanner::ScanOptions) without breaking the
/// struct-update idiom the whole test suite uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per probe (minimum 1; 1 means no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: SimDuration,
    /// Cap on the doubled backoff.
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: each backoff gains a uniform extra in
    /// `[0, jitter × backoff)`, drawn from the per-host RNG.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Single attempt, no backoff — the default, and byte-identical to the
    /// pre-resilience scanner.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// The chaos-campaign default: three attempts, 200 ms initial backoff
    /// doubling up to 3 s, half-backoff jitter.
    pub fn standard() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_secs(3),
            jitter: 0.5,
        }
    }

    /// Whether the policy changes nothing (single attempt).
    pub fn is_noop(&self) -> bool {
        self.attempts <= 1
    }

    /// Backoff to wait before attempt number `next_attempt` (2-based: the
    /// first retry is attempt 2).  Deterministic given the RNG state.
    pub fn backoff_before<R: Rng + ?Sized>(&self, next_attempt: u32, rng: &mut R) -> SimDuration {
        let doublings = next_attempt.saturating_sub(2).min(20);
        let raw = self
            .base_backoff
            .as_micros()
            .saturating_mul(1u64 << doublings);
        let capped = raw.min(
            self.max_backoff
                .as_micros()
                .max(self.base_backoff.as_micros()),
        );
        let jitter = self.jitter.clamp(0.0, 1.0);
        let extra = if jitter > 0.0 && capped > 0 {
            (capped as f64 * rng.gen_range(0.0..jitter)) as u64
        } else {
            0
        };
        SimDuration::from_micros(capped.saturating_add(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noop_policy_backs_off_zero_and_draws_nothing() {
        let policy = RetryPolicy::none();
        assert!(policy.is_noop());
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff_before(2, &mut a), SimDuration::ZERO);
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            policy.backoff_before(2, &mut rng),
            SimDuration::from_millis(200)
        );
        assert_eq!(
            policy.backoff_before(3, &mut rng),
            SimDuration::from_millis(400)
        );
        assert_eq!(
            policy.backoff_before(4, &mut rng),
            SimDuration::from_millis(800)
        );
        // 200 ms × 2^6 = 12.8 s caps at 3 s.
        assert_eq!(
            policy.backoff_before(8, &mut rng),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let policy = RetryPolicy::standard();
        let draws = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (2..8)
                .map(|n| policy.backoff_before(n, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        let mut rng = StdRng::seed_from_u64(9);
        for next in 2..8u32 {
            let base = {
                let quiet = RetryPolicy {
                    jitter: 0.0,
                    ..policy
                };
                let mut no_draws = StdRng::seed_from_u64(0);
                quiet.backoff_before(next, &mut no_draws)
            };
            let jittered = policy.backoff_before(next, &mut rng);
            assert!(jittered >= base);
            assert!(jittered.as_micros() < base.as_micros() + base.as_micros() / 2 + 1);
        }
    }

    #[test]
    fn probe_error_slugs_are_stable() {
        assert_eq!(ProbeError::Timeout.slug(), "timeout");
        assert_eq!(ProbeError::Blackhole.slug(), "blackhole");
        assert_eq!(ProbeError::CorruptReply.slug(), "corrupt_reply");
        assert_eq!(ProbeError::Exhausted { attempts: 3 }.slug(), "exhausted");
        assert!(ProbeError::Exhausted { attempts: 3 }
            .to_string()
            .contains('3'));
    }
}
