//! The marking law of the shared router egress queues.
//!
//! CE marks in this simulator come from one place: a router whose egress
//! queue is registered in [`SharedQueues`](crate::engine::SharedQueues)
//! marks ECT packets with a probability driven by the queue's combined
//! occupancy ([`OccupancyAqm`]) and tail-drops when full.  Rewriting
//! middleboxes (clearing, ECT(0)→ECT(1) re-marking, the "All CE" devices of
//! the paper's Table 5) are [`EcnPolicy`](crate::policy::EcnPolicy)s, not
//! AQMs.

use crate::probability::Probability;
use qem_packet::ecn::EcnCodepoint;
use rand::Rng;

/// What the AQM decided to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqmDecision {
    /// Forward the packet with the given (possibly re-marked) codepoint.
    Forward(EcnCodepoint),
    /// Drop the packet (congestion signalling for not-ECT traffic).
    Drop,
}

/// RED-style marking law for **shared** egress queues, driven by the queue's
/// combined occupancy rather than a per-flow constant.
///
/// Below `min_thresh` packets nothing is marked; at `max_thresh` and above
/// every ECT packet is marked CE; in between the probability ramps
/// linearly.  Not-ECT traffic is never touched by the law (RFC 3168 §6.1.1
/// — TCP SYNs must survive); it is only lost to tail drop when the queue is
/// actually full.  The deterministic extremes are deliberate: they let the
/// shared-bottleneck tests assert marking without depending on RNG draws,
/// and they mean an uncongested queue consumes no randomness at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyAqm {
    /// Occupancy below which nothing is marked.
    pub min_thresh: usize,
    /// Occupancy at which marking probability reaches 1.
    pub max_thresh: usize,
}

impl OccupancyAqm {
    /// Marking probability at the given occupancy.
    pub fn mark_probability(&self, occupancy: usize) -> f64 {
        if occupancy < self.min_thresh {
            0.0
        } else if occupancy >= self.max_thresh {
            1.0
        } else {
            let span = (self.max_thresh - self.min_thresh) as f64;
            (occupancy - self.min_thresh) as f64 / span
        }
    }

    /// Apply the law to a packet carrying `ecn` arriving at a queue holding
    /// `occupancy` packets.  No randomness is consumed in the deterministic
    /// regions (probability 0 or 1).
    ///
    /// This is an ECN-mode queue: only ECT packets are subject to the
    /// marking law; not-ECT traffic (e.g. TCP SYNs, which RFC 3168 §6.1.1
    /// forbids marking) passes and is lost only to tail drop when the queue
    /// is actually full — which [`SharedQueues`](crate::engine::SharedQueues)
    /// handles before consulting this law.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        ecn: EcnCodepoint,
        occupancy: usize,
        rng: &mut R,
    ) -> AqmDecision {
        match ecn {
            EcnCodepoint::Ce => AqmDecision::Forward(EcnCodepoint::Ce),
            EcnCodepoint::NotEct => AqmDecision::Forward(ecn),
            EcnCodepoint::Ect0 | EcnCodepoint::Ect1 => {
                let p = self.mark_probability(occupancy);
                let mark = if p >= 1.0 {
                    true
                } else if p <= 0.0 {
                    false
                } else {
                    Probability::new(p).draw(rng)
                };
                if mark {
                    AqmDecision::Forward(EcnCodepoint::Ce)
                } else {
                    AqmDecision::Forward(ecn)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn occupancy_aqm_ramps_from_zero_to_certain() {
        let aqm = OccupancyAqm {
            min_thresh: 4,
            max_thresh: 8,
        };
        assert_eq!(aqm.mark_probability(0), 0.0);
        assert_eq!(aqm.mark_probability(3), 0.0);
        assert_eq!(aqm.mark_probability(6), 0.5);
        assert_eq!(aqm.mark_probability(8), 1.0);
        assert_eq!(aqm.mark_probability(100), 1.0);

        let mut r = rng();
        // Deterministic regions: no marks below min, certain marks above max.
        assert_eq!(
            aqm.apply(EcnCodepoint::Ect0, 0, &mut r),
            AqmDecision::Forward(EcnCodepoint::Ect0)
        );
        assert_eq!(
            aqm.apply(EcnCodepoint::Ect0, 8, &mut r),
            AqmDecision::Forward(EcnCodepoint::Ce)
        );
        // Not-ECT traffic is never dropped by the marking law (RFC 3168
        // §6.1.1 — think TCP SYNs); only tail drop can lose it.
        assert_eq!(
            aqm.apply(EcnCodepoint::NotEct, 8, &mut r),
            AqmDecision::Forward(EcnCodepoint::NotEct)
        );
        assert_eq!(
            aqm.apply(EcnCodepoint::Ce, 8, &mut r),
            AqmDecision::Forward(EcnCodepoint::Ce)
        );
    }
}
