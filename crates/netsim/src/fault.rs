//! Deterministic fault injection: virtual-time impairment windows on paths.
//!
//! A [`FaultPlan`] attaches to a [`Path`](crate::path::Path) and schedules
//! impairments — loss, link flaps, payload corruption, jitter and
//! reordering — inside explicit virtual-time windows.  It is the one place
//! a path loses packets other than to a full queue: hops themselves are
//! lossless.  Every probabilistic decision draws from the per-flow seeded
//! RNG that drives the transit itself, and a flap is a pure function of the
//! virtual clock, so a faulted run is exactly as reproducible as a clean
//! one: bit-identical across worker counts, and between the timer wheel and
//! the oracle scheduler of the differential tests.
//!
//! Paths without a plan take a zero-cost early exit that consumes **no**
//! RNG draws, which is what keeps every committed golden report
//! byte-identical to the pre-fault world.

use crate::probability::Probability;
use crate::time::{SimDuration, SimInstant};
use rand::Rng;

/// One impairment mechanism, active while its [`FaultWindow`] covers the
/// current virtual time.
///
/// Probabilistic kinds (`Loss`, `Corrupt`, `Jitter`, `Reorder`) draw from
/// the flow RNG in window order; `Flap` draws nothing — it is a square wave
/// over the virtual clock, phase-locked to the window start, and a blackhole
/// is a flap whose `down` is its whole `period`.  A rate is a
/// [`Probability`], drawn only when nonzero: a zero-rate window takes
/// nothing from the RNG.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Drop each packet independently with probability `rate`.
    Loss {
        /// Drop probability.
        rate: Probability,
    },
    /// Link flapping: within every `period` after the window opens, the
    /// link is down for the first `down`.  Deterministic — no RNG.
    Flap {
        /// Length of one up/down cycle.
        period: SimDuration,
        /// Leading slice of each cycle during which the link is down.
        down: SimDuration,
    },
    /// With probability `rate`, flip one bit of one payload byte (chosen by
    /// the flow RNG).  The IP header stays intact, so the datagram still
    /// routes — the receiver sees an undecodable payload, which is how
    /// corrupt-reply classification surfaces downstream.
    Corrupt {
        /// Corruption probability.
        rate: Probability,
    },
    /// Add a uniform extra delay in `[0, max]` to every packet.
    Jitter {
        /// Upper bound of the added delay.
        max: SimDuration,
    },
    /// With probability `rate`, hold this packet back by an extra `extra` —
    /// it arrives after packets sent later, i.e. genuine reordering.
    Reorder {
        /// Reorder probability.
        rate: Probability,
        /// Extra delay applied to reordered packets.
        extra: SimDuration,
    },
}

/// A [`FaultKind`] active over a half-open virtual-time interval
/// `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// First instant (inclusive) at which the fault applies.
    pub from: SimInstant,
    /// First instant (exclusive) at which it no longer applies.
    pub until: SimInstant,
    /// The impairment applied inside the window.
    pub fault: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers `now`.
    pub fn active(&self, now: SimInstant) -> bool {
        self.from <= now && now < self.until
    }

    /// Offset of `now` into the current on/off cycle of a periodic fault,
    /// phase-locked to the window start.
    fn phase(&self, now: SimInstant, period: SimDuration) -> SimDuration {
        let period_us = period.as_micros().max(1);
        SimDuration::from_micros(now.duration_since(self.from).as_micros() % period_us)
    }
}

/// How a fault-injected drop happened — one bucket per mechanism so
/// telemetry can show *which* impairment cost the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDrop {
    /// Probabilistic loss.
    Loss,
    /// Flap cycle was in its down slice.
    Flap,
}

/// What a [`FaultPlan`] decided for one packet: either a drop, or delivery
/// with some combination of extra delay and payload corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultVerdict {
    /// `Some` when the packet is dropped, tagged with the mechanism.
    pub drop: Option<FaultDrop>,
    /// Extra delay added on top of the path's hop delays (jitter and
    /// reorder hold-back).
    pub extra_delay: SimDuration,
    /// Payload byte index to bit-flip, when corruption fired.
    pub corrupt_byte: Option<usize>,
    /// The packet was held back past later traffic (reordering).
    pub reordered: bool,
    /// Jitter added delay to the packet.
    pub jittered: bool,
}

impl FaultVerdict {
    /// The verdict of an empty plan: deliver untouched.
    pub const CLEAN: FaultVerdict = FaultVerdict {
        drop: None,
        extra_delay: SimDuration::ZERO,
        corrupt_byte: None,
        reordered: false,
        jittered: false,
    };
}

/// A schedule of impairment windows attached to a path.
///
/// Windows are evaluated **in plan order** for every packet, which fixes
/// the RNG draw sequence and therefore the byte-identical replay property.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The impairment windows, evaluated in order.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// A plan with no windows (the default): packets pass untouched and no
    /// RNG draws are consumed.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Append a window `[from, until)` applying `fault` (builder style).
    pub fn window(mut self, from: SimInstant, until: SimInstant, fault: FaultKind) -> Self {
        self.windows.push(FaultWindow { from, until, fault });
        self
    }

    /// Append a window covering all of virtual time (builder style).
    pub fn always(self, fault: FaultKind) -> Self {
        self.window(SimInstant::EPOCH, SimInstant::from_micros(u64::MAX), fault)
    }

    /// Decide the fate of one packet of `payload_len` bytes at virtual time
    /// `now`.
    ///
    /// A flap's down slice drops at once without touching the RNG;
    /// probabilistic windows draw in plan order.
    /// [`Path::transit`](crate::path::Path::transit) — the un-timed entry
    /// point — evaluates plans at [`SimInstant::EPOCH`], so time-windowed
    /// faults need the engine's `transit_shared`.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        now: SimInstant,
        payload_len: usize,
        rng: &mut R,
    ) -> FaultVerdict {
        let mut verdict = FaultVerdict::CLEAN;
        for window in &self.windows {
            if !window.active(now) {
                continue;
            }
            match &window.fault {
                FaultKind::Flap { period, down } => {
                    if window.phase(now, *period) < *down {
                        verdict.drop = Some(FaultDrop::Flap);
                        return verdict;
                    }
                }
                FaultKind::Loss { rate } => {
                    if rate.draw_unless_zero(rng) {
                        verdict.drop = Some(FaultDrop::Loss);
                        return verdict;
                    }
                }
                FaultKind::Corrupt { rate } => {
                    if payload_len > 0
                        && verdict.corrupt_byte.is_none()
                        && rate.draw_unless_zero(rng)
                    {
                        verdict.corrupt_byte = Some(rng.gen_range(0..payload_len));
                    }
                }
                FaultKind::Jitter { max } => {
                    if *max > SimDuration::ZERO {
                        verdict.extra_delay +=
                            SimDuration::from_micros(rng.gen_range(0..=max.as_micros()));
                        verdict.jittered = true;
                    }
                }
                FaultKind::Reorder { rate, extra } => {
                    if rate.draw_unless_zero(rng) {
                        verdict.extra_delay += *extra;
                        verdict.reordered = true;
                    }
                }
            }
        }
        verdict
    }
}

/// Counters over every [`FaultVerdict`] recorded during a run, folded into
/// [`SharedQueues`](crate::engine::SharedQueues) telemetry (nonzero keys
/// only, so fault-free runs keep byte-identical metric documents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Packets dropped by probabilistic loss windows.
    pub loss_drops: u64,
    /// Packets dropped while a flapping link was down.
    pub flap_drops: u64,
    /// Packets delivered with a corrupted payload byte.
    pub corrupted: u64,
    /// Packets held back past later traffic (reordered).
    pub reordered: u64,
    /// Packets that picked up jitter delay.
    pub jittered: u64,
}

impl FaultStats {
    /// Fold one verdict into the counters.
    pub fn record(&mut self, verdict: &FaultVerdict) {
        match verdict.drop {
            Some(FaultDrop::Loss) => self.loss_drops += 1,
            Some(FaultDrop::Flap) => self.flap_drops += 1,
            None => {}
        }
        if verdict.corrupt_byte.is_some() {
            self.corrupted += 1;
        }
        if verdict.reordered {
            self.reordered += 1;
        }
        if verdict.jittered {
            self.jittered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn at_ms(n: u64) -> SimInstant {
        SimInstant::EPOCH + ms(n)
    }

    #[test]
    fn empty_plan_is_clean_and_draws_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(plan.apply(at_ms(5), 100, &mut a), FaultVerdict::CLEAN);
        // The RNG stream is untouched: both clones still agree on the next draw.
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }

    #[test]
    fn blackhole_window_drops_inside_and_only_inside() {
        // A blackhole is a flap that is down for its whole period.
        let blackhole = FaultKind::Flap {
            period: ms(10),
            down: ms(10),
        };
        let plan = FaultPlan::new().window(at_ms(10), at_ms(20), blackhole);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(plan.apply(at_ms(9), 10, &mut rng).drop, None);
        for t in 10..20 {
            assert_eq!(
                plan.apply(at_ms(t), 10, &mut rng).drop,
                Some(FaultDrop::Flap)
            );
        }
        // Half-open: the `until` instant is back up.
        assert_eq!(plan.apply(at_ms(20), 10, &mut rng).drop, None);
    }

    #[test]
    fn square_wave_faults_draw_no_rng() {
        let plan = FaultPlan::new()
            .always(FaultKind::Flap {
                period: ms(10),
                down: ms(4),
            })
            .window(
                at_ms(20),
                at_ms(30),
                FaultKind::Flap {
                    period: ms(7),
                    down: ms(7),
                },
            );
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for t in 0..40 {
            plan.apply(at_ms(t), 64, &mut a);
        }
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }

    #[test]
    fn flap_cycles_phase_locked_to_window_start() {
        let plan = FaultPlan::new().window(
            at_ms(100),
            at_ms(1_000),
            FaultKind::Flap {
                period: ms(10),
                down: ms(3),
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        // Cycle starts at the window open, not at the epoch.
        assert_eq!(
            plan.apply(at_ms(100), 8, &mut rng).drop,
            Some(FaultDrop::Flap)
        );
        assert_eq!(
            plan.apply(at_ms(102), 8, &mut rng).drop,
            Some(FaultDrop::Flap)
        );
        assert_eq!(plan.apply(at_ms(103), 8, &mut rng).drop, None);
        assert_eq!(
            plan.apply(at_ms(110), 8, &mut rng).drop,
            Some(FaultDrop::Flap)
        );
        assert_eq!(plan.apply(at_ms(119), 8, &mut rng).drop, None);
    }

    #[test]
    fn certain_loss_always_drops() {
        let lossy = FaultPlan::new().always(FaultKind::Loss {
            rate: Probability::new(1.0),
        });
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            lossy.apply(at_ms(0), 16, &mut rng).drop,
            Some(FaultDrop::Loss)
        );
    }

    #[test]
    fn corruption_picks_a_payload_byte_and_skips_empty_payloads() {
        let plan = FaultPlan::new().always(FaultKind::Corrupt {
            rate: Probability::new(1.0),
        });
        let mut rng = StdRng::seed_from_u64(4);
        let v = plan.apply(at_ms(1), 32, &mut rng);
        assert!(matches!(v.corrupt_byte, Some(i) if i < 32));
        assert_eq!(plan.apply(at_ms(1), 0, &mut rng).corrupt_byte, None);
    }

    #[test]
    fn jitter_and_reorder_accumulate_extra_delay() {
        let plan = FaultPlan::new()
            .always(FaultKind::Jitter { max: ms(5) })
            .always(FaultKind::Reorder {
                rate: Probability::new(1.0),
                extra: ms(50),
            });
        let mut rng = StdRng::seed_from_u64(5);
        let v = plan.apply(at_ms(0), 8, &mut rng);
        assert!(v.jittered && v.reordered);
        assert!(v.extra_delay >= ms(50) && v.extra_delay <= ms(55));
    }

    #[test]
    fn same_seed_same_verdict_sequence() {
        let plan = FaultPlan::new()
            .always(FaultKind::Loss {
                rate: Probability::new(0.2),
            })
            .always(FaultKind::Corrupt {
                rate: Probability::new(0.1),
            })
            .always(FaultKind::Jitter { max: ms(2) })
            .always(FaultKind::Reorder {
                rate: Probability::new(0.3),
                extra: ms(10),
            });
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|t| plan.apply(at_ms(t), 64, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn stats_fold_verdicts_into_buckets() {
        let mut stats = FaultStats::default();
        stats.record(&FaultVerdict {
            drop: Some(FaultDrop::Flap),
            ..FaultVerdict::CLEAN
        });
        stats.record(&FaultVerdict {
            corrupt_byte: Some(3),
            reordered: true,
            jittered: true,
            ..FaultVerdict::CLEAN
        });
        assert_eq!(stats.flap_drops, 1);
        assert_eq!(
            (stats.corrupted, stats.reordered, stats.jittered),
            (1, 1, 1)
        );
        assert_ne!(stats, FaultStats::default());
    }
}
