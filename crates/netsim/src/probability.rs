//! Probabilities, and the one place a yes/no draw is made.
//!
//! Every random yes/no choice of a simulation — a hop losing a packet, a
//! router answering with ICMP, a fault firing, an AQM marking, a cloud
//! vantage re-marking, the tracebox sample, a landscape share — goes through
//! a [`Probability`].  Its one constructor decides what a valid probability
//! is, so no configuration, landscape or stored snapshot can hand the RNG an
//! out-of-range value (which `gen_bool` refuses with a panic).
//!
//! The three draws differ only in what they take from the RNG, and that is
//! what keeps a seeded run reproducible: [`Probability::draw`] takes one value
//! whatever the probability, [`Probability::draw_unless_zero`] takes none at
//! 0, so a clean path or an empty fault rate leaves the stream untouched, and
//! [`Probability::draw_unless_certain`] takes none at 0 nor at 1, so a router
//! that always answers leaves a trace draw-free.

use rand::Rng;

/// A probability in `[0, 1]`; never NaN.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Probability(f64);

impl Probability {
    /// `p` clamped into `[0, 1]`, with NaN read as 0: a NaN never happens.
    pub fn new(p: f64) -> Probability {
        Probability(if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) })
    }

    /// The probability as a number in `[0, 1]`.
    pub fn get(self) -> f64 {
        self.0
    }

    /// One Bernoulli draw that always takes exactly one value from `rng`,
    /// also at 0 and at 1.
    pub fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        rng.gen_bool(self.0)
    }

    /// One Bernoulli draw that takes nothing from `rng` at probability 0
    /// (and is then `false`), and one value otherwise.
    pub fn draw_unless_zero<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        self.0 > 0.0 && rng.gen_bool(self.0)
    }

    /// One Bernoulli draw that takes nothing from `rng` at probability 0
    /// (and is then `false`) nor at 1 (and is then `true`), and one value
    /// otherwise.
    pub fn draw_unless_certain<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        match self.0 {
            p if p <= 0.0 => false,
            p if p >= 1.0 => true,
            p => rng.gen_bool(p),
        }
    }
}
