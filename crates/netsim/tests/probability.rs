//! `Probability` against the inline forms it replaced.
//!
//! Before the type, each draw site sanitised its own `f64`: the universe
//! generator through a `draw_share` helper that always drew, and the hops,
//! ICMP answers, fault rates and vantage quirks through an inline guard
//! that drew only above 0.  Both are copied here, verbatim, as oracles:
//! over any `f64` bit pattern and any seed, `draw` and `draw_unless_zero`
//! must return what they returned and leave the RNG where they left it —
//! which is what keeps every seeded run, digest and golden unchanged.
//! `draw_unless_certain`, the ICMP answer's draw, replaced no inline form:
//! it is held to its rule, no draw at 0 nor at 1 and `draw` in between.

use proptest::prelude::*;
use qem_netsim::Probability;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The universe generator's landscape-share draw, as it was.
fn draw_share(rng: &mut StdRng, share: f64) -> bool {
    rng.gen_bool(if share.is_nan() {
        0.0
    } else {
        share.clamp(0.0, 1.0)
    })
}

/// The inline draw of a hop loss, an ICMP answer, a fault rate or a vantage
/// quirk, as it was.
fn guarded_draw(rng: &mut StdRng, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
}

/// What every constructor must make of `raw`.
fn nan_to_zero_clamp(raw: f64) -> f64 {
    if raw.is_nan() {
        0.0
    } else {
        raw.clamp(0.0, 1.0)
    }
}

/// Named edge cases: both zeros, both infinities, NaN, the ends of the
/// range and their neighbours, the smallest normal and subnormal values.
const EDGES: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    f64::EPSILON,
    1.0 + f64::EPSILON,
    1.0 - f64::EPSILON / 2.0,
    5e-324,
    -5e-324,
];

/// `f64` bit patterns: any at all (mostly huge or tiny magnitudes), values
/// below, inside and above `[0, 1]`, the named edges, NaNs with arbitrary
/// payload and sign, and subnormals of either sign.
fn probability_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (-0.5f64..1.5).prop_map(f64::to_bits),
        (0..EDGES.len()).prop_map(|i| EDGES[i].to_bits()),
        any::<u64>().prop_map(|bits| bits | 0x7ff0_0000_0000_0001),
        any::<u64>().prop_map(|bits| bits & 0x800f_ffff_ffff_ffff),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn draws_match_the_inline_forms_they_replaced(bits in probability_bits(), seed in any::<u64>()) {
        let raw = f64::from_bits(bits);
        let p = Probability::new(raw);

        let (mut old, mut new) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        prop_assert_eq!(p.draw(&mut new), draw_share(&mut old, raw));
        prop_assert_eq!(new.next_u64(), old.next_u64());

        let (mut old, mut new) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        prop_assert_eq!(p.draw_unless_zero(&mut new), guarded_draw(&mut old, raw));
        prop_assert_eq!(new.next_u64(), old.next_u64());
    }

    #[test]
    fn draw_unless_certain_draws_only_strictly_between_zero_and_one(
        bits in probability_bits(),
        seed in any::<u64>()
    ) {
        let raw = f64::from_bits(bits);
        let p = Probability::new(raw);
        let (mut plain, mut guarded) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let drawn = p.draw_unless_certain(&mut guarded);
        if raw.is_nan() || raw <= 0.0 {
            prop_assert!(!drawn);
        } else if raw >= 1.0 {
            prop_assert!(drawn);
        } else {
            prop_assert_eq!(drawn, p.draw(&mut plain));
        }
        prop_assert_eq!(guarded.next_u64(), plain.next_u64());
    }

    #[test]
    fn every_constructor_taking_a_probability_clamps_and_reads_nan_as_zero(
        bits in probability_bits()
    ) {
        let raw = f64::from_bits(bits);
        let expected = nan_to_zero_clamp(raw).to_bits();
        prop_assert_eq!(Probability::new(raw).get().to_bits(), expected);
    }
}
