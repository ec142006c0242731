//! Fixture: true positives for `raw-gen-bool`.

use rand::Rng;

pub fn lost(rng: &mut impl Rng, p: f64) -> bool {
    rng.gen_bool(p)
}

pub fn guarded(rng: &mut impl Rng, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng};

    #[test]
    fn an_oracle_may_draw_raw() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(rng.gen_bool(1.0));
    }
}
