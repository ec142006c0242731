//! Domain-parking detection (paper §5.1).
//!
//! The study checks NS/CNAME/A records against known parking providers and
//! finds 0.6 % of QUIC-capable `.com/.net/.org` domains to be parked — too
//! few to bias the results.  The universe generator marks the same share of
//! QUIC zone-file domains with [`Domain::parked`], the outcome of that DNS
//! check; this module reproduces the share from the flags.  There is no
//! synthetic NS record to match against a provider table: a record the
//! generator writes and a table that can only agree with it test nothing.

use crate::universe::{Domain, Universe};

/// Whether a domain is classified as parked.
pub fn is_parked(domain: &Domain) -> bool {
    domain.parked
}

/// Count parked QUIC domains in the c/n/o zones and their share of all QUIC
/// c/n/o domains (the §5.1 sanity check).
pub fn parked_quic_share(universe: &Universe) -> (u64, f64) {
    let mut quic = 0u64;
    let mut parked = 0u64;
    for domain in &universe.domains {
        if !domain.lists.cno {
            continue;
        }
        let Some(host) = domain.host else { continue };
        if universe.hosts[host].stack.is_some() {
            quic += 1;
            if is_parked(domain) {
                parked += 1;
            }
        }
    }
    let share = if quic == 0 {
        0.0
    } else {
        parked as f64 / quic as f64
    };
    (parked, share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};

    #[test]
    fn parked_share_matches_the_paper() {
        let universe = Universe::generate(&UniverseConfig::default());
        let (parked, share) = parked_quic_share(&universe);
        assert!(parked > 0, "some parked domains must exist");
        // Paper: 0.6 % of QUIC c/n/o domains; allow generous tolerance at
        // 1:1000 scale.
        assert!(share > 0.001 && share < 0.02, "share = {share}");
    }

    #[test]
    fn classifier_requires_a_parking_ns() {
        let universe = Universe::generate(&UniverseConfig::default());
        let unparked = universe.domains.iter().find(|d| !d.parked).unwrap();
        assert!(!is_parked(unparked));
        let parked = universe.domains.iter().find(|d| d.parked).unwrap();
        assert!(is_parked(parked));
    }
}
