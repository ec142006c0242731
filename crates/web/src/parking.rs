//! Domain-parking detection (paper §5.1).
//!
//! The study checks NS/CNAME/A records against known parking providers and
//! finds 0.6 % of QUIC-capable `.com/.net/.org` domains to be parked — too
//! few to bias the results.  The universe generator draws the outcome of
//! that DNS check for the same share of QUIC zone-file domains and counts
//! the hits ([`DomainCounts::parked_quic_cno`](crate::DomainCounts)); this
//! module reproduces the share from the counts.  There is no synthetic NS
//! record to match against a provider table: a record the generator writes
//! and a table that can only agree with it test nothing.

use crate::universe::Universe;

/// Count parked QUIC domains in the c/n/o zones and their share of all QUIC
/// c/n/o domains (the §5.1 sanity check).
pub fn parked_quic_share(universe: &Universe) -> (u64, f64) {
    let parked = universe.domains.parked_quic_cno;
    let quic: u64 = universe
        .hosts
        .iter()
        .filter(|h| h.stack.is_some())
        .map(|h| u64::from(h.cno_domains))
        .sum();
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
    use crate::universe::{observed, Domain, UniverseConfig};

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
    fn the_share_is_a_per_domain_recount_of_the_flags() {
        let (universe, domains) = observed(&UniverseConfig::default());
        let quic_cno =
            |d: &&Domain| d.lists.cno && d.host.is_some_and(|h| universe.hosts[h].stack.is_some());
        let quic = domains.iter().filter(quic_cno).count() as u64;
        let parked = domains.iter().filter(quic_cno).filter(|d| d.parked).count() as u64;
        assert!(parked > 0 && parked < quic);
        assert_eq!(parked, domains.iter().filter(|d| d.parked).count() as u64);
        assert_eq!(
            parked_quic_share(&universe),
            (parked, parked as f64 / quic as f64)
        );
    }
}
