//! A synthetic stand-in for the CAIDA as2org dataset and the RIPE RIS prefix
//! data the paper uses to attribute IPs and impairments to AS organisations.
//!
//! Two lookups are provided:
//!
//! * [`AsOrgDb::org_name`] — ASN → organisation name, with sibling ASNs of
//!   the same operator merged (the paper merges e.g. "Cloudflare London"
//!   into "Cloudflare"),
//! * [`AsOrgDb::asn_of_ip`] — IP → ASN, as a routing table answers it: the
//!   AS that announced the longest prefix holding the address.  The table
//!   knows no address format; whoever assigns addresses announces their
//!   prefixes ([`AsOrgDb::announce`]), and an address nobody announced has
//!   no AS.

use qem_netsim::Asn;
use std::collections::BTreeMap;
use std::net::IpAddr;

/// The ASN → organisation and prefix → ASN database.
#[derive(Debug, Clone, Default)]
pub struct AsOrgDb {
    orgs: BTreeMap<u32, String>,
    /// Announced prefixes by [`key`] — (is IPv6, length, network bits; an
    /// IPv4 network in the low 32) — and their owners, sorted.
    prefixes: Vec<((bool, u8, u128), Asn)>,
}

impl AsOrgDb {
    /// Create an empty database pre-populated with the vantage and transit
    /// networks the study names.
    pub fn new() -> Self {
        let mut db = AsOrgDb::default();
        db.register_org(Asn::DFN, "DFN", &[]);
        db.register_org(Asn::ARELION, "Arelion (Telia Carrier)", &[]);
        db.register_org(Asn::COGENT, "Cogent", &[]);
        db.register_org(Asn::LEVEL3, "Lumen (Level3)", &[]);
        db.register_org(Asn::VULTR, "Vultr", &[]);
        db
    }

    /// Register an organisation with its primary and sibling ASNs.
    pub fn register_org(&mut self, asn: Asn, name: &str, siblings: &[Asn]) {
        for asn in std::iter::once(asn).chain(siblings.iter().copied()) {
            self.orgs.insert(asn.0, name.to_string());
        }
    }

    /// Record that `asn` announces `prefix/len` (`len` is capped at the
    /// family's width; bits past it are ignored).  A prefix keeps its first
    /// owner: announcing it again changes nothing and returns that owner.
    pub fn announce(&mut self, prefix: IpAddr, len: u8, asn: Asn) -> Option<Asn> {
        let key = key(prefix, len);
        match self.prefixes.binary_search_by_key(&key, |&(key, _)| key) {
            Ok(at) => Some(self.prefixes[at].1),
            Err(at) => {
                self.prefixes.insert(at, (key, asn));
                None
            }
        }
    }

    /// The organisation name for an ASN, if known.
    pub fn org_name(&self, asn: Asn) -> Option<&str> {
        self.orgs.get(&asn.0).map(String::as_str)
    }

    /// The organisation name for an ASN, falling back to `ASxxxx`.
    pub fn org_name_or_asn(&self, asn: Asn) -> String {
        self.org_name(asn)
            .map(str::to_string)
            .unwrap_or_else(|| asn.to_string())
    }

    /// Resolve an IP address (host or router) to the AS announcing the
    /// longest prefix that holds it: one binary search per announced family
    /// and length, longest first.
    pub fn asn_of_ip(&self, ip: IpAddr) -> Option<Asn> {
        let mut rest = &self.prefixes[..];
        while let Some(&((v6, len, _), _)) = rest.last() {
            let (shorter, group) =
                rest.split_at(rest.partition_point(|&((f, l, _), _)| (f, l) < (v6, len)));
            // The other family's key never matches: it differs in `is IPv6`.
            if let Ok(at) = group.binary_search_by_key(&key(ip, len), |&(key, _)| key) {
                return Some(group[at].1);
            }
            rest = shorter;
        }
        None
    }

    /// Resolve an IP to an organisation name (`"<unknown>"` if unattributable).
    pub fn org_of_ip(&self, ip: IpAddr) -> String {
        self.asn_of_ip(ip)
            .map(|asn| self.org_name_or_asn(asn))
            .unwrap_or_else(|| "<unknown>".to_string())
    }
}

/// The table key of `ip/len`: is IPv6, `len` capped at the family's width,
/// and the address bits with everything past `len` cleared.
fn key(ip: IpAddr, len: u8) -> (bool, u8, u128) {
    let (v6, bits, width) = match ip {
        IpAddr::V4(v4) => (false, u128::from(u32::from(v4)), 32),
        IpAddr::V6(v6) => (true, u128::from(v6), 128),
    };
    let len = len.min(width);
    let host = u32::from(width - len);
    (v6, len, bits.checked_shr(host).map_or(0, |net| net << host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_netsim::Router;
    use std::net::Ipv4Addr;

    #[test]
    fn transit_orgs_are_preregistered() {
        let db = AsOrgDb::new();
        assert_eq!(db.org_name(Asn::ARELION), Some("Arelion (Telia Carrier)"));
        assert_eq!(db.org_name(Asn::COGENT), Some("Cogent"));
        assert_eq!(db.org_name(Asn::VULTR), Some("Vultr"));
    }

    #[test]
    fn sibling_asns_merge_to_one_org() {
        let mut db = AsOrgDb::new();
        db.register_org(Asn(13335), "Cloudflare", &[Asn(209242)]);
        assert_eq!(db.org_name(Asn(13335)), Some("Cloudflare"));
        assert_eq!(db.org_name(Asn(209242)), Some("Cloudflare"));
    }

    #[test]
    fn host_prefix_lookup() {
        let mut db = AsOrgDb::new();
        db.register_org(Asn(16509), "Amazon", &[]);
        assert_eq!(
            db.announce("65.0.0.0".parse().unwrap(), 8, Asn(16509)),
            None
        );
        assert_eq!(
            db.announce("2001:db8:5::".parse().unwrap(), 48, Asn(16509)),
            None
        );
        assert_eq!(db.asn_of_ip("65.1.2.3".parse().unwrap()), Some(Asn(16509)));
        assert_eq!(
            db.asn_of_ip("2001:db8:5::1".parse().unwrap()),
            Some(Asn(16509))
        );
        assert_eq!(db.asn_of_ip("2001:db8:6::1".parse().unwrap()), None);
        assert_eq!(db.org_of_ip("65.1.2.3".parse().unwrap()), "Amazon");
    }

    #[test]
    fn router_addresses_resolve_to_their_asn() {
        let mut db = AsOrgDb::new();
        for (asn, v6) in [(Asn::ARELION, false), (Asn::COGENT, true)] {
            let (prefix, len) = Router::prefix(asn, v6);
            assert_eq!(db.announce(prefix, len, asn), None);
        }
        let addr = Router::transparent(7, Asn::ARELION).address;
        assert_eq!(db.asn_of_ip(addr), Some(Asn::ARELION));
        let addr6 = Router::transparent_v6(7, Asn::COGENT).address;
        assert_eq!(db.asn_of_ip(addr6), Some(Asn::COGENT));
        // Unannounced: Cogent's IPv4 routers and Arelion's IPv6 routers.
        assert_eq!(
            db.asn_of_ip(Router::transparent(7, Asn::COGENT).address),
            None
        );
        assert_eq!(
            db.asn_of_ip(Router::transparent_v6(7, Asn::ARELION).address),
            None
        );
    }

    #[test]
    fn the_longest_prefix_wins_and_the_first_owner_stays() {
        let mut db = AsOrgDb::new();
        assert_eq!(db.announce("10.0.0.0".parse().unwrap(), 8, Asn(1)), None);
        assert_eq!(db.announce("10.1.2.99".parse().unwrap(), 24, Asn(2)), None);
        assert_eq!(
            db.announce("10.1.2.0".parse().unwrap(), 24, Asn(3)),
            Some(Asn(2))
        );
        assert_eq!(db.announce("0.0.0.0".parse().unwrap(), 0, Asn(4)), None);
        let at = |ip: &str| db.asn_of_ip(ip.parse().unwrap());
        assert_eq!(at("10.1.2.3"), Some(Asn(2)));
        assert_eq!(at("10.1.3.3"), Some(Asn(1)));
        assert_eq!(at("11.0.0.1"), Some(Asn(4)));
        // An IPv4 default route covers no IPv6 address.
        assert_eq!(at("::a01:203"), None);
    }

    #[test]
    fn unknown_ips_are_unattributed() {
        let db = AsOrgDb::new();
        assert_eq!(
            db.asn_of_ip(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1))),
            None
        );
        assert_eq!(
            db.org_of_ip(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1))),
            "<unknown>"
        );
    }

    #[test]
    fn org_name_or_asn_falls_back() {
        let db = AsOrgDb::new();
        assert_eq!(db.org_name_or_asn(Asn(64512)), "AS64512");
    }
}
