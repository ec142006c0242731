//! A synthetic stand-in for the CAIDA as2org dataset and the RIPE RIS prefix
//! data the paper uses to attribute IPs and impairments to AS organisations.
//!
//! Two lookups are provided:
//!
//! * [`AsOrgDb::org_name`] — ASN → organisation name, with sibling ASNs of
//!   the same operator merged (the paper merges e.g. "Cloudflare London"
//!   into "Cloudflare"),
//! * [`AsOrgDb::asn_of_ip`] — IP → ASN, covering both the simulated hosting
//!   prefixes and the deterministic router addresses generated by
//!   `qem_netsim::Router`.

use qem_netsim::Asn;
use std::collections::BTreeMap;
use std::net::IpAddr;

/// The ASN → organisation and prefix → ASN database.
#[derive(Debug, Clone, Default)]
pub struct AsOrgDb {
    orgs: BTreeMap<u32, String>,
    /// First IPv4 octet of a provider's host prefix → ASN.
    v4_prefix_owners: BTreeMap<u8, u32>,
    /// IPv6 "provider index" (third hextet under 2001:db8::/32) → ASN.
    v6_prefix_owners: BTreeMap<u16, u32>,
    /// All ASNs ever registered, used to reverse router addresses.
    known_asns: Vec<u32>,
}

impl AsOrgDb {
    /// Create an empty database pre-populated with the transit networks the
    /// study names.
    pub fn new() -> Self {
        let mut db = AsOrgDb::default();
        db.register_org(Asn::DFN, "DFN", &[]);
        db.register_org(Asn::ARELION, "Arelion (Telia Carrier)", &[]);
        db.register_org(Asn::COGENT, "Cogent", &[]);
        db.register_org(Asn::LEVEL3, "Lumen (Level3)", &[]);
        db
    }

    /// Register an organisation with its primary and sibling ASNs.
    pub fn register_org(&mut self, asn: Asn, name: &str, siblings: &[Asn]) {
        self.orgs.insert(asn.0, name.to_string());
        if !self.known_asns.contains(&asn.0) {
            self.known_asns.push(asn.0);
        }
        for sibling in siblings {
            self.orgs.insert(sibling.0, name.to_string());
            if !self.known_asns.contains(&sibling.0) {
                self.known_asns.push(sibling.0);
            }
        }
    }

    /// Record that the IPv4 prefix identified by its first octet belongs to `asn`.
    pub fn register_v4_prefix(&mut self, first_octet: u8, asn: Asn) {
        self.v4_prefix_owners.insert(first_octet, asn.0);
    }

    /// Record that the IPv6 provider index belongs to `asn`.
    pub fn register_v6_prefix(&mut self, provider_index: u16, asn: Asn) {
        self.v6_prefix_owners.insert(provider_index, asn.0);
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

    /// Resolve an IP address (host or router) to its ASN.
    pub fn asn_of_ip(&self, ip: IpAddr) -> Option<Asn> {
        match ip {
            IpAddr::V4(v4) => {
                let octets = v4.octets();
                if octets[0] == 10 {
                    // Router addresses are derived as 10.(asn % 200).x.y.
                    return self
                        .known_asns
                        .iter()
                        .copied()
                        .find(|asn| (asn % 200) as u8 == octets[1])
                        .map(Asn);
                }
                self.v4_prefix_owners.get(&octets[0]).copied().map(Asn)
            }
            IpAddr::V6(v6) => {
                let segments = v6.segments();
                if segments[0] == 0xfd00 {
                    // Router addresses: fd00:<asn_hi>:<asn_lo>::…
                    let asn = (u32::from(segments[1]) << 16) | u32::from(segments[2]);
                    return Some(Asn(asn));
                }
                if segments[0] == 0x2001 && segments[1] == 0x0db8 {
                    return self.v6_prefix_owners.get(&segments[2]).copied().map(Asn);
                }
                None
            }
        }
    }

    /// Resolve an IP to an organisation name (`"<unknown>"` if unattributable).
    pub fn org_of_ip(&self, ip: IpAddr) -> String {
        self.asn_of_ip(ip)
            .map(|asn| self.org_name_or_asn(asn))
            .unwrap_or_else(|| "<unknown>".to_string())
    }
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
        db.register_v4_prefix(65, Asn(16509));
        db.register_v6_prefix(5, Asn(16509));
        assert_eq!(db.asn_of_ip("65.1.2.3".parse().unwrap()), Some(Asn(16509)));
        assert_eq!(
            db.asn_of_ip("2001:db8:5::1".parse().unwrap()),
            Some(Asn(16509))
        );
        assert_eq!(db.org_of_ip("65.1.2.3".parse().unwrap()), "Amazon");
    }

    #[test]
    fn router_addresses_resolve_to_their_asn() {
        let db = AsOrgDb::new();
        let addr = Router::derive_v4_address(7, Asn::ARELION);
        assert_eq!(db.asn_of_ip(addr), Some(Asn::ARELION));
        let addr6 = Router::derive_v6_address(7, Asn::COGENT);
        assert_eq!(db.asn_of_ip(addr6), Some(Asn::COGENT));
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
