//! The seeded universe generator: hosts, domains, DNS and toplists.
//!
//! A [`Host`] carries everything a probe can observe.  A domain is a count
//! on the host it resolves to: in the paper it enters every number as a
//! weight on a host and as list membership, never as a name, so each host
//! holds the number of `.com/.net/.org` and of toplist domains it serves and
//! [`Universe::domains`] holds the three totals no host can — a universe is
//! O(hosts) in memory.  The generator still draws every [`Domain`] one at a
//! time; [`Universe::generate_observed`] hands each to an observer before it
//! is counted, which is how tests recount the universe per domain.

use crate::as2org::AsOrgDb;
use crate::providers::{
    default_landscape, BackgroundSpec, LandscapeSpec, SegmentSpec, TcpEcnProfile,
};
use crate::snapshot::SnapshotDate;
use crate::stacks::StackProfile;
use qem_netsim::{build_duplex_path, Asn, DuplexPath, Probability, Router, TransitProfile};
use qem_quic::behavior::ServerBehavior;
use qem_tcp::TcpServerBehavior;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Parameters of universe generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniverseConfig {
    /// Scale factor relative to the paper's population (1.0 = 183 M domains).
    pub scale: f64,
    /// RNG seed; the same seed always yields the same universe.
    pub seed: u64,
    /// Keep at least one domain for segments whose scaled size rounds to
    /// zero (e.g. the four "All CE" domains), so rare classes stay visible.
    pub ensure_rare_segments: bool,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            scale: 0.001,
            seed: 42,
            ensure_rare_segments: true,
        }
    }
}

impl UniverseConfig {
    /// A smaller universe for fast unit tests (1:10000 scale).
    pub fn tiny() -> Self {
        UniverseConfig {
            scale: 0.0001,
            seed: 7,
            ensure_rare_segments: true,
        }
    }

    fn scaled(&self, paper_count: u64) -> u64 {
        let scaled = (paper_count as f64 * self.scale).round() as u64;
        if scaled == 0 && paper_count > 0 && self.ensure_rare_segments {
            1
        } else {
            scaled
        }
    }
}

/// Which domain lists a domain appears on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainLists {
    /// Member of the `.com/.net/.org` zone files.
    pub cno: bool,
    /// Alexa Top 1M.
    pub alexa: bool,
    /// Cisco Umbrella.
    pub umbrella: bool,
    /// Majestic Million.
    pub majestic: bool,
    /// Tranco.
    pub tranco: bool,
}

impl DomainLists {
    /// Whether the domain is on any of the four toplists.
    pub fn toplist(&self) -> bool {
        self.alexa || self.umbrella || self.majestic || self.tranco
    }
}

/// A web host (one IP, possibly dual-stacked, serving many domains).
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Index in [`Universe::hosts`].
    pub id: usize,
    /// IPv4 address.
    pub ipv4: Ipv4Addr,
    /// IPv6 address, if the host is dual-stacked.
    pub ipv6: Option<Ipv6Addr>,
    /// Index of the owning provider in [`Universe::providers`].
    pub provider: usize,
    /// The provider's ASN.
    pub asn: Asn,
    /// QUIC stack, or `None` for TCP-only hosts.
    pub stack: Option<StackProfile>,
    /// Calibration segment this host came from (diagnostics only).
    pub segment: &'static str,
    /// Whether the host sets ECN codepoints on its own QUIC packets.
    pub uses_ecn: bool,
    /// Per-host quantile controlling LiteSpeed upgrade timing.
    pub upgrade_quantile: f64,
    /// Per-host quantile controlling when the host became QUIC-capable.
    pub availability_quantile: f64,
    /// Whether the HTTP `server` header is suppressed.
    pub suppress_server_header: bool,
    /// Transit behaviour of the IPv4 forward path from the main vantage point.
    pub transit_v4: TransitProfile,
    /// Transit behaviour of the IPv6 forward path.
    pub transit_v6: TransitProfile,
    /// TCP ECN behaviour.
    pub tcp_profile: TcpEcnProfile,
    /// `.com/.net/.org` domains resolving to this host.
    pub cno_domains: u32,
    /// Toplist domains resolving to this host.
    pub toplist_domains: u32,
}

impl Host {
    /// The fraction of (eventually QUIC-capable) hosts already reachable via
    /// QUIC at `date`; grows from ~82 % in June 2022 to 100 % in April 2023,
    /// reproducing the total-QUIC growth of Figure 3.
    fn availability_fraction(date: SnapshotDate) -> f64 {
        let m = date.months_since_start().min(11) as f64;
        (0.80 + 0.02 * m).min(1.0)
    }

    /// Whether the host answers QUIC at all at `date`.
    pub fn quic_available_at(&self, date: SnapshotDate) -> bool {
        self.stack.is_some() && self.availability_quantile < Self::availability_fraction(date)
    }

    /// The QUIC behaviour of the host at `date` (`None` when the host is not
    /// reachable via QUIC at that date).
    pub fn quic_behavior_at(&self, date: SnapshotDate) -> Option<ServerBehavior> {
        if !self.quic_available_at(date) {
            return None;
        }
        self.stack.map(|stack| {
            stack.behavior_at(
                date,
                self.upgrade_quantile,
                self.uses_ecn,
                self.suppress_server_header,
            )
        })
    }

    /// TCP behaviour of the host.
    pub fn tcp_behavior(&self) -> TcpServerBehavior {
        self.tcp_profile.behavior()
    }

    /// Address of the host for the requested IP version.
    pub fn addr(&self, v6: bool) -> Option<IpAddr> {
        if v6 {
            self.ipv6.map(IpAddr::V6)
        } else {
            Some(IpAddr::V4(self.ipv4))
        }
    }

    /// Build the duplex path between a vantage point in `vantage_asn` and
    /// this host, applying the calibrated transit behaviour on the forward
    /// direction (the reverse path is clean, as the study can only observe —
    /// and the paper only reports — forward-path impairments).
    pub fn duplex_path_from(&self, vantage_asn: Asn, v6: bool) -> DuplexPath {
        let transit = if v6 { self.transit_v6 } else { self.transit_v4 };
        build_duplex_path(vantage_asn, self.asn, transit, TransitProfile::Clean, v6)
    }
}

/// A domain as the generator draws it.  It is on the zone files or on a
/// toplist, never both, and is counted, not kept: only the observer of
/// [`Universe::generate_observed`] ever sees one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// Which lists the domain appears on.
    pub lists: DomainLists,
    /// The host serving the domain (`None` = does not resolve).
    pub host: Option<usize>,
    /// Whether the domain's DNS records point at a parking provider.
    pub parked: bool,
}

/// The domain counts no single host holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainCounts {
    /// `.com/.net/.org` domains, resolving or not.
    pub cno: u64,
    /// Toplist domains, resolving or not.
    pub toplist: u64,
    /// Parked `.com/.net/.org` domains served by a QUIC host (paper §5.1).
    pub parked_quic_cno: u64,
}

impl DomainCounts {
    /// Number of domains generated, resolving or not.
    pub fn len(&self) -> usize {
        (self.cno + self.toplist) as usize
    }

    /// Whether no domain was generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A provider as materialised in the universe.
#[derive(Debug, Clone)]
pub struct ProviderInfo {
    /// Organisation name.
    pub name: String,
    /// Primary ASN.
    pub asn: Asn,
}

/// The generated web landscape.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Generation parameters.
    pub config: UniverseConfig,
    /// Hosting providers.
    pub providers: Vec<ProviderInfo>,
    /// Hosts (QUIC and TCP-only).
    pub hosts: Vec<Host>,
    /// Domain totals; the per-host counts are on the [`Host`]s.
    pub domains: DomainCounts,
    /// The AS-organisation / prefix database.
    pub as_org: AsOrgDb,
}

impl Universe {
    /// Generate the default landscape at the configured scale.
    pub fn generate(config: &UniverseConfig) -> Universe {
        Self::generate_from(&default_landscape(), config)
    }

    /// Generate a universe from an explicit landscape specification.
    pub fn generate_from(landscape: &LandscapeSpec, config: &UniverseConfig) -> Universe {
        Self::generate_observed(landscape, config, |_| {})
    }

    /// [`Universe::generate_from`], handing every domain to `observe` in
    /// generation order before it is counted.  The universe does not depend
    /// on the observer; it is the seam through which tests recount the
    /// per-host and overall counts one domain at a time.
    pub fn generate_observed(
        landscape: &LandscapeSpec,
        config: &UniverseConfig,
        mut observe: impl FnMut(Domain),
    ) -> Universe {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut universe = Universe {
            config: *config,
            providers: Vec::new(),
            hosts: Vec::new(),
            domains: DomainCounts::default(),
            as_org: AsOrgDb::new(),
        };
        // Networks on paths to any host: the main vantage point's upstream,
        // the cloud platform that hosts no site, and the clean transit.
        for asn in [Asn::DFN, Asn::VULTR, Asn::LEVEL3] {
            universe.announce_routers(asn);
        }

        for (index, provider) in landscape.providers.iter().enumerate() {
            let provider_idx = universe.providers.len();
            universe.providers.push(ProviderInfo {
                name: provider.name.to_string(),
                asn: provider.asn,
            });
            universe
                .as_org
                .register_org(provider.asn, provider.name, &provider.sibling_asns);
            let octet = 60 + index as u8;
            universe.announce_hoster(provider.asn, octet, index as u16);
            for segment in &provider.segments {
                let transit = [segment.transit_v4, segment.transit_v6];
                for asn in transit.into_iter().flat_map(TransitProfile::transit_asns) {
                    universe.announce_routers(asn);
                }
                universe.add_segment(
                    provider_idx,
                    octet,
                    index as u16,
                    segment,
                    landscape.parked_share,
                    &mut rng,
                    &mut observe,
                );
            }
        }

        // TCP-only background hosts.
        for (index, background) in landscape.background.iter().enumerate() {
            let provider_idx = universe.providers.len();
            let asn = Asn(65000 + index as u32);
            let name = format!("Shared Hosting {index}");
            universe.providers.push(ProviderInfo {
                name: name.clone(),
                asn,
            });
            universe.as_org.register_org(asn, &name, &[]);
            let octet = 140 + index as u8;
            universe.announce_hoster(asn, octet, 1000 + index as u16);
            universe.add_background(
                provider_idx,
                octet,
                1000 + index as u16,
                background,
                &mut rng,
                &mut observe,
            );
        }

        // Unresolved domains.
        let unresolved_cno = config.scaled(landscape.cno_unresolved);
        let unresolved_top = config.scaled(landscape.toplist_unresolved);
        for _ in 0..unresolved_cno {
            skip_tld_draw(&mut rng);
            universe.add_domain(CNO_ONLY, None, false, &mut observe);
        }
        for _ in 0..unresolved_top {
            universe.add_domain(toplist_membership(&mut rng), None, false, &mut observe);
        }

        universe
    }

    /// Announce a hosting AS: its host prefixes, `<v4_octet>.0.0.0/8` and
    /// `2001:db8:<v6_index>::/48` (see [`host_addrs`]), and its routers.
    fn announce_hoster(&mut self, asn: Asn, v4_octet: u8, v6_index: u16) {
        let (v4, v6) = host_addrs(v4_octet, v6_index, 0);
        self.as_org.announce(IpAddr::V4(v4), 8, asn);
        self.as_org.announce(IpAddr::V6(v6), 48, asn);
        self.announce_routers(asn);
    }

    /// Announce the IPv4 and IPv6 prefixes `asn` numbers its routers from.
    fn announce_routers(&mut self, asn: Asn) {
        for v6 in [false, true] {
            let (prefix, len) = Router::prefix(asn, v6);
            self.as_org.announce(prefix, len, asn);
        }
    }

    /// Count one generated domain — on its host, if it resolves, and in the
    /// totals — after showing it to the observer.
    fn add_domain(
        &mut self,
        lists: DomainLists,
        host: Option<usize>,
        parked: bool,
        observe: &mut impl FnMut(Domain),
    ) {
        observe(Domain {
            lists,
            host,
            parked,
        });
        let served = host.map(|id| &mut self.hosts[id]);
        if lists.cno {
            self.domains.cno += 1;
            if let Some(host) = served {
                host.cno_domains += 1;
            }
        } else {
            self.domains.toplist += 1;
            if let Some(host) = served {
                host.toplist_domains += 1;
            }
        }
        // Only QUIC segments draw the flag, and only for zone-file domains.
        self.domains.parked_quic_cno += u64::from(parked);
    }

    #[allow(clippy::too_many_arguments)]
    fn add_segment(
        &mut self,
        provider_idx: usize,
        v4_octet: u8,
        v6_index: u16,
        segment: &SegmentSpec,
        parked_share: Probability,
        rng: &mut StdRng,
        observe: &mut impl FnMut(Domain),
    ) {
        let cno = self.config.scaled(segment.cno_quic_domains);
        let top = self.config.scaled(segment.toplist_quic_domains);
        let total = cno + top;
        if total == 0 {
            return;
        }
        let hosts_needed = total.div_ceil(u64::from(segment.domains_per_ip)).max(1);
        let first_host = self.hosts.len();
        let asn = self.providers[provider_idx].asn;
        for _ in 0..hosts_needed {
            let id = self.hosts.len();
            let has_v6 = segment.ipv6_share.draw(rng);
            let (ipv4, ipv6) = host_addrs(v4_octet, v6_index, id as u32);
            self.hosts.push(Host {
                id,
                ipv4,
                ipv6: has_v6.then_some(ipv6),
                provider: provider_idx,
                asn,
                stack: Some(segment.stack),
                segment: segment.label,
                uses_ecn: segment.uses_ecn,
                upgrade_quantile: rng.gen::<f64>(),
                availability_quantile: rng.gen::<f64>(),
                suppress_server_header: segment.header_suppressed_share.draw(rng),
                transit_v4: segment.transit_v4,
                transit_v6: segment.transit_v6,
                tcp_profile: segment.tcp,
                cno_domains: 0,
                toplist_domains: 0,
            });
        }
        for i in 0..cno {
            let host = first_host + (i % hosts_needed) as usize;
            let parked = parked_share.draw(rng);
            skip_tld_draw(rng);
            self.add_domain(CNO_ONLY, Some(host), parked, observe);
        }
        for i in 0..top {
            let host = first_host + ((cno + i) % hosts_needed) as usize;
            self.add_domain(toplist_membership(rng), Some(host), false, observe);
        }
    }

    fn add_background(
        &mut self,
        provider_idx: usize,
        v4_octet: u8,
        v6_index: u16,
        background: &BackgroundSpec,
        rng: &mut StdRng,
        observe: &mut impl FnMut(Domain),
    ) {
        let cno = self.config.scaled(background.cno_domains);
        let top = self.config.scaled(background.toplist_domains);
        let total = cno + top;
        if total == 0 {
            return;
        }
        let hosts_needed = total.div_ceil(u64::from(background.domains_per_ip)).max(1);
        let first_host = self.hosts.len();
        let asn = self.providers[provider_idx].asn;
        for _ in 0..hosts_needed {
            let id = self.hosts.len();
            let has_v6 = background.ipv6_share.draw(rng);
            let (ipv4, ipv6) = host_addrs(v4_octet, v6_index, id as u32);
            self.hosts.push(Host {
                id,
                ipv4,
                ipv6: has_v6.then_some(ipv6),
                provider: provider_idx,
                asn,
                stack: None,
                segment: "tcp-only",
                uses_ecn: false,
                upgrade_quantile: rng.gen::<f64>(),
                availability_quantile: rng.gen::<f64>(),
                suppress_server_header: false,
                transit_v4: TransitProfile::Clean,
                transit_v6: TransitProfile::Clean,
                tcp_profile: background.tcp,
                cno_domains: 0,
                toplist_domains: 0,
            });
        }
        for i in 0..cno {
            let host = first_host + (i % hosts_needed) as usize;
            skip_tld_draw(rng);
            self.add_domain(CNO_ONLY, Some(host), false, observe);
        }
        for i in 0..top {
            let host = first_host + ((cno + i) % hosts_needed) as usize;
            self.add_domain(toplist_membership(rng), Some(host), false, observe);
        }
    }

    /// Every host with an address in the requested family, in ascending id
    /// order — **the** scan population.  Scanners, store-backed campaigns
    /// and resume all derive their host lists from this one definition, so
    /// the "which hosts does a census cover?" rule cannot drift between the
    /// in-memory and persisted paths.
    pub fn scan_population(&self, ipv6: bool) -> Vec<usize> {
        self.hosts
            .iter()
            .filter(|h| h.addr(ipv6).is_some())
            .map(|h| h.id)
            .collect()
    }

    /// Number of hosts that answer QUIC at `date`.
    pub fn quic_host_count(&self, date: SnapshotDate) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.quic_available_at(date))
            .count()
    }
}

/// Membership of a zone-file domain that is on no toplist.
const CNO_ONLY: DomainLists = DomainLists {
    cno: true,
    alexa: false,
    umbrella: false,
    majestic: false,
    tranco: false,
};

/// The addresses of host number `host_no` inside its provider's prefixes:
/// its low 24 bits under `<v4_octet>.0.0.0/8`, all 32 under
/// `2001:db8:<v6_index>::/48`.
fn host_addrs(v4_octet: u8, v6_index: u16, host_no: u32) -> (Ipv4Addr, Ipv6Addr) {
    let [_, b, c, d] = host_no.to_be_bytes();
    let [hi, lo] = [(host_no >> 16) as u16, host_no as u16];
    (
        Ipv4Addr::new(v4_octet, b, c, d),
        Ipv6Addr::new(0x2001, 0x0db8, v6_index, 0, 0, 0, hi, lo),
    )
}

/// The draw that once picked a zone-file domain's TLD.  Domains carry no
/// names, but the goldens pin the RNG stream, so the draw stays in place.
fn skip_tld_draw(rng: &mut StdRng) {
    let _: i32 = rng.gen_range(0..10);
}

fn toplist_membership(rng: &mut StdRng) -> DomainLists {
    let mut lists = DomainLists {
        cno: false,
        alexa: Probability::new(0.45).draw(rng),
        umbrella: Probability::new(0.4).draw(rng),
        majestic: Probability::new(0.35).draw(rng),
        tranco: Probability::new(0.5).draw(rng),
    };
    if !lists.toplist() {
        lists.tranco = true;
    }
    lists
}

/// A universe and every domain its generator drew, in generation order: what
/// this crate's per-domain oracle tests recount.
#[cfg(test)]
pub(crate) fn observed(config: &UniverseConfig) -> (Universe, Vec<Domain>) {
    let mut domains = Vec::new();
    let universe = Universe::generate_observed(&default_landscape(), config, |d| domains.push(d));
    (universe, domains)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe::generate(&UniverseConfig::default())
    }

    fn served_by_quic(u: &Universe, domain: &Domain) -> bool {
        domain.host.is_some_and(|h| u.hosts[h].stack.is_some())
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, a_domains) = observed(&UniverseConfig::default());
        let (b, b_domains) = observed(&UniverseConfig::default());
        assert_eq!(a_domains, b_domains);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.hosts, b.hosts);
    }

    #[test]
    fn a_host_is_at_most_112_bytes() {
        // `Universe::hosts` is what a census holds resident — domains are
        // counts on it — so this size times the host count is the universe's
        // share of the benchmark's `peak_live_mb`.
        assert!(std::mem::size_of::<Host>() <= 112);
    }

    #[test]
    fn observing_a_generation_does_not_change_it() {
        for config in [UniverseConfig::default(), UniverseConfig::tiny()] {
            let plain = Universe::generate(&config);
            let (watched, domains) = observed(&config);
            assert_eq!(plain.hosts, watched.hosts);
            assert_eq!(plain.domains, watched.domains);
            assert_eq!(domains.len(), plain.domains.len());
            assert!(!plain.domains.is_empty());
        }
    }

    #[test]
    fn every_domain_walk_agrees_with_a_naive_recount() {
        for config in [UniverseConfig::default(), UniverseConfig::tiny()] {
            let (u, domains) = observed(&config);
            let mut per_host = [vec![0u32; u.hosts.len()], vec![0u32; u.hosts.len()]];
            let mut totals = [0u64; 2];
            let (mut quic_cno, mut parked) = (0u64, 0u64);
            for domain in &domains {
                // On the zone files or on a toplist, never both.
                assert_ne!(domain.lists.cno, domain.lists.toplist());
                for (column, member) in [domain.lists.cno, domain.lists.toplist()]
                    .into_iter()
                    .enumerate()
                {
                    if member {
                        totals[column] += 1;
                        if let Some(host) = domain.host {
                            per_host[column][host] += 1;
                        }
                    }
                }
                let quic = served_by_quic(&u, domain);
                if domain.lists.cno && quic {
                    quic_cno += 1;
                    parked += u64::from(domain.parked);
                }
                // Only QUIC zone-file domains are ever drawn as parked.
                assert!(!domain.parked || (domain.lists.cno && quic));
            }
            let counted =
                |count: fn(&Host) -> u32| -> Vec<u32> { u.hosts.iter().map(count).collect() };
            assert_eq!(
                [counted(|h| h.cno_domains), counted(|h| h.toplist_domains)],
                per_host
            );
            assert_eq!([u.domains.cno, u.domains.toplist], totals);
            assert_eq!(u.domains.len() as u64, totals[0] + totals[1]);
            assert_eq!(u.domains.parked_quic_cno, parked);
            assert_eq!(
                crate::parking::parked_quic_share(&u),
                (parked, parked as f64 / quic_cno as f64)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate(&UniverseConfig::default());
        let b = Universe::generate(&UniverseConfig {
            seed: 43,
            ..UniverseConfig::default()
        });
        // Counts stay the same (calibration) but host attributes vary.
        assert_eq!(a.domains.len(), b.domains.len());
        let differs = a
            .hosts
            .iter()
            .zip(&b.hosts)
            .any(|(x, y)| x.upgrade_quantile != y.upgrade_quantile);
        assert!(differs);
    }

    #[test]
    fn population_sizes_scale_with_the_paper() {
        let u = universe();
        // ~183 k c/n/o domains and ~2.7 k toplist domains at 1:1000.
        let (cno, top) = (u.domains.cno, u.domains.toplist);
        assert!((150_000..=210_000).contains(&cno), "cno = {cno}");
        assert!((2_000..=3_500).contains(&top), "top = {top}");
    }

    #[test]
    fn quic_share_matches_the_paper() {
        let (u, domains) = observed(&UniverseConfig::default());
        let cno = || domains.iter().filter(|d| d.lists.cno);
        let quic_cno = cno().filter(|d| served_by_quic(&u, d)).count() as f64;
        let resolved_cno = cno().filter(|d| d.host.is_some()).count() as f64;
        // Paper: 17.3 M QUIC of 159.4 M resolved ≈ 10.9 %.
        let share = quic_cno / resolved_cno;
        assert!((0.07..=0.15).contains(&share), "share = {share}");
    }

    #[test]
    fn hosts_serve_many_domains() {
        let (u, domains) = observed(&UniverseConfig::default());
        let quic_hosts = u.hosts.iter().filter(|h| h.stack.is_some()).count() as f64;
        let quic_domains = domains.iter().filter(|d| served_by_quic(&u, d)).count() as f64;
        let ratio = quic_domains / quic_hosts;
        // Paper: 17.3 M domains over 232.75 k IPs ≈ 74 domains per IP.
        assert!(ratio > 20.0 && ratio < 200.0, "ratio = {ratio}");
    }

    #[test]
    fn availability_grows_over_time() {
        let u = universe();
        let early = u.quic_host_count(SnapshotDate::JUN_2022);
        let late = u.quic_host_count(SnapshotDate::APR_2023);
        assert!(early < late);
        assert!(early as f64 > 0.7 * late as f64);
    }

    #[test]
    fn ipv6_coverage_is_partial_and_cloudflare_heavy() {
        let (u, domains) = observed(&UniverseConfig::default());
        let v6_hosts = u
            .hosts
            .iter()
            .filter(|h| h.ipv6.is_some() && h.stack.is_some())
            .count();
        assert!(v6_hosts > 0);
        let cloudflare_idx = u
            .providers
            .iter()
            .position(|p| p.name == "Cloudflare")
            .unwrap();
        let cf_v6_domains = domains
            .iter()
            .filter(|d| {
                d.host
                    .map(|h| u.hosts[h].provider == cloudflare_idx && u.hosts[h].ipv6.is_some())
                    .unwrap_or(false)
            })
            .count();
        let all_v6_quic_domains = domains
            .iter()
            .filter(|d| {
                d.host
                    .map(|h| u.hosts[h].stack.is_some() && u.hosts[h].ipv6.is_some())
                    .unwrap_or(false)
            })
            .count();
        assert!(
            cf_v6_domains * 2 > all_v6_quic_domains,
            "Cloudflare should dominate IPv6"
        );
    }

    #[test]
    fn prefixes_resolve_back_to_their_org() {
        for config in [UniverseConfig::default(), UniverseConfig::tiny()] {
            let u = Universe::generate(&config);
            for host in &u.hosts {
                let v6 = host.ipv6.map(IpAddr::V6);
                for addr in std::iter::once(IpAddr::V4(host.ipv4)).chain(v6) {
                    assert_eq!(u.as_org.asn_of_ip(addr), Some(host.asn), "host {addr}");
                }
            }
            // Addresses nobody announces: the scanner's client addresses and
            // the engine's load-flow range.
            for addr in ["192.0.2.10", "2001:db8:ffff::10", "2001:db8:bbbb::1"] {
                assert_eq!(u.as_org.asn_of_ip(addr.parse().unwrap()), None, "{addr}");
            }
        }
    }

    #[test]
    fn paths_reflect_the_calibrated_transit() {
        let u = universe();
        let cleared_host = u
            .hosts
            .iter()
            .find(|h| matches!(h.transit_v4, TransitProfile::Clearing { .. }))
            .expect("some host behind a clearing path");
        let path = cleared_host.duplex_path_from(Asn::DFN, false);
        let impaired = |path: &qem_netsim::Path| {
            path.hops
                .iter()
                .any(|hop| hop.router.ecn_policy != qem_netsim::EcnPolicy::Pass)
        };
        assert!(impaired(&path.forward));
        assert!(!impaired(&path.reverse));
    }

    /// The tiny universe of the default landscape with `share` written into
    /// it by `set`.
    fn with_share(set: fn(&mut LandscapeSpec, f64), share: f64) -> Universe {
        let mut landscape = default_landscape();
        set(&mut landscape, share);
        Universe::generate_from(&landscape, &UniverseConfig::tiny())
    }

    /// A NaN share generates the universe a 0.0 share does, without a panic.
    fn a_nan_share_draws_as_zero(set: fn(&mut LandscapeSpec, f64)) {
        let (nan, zero) = (with_share(set, f64::NAN), with_share(set, 0.0));
        assert_eq!(nan.hosts, zero.hosts);
        assert_eq!(nan.domains, zero.domains);
    }

    fn segments(landscape: &mut LandscapeSpec) -> impl Iterator<Item = &mut SegmentSpec> {
        landscape.providers.iter_mut().flat_map(|p| &mut p.segments)
    }

    #[test]
    fn a_nan_segment_ipv6_share_draws_as_zero() {
        a_nan_share_draws_as_zero(|l, share| {
            segments(l).for_each(|s| s.ipv6_share = Probability::new(share))
        });
    }

    #[test]
    fn a_nan_header_suppressed_share_draws_as_zero() {
        a_nan_share_draws_as_zero(|l, share| {
            segments(l).for_each(|s| s.header_suppressed_share = Probability::new(share))
        });
    }

    #[test]
    fn a_nan_parked_share_draws_as_zero() {
        a_nan_share_draws_as_zero(|l, share| l.parked_share = Probability::new(share));
    }

    #[test]
    fn a_nan_background_ipv6_share_draws_as_zero() {
        a_nan_share_draws_as_zero(|l, share| {
            l.background
                .iter_mut()
                .for_each(|b| b.ipv6_share = Probability::new(share))
        });
    }

    #[test]
    fn tiny_universe_is_fast_and_nonempty() {
        let u = Universe::generate(&UniverseConfig::tiny());
        assert!(u.domains.len() > 1_000);
        assert!(u.hosts.iter().any(|h| h.stack.is_some()));
    }
}
