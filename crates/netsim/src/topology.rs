//! AS-level topology building blocks.
//!
//! The synthetic web landscape (crate `qem-web`) decides *which* transit
//! provider sits between a vantage point and a hosting provider; this module
//! provides the vocabulary for expressing that decision and turning it into a
//! concrete [`Path`].

use crate::path::{DuplexPath, Hop, Path};
use crate::policy::EcnPolicy;
use crate::router::Router;
use crate::time::SimDuration;
use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Asn(pub u32);

impl Asn {
    /// DFN (German Research Network) — the paper's upstream at the main vantage point.
    pub const DFN: Asn = Asn(680);
    /// Arelion / Telia Carrier — the transit provider the paper identifies as
    /// the main source of ECN clearing and re-marking (AS 1299).
    pub const ARELION: Asn = Asn(1299);
    /// Cogent (AS 174), seen downstream of Arelion in the re-marking cases.
    pub const COGENT: Asn = Asn(174);
    /// Lumen / Level3 (AS 3356), the pre-December-2022 route towards Server Central.
    pub const LEVEL3: Asn = Asn(3356);
    /// Vultr (AS 20473), the platform of nine of the sixteen cloud vantage points.
    pub const VULTR: Asn = Asn(20473);
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The behaviour of the transit segment between a vantage point and a
/// destination network, as far as ECN is concerned.
///
/// These profiles correspond to the path phenomena the paper observes:
/// clean transit, ToS bleaching (clearing), ECT(0)→ECT(1) re-marking, the
/// double rewrite (re-mark then clear), and pathological all-CE marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitProfile {
    /// No ECN-relevant rewriting anywhere on the path.
    Clean,
    /// A router in `asn` clears the ECN bits (ToS bleaching).
    Clearing {
        /// AS of the clearing router.
        asn: Asn,
    },
    /// A router in `asn` re-marks ECT(0) to ECT(1).
    Remarking {
        /// AS of the re-marking router.
        asn: Asn,
    },
    /// A router in `first` re-marks ECT(0)→ECT(1), a later router in `second`
    /// clears ECT to not-ECT (the AS 1299 double rewrite of §7.3).
    RemarkThenClear {
        /// AS of the re-marking router.
        first: Asn,
        /// AS of the clearing router.
        second: Asn,
    },
    /// A router in `asn` marks every ECT packet CE ("All CE" rows of Table 5).
    MarkAllCe {
        /// AS of the marking router.
        asn: Asn,
    },
}

impl TransitProfile {
    /// The AS to which a tracebox-style analysis would attribute the
    /// *first visible* change, if any.
    pub fn attributed_asn(self) -> Option<Asn> {
        match self {
            TransitProfile::Clean => None,
            TransitProfile::Clearing { asn }
            | TransitProfile::Remarking { asn }
            | TransitProfile::MarkAllCe { asn } => Some(asn),
            TransitProfile::RemarkThenClear { first, .. } => Some(first),
        }
    }

    /// The ASes whose routers [`build_transit_path`] puts between the
    /// vantage and the destination network, in path order.
    pub fn transit_asns(self) -> impl Iterator<Item = Asn> {
        let (first, second) = match self {
            TransitProfile::Clean => (Asn::LEVEL3, None),
            TransitProfile::Clearing { asn }
            | TransitProfile::Remarking { asn }
            | TransitProfile::MarkAllCe { asn } => (asn, None),
            TransitProfile::RemarkThenClear { first, second } => (first, Some(second)),
        };
        std::iter::once(first).chain(second)
    }
}

/// Delay of every hop a [`PathBuilder`] adds.
const HOP_DELAY: SimDuration = SimDuration::from_millis(3);

/// Builder assembling a [`Path`] hop by hop; every hop is lossless and
/// adds 3 ms.
#[derive(Debug, Clone, Default)]
pub struct PathBuilder {
    hops: Vec<Hop>,
    next_router_id: u32,
    v6: bool,
}

impl PathBuilder {
    /// Start a new IPv4 path.
    pub fn new() -> Self {
        PathBuilder {
            hops: Vec::new(),
            next_router_id: 1,
            v6: false,
        }
    }

    /// Start a new IPv6 path (router ICMP sources get IPv6 addresses).
    pub fn new_v6() -> Self {
        PathBuilder {
            v6: true,
            ..PathBuilder::new()
        }
    }

    fn make_router(&mut self, asn: Asn) -> Router {
        let id = self.next_router_id;
        self.next_router_id += 1;
        if self.v6 {
            Router::transparent_v6(id, asn)
        } else {
            Router::transparent(id, asn)
        }
    }

    /// Append `count` transparent routers belonging to `asn`.
    pub fn transparent_hops(mut self, asn: Asn, count: usize) -> Self {
        for _ in 0..count {
            let router = self.make_router(asn);
            self.hops.push(Hop::new(router).with_delay(HOP_DELAY));
        }
        self
    }

    /// Append a router in `asn` applying `policy`.
    pub fn policy_hop(mut self, asn: Asn, policy: EcnPolicy) -> Self {
        let router = self.make_router(asn).with_ecn_policy(policy);
        self.hops.push(Hop::new(router).with_delay(HOP_DELAY));
        self
    }

    /// Finish building.
    pub fn build(self) -> Path {
        Path::new(self.hops)
    }
}

/// Build the canonical vantage-point → destination path used throughout the
/// reproduction: a couple of hops in the vantage AS, a transit segment shaped
/// by `profile`, and an ingress segment in the destination AS.
pub fn build_transit_path(
    vantage_asn: Asn,
    destination_asn: Asn,
    profile: TransitProfile,
    v6: bool,
) -> Path {
    let builder = if v6 {
        PathBuilder::new_v6()
    } else {
        PathBuilder::new()
    };
    let builder = builder.transparent_hops(vantage_asn, 2);
    let builder = match profile {
        TransitProfile::Clean => builder.transparent_hops(Asn::LEVEL3, 3),
        TransitProfile::Clearing { asn } => builder
            .transparent_hops(asn, 1)
            .policy_hop(asn, EcnPolicy::BleachTos)
            .transparent_hops(asn, 1),
        TransitProfile::Remarking { asn } => builder
            .transparent_hops(asn, 1)
            .policy_hop(asn, EcnPolicy::RemarkEct0ToEct1)
            .transparent_hops(asn, 1),
        TransitProfile::RemarkThenClear { first, second } => builder
            .policy_hop(first, EcnPolicy::RemarkEct0ToEct1)
            .transparent_hops(first, 1)
            .policy_hop(second, EcnPolicy::RemarkEctToNotEct)
            .transparent_hops(second, 1),
        TransitProfile::MarkAllCe { asn } => builder
            .transparent_hops(asn, 1)
            .policy_hop(asn, EcnPolicy::MarkAllCe),
    };
    builder.transparent_hops(destination_asn, 2).build()
}

/// Build a [`DuplexPath`] whose forward direction follows `profile` and whose
/// reverse direction optionally applies `reverse_profile`.
pub fn build_duplex_path(
    vantage_asn: Asn,
    destination_asn: Asn,
    profile: TransitProfile,
    reverse_profile: TransitProfile,
    v6: bool,
) -> DuplexPath {
    let forward = build_transit_path(vantage_asn, destination_asn, profile, v6);
    let mut reverse = build_transit_path(destination_asn, vantage_asn, reverse_profile, v6);
    // Both directions are numbered from 1 by their builders; mark the
    // reverse ids so a shared queue registered at a forward hop never
    // captures a numerically-colliding reverse hop (see RouterId docs).
    for hop in &mut reverse.hops {
        hop.router.id = hop.router.id.reverse_direction();
    }
    DuplexPath::new(forward, reverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DscpPolicy;
    use qem_packet::ecn::EcnCodepoint;
    use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol, Ipv4Header};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    /// The codepoint an ECT(0) datagram arrives with over `path`.
    fn arrival(path: &Path) -> EcnCodepoint {
        let header = Ipv4Header::new(
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(198, 51, 100, 99),
            IpProtocol::Udp,
            64,
        )
        .with_ecn(EcnCodepoint::Ect0);
        let datagram = IpDatagram::new(IpHeader::V4(header), vec![0; 100]);
        let outcome = path.transit(&datagram, &mut StdRng::seed_from_u64(1));
        outcome.delivered().expect("lossless").0.header.ecn()
    }

    #[test]
    fn well_known_asns() {
        assert_eq!(Asn::ARELION.0, 1299);
        assert_eq!(Asn::COGENT.0, 174);
        assert_eq!(Asn::ARELION.to_string(), "AS1299");
    }

    #[test]
    fn profile_attribution() {
        assert_eq!(TransitProfile::Clean.attributed_asn(), None);
        assert_eq!(
            TransitProfile::Clearing { asn: Asn::ARELION }.attributed_asn(),
            Some(Asn::ARELION)
        );
        assert_eq!(
            TransitProfile::RemarkThenClear {
                first: Asn::ARELION,
                second: Asn::COGENT
            }
            .attributed_asn(),
            Some(Asn::ARELION)
        );
    }

    #[test]
    fn transit_asns_name_the_built_transit_hops() {
        let (vantage, destination) = (Asn(1), Asn(2));
        for profile in [
            TransitProfile::Clean,
            TransitProfile::Clearing { asn: Asn::ARELION },
            TransitProfile::Remarking { asn: Asn::COGENT },
            TransitProfile::RemarkThenClear {
                first: Asn::ARELION,
                second: Asn::COGENT,
            },
            TransitProfile::MarkAllCe { asn: Asn(64699) },
        ] {
            let path = build_transit_path(vantage, destination, profile, false);
            let mut transit: Vec<Asn> = path
                .hops
                .iter()
                .map(|h| h.router.asn)
                .filter(|&asn| asn != vantage && asn != destination)
                .collect();
            transit.dedup();
            assert_eq!(transit, profile.transit_asns().collect::<Vec<_>>());
        }
    }

    #[test]
    fn builder_produces_unique_router_ids() {
        let path = PathBuilder::new()
            .transparent_hops(Asn::DFN, 2)
            .policy_hop(Asn::ARELION, EcnPolicy::ClearEcn)
            .transparent_hops(Asn(13335), 2)
            .build();
        let mut ids: Vec<_> = path.hops.iter().map(|h| h.router.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), path.len());
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn transit_path_shapes_match_profiles() {
        let clean = build_transit_path(Asn::DFN, Asn(16509), TransitProfile::Clean, false);
        assert_eq!(arrival(&clean), EcnCodepoint::Ect0);

        let clearing = build_transit_path(
            Asn::DFN,
            Asn(20473),
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        );
        assert_eq!(arrival(&clearing), EcnCodepoint::NotEct);

        let remarking = build_transit_path(
            Asn::DFN,
            Asn(20473),
            TransitProfile::Remarking { asn: Asn::ARELION },
            false,
        );
        assert_eq!(arrival(&remarking), EcnCodepoint::Ect1);

        let double = build_transit_path(
            Asn::DFN,
            Asn(20473),
            TransitProfile::RemarkThenClear {
                first: Asn::ARELION,
                second: Asn::COGENT,
            },
            false,
        );
        assert_eq!(arrival(&double), EcnCodepoint::NotEct);

        let all_ce = build_transit_path(
            Asn::DFN,
            Asn(20473),
            TransitProfile::MarkAllCe { asn: Asn(64500) },
            false,
        );
        assert_eq!(arrival(&all_ce), EcnCodepoint::Ce);
    }

    #[test]
    fn v6_paths_use_v6_router_addresses() {
        let path = build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clearing { asn: Asn::ARELION },
            true,
        );
        assert!(path.hops.iter().all(|h| h.router.address.is_ipv6()));
    }

    #[test]
    fn duplex_paths_can_differ_per_direction() {
        let duplex = build_duplex_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clearing { asn: Asn::ARELION },
            TransitProfile::Clean,
            false,
        );
        assert_eq!(arrival(&duplex.forward), EcnCodepoint::NotEct);
        assert_eq!(arrival(&duplex.reverse), EcnCodepoint::Ect0);
    }

    #[test]
    fn dscp_reset_hop_is_not_an_ecn_impairment() {
        let reset = Router {
            dscp_policy: DscpPolicy::ResetToBestEffort,
            ..Router::transparent(1, Asn::DFN)
        };
        assert_eq!(
            arrival(&Path::new(vec![Hop::new(reset)])),
            EcnCodepoint::Ect0
        );
    }
}
