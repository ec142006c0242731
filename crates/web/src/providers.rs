//! The calibrated hosting-provider landscape.
//!
//! Every number in [`default_landscape`] is taken from (or derived from) the
//! paper's tables for the April 2023 measurement week: Table 2/3 give the
//! per-provider domain counts and their mirroring/use splits, Table 4 the
//! share of domains behind ECN-clearing transit, Tables 5–7 the validation
//! failure classes, Figure 5 the IPv6 coverage and Figure 6 the TCP
//! behaviour.  Counts are expressed at *paper scale* (absolute domain counts)
//! and scaled down by [`UniverseConfig::scale`](crate::universe::UniverseConfig)
//! during generation.
//!
//! The calibration is intentionally explicit, line by line, so that a reader
//! can audit which paper statement each segment encodes.

use crate::stacks::StackProfile;
use qem_netsim::{Asn, TransitProfile};
use qem_tcp::TcpServerBehavior;

/// TCP ECN behaviour classes used by the calibration (Figure 6 vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEcnProfile {
    /// Negotiates, mirrors CE and uses ECN itself (the dominant class).
    FullEcn,
    /// Negotiates and mirrors but never sets codepoints itself.
    MirrorOnly,
    /// Negotiates but never echoes CE.
    NegotiateNoMirror,
    /// Does not negotiate ECN at all.
    NoNegotiation,
}

impl TcpEcnProfile {
    /// Convert to a concrete server behaviour.
    pub fn behavior(self) -> TcpServerBehavior {
        match self {
            TcpEcnProfile::FullEcn => TcpServerBehavior::full_ecn(),
            TcpEcnProfile::MirrorOnly => TcpServerBehavior::mirror_only(),
            TcpEcnProfile::NegotiateNoMirror => TcpServerBehavior::negotiate_without_mirroring(),
            TcpEcnProfile::NoNegotiation => TcpServerBehavior::no_ecn(),
        }
    }
}

/// A homogeneous slice of a provider's QUIC deployment.
#[derive(Debug, Clone)]
pub struct SegmentSpec {
    /// Human-readable label (shows up in diagnostics only).
    pub label: &'static str,
    /// Number of `.com/.net/.org` QUIC domains in this segment (paper scale).
    pub cno_quic_domains: u64,
    /// Number of toplist QUIC domains in this segment (paper scale).
    pub toplist_quic_domains: u64,
    /// The QUIC stack running on these hosts.
    pub stack: StackProfile,
    /// Whether these hosts set ECN codepoints on their own packets ("Use").
    pub uses_ecn: bool,
    /// Forward-path transit behaviour from the main vantage point (IPv4).
    pub transit_v4: TransitProfile,
    /// Forward-path transit behaviour for IPv6 (almost always clean, §6.2).
    pub transit_v6: TransitProfile,
    /// Fraction of the segment's domains that also resolve to IPv6.
    pub ipv6_share: f64,
    /// Domains hosted per IP address (CDN density).
    pub domains_per_ip: u32,
    /// TCP ECN behaviour of these hosts.
    pub tcp: TcpEcnProfile,
    /// Fraction of hosts that suppress the HTTP `server` header.
    pub header_suppressed_share: f64,
}

impl SegmentSpec {
    #[allow(clippy::too_many_arguments)]
    fn new(
        label: &'static str,
        cno: u64,
        top: u64,
        stack: StackProfile,
        uses_ecn: bool,
        transit_v4: TransitProfile,
        ipv6_share: f64,
        domains_per_ip: u32,
        tcp: TcpEcnProfile,
    ) -> Self {
        SegmentSpec {
            label,
            cno_quic_domains: cno,
            toplist_quic_domains: top,
            stack,
            uses_ecn,
            transit_v4,
            transit_v6: TransitProfile::Clean,
            ipv6_share,
            domains_per_ip,
            tcp,
            header_suppressed_share: if stack.is_litespeed() { 0.3 } else { 0.0 },
        }
    }
}

/// A hosting provider / AS organisation.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Organisation name as reported by the as2org mapping.
    pub name: &'static str,
    /// Primary ASN.
    pub asn: Asn,
    /// Additional ASNs operated by the same organisation (merged by as2org).
    pub sibling_asns: Vec<Asn>,
    /// QUIC deployment segments.
    pub segments: Vec<SegmentSpec>,
}

/// A slice of the non-QUIC background population (TCP-only hosts).
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSpec {
    /// `.com/.net/.org` domains (paper scale).
    pub cno_domains: u64,
    /// Toplist domains (paper scale).
    pub toplist_domains: u64,
    /// TCP behaviour.
    pub tcp: TcpEcnProfile,
    /// Domains per IP.
    pub domains_per_ip: u32,
    /// Fraction with IPv6.
    pub ipv6_share: f64,
}

/// The full landscape: QUIC providers, TCP-only background, unresolved mass.
#[derive(Debug, Clone)]
pub struct LandscapeSpec {
    /// QUIC-capable hosting providers.
    pub providers: Vec<ProviderSpec>,
    /// TCP-only reachable domains.
    pub background: Vec<BackgroundSpec>,
    /// `.com/.net/.org` domains that do not resolve at all (paper scale).
    pub cno_unresolved: u64,
    /// Toplist domains that do not resolve (paper scale).
    pub toplist_unresolved: u64,
    /// Fraction of QUIC c/n/o domains that are parked (§5.1: 0.6 %).
    pub parked_share: f64,
}

/// Build the landscape calibrated to the paper's April 2023 numbers.
pub fn default_landscape() -> LandscapeSpec {
    use StackProfile::*;
    use TcpEcnProfile::*;
    use TransitProfile::*;

    let arelion_clear = Clearing { asn: Asn::ARELION };
    let arelion_remark = Remarking { asn: Asn::ARELION };
    let arelion_cogent = RemarkThenClear {
        first: Asn::ARELION,
        second: Asn::COGENT,
    };

    let providers = vec![
        // Table 2 rank 1: 8.08 M domains, no mirroring, no use; Table 4: no
        // path clearing; Figure 6: full TCP ECN; Figure 5: the bulk of IPv6.
        ProviderSpec {
            name: "Cloudflare",
            asn: Asn(13335),
            sibling_asns: vec![Asn(209242)],
            segments: vec![SegmentSpec::new(
                "cdn",
                8_080_000,
                352_480,
                CloudflareQuiche,
                false,
                Clean,
                0.62,
                90,
                FullEcn,
            )],
        },
        // Table 2 rank 2.  Most domains are Google's own services (no
        // mirroring, TCP ECN not negotiated); the mirroring share is the
        // proxied wix.com population (undercount) plus the ECT(1) experiment.
        ProviderSpec {
            name: "Google",
            asn: Asn(15169),
            sibling_asns: vec![Asn(396982)],
            segments: vec![
                SegmentSpec::new(
                    "own-services",
                    5_500_000,
                    65_800,
                    GoogleFrontend,
                    false,
                    Clean,
                    0.12,
                    90,
                    NoNegotiation,
                ),
                SegmentSpec::new(
                    "wix-proxy",
                    121_400,
                    50,
                    GooglePepyakaProxy,
                    false,
                    Clean,
                    0.20,
                    28,
                    MirrorOnly,
                ),
                SegmentSpec::new(
                    "ect1-experiment",
                    24_500,
                    0,
                    GoogleEct1Remark,
                    false,
                    Clean,
                    0.70,
                    16,
                    MirrorOnly,
                ),
            ],
        },
        // Table 2 rank 3; Tables 4/6: most domains clean-path without
        // mirroring, ~80 k undercount (LiteSpeed ECN flag off), ~31 k behind
        // Arelion re-marking, ~20 k behind Arelion clearing.
        ProviderSpec {
            name: "Hostinger",
            asn: Asn(47583),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "no-ecn",
                    962_950,
                    9_600,
                    LiteSpeedNoEcn,
                    false,
                    Clean,
                    0.03,
                    85,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "undercount",
                    80_000,
                    1_120,
                    LiteSpeedEcnFlagOff,
                    true,
                    Clean,
                    0.20,
                    28,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "remarked-path",
                    31_140,
                    300,
                    LiteSpeedEcnFlagOff,
                    false,
                    arelion_remark,
                    0.0,
                    16,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "cleared-path",
                    20_050,
                    400,
                    LiteSpeedEcnFlagOn,
                    false,
                    arelion_clear,
                    0.0,
                    43,
                    FullEcn,
                ),
            ],
        },
        // Table 2 rank 4.
        ProviderSpec {
            name: "Fastly",
            asn: Asn(54113),
            sibling_asns: vec![],
            segments: vec![SegmentSpec::new(
                "cdn",
                242_600,
                12_290,
                FastlyQuicly,
                false,
                Clean,
                0.50,
                90,
                FullEcn,
            )],
        },
        // Table 2 rank 5; Table 6: 44 k undercount + 4.7 k capable.
        ProviderSpec {
            name: "OVH SAS",
            asn: Asn(16276),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "no-ecn", 103_500, 800, NginxNoEcn, false, Clean, 0.10, 60, FullEcn,
                ),
                SegmentSpec::new(
                    "undercount",
                    44_260,
                    200,
                    LiteSpeedEcnFlagOff,
                    true,
                    Clean,
                    0.05,
                    28,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "capable",
                    4_690,
                    100,
                    LiteSpeedEcnFlagOn,
                    false,
                    Clean,
                    0.30,
                    8,
                    FullEcn,
                ),
            ],
        },
        // Table 2 rank 6; Table 4: 58 % of its domains behind cleared paths
        // (which still *use* ECN on the reverse direction), Table 6: 49 k
        // re-marked.
        ProviderSpec {
            name: "A2 Hosting",
            asn: Asn(55293),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "cleared-use",
                    78_980,
                    900,
                    LiteSpeedEcnFlagOn,
                    true,
                    arelion_clear,
                    0.0,
                    43,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "remarked-path",
                    48_990,
                    760,
                    LiteSpeedEcnFlagOff,
                    false,
                    arelion_remark,
                    0.0,
                    16,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "clean-no-ecn",
                    5_830,
                    770,
                    LiteSpeedNoEcn,
                    false,
                    Clean,
                    0.0,
                    60,
                    FullEcn,
                ),
            ],
        },
        // Table 2 rank 7; Table 6: almost everything undercounts.
        ProviderSpec {
            name: "SingleHop",
            asn: Asn(32475),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "undercount",
                    113_340,
                    1_200,
                    LiteSpeedEcnFlagOff,
                    true,
                    Clean,
                    0.0,
                    28,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "capable",
                    1_080,
                    60,
                    LiteSpeedEcnFlagOn,
                    true,
                    Clean,
                    0.0,
                    8,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "no-ecn",
                    13_790,
                    200,
                    LiteSpeedNoEcn,
                    false,
                    Clean,
                    0.0,
                    60,
                    FullEcn,
                ),
            ],
        },
        // Table 2 rank 8; Table 4: 100 % of tested domains behind cleared
        // paths since the December 2022 route change onto Arelion; about half
        // still visibly use ECN themselves.
        ProviderSpec {
            name: "Server Central",
            asn: Asn(23352),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "cleared-use",
                    40_440,
                    150,
                    LiteSpeedEcnFlagOn,
                    true,
                    arelion_clear,
                    0.0,
                    43,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "cleared-no-use",
                    46_510,
                    150,
                    LiteSpeedEcnFlagOn,
                    false,
                    arelion_clear,
                    0.0,
                    43,
                    FullEcn,
                ),
            ],
        },
        // Table 3 rank 5 / Table 6 capable rank 1: CloudFront with s2n-quic.
        ProviderSpec {
            name: "Amazon",
            asn: Asn(16509),
            sibling_asns: vec![Asn(14618)],
            segments: vec![
                SegmentSpec::new(
                    "cloudfront",
                    19_990,
                    3_190,
                    S2nQuic,
                    true,
                    Clean,
                    0.25,
                    8,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "other-aws",
                    40_000,
                    120,
                    NginxNoEcn,
                    false,
                    Clean,
                    0.20,
                    40,
                    FullEcn,
                ),
            ],
        },
        // Table 6 capable rank 3.
        ProviderSpec {
            name: "Hetzner",
            asn: Asn(24940),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "capable",
                    2_480,
                    80,
                    GenericAccurate,
                    true,
                    Clean,
                    0.40,
                    8,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "no-ecn", 25_000, 400, NginxNoEcn, false, Clean, 0.30, 40, FullEcn,
                ),
            ],
        },
        // Table 6 capable rank 4.
        ProviderSpec {
            name: "PrivateSystems",
            asn: Asn(63410),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "capable",
                    1_530,
                    20,
                    GenericAccurate,
                    true,
                    Clean,
                    0.20,
                    8,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "no-ecn", 3_000, 20, NginxNoEcn, false, Clean, 0.10, 40, FullEcn,
                ),
            ],
        },
        // Table 3 rank 16 / Table 6 undercount rank 5.
        ProviderSpec {
            name: "Interserver",
            asn: Asn(19318),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "undercount",
                    38_570,
                    911,
                    LiteSpeedEcnFlagOff,
                    true,
                    Clean,
                    0.0,
                    28,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "no-ecn",
                    11_000,
                    220,
                    LiteSpeedNoEcn,
                    false,
                    Clean,
                    0.0,
                    60,
                    FullEcn,
                ),
            ],
        },
        // Table 6 re-marking rank 2.
        ProviderSpec {
            name: "Raiola Networks",
            asn: Asn(203118),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "remarked-path",
                    32_380,
                    150,
                    LiteSpeedEcnFlagOff,
                    false,
                    arelion_remark,
                    0.0,
                    16,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "no-ecn",
                    6_000,
                    50,
                    LiteSpeedNoEcn,
                    false,
                    Clean,
                    0.0,
                    60,
                    FullEcn,
                ),
            ],
        },
        // Table 6 re-marking rank 5; the double rewrite (§7.3) is seen here.
        ProviderSpec {
            name: "Steadfast",
            asn: Asn(32354),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "remarked-path",
                    13_270,
                    40,
                    LiteSpeedEcnFlagOff,
                    false,
                    arelion_cogent,
                    0.0,
                    16,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "no-ecn", 5_000, 30, NginxNoEcn, false, Clean, 0.0, 40, FullEcn,
                ),
            ],
        },
        // Table 4: Contabo and Sharktech are mostly behind cleared paths.
        ProviderSpec {
            name: "Contabo",
            asn: Asn(51167),
            sibling_asns: vec![],
            segments: vec![
                SegmentSpec::new(
                    "cleared-path",
                    17_250,
                    60,
                    LiteSpeedEcnFlagOn,
                    false,
                    arelion_clear,
                    0.0,
                    43,
                    FullEcn,
                ),
                SegmentSpec::new(
                    "clean-no-ecn",
                    930,
                    20,
                    NginxNoEcn,
                    false,
                    Clean,
                    0.0,
                    40,
                    FullEcn,
                ),
            ],
        },
        ProviderSpec {
            name: "Sharktech",
            asn: Asn(46844),
            sibling_asns: vec![],
            segments: vec![SegmentSpec::new(
                "cleared-path",
                16_970,
                30,
                GenericAccurate,
                false,
                arelion_clear,
                0.0,
                43,
                FullEcn,
            )],
        },
    ];

    // The long tail ("<other>" rows of Tables 2–6): 1.5 M QUIC domains spread
    // over many small hosters, each individually smaller than the top-8
    // providers so that the per-provider tables aggregate them into "<other>"
    // exactly as the paper does, while the per-class totals of Table 5 still
    // come out (undercount 233 k, re-marking 151 k, capable 8 k, cleared 110 k).
    const LONG_TAIL_NAMES: [&str; 12] = [
        "NovaHost",
        "BlueRack Hosting",
        "Webspace24",
        "Krystal Cloud",
        "HostPoint",
        "ServerMania",
        "Infomaniak",
        "Loopia",
        "WebSupport",
        "One.com Group",
        "Combell",
        "Zomro",
    ];
    let mut providers = providers;
    let tail = LONG_TAIL_NAMES.len() as u64;
    for (i, name) in LONG_TAIL_NAMES.iter().enumerate() {
        // Toplist presence of the tail is concentrated on the first entry so
        // that rounding at small scales does not inflate the (tiny) toplist
        // mirroring share the paper reports.
        let top = if i == 0 { 1 } else { 0 };
        let mut segments = vec![
            SegmentSpec::new(
                "undercount",
                232_980 / tail,
                4_000 * top,
                LiteSpeedEcnFlagOff,
                true,
                Clean,
                0.10,
                28,
                FullEcn,
            ),
            SegmentSpec::new(
                "remarked-path",
                151_450 / tail,
                3_000 * top,
                LiteSpeedEcnFlagOff,
                false,
                arelion_remark,
                0.0,
                16,
                FullEcn,
            ),
            SegmentSpec::new(
                "capable",
                8_350 / tail,
                2_500 * top,
                GenericAccurate,
                true,
                Clean,
                0.20,
                8,
                FullEcn,
            ),
            SegmentSpec::new(
                "cleared-path",
                110_050 / tail,
                500 * top,
                LiteSpeedEcnFlagOn,
                true,
                arelion_clear,
                0.0,
                43,
                FullEcn,
            ),
            SegmentSpec::new(
                "no-ecn",
                999_746 / tail,
                62_909 / tail,
                NginxNoEcn,
                false,
                Clean,
                0.05,
                60,
                FullEcn,
            ),
        ];
        if i == 0 {
            // The four "All CE" domains of Table 5 sit behind a single
            // pathological device.
            segments.push(SegmentSpec::new(
                "all-ce",
                4,
                0,
                GenericAccurate,
                false,
                TransitProfile::MarkAllCe { asn: Asn(64699) },
                0.0,
                2,
                FullEcn,
            ));
        }
        providers.push(ProviderSpec {
            name,
            asn: Asn(64600 + i as u32),
            sibling_asns: vec![],
            segments,
        });
    }

    // Figure 6 background: domains reachable via TCP but not QUIC.  The
    // fractions reproduce the TCP-side split (negotiation ≈ 80 %, of which
    // most mirror and use ECN).
    let background = vec![
        BackgroundSpec {
            cno_domains: 86_700_000,
            toplist_domains: 860_000,
            tcp: TcpEcnProfile::FullEcn,
            domains_per_ip: 16,
            ipv6_share: 0.15,
        },
        BackgroundSpec {
            cno_domains: 12_800_000,
            toplist_domains: 130_000,
            tcp: TcpEcnProfile::MirrorOnly,
            domains_per_ip: 16,
            ipv6_share: 0.10,
        },
        BackgroundSpec {
            cno_domains: 14_200_000,
            toplist_domains: 140_000,
            tcp: TcpEcnProfile::NegotiateNoMirror,
            domains_per_ip: 16,
            ipv6_share: 0.10,
        },
        BackgroundSpec {
            cno_domains: 28_400_000,
            toplist_domains: 284_420,
            tcp: TcpEcnProfile::NoNegotiation,
            domains_per_ip: 16,
            ipv6_share: 0.10,
        },
    ];

    LandscapeSpec {
        providers,
        background,
        cno_unresolved: 23_880_000,
        toplist_unresolved: 780_000,
        parked_share: 0.006,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` summed over every segment of the landscape, at paper scale.
    fn total(landscape: &LandscapeSpec, count: fn(&SegmentSpec) -> u64) -> u64 {
        landscape
            .providers
            .iter()
            .flat_map(|p| &p.segments)
            .map(count)
            .sum()
    }

    #[test]
    fn quic_totals_match_the_paper_within_tolerance() {
        let landscape = default_landscape();
        let cno = total(&landscape, |s| s.cno_quic_domains);
        let top = total(&landscape, |s| s.toplist_quic_domains);
        // Paper: 17.30 M c/n/o QUIC domains, 525.58 k toplist QUIC domains.
        assert!((16_900_000..=17_700_000).contains(&cno), "cno = {cno}");
        assert!((500_000..=545_000).contains(&top), "top = {top}");
    }

    #[test]
    fn cloudflare_and_google_dominate() {
        let landscape = default_landscape();
        let count = |name: &str| -> u64 {
            landscape
                .providers
                .iter()
                .find(|p| p.name == name)
                .unwrap()
                .segments
                .iter()
                .map(|s| s.cno_quic_domains)
                .sum()
        };
        assert!(count("Cloudflare") > count("Google"));
        assert!(count("Google") > count("Hostinger"));
        assert!(count("Hostinger") > count("Fastly"));
    }

    #[test]
    fn mirroring_share_is_a_small_minority() {
        let landscape = default_landscape();
        let total = total(&landscape, |s| s.cno_quic_domains) as f64;
        let mirroring: u64 = landscape
            .providers
            .iter()
            .flat_map(|p| &p.segments)
            .filter(|s| {
                // A segment nominally mirrors if its stack mirrors in April 2023
                // and the forward path does not clear the codepoints.
                let b = s.stack.behavior_at(
                    crate::snapshot::SnapshotDate::APR_2023,
                    0.5,
                    s.uses_ecn,
                    false,
                );
                b.mirroring != qem_quic::behavior::EcnMirroringBehavior::None
                    && !matches!(s.transit_v4, TransitProfile::Clearing { .. })
                    && !matches!(s.transit_v4, TransitProfile::RemarkThenClear { .. })
            })
            .map(|s| s.cno_quic_domains)
            .sum();
        let share = mirroring as f64 / total;
        // Paper: 5.6 % of c/n/o QUIC domains mirror.
        assert!((0.04..=0.08).contains(&share), "share = {share}");
    }

    #[test]
    fn tcp_profiles_map_to_behaviours() {
        assert!(TcpEcnProfile::FullEcn.behavior().negotiate_ecn);
        assert!(!TcpEcnProfile::NoNegotiation.behavior().negotiate_ecn);
        assert!(!TcpEcnProfile::NegotiateNoMirror.behavior().mirror_ce);
        assert!(TcpEcnProfile::MirrorOnly.behavior().mirror_ce);
    }

    #[test]
    fn arelion_is_the_impairing_transit() {
        let landscape = default_landscape();
        for provider in &landscape.providers {
            for segment in &provider.segments {
                if let Some(asn) = segment.transit_v4.attributed_asn() {
                    if !matches!(segment.transit_v4, TransitProfile::MarkAllCe { .. }) {
                        assert_eq!(asn, Asn::ARELION, "segment {}", segment.label);
                    }
                }
            }
        }
    }
}
