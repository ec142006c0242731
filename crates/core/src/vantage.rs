//! Vantage points: the main measurement host in Aachen and the distributed
//! cloud instances of §4.3 / §8.
//!
//! A vantage point determines which AS the forward path starts in and which
//! local peculiarities apply.  The peculiarities are part of the *simulated
//! world*, not of the pipeline: they reproduce the observations the paper
//! makes about specific locations (the wix.com infrastructure switch that
//! made 5 M domains unreachable from Hawaii and San Francisco, the Google
//! ECN experiments visible from India, and the re-marking hotspot seen from
//! Santiago de Chile).
//!
//! This module is the world side of `qem-core`, and the only file of the
//! crate that reads a host's ground truth (its stack, transit and TCP
//! profile): `VantagePoint::encounter` decides what a probe from here
//! meets at a host, and the scanner reads only what comes back from the
//! probes it runs against that.  The `observation-boundary` lint rule holds
//! every other file of the crate to this.

use qem_netsim::{build_duplex_path, Asn, DuplexPath, Probability, TransitProfile};
use qem_quic::behavior::{EcnMirroringBehavior, ServerBehavior};
use qem_tcp::TcpServerBehavior;
use qem_web::{Host, SnapshotDate, StackProfile};
use rand::RngCore;
use std::net::IpAddr;

/// Which platform hosts the vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloudProvider {
    /// The university vantage point (RWTH Aachen, upstream DFN).
    Main,
    /// Amazon Web Services.
    Aws,
    /// Vultr.
    Vultr,
}

impl CloudProvider {
    /// Label used in Figure 7 ("M", "A", "V").
    pub fn marker(self) -> char {
        match self {
            CloudProvider::Main => 'M',
            CloudProvider::Aws => 'A',
            CloudProvider::Vultr => 'V',
        }
    }
}

/// Location-specific measurement peculiarities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VantageQuirks {
    /// Heavy-hitter IPs (the wix.com infrastructure) do not answer QUIC from
    /// this location (§8: Hawaii and San Francisco).
    pub wix_unreachable: bool,
    /// Google hosts mirror every packet as CE and undercount more broadly
    /// (§8: the India anomaly).
    pub google_ce_anomaly: bool,
    /// Probability that an otherwise clean IPv4 path shows ECT(0)→ECT(1)
    /// re-marking from this location (§8: Santiago de Chile, AWS Frankfurt).
    pub extra_remark_probability: Probability,
    /// Probability that a path that re-marks from the main vantage point is
    /// clean from here (§8: Vultr Frankfurt sees almost no re-marking).
    pub remark_suppression_probability: Probability,
}

/// A measurement vantage point.
#[derive(Debug, Clone, PartialEq)]
pub struct VantagePoint {
    /// Human-readable location.
    pub name: String,
    /// Hosting platform.
    pub provider: CloudProvider,
    /// The AS the vantage point's traffic originates from.
    pub asn: Asn,
    /// Location-specific peculiarities.
    pub quirks: VantageQuirks,
}

/// What a probe from one vantage point meets at one host on one date, in
/// one address family.
#[derive(Debug)]
pub(crate) struct Encounter {
    /// The host's address in the family.
    pub(crate) addr: IpAddr,
    /// The QUIC server after the location quirks; `None` when nothing
    /// answers QUIC from here.
    pub(crate) quic: Option<ServerBehavior>,
    /// The TCP server.
    pub(crate) tcp: TcpServerBehavior,
    /// The route to the host.
    pub(crate) route: RouteKey,
}

/// Everything a route depends on that varies per host: the host's AS, the
/// transit after the vantage quirks, and the address family.  Equal keys
/// build equal paths from one vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteKey {
    asn: Asn,
    transit: TransitProfile,
    v6: bool,
}

impl RouteKey {
    /// The duplex path from a vantage point in `vantage_asn`: the transit on
    /// the forward direction, a clean reverse (the study can only observe —
    /// and the paper only reports — forward-path impairments).
    pub(crate) fn path(self, vantage_asn: Asn) -> DuplexPath {
        build_duplex_path(
            vantage_asn,
            self.asn,
            self.transit,
            TransitProfile::Clean,
            self.v6,
        )
    }
}

impl VantagePoint {
    /// The main vantage point in Aachen (upstream: DFN, AS 680).
    pub fn main() -> Self {
        VantagePoint {
            name: "Aachen (main)".to_string(),
            provider: CloudProvider::Main,
            asn: Asn::DFN,
            quirks: VantageQuirks::default(),
        }
    }

    fn cloud(name: &str, provider: CloudProvider, quirks: VantageQuirks) -> Self {
        let asn = match provider {
            CloudProvider::Main => Asn::DFN,
            CloudProvider::Aws => Asn(16509),
            CloudProvider::Vultr => Asn::VULTR,
        };
        VantagePoint {
            name: name.to_string(),
            provider,
            asn,
            quirks,
        }
    }

    /// The 16 distributed cloud vantage points of Figure 7.
    pub fn cloud_fleet() -> Vec<VantagePoint> {
        let plain = VantageQuirks::default();
        vec![
            VantagePoint::cloud(
                "AWS Frankfurt",
                CloudProvider::Aws,
                VantageQuirks {
                    extra_remark_probability: Probability::new(0.02),
                    ..plain
                },
            ),
            VantagePoint::cloud("AWS N. Virginia", CloudProvider::Aws, plain),
            VantagePoint::cloud("AWS Oregon", CloudProvider::Aws, plain),
            VantagePoint::cloud(
                "AWS Mumbai",
                CloudProvider::Aws,
                VantageQuirks {
                    google_ce_anomaly: true,
                    ..plain
                },
            ),
            VantagePoint::cloud("AWS Tokyo", CloudProvider::Aws, plain),
            VantagePoint::cloud(
                "AWS Sao Paulo",
                CloudProvider::Aws,
                VantageQuirks {
                    extra_remark_probability: Probability::new(0.01),
                    ..plain
                },
            ),
            VantagePoint::cloud("AWS Sydney", CloudProvider::Aws, plain),
            VantagePoint::cloud(
                "Vultr Frankfurt",
                CloudProvider::Vultr,
                VantageQuirks {
                    remark_suppression_probability: Probability::new(0.9),
                    ..plain
                },
            ),
            VantagePoint::cloud("Vultr Amsterdam", CloudProvider::Vultr, plain),
            VantagePoint::cloud("Vultr London", CloudProvider::Vultr, plain),
            VantagePoint::cloud("Vultr New Jersey", CloudProvider::Vultr, plain),
            VantagePoint::cloud("Vultr Chicago", CloudProvider::Vultr, plain),
            VantagePoint::cloud(
                "Vultr Silicon Valley",
                CloudProvider::Vultr,
                VantageQuirks {
                    wix_unreachable: true,
                    ..plain
                },
            ),
            VantagePoint::cloud(
                "Vultr Honolulu",
                CloudProvider::Vultr,
                VantageQuirks {
                    wix_unreachable: true,
                    ..plain
                },
            ),
            VantagePoint::cloud(
                "Vultr Santiago",
                CloudProvider::Vultr,
                VantageQuirks {
                    extra_remark_probability: Probability::new(0.05),
                    ..plain
                },
            ),
            VantagePoint::cloud("Vultr Tokyo", CloudProvider::Vultr, plain),
        ]
    }

    /// What a probe from here meets at `host` on `date`, over IPv6 if `v6`:
    /// `None` when the host has no address in the family, before any draw.
    /// The transit quirks draw from `rng`, the host's own RNG: on IPv4 only,
    /// one draw for a clean transit at a non-zero re-mark probability or a
    /// re-marking one at a non-zero suppression probability, else none.
    pub(crate) fn encounter<R: RngCore>(
        &self,
        host: &Host,
        date: SnapshotDate,
        v6: bool,
        rng: &mut R,
    ) -> Option<Encounter> {
        let addr = host.addr(v6)?;
        let quirks = &self.quirks;
        let mut transit = if v6 { host.transit_v6 } else { host.transit_v4 };
        if !v6 {
            match transit {
                TransitProfile::Clean if quirks.extra_remark_probability.draw_unless_zero(rng) => {
                    transit = TransitProfile::Remarking { asn: Asn::ARELION };
                }
                TransitProfile::Remarking { .. }
                    if quirks.remark_suppression_probability.draw_unless_zero(rng) =>
                {
                    transit = TransitProfile::Clean;
                }
                _ => {}
            }
        }
        let quic = host.quic_behavior_at(date).and_then(|mut behavior| {
            if quirks.wix_unreachable && host.stack == Some(StackProfile::GooglePepyakaProxy) {
                return None;
            }
            if quirks.google_ce_anomaly
                && matches!(
                    host.stack,
                    Some(
                        StackProfile::GoogleFrontend
                            | StackProfile::GooglePepyakaProxy
                            | StackProfile::GoogleEct1Remark
                    )
                )
            {
                behavior.mirroring = if host.id % 3 == 0 {
                    EcnMirroringBehavior::AlwaysCe
                } else {
                    EcnMirroringBehavior::MirrorOnlyHandshake
                };
            }
            Some(behavior)
        });
        Some(Encounter {
            addr,
            quic,
            tcp: host.tcp_profile.behavior(),
            route: RouteKey {
                asn: host.asn,
                transit,
                v6,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_web::{Universe, UniverseConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An RNG that counts what is drawn from it: `StdRng` draws everything
    /// through `next_u64`, as `RngCore`'s other methods do.
    struct Counting {
        rng: StdRng,
        draws: usize,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.rng.next_u64()
        }
    }

    #[test]
    fn an_encounter_draws_what_the_quirks_name_and_nothing_else() {
        let universe = Universe::generate(&UniverseConfig::tiny());
        let date = SnapshotDate::APR_2023;
        let (mut no_address, mut quirk_draws, mut wix_lost) = (0, 0, 0);
        for vantage in [VantagePoint::main()]
            .into_iter()
            .chain(VantagePoint::cloud_fleet())
        {
            let quirks = vantage.quirks;
            for host in &universe.hosts {
                for v6 in [false, true] {
                    let mut rng = Counting {
                        rng: StdRng::seed_from_u64(host.id as u64),
                        draws: 0,
                    };
                    let encounter = vantage.encounter(host, date, v6, &mut rng);
                    let Some(encounter) = encounter else {
                        assert_eq!(host.addr(v6), None);
                        assert_eq!(rng.draws, 0, "a host with no address draws nothing");
                        no_address += 1;
                        continue;
                    };
                    assert_eq!(Some(encounter.addr), host.addr(v6));
                    assert_eq!(encounter.tcp, host.tcp_profile.behavior());
                    let draws = match (v6, host.transit_v4) {
                        (false, TransitProfile::Clean) => {
                            usize::from(quirks.extra_remark_probability.get() > 0.0)
                        }
                        (false, TransitProfile::Remarking { .. }) => {
                            usize::from(quirks.remark_suppression_probability.get() > 0.0)
                        }
                        _ => 0,
                    };
                    assert_eq!(
                        rng.draws, draws,
                        "{} host {} v6={v6}",
                        vantage.name, host.id
                    );
                    quirk_draws += draws;

                    let lost = quirks.wix_unreachable
                        && host.stack == Some(StackProfile::GooglePepyakaProxy)
                        && host.quic_behavior_at(date).is_some();
                    wix_lost += usize::from(lost);
                    if !quirks.google_ce_anomaly {
                        let expected = host.quic_behavior_at(date).filter(|_| !lost);
                        assert_eq!(encounter.quic, expected, "{}", vantage.name);
                    }
                    if vantage == VantagePoint::main() {
                        assert_eq!(rng.draws, 0);
                        let transit = if v6 { host.transit_v6 } else { host.transit_v4 };
                        assert_eq!(
                            encounter.route.path(vantage.asn),
                            build_duplex_path(
                                vantage.asn,
                                host.asn,
                                transit,
                                TransitProfile::Clean,
                                v6
                            )
                        );
                    }
                }
            }
        }
        // Every case above is met: hosts without IPv6, quirk draws, and
        // heavy hitters unreachable from the western US.
        assert!(no_address > 0 && quirk_draws > 0 && wix_lost > 0);
    }

    #[test]
    fn fleet_has_sixteen_locations() {
        let fleet = VantagePoint::cloud_fleet();
        assert_eq!(fleet.len(), 16);
        assert!(fleet.iter().any(|v| v.provider == CloudProvider::Aws));
        assert!(fleet.iter().any(|v| v.provider == CloudProvider::Vultr));
        // Names are unique.
        let mut names: Vec<_> = fleet.iter().map(|v| v.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn main_vantage_sits_in_dfn() {
        let main = VantagePoint::main();
        assert_eq!(main.asn, Asn::DFN);
        assert_eq!(main.provider.marker(), 'M');
        assert!(!main.quirks.wix_unreachable);
    }

    #[test]
    fn western_us_instances_lose_the_wix_heavy_hitters() {
        let fleet = VantagePoint::cloud_fleet();
        let affected: Vec<_> = fleet.iter().filter(|v| v.quirks.wix_unreachable).collect();
        assert_eq!(affected.len(), 2);
        assert!(affected.iter().all(|v| v.provider == CloudProvider::Vultr));
    }

    #[test]
    fn india_sees_the_google_anomaly() {
        let fleet = VantagePoint::cloud_fleet();
        assert!(fleet
            .iter()
            .any(|v| v.name.contains("Mumbai") && v.quirks.google_ce_anomaly));
    }
}
