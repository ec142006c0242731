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

use qem_netsim::{Asn, Probability};

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
