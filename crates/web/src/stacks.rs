//! QUIC stack profiles of deployed web servers, including their evolution
//! over the paper's measurement window.
//!
//! The longitudinal story (§5.3) is driven by software releases, not by the
//! network: LiteSpeed's lsquic mirrored ECN in its QUIC-draft-27 builds,
//! stopped when deployments moved to QUIC v1 during 2022, and mirrors again
//! since lsquic 4.0 (March 2023); Google's quiche gained ECN counting in
//! January/March 2023 commits and was observed experimenting.  Each profile
//! therefore maps a [`SnapshotDate`] (plus a per-host random quantile that
//! spreads upgrade times) to a concrete [`ServerBehavior`].

use crate::snapshot::SnapshotDate;
use qem_packet::ecn::EcnCodepoint;
use qem_packet::quic::QuicVersion;
use qem_quic::behavior::{EcnMirroringBehavior, ServerBehavior, Versions};
use qem_quic::transport_params::TransportParameters;

/// The QUIC stack (and configuration) running on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackProfile {
    /// Cloudflare's quiche deployment: QUIC v1, no ECN mirroring.
    CloudflareQuiche,
    /// Fastly's quicly deployment: QUIC v1, no ECN mirroring.
    FastlyQuicly,
    /// Google front-end serving Google's own properties: no ECN mirroring.
    GoogleFrontend,
    /// Google front-end proxying third-party sites (wix.com → `Pepyaka`
    /// server header, `via: 1.1 google`): starts mirroring with the
    /// March 2023 quiche change, but the counters undercount.
    GooglePepyakaProxy,
    /// Google front-end variant that reports arriving ECT(0) in the ECT(1)
    /// counter (the suspected internal-ECN exposure of §7.3), active from the
    /// January 2023 quiche commit onwards.
    GoogleEct1Remark,
    /// LiteSpeed with the ECN flag **off**: mirrors while on draft-27, stops
    /// after the upgrade to v1, mirrors again from lsquic 4.0 (March 2023) —
    /// but loses the counters on the handshake→1-RTT switch (undercount).
    LiteSpeedEcnFlagOff,
    /// LiteSpeed with the ECN flag **on**: same version history, but the
    /// mirrored counters are accurate.
    LiteSpeedEcnFlagOn,
    /// LiteSpeed builds with ECN compiled out entirely: never mirror.
    LiteSpeedNoEcn,
    /// Amazon s2n-quic (CloudFront): accurate mirroring and own ECN use.
    S2nQuic,
    /// nginx-quic and similar stacks without ECN support.
    NginxNoEcn,
    /// Small self-hosted stacks with correct ECN support (Caddy, haproxy-quic
    /// with ECN, picoquic, …).
    GenericAccurate,
}

/// lsquic 4.0 (the release that re-enabled ECN mirroring) shipped March 2023.
const LSQUIC_4_0: SnapshotDate = SnapshotDate::MAR_2023;
/// The Google quiche commit adding ECN counters landed January 2023.
const QUICHE_ECN_COMMIT: SnapshotDate = SnapshotDate::new(2023, 1);
/// The Google proxy started mirroring for proxied domains in March 2023.
const GOOGLE_PROXY_MIRRORING: SnapshotDate = SnapshotDate::MAR_2023;

impl StackProfile {
    /// Transport parameters characteristic of the stack.  Hosts running the
    /// same stack share a fingerprint, which is what lets the pipeline
    /// cluster servers that suppress the `server` header (§5.3).
    pub fn transport_params(self) -> TransportParameters {
        let base = TransportParameters::client_default();
        match self {
            StackProfile::LiteSpeedEcnFlagOff
            | StackProfile::LiteSpeedEcnFlagOn
            | StackProfile::LiteSpeedNoEcn => TransportParameters {
                initial_max_data: 1_572_864,
                initial_max_streams_bidi: 100,
                max_idle_timeout_ms: 30_000,
                max_udp_payload_size: 1472,
                ..base
            },
            StackProfile::GoogleFrontend
            | StackProfile::GooglePepyakaProxy
            | StackProfile::GoogleEct1Remark => TransportParameters {
                initial_max_data: 15_728_640,
                initial_max_streams_bidi: 100,
                max_idle_timeout_ms: 240_000,
                ack_delay_exponent: 3,
                ..base
            },
            StackProfile::CloudflareQuiche => TransportParameters {
                initial_max_data: 10_485_760,
                initial_max_streams_bidi: 256,
                max_idle_timeout_ms: 180_000,
                ..base
            },
            StackProfile::FastlyQuicly => TransportParameters {
                initial_max_data: 16_777_216,
                initial_max_streams_bidi: 128,
                max_ack_delay_ms: 20,
                ..base
            },
            StackProfile::S2nQuic => TransportParameters {
                initial_max_data: 8_388_608,
                initial_max_streams_bidi: 120,
                max_ack_delay_ms: 35,
                ..base
            },
            StackProfile::NginxNoEcn => TransportParameters {
                initial_max_data: 4_194_304,
                initial_max_streams_bidi: 32,
                ..base
            },
            StackProfile::GenericAccurate => TransportParameters {
                initial_max_data: 2_097_152,
                initial_max_streams_bidi: 64,
                max_idle_timeout_ms: 60_000,
                ..base
            },
        }
    }

    /// The HTTP `server` header the stack emits (before the per-host
    /// suppression applied by the universe generator).
    pub fn server_header(self) -> Option<&'static str> {
        match self {
            StackProfile::LiteSpeedEcnFlagOff
            | StackProfile::LiteSpeedEcnFlagOn
            | StackProfile::LiteSpeedNoEcn => Some("LiteSpeed"),
            StackProfile::GooglePepyakaProxy => Some("Pepyaka/4.12"),
            StackProfile::GoogleFrontend | StackProfile::GoogleEct1Remark => Some("gws"),
            StackProfile::CloudflareQuiche => Some("cloudflare"),
            StackProfile::FastlyQuicly => None,
            StackProfile::S2nQuic => Some("CloudFront"),
            StackProfile::NginxNoEcn => Some("nginx/1.25"),
            StackProfile::GenericAccurate => Some("Caddy/2.7"),
        }
    }

    /// The `via` header, if the deployment is a reverse proxy.
    pub fn via_header(self) -> Option<&'static str> {
        match self {
            StackProfile::GooglePepyakaProxy => Some("1.1 google"),
            _ => None,
        }
    }

    /// Whether this is one of the LiteSpeed flavours (used by Figure 3's
    /// per-webserver breakdown and the §7.3 root-cause analysis).
    pub fn is_litespeed(self) -> bool {
        matches!(
            self,
            StackProfile::LiteSpeedEcnFlagOff
                | StackProfile::LiteSpeedEcnFlagOn
                | StackProfile::LiteSpeedNoEcn
        )
    }

    /// The month (as a fraction through the upgrade window) at which a host
    /// with upgrade quantile `u` moves from draft-27 to QUIC v1.
    fn litespeed_upgrade_date(upgrade_quantile: f64) -> SnapshotDate {
        // Upgrades roll out between December 2021 and February 2023, so that
        // roughly half of the eventually-mirroring deployments have already
        // moved to QUIC v1 (and stopped mirroring) by June 2022 — the paper
        // sees 2.2 % mirroring then.  A small tail (quantile > 0.95) never
        // upgrades and still speaks draft-27 in April 2023 (the ~30 k
        // "Mirroring (d27)" residue of Figure 4).
        if upgrade_quantile > 0.95 {
            return SnapshotDate::new(2099, 1);
        }
        let slot = (upgrade_quantile / 0.95 * 15.0).floor() as u32; // 0..=14
        let month_index = 12 + slot; // December 2021 == 12
        if month_index <= 12 {
            SnapshotDate::new(2021, month_index as u8)
        } else if month_index <= 24 {
            SnapshotDate::new(2022, (month_index - 12) as u8)
        } else {
            SnapshotDate::new(2023, (month_index - 24) as u8)
        }
    }

    /// The behaviour of a host running this stack at `date`.
    ///
    /// * `upgrade_quantile` — per-host random value in `[0, 1)` spreading
    ///   version upgrades over the measurement window,
    /// * `uses_ecn` — whether this deployment sets ECN codepoints on its own
    ///   packets (the "Use" column of Tables 1–3),
    /// * `suppress_server_header` — whether the host hides its `server`
    ///   header (those domains show up as "Unknown" in Figure 3 and are
    ///   identified via transport parameters).
    pub fn behavior_at(
        self,
        date: SnapshotDate,
        upgrade_quantile: f64,
        uses_ecn: bool,
        suppress_server_header: bool,
    ) -> ServerBehavior {
        let params = self.transport_params();
        let (versions, mirroring): (&[QuicVersion], _) = match self {
            StackProfile::CloudflareQuiche
            | StackProfile::FastlyQuicly
            | StackProfile::GoogleFrontend
            | StackProfile::NginxNoEcn => (&[QuicVersion::V1], EcnMirroringBehavior::None),
            StackProfile::GooglePepyakaProxy => {
                let mirroring = if date >= GOOGLE_PROXY_MIRRORING {
                    EcnMirroringBehavior::MirrorOnlyHandshake
                } else {
                    EcnMirroringBehavior::None
                };
                (&[QuicVersion::V1], mirroring)
            }
            StackProfile::GoogleEct1Remark => {
                let mirroring = if date >= QUICHE_ECN_COMMIT {
                    EcnMirroringBehavior::MirrorAsEct1
                } else {
                    EcnMirroringBehavior::None
                };
                (&[QuicVersion::V1], mirroring)
            }
            StackProfile::LiteSpeedEcnFlagOff
            | StackProfile::LiteSpeedEcnFlagOn
            | StackProfile::LiteSpeedNoEcn => {
                let upgraded = date >= Self::litespeed_upgrade_date(upgrade_quantile);
                let versions: &[QuicVersion] = if upgraded {
                    &[QuicVersion::V1, QuicVersion::DRAFT_34]
                } else {
                    &[QuicVersion::DRAFT_27]
                };
                let mirrors_now = match self {
                    StackProfile::LiteSpeedNoEcn => false,
                    // Draft-27 builds mirrored; v1 builds only from lsquic 4.0.
                    _ => !upgraded || date >= LSQUIC_4_0,
                };
                let mirroring = if !mirrors_now {
                    EcnMirroringBehavior::None
                } else if self == StackProfile::LiteSpeedEcnFlagOn {
                    EcnMirroringBehavior::Accurate
                } else {
                    EcnMirroringBehavior::MirrorOnlyHandshake
                };
                (versions, mirroring)
            }
            StackProfile::S2nQuic | StackProfile::GenericAccurate => {
                (&[QuicVersion::V1], EcnMirroringBehavior::Accurate)
            }
        };
        let egress = if uses_ecn {
            EcnCodepoint::Ect0
        } else {
            EcnCodepoint::NotEct
        };
        let mut behavior = ServerBehavior {
            supported_versions: Versions::new(versions.iter().copied()),
            mirroring,
            egress_ecn: egress,
            server_header: if suppress_server_header {
                None
            } else {
                self.server_header()
            },
            via_header: self.via_header(),
            transport_params: params,
            serves_http: true,
        };
        // Proxied wix.com sites keep their Pepyaka header even though the
        // transport parameters are Google's.
        if self == StackProfile::GooglePepyakaProxy {
            behavior.transport_params = StackProfile::GoogleFrontend.transport_params();
        }
        behavior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloudflare_never_mirrors() {
        for date in SnapshotDate::longitudinal_range() {
            let b = StackProfile::CloudflareQuiche.behavior_at(date, 0.5, false, false);
            assert_eq!(b.mirroring, EcnMirroringBehavior::None);
        }
    }

    #[test]
    fn litespeed_story_matches_the_paper() {
        let stack = StackProfile::LiteSpeedEcnFlagOff;
        // Before its upgrade a host speaks draft-27 and mirrors.
        let early = stack.behavior_at(SnapshotDate::JUN_2022, 0.5, false, false);
        assert_eq!(
            early.supported_versions,
            Versions::new([QuicVersion::DRAFT_27])
        );
        assert_ne!(early.mirroring, EcnMirroringBehavior::None);
        // After upgrading (before lsquic 4.0) it speaks v1 and stops mirroring.
        let mid = stack.behavior_at(SnapshotDate::FEB_2023, 0.5, false, false);
        assert!(mid.supports_version(QuicVersion::V1));
        assert_eq!(mid.mirroring, EcnMirroringBehavior::None);
        // From March 2023 it mirrors again — but undercounts.
        let late = stack.behavior_at(SnapshotDate::APR_2023, 0.5, false, false);
        assert_eq!(late.mirroring, EcnMirroringBehavior::MirrorOnlyHandshake);
    }

    #[test]
    fn litespeed_holdouts_stay_on_draft_27() {
        let b = StackProfile::LiteSpeedEcnFlagOff.behavior_at(
            SnapshotDate::APR_2023,
            0.99,
            false,
            false,
        );
        assert_eq!(b.supported_versions, Versions::new([QuicVersion::DRAFT_27]));
        assert_ne!(b.mirroring, EcnMirroringBehavior::None);
    }

    #[test]
    fn litespeed_ecn_flag_on_is_accurate() {
        let b =
            StackProfile::LiteSpeedEcnFlagOn.behavior_at(SnapshotDate::APR_2023, 0.1, false, false);
        assert_eq!(b.mirroring, EcnMirroringBehavior::Accurate);
        let off = StackProfile::LiteSpeedEcnFlagOff.behavior_at(
            SnapshotDate::APR_2023,
            0.1,
            false,
            false,
        );
        assert_eq!(off.mirroring, EcnMirroringBehavior::MirrorOnlyHandshake);
    }

    #[test]
    fn google_experiments_start_with_the_commits() {
        let proxy = StackProfile::GooglePepyakaProxy;
        assert_eq!(
            proxy
                .behavior_at(SnapshotDate::FEB_2023, 0.0, false, false)
                .mirroring,
            EcnMirroringBehavior::None
        );
        assert_ne!(
            proxy
                .behavior_at(SnapshotDate::APR_2023, 0.0, false, false)
                .mirroring,
            EcnMirroringBehavior::None
        );
        let remark = StackProfile::GoogleEct1Remark;
        assert_eq!(
            remark
                .behavior_at(SnapshotDate::new(2022, 12), 0.0, false, false)
                .mirroring,
            EcnMirroringBehavior::None
        );
        assert_eq!(
            remark
                .behavior_at(SnapshotDate::APR_2023, 0.0, false, false)
                .mirroring,
            EcnMirroringBehavior::MirrorAsEct1
        );
    }

    #[test]
    fn pepyaka_has_google_transport_params_but_own_header() {
        let b =
            StackProfile::GooglePepyakaProxy.behavior_at(SnapshotDate::APR_2023, 0.0, false, false);
        assert_eq!(
            b.transport_params.fingerprint(),
            StackProfile::GoogleFrontend
                .transport_params()
                .fingerprint()
        );
        assert_eq!(b.server_header, Some("Pepyaka/4.12"));
        assert_eq!(b.via_header, Some("1.1 google"));
    }

    #[test]
    fn unknown_header_litespeed_shares_fingerprint_with_named_litespeed() {
        let named = StackProfile::LiteSpeedEcnFlagOff.behavior_at(
            SnapshotDate::APR_2023,
            0.3,
            false,
            false,
        );
        let unnamed =
            StackProfile::LiteSpeedEcnFlagOff.behavior_at(SnapshotDate::APR_2023, 0.3, false, true);
        assert_eq!(named.server_header, Some("LiteSpeed"));
        assert_eq!(unnamed.server_header, None);
        assert_eq!(
            named.transport_params.fingerprint(),
            unnamed.transport_params.fingerprint()
        );
    }

    #[test]
    fn s2n_quic_uses_and_mirrors() {
        let b = StackProfile::S2nQuic.behavior_at(SnapshotDate::APR_2023, 0.0, true, false);
        assert_eq!(b.mirroring, EcnMirroringBehavior::Accurate);
        assert_eq!(b.egress_ecn, EcnCodepoint::Ect0);
        assert_eq!(b.server_header, Some("CloudFront"));
    }

    #[test]
    fn upgrade_dates_are_monotone_in_the_quantile() {
        let d1 = StackProfile::litespeed_upgrade_date(0.0);
        let d2 = StackProfile::litespeed_upgrade_date(0.5);
        let d3 = StackProfile::litespeed_upgrade_date(0.94);
        assert!(d1 <= d2 && d2 <= d3);
        assert!(d3 <= SnapshotDate::FEB_2023);
    }
}
