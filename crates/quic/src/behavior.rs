//! Server-side ECN behaviour profiles.
//!
//! The paper never sees server source code; it diagnoses deployed stacks from
//! their on-the-wire behaviour.  This module models exactly those observable
//! behaviours, so the synthetic web landscape (`qem-web`) can attach a
//! profile to every hosting provider and the measurement pipeline recovers
//! the paper's numbers from first principles:
//!
//! * stacks that never put ECN counts in their ACKs (Cloudflare quiche,
//!   Fastly quicly, Google's own services in most weeks),
//! * stacks that mirror correctly (Amazon s2n-quic, LiteSpeed ≥ 4.0 with the
//!   ECN flag on),
//! * the LiteSpeed configuration that mirrors during the handshake but loses
//!   the counters on the switch to the 1-RTT packet number space (§7.3),
//! * stacks that report `ECT(0)` arrivals in the `ECT(1)` counter (the
//!   client-visible equivalent of Google's suspected internal ECT(1)
//!   exposure, §7.3),
//! * stacks that mark everything CE (the Google-in-India anomaly, §8).
//!
//! A profile owns no heap — its headers are `&'static str`, its versions an
//! inline list — so a scanner hands a copy to every probe without
//! allocating.

use crate::transport_params::TransportParameters;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::QuicVersion;

/// How a server reports ECN counters in its ACK frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcnMirroringBehavior {
    /// Never include ECN counts (plain ACK frames only).
    None,
    /// Report the counters it actually observed, per packet number space.
    Accurate,
    /// Report accurate counters in the Initial and Handshake spaces but a
    /// frozen (all-zero) counter set in the application space: the lsquic
    /// "ECN flag disabled" bug of §7.3 that surfaces as *undercounting*.
    MirrorOnlyHandshake,
    /// Report every observed ECT(0) packet in the ECT(1) counter (codepoint
    /// mix-up / internal re-marking), surfacing as *re-marking ECT(1)*.
    MirrorAsEct1,
    /// Report every observed ECT/CE packet as CE (the "All CE" class).
    AlwaysCe,
}

impl EcnMirroringBehavior {
    /// Transform the counters a server actually observed in a given packet
    /// number space into the counters it will report.
    ///
    /// `is_application_space` selects the buggy branch of
    /// [`MirrorOnlyHandshake`](EcnMirroringBehavior::MirrorOnlyHandshake).
    pub fn report(self, observed: EcnCounts, is_application_space: bool) -> Option<EcnCounts> {
        match self {
            EcnMirroringBehavior::None => None,
            EcnMirroringBehavior::Accurate => Some(observed),
            EcnMirroringBehavior::MirrorOnlyHandshake => {
                if is_application_space {
                    Some(EcnCounts::ZERO)
                } else {
                    Some(observed)
                }
            }
            EcnMirroringBehavior::MirrorAsEct1 => Some(EcnCounts {
                ect0: 0,
                ect1: observed.ect1 + observed.ect0,
                ce: observed.ce,
            }),
            EcnMirroringBehavior::AlwaysCe => Some(EcnCounts {
                ect0: 0,
                ect1: 0,
                ce: observed.total(),
            }),
        }
    }
}

/// The QUIC versions a server accepts, in its order, held inline: the first
/// eight of what it is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Versions([Option<QuicVersion>; 8]);

impl Versions {
    /// The first eight of `versions`.
    pub fn new(versions: impl IntoIterator<Item = QuicVersion>) -> Self {
        let mut list = [None; 8];
        for (slot, version) in list.iter_mut().zip(versions) {
            *slot = Some(version);
        }
        Versions(list)
    }

    /// The versions, in order.
    pub fn iter(&self) -> impl Iterator<Item = QuicVersion> + '_ {
        self.0.iter().flatten().copied()
    }
}

/// Complete behavioural description of a simulated QUIC server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerBehavior {
    /// QUIC versions the server accepts; anything else triggers version
    /// negotiation.
    pub supported_versions: Versions,
    /// ECN mirroring behaviour.
    pub mirroring: EcnMirroringBehavior,
    /// The codepoint the server sets on its own outgoing packets
    /// (`NotEct` if the server does not *use* ECN).
    pub egress_ecn: EcnCodepoint,
    /// Value of the HTTP `server` header (`None` = header suppressed).
    pub server_header: Option<&'static str>,
    /// Value of the HTTP `via` header (set by reverse proxies).
    pub via_header: Option<&'static str>,
    /// Transport parameters advertised in the handshake (fingerprinted by the
    /// measurement pipeline to identify stacks without a `server` header).
    pub transport_params: TransportParameters,
    /// Whether the server answers HTTP requests at all (a handful of hosts
    /// complete the QUIC handshake but never deliver a response).
    pub serves_http: bool,
}

impl ServerBehavior {
    /// A well-behaved server: QUIC v1, accurate mirroring, no ECN use of its own.
    pub fn accurate() -> Self {
        ServerBehavior {
            supported_versions: Versions::new([QuicVersion::V1]),
            mirroring: EcnMirroringBehavior::Accurate,
            egress_ecn: EcnCodepoint::NotEct,
            server_header: None,
            via_header: None,
            transport_params: TransportParameters::client_default(),
            serves_http: true,
        }
    }

    /// A server that never mirrors ECN (the majority of deployments).
    pub fn no_mirroring() -> Self {
        ServerBehavior {
            mirroring: EcnMirroringBehavior::None,
            ..ServerBehavior::accurate()
        }
    }

    /// Set the HTTP `server` header.
    pub fn with_server_header(mut self, header: &'static str) -> Self {
        self.server_header = Some(header);
        self
    }

    /// Whether `version` is acceptable to this server.
    pub fn supports_version(&self, version: QuicVersion) -> bool {
        self.supported_versions.iter().any(|v| v == version)
    }
}

impl Default for ServerBehavior {
    fn default() -> Self {
        ServerBehavior::accurate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBSERVED: EcnCounts = EcnCounts {
        ect0: 7,
        ect1: 0,
        ce: 1,
    };

    #[test]
    fn none_reports_nothing() {
        assert_eq!(EcnMirroringBehavior::None.report(OBSERVED, false), None);
    }

    #[test]
    fn accurate_reports_observations() {
        assert_eq!(
            EcnMirroringBehavior::Accurate.report(OBSERVED, true),
            Some(OBSERVED)
        );
    }

    #[test]
    fn handshake_only_freezes_application_space() {
        let b = EcnMirroringBehavior::MirrorOnlyHandshake;
        assert_eq!(b.report(OBSERVED, false), Some(OBSERVED));
        assert_eq!(b.report(OBSERVED, true), Some(EcnCounts::ZERO));
    }

    #[test]
    fn ect1_mixup_moves_counts() {
        let reported = EcnMirroringBehavior::MirrorAsEct1
            .report(OBSERVED, true)
            .unwrap();
        assert_eq!(reported.ect0, 0);
        assert_eq!(reported.ect1, 7);
        assert_eq!(reported.ce, 1);
    }

    #[test]
    fn always_ce_collapses_everything() {
        let reported = EcnMirroringBehavior::AlwaysCe
            .report(OBSERVED, true)
            .unwrap();
        assert_eq!(
            reported,
            EcnCounts {
                ect0: 0,
                ect1: 0,
                ce: 8
            }
        );
    }

    #[test]
    fn builder_profile() {
        let b = ServerBehavior {
            egress_ecn: EcnCodepoint::Ect0,
            supported_versions: Versions::new([QuicVersion::DRAFT_27]),
            ..ServerBehavior::accurate()
        }
        .with_server_header("LiteSpeed");
        assert_ne!(b.egress_ecn, EcnCodepoint::NotEct);
        assert_ne!(b.mirroring, EcnMirroringBehavior::None);
        assert!(b.supports_version(QuicVersion::DRAFT_27));
        assert!(!b.supports_version(QuicVersion::V1));
        assert_eq!(b.server_header, Some("LiteSpeed"));
    }

    #[test]
    fn versions_are_held_inline_up_to_eight() {
        let all = (0..10).map(|n| QuicVersion::Draft(20 + n));
        let versions = Versions::new(all.clone());
        assert!(versions.iter().eq(all.take(8)));
        assert!(Versions::new([]).iter().next().is_none());
    }

    #[test]
    fn no_mirroring_profile() {
        let b = ServerBehavior::no_mirroring();
        assert_eq!(b.mirroring, EcnMirroringBehavior::None);
        assert_eq!(b.egress_ecn, EcnCodepoint::NotEct);
        assert!(b.serves_http);
    }
}
