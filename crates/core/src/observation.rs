//! Observation records and their classification into the paper's categories.

use crate::reports::{QuicCeCategory, TcpCategory};
use qem_quic::ecn::{EcnValidationFailure, EcnValidationState};
use qem_quic::{ClientReport, QuicVersion};
use qem_tcp::TcpReport;
use qem_tracebox::{PathVerdict, TraceAnalysis};
use std::fmt;

/// The ECN validation classes of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EcnClass {
    /// The host never mirrored any ECN counter.
    NoMirroring,
    /// Counters mirrored but fewer than sent (LiteSpeed bug class).
    Undercount,
    /// ECT(1) mirrored although ECT(0) was sent (stack mix-up or re-marking).
    RemarkEct1,
    /// Every packet reported CE.
    AllCe,
    /// Validation succeeded: the path is ECN-capable.
    Capable,
    /// Any other validation failure (non-monotonic counters, …).
    Other,
}

impl EcnClass {
    /// Classify a finished client report.  Returns `None` when the
    /// connection never got far enough to judge ECN (handshake failure).
    pub fn classify(report: &ClientReport) -> Option<EcnClass> {
        if !report.connected {
            return None;
        }
        if !report.peer_mirrored {
            return Some(EcnClass::NoMirroring);
        }
        match report.ecn_state {
            EcnValidationState::Capable => Some(EcnClass::Capable),
            EcnValidationState::Failed(EcnValidationFailure::Undercount) => {
                Some(EcnClass::Undercount)
            }
            EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint) => {
                Some(EcnClass::RemarkEct1)
            }
            EcnValidationState::Failed(EcnValidationFailure::AllCe) => Some(EcnClass::AllCe),
            EcnValidationState::Failed(EcnValidationFailure::NoMirroring) => {
                Some(EcnClass::NoMirroring)
            }
            EcnValidationState::Failed(_) => Some(EcnClass::Other),
            // Mirrored something but validation never concluded (e.g. too few
            // ACKs before the connection ended): treat conservatively as not
            // capable.
            EcnValidationState::Testing | EcnValidationState::Unknown => Some(EcnClass::Other),
        }
    }

    /// Label used in the rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            EcnClass::NoMirroring => "No Mirroring",
            EcnClass::Undercount => "Undercount",
            EcnClass::RemarkEct1 => "Re-Marking ECT(1)",
            EcnClass::AllCe => "All CE",
            EcnClass::Capable => "Capable",
            EcnClass::Other => "Other",
        }
    }
}

impl fmt::Display for EcnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's "Mirroring" / "Use" terminology (§2.2.2) for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MirrorUse {
    /// The host mirrored ECN counters.
    pub mirroring: bool,
    /// The host set ECN codepoints on its own packets.
    pub uses_ecn: bool,
}

/// The web-server families Figure 3 tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServerFamily {
    LiteSpeed,
    Pepyaka,
    Other,
}

impl ServerFamily {
    /// Bucket a normalised `server` header.
    fn of(family: &str) -> Self {
        if family.starts_with("LiteSpeed") {
            ServerFamily::LiteSpeed
        } else if family.starts_with("Pepyaka") {
            ServerFamily::Pepyaka
        } else {
            ServerFamily::Other
        }
    }

    /// Label used in the rendered figure.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ServerFamily::LiteSpeed => "LiteSpeed",
            ServerFamily::Pepyaka => "Pepyaka",
            ServerFamily::Other => "Other",
        }
    }
}

/// Everything measured about one host from one vantage point.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMeasurement {
    /// Host index in the universe.
    pub host_id: usize,
    /// Whether an HTTP/3-over-QUIC exchange succeeded.
    pub quic_reachable: bool,
    /// The QUIC client report, if a connection was attempted.
    pub quic: Option<ClientReport>,
    /// The TCP report, if a connection was attempted.
    pub tcp: Option<TcpReport>,
    /// Tracebox analysis, if the host was selected for tracing.
    pub trace: Option<TraceAnalysis>,
}

impl MirrorUse {
    /// The mirroring / use of a QUIC report: nothing unless it connected.
    fn of(report: Option<&ClientReport>) -> Self {
        match report {
            Some(report) if report.connected => MirrorUse {
                mirroring: report.peer_mirrored,
                uses_ecn: report.server_used_ecn,
            },
            _ => MirrorUse::default(),
        }
    }
}

impl HostMeasurement {
    /// Mirroring / use summary for the QUIC measurement.
    pub fn mirror_use(&self) -> MirrorUse {
        MirrorUse::of(self.quic.as_ref())
    }

    /// ECN validation class, if the host was reachable via QUIC.
    pub fn ecn_class(&self) -> Option<EcnClass> {
        self.quic.as_ref().and_then(EcnClass::classify)
    }

    /// Everything the report builders read about this host, decided once
    /// per host instead of once per domain it serves.
    pub(crate) fn summary(&self) -> HostSummary {
        HostSummary::from_parts(
            self.quic_reachable,
            self.quic.as_ref(),
            self.tcp.as_ref(),
            self.trace.as_ref(),
        )
    }
}

/// The per-host attributes of one [`HostMeasurement`] that tables and
/// figures are built from — a flat value, no packet counters, no strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSummary {
    /// Whether an HTTP/3-over-QUIC exchange succeeded.
    pub(crate) quic_reachable: bool,
    /// Mirroring / use summary.
    pub(crate) mirror_use: MirrorUse,
    /// Validation class, if a QUIC connection was established.
    pub(crate) class: Option<EcnClass>,
    /// Tracebox verdict, if the host was traced.
    pub(crate) verdict: Option<PathVerdict>,
    /// QUIC version spoken.
    pub(crate) version: QuicVersion,
    /// Server family from the `server` header, if the host sent one.
    pub(crate) family: Option<ServerFamily>,
    /// Transport-parameter fingerprint, which identifies the stack of hosts
    /// that suppress the header (§5.3).
    pub(crate) fingerprint: Option<u64>,
    /// Figure 6 category of the TCP probe, if it connected.
    pub(crate) tcp: Option<TcpCategory>,
    /// Figure 6 category of the QUIC probe, if it connected.
    pub(crate) quic_ce: Option<QuicCeCategory>,
}

impl HostSummary {
    /// The summary of a measurement given as its parts — what
    /// [`HostMeasurement`] holds, borrowed — so that a reader which decodes
    /// the parts need not assemble the measurement.  Total over any parts a
    /// store segment can decode to.
    #[inline]
    pub fn from_parts(
        quic_reachable: bool,
        quic: Option<&ClientReport>,
        tcp: Option<&TcpReport>,
        trace: Option<&TraceAnalysis>,
    ) -> Self {
        HostSummary {
            quic_reachable,
            mirror_use: MirrorUse::of(quic),
            class: quic.and_then(EcnClass::classify),
            verdict: trace.map(|t| t.verdict),
            // A decoded segment can carry the `quic_reachable` flag without a
            // QUIC report — the two are independent bits on disk — and
            // Figure 4 draws such a host as v1.
            version: quic.map_or(QuicVersion::V1, |r| r.version),
            family: quic
                .and_then(|r| r.response.as_ref())
                .and_then(|resp| resp.server_family())
                .map(ServerFamily::of),
            fingerprint: quic.and_then(|r| r.transport_fingerprint),
            tcp: tcp.and_then(TcpCategory::of),
            quic_ce: quic.and_then(QuicCeCategory::of),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_packet::ecn::EcnCounts;

    fn report(connected: bool, mirrored: bool, state: EcnValidationState) -> ClientReport {
        ClientReport {
            connected,
            response: None,
            version: QuicVersion::V1,
            server_transport_params: None,
            transport_fingerprint: None,
            ecn_state: state,
            peer_mirrored: mirrored,
            mirrored_counts: EcnCounts::ZERO,
            sent_counts: EcnCounts::ZERO,
            received_ecn: EcnCounts::ZERO,
            server_used_ecn: false,
            error: None,
        }
    }

    #[test]
    fn unconnected_reports_are_not_classified() {
        let r = report(false, false, EcnValidationState::Testing);
        assert_eq!(EcnClass::classify(&r), None);
    }

    #[test]
    fn classes_map_from_validation_outcomes() {
        assert_eq!(
            EcnClass::classify(&report(
                true,
                false,
                EcnValidationState::Failed(EcnValidationFailure::NoMirroring)
            )),
            Some(EcnClass::NoMirroring)
        );
        assert_eq!(
            EcnClass::classify(&report(true, true, EcnValidationState::Capable)),
            Some(EcnClass::Capable)
        );
        assert_eq!(
            EcnClass::classify(&report(
                true,
                true,
                EcnValidationState::Failed(EcnValidationFailure::Undercount)
            )),
            Some(EcnClass::Undercount)
        );
        assert_eq!(
            EcnClass::classify(&report(
                true,
                true,
                EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint)
            )),
            Some(EcnClass::RemarkEct1)
        );
        assert_eq!(
            EcnClass::classify(&report(
                true,
                true,
                EcnValidationState::Failed(EcnValidationFailure::AllCe)
            )),
            Some(EcnClass::AllCe)
        );
        assert_eq!(
            EcnClass::classify(&report(
                true,
                true,
                EcnValidationState::Failed(EcnValidationFailure::NonMonotonic)
            )),
            Some(EcnClass::Other)
        );
    }

    #[test]
    fn mirroring_without_final_verdict_is_other() {
        let r = report(true, true, EcnValidationState::Unknown);
        assert_eq!(EcnClass::classify(&r), Some(EcnClass::Other));
    }

    #[test]
    fn labels_match_table_5() {
        assert_eq!(EcnClass::RemarkEct1.label(), "Re-Marking ECT(1)");
        assert_eq!(EcnClass::NoMirroring.to_string(), "No Mirroring");
    }
}
