//! QUIC protocol versions observed by the study.
//!
//! The longitudinal analysis (paper §5.3, Figures 3/4/8) tracks which QUIC
//! version a domain speaks because the LiteSpeed draft-27 → v1 transition is
//! what made ECN mirroring collapse in 2022 and reappear in March 2023.

use std::fmt;

/// A QUIC version number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuicVersion {
    /// QUIC version 1 (RFC 9000), wire value `0x00000001`.
    V1,
    /// An IETF draft version, wire value `0xff0000xx`.
    Draft(u8),
    /// Any other value (treated as unsupported and triggering version negotiation).
    Other(u32),
}

impl QuicVersion {
    /// Draft 27, the version the 2022 LiteSpeed deployments spoke.
    pub const DRAFT_27: QuicVersion = QuicVersion::Draft(27);
    /// Draft 29.
    pub const DRAFT_29: QuicVersion = QuicVersion::Draft(29);
    /// Draft 32.
    pub const DRAFT_32: QuicVersion = QuicVersion::Draft(32);
    /// Draft 34 (wire-identical to v1 apart from the version number).
    pub const DRAFT_34: QuicVersion = QuicVersion::Draft(34);

    /// The versions the measurement client supports, mirroring the paper's
    /// adapted quic-go (§4.1), in its order of preference: v1, then the
    /// newest draft first (34, 32, 29, 27).
    pub const CLIENT_SUPPORTED: [QuicVersion; 5] = [
        QuicVersion::V1,
        QuicVersion::DRAFT_34,
        QuicVersion::DRAFT_32,
        QuicVersion::DRAFT_29,
        QuicVersion::DRAFT_27,
    ];

    /// Wire encoding of the version field.
    pub fn to_u32(self) -> u32 {
        match self {
            QuicVersion::V1 => 0x0000_0001,
            QuicVersion::Draft(n) => 0xff00_0000 | u32::from(n),
            QuicVersion::Other(v) => v,
        }
    }

    /// Decode a version field.
    pub fn from_u32(value: u32) -> Self {
        match value {
            0x0000_0001 => QuicVersion::V1,
            v if v & 0xffff_ff00 == 0xff00_0000 => QuicVersion::Draft((v & 0xff) as u8),
            v => QuicVersion::Other(v),
        }
    }

    /// Short label used in reports ("v1", "d27", …), matching the paper's figures.
    pub fn label(self) -> String {
        match self {
            QuicVersion::V1 => "v1".to_string(),
            QuicVersion::Draft(n) => format!("d{n}"),
            QuicVersion::Other(v) => format!("0x{v:08x}"),
        }
    }
}

impl fmt::Display for QuicVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_values() {
        assert_eq!(QuicVersion::V1.to_u32(), 1);
        assert_eq!(QuicVersion::DRAFT_27.to_u32(), 0xff00_001b);
        assert_eq!(QuicVersion::DRAFT_29.to_u32(), 0xff00_001d);
    }

    #[test]
    fn round_trip() {
        for v in [
            QuicVersion::V1,
            QuicVersion::DRAFT_27,
            QuicVersion::DRAFT_34,
            QuicVersion::Other(0x5a5a_5a5a),
        ] {
            assert_eq!(QuicVersion::from_u32(v.to_u32()), v);
        }
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(QuicVersion::V1.label(), "v1");
        assert_eq!(QuicVersion::DRAFT_27.label(), "d27");
    }

    #[test]
    fn support_matrix() {
        let supports = |v| QuicVersion::CLIENT_SUPPORTED.contains(&v);
        assert!(supports(QuicVersion::V1));
        assert!(supports(QuicVersion::DRAFT_32));
        assert!(!supports(QuicVersion::Draft(13)));
        assert!(!supports(QuicVersion::Other(0xdead_beef)));
    }

    #[test]
    fn client_supports_five_versions() {
        assert_eq!(QuicVersion::CLIENT_SUPPORTED.len(), 5);
        assert_eq!(QuicVersion::CLIENT_SUPPORTED[0], QuicVersion::V1);
    }
}
