//! Server-side TCP ECN behaviour profiles.

use qem_packet::ecn::EcnCodepoint;

/// How a simulated TCP server treats ECN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpServerBehavior {
    /// Whether the server accepts ECN negotiation (answers an ECN-setup SYN
    /// with an ECN-setup SYN-ACK).  Large providers almost universally do
    /// (Figure 6 finds ~70 % of domains negotiating), but some operators
    /// disable it, which the paper reads as a deliberate decision against ECN.
    pub negotiate_ecn: bool,
    /// Whether the server echoes received CE marks via the ECE flag.  A
    /// server can negotiate ECN but fail to echo (the "No CE Mirroring,
    /// Negotiation" group of Figure 6), e.g. because a middlebox in front of
    /// it strips the marks.
    pub mirror_ce: bool,
    /// The ECN codepoint the server sets on its own data segments
    /// (`NotEct` if it does not *use* ECN).
    pub egress_ecn: EcnCodepoint,
    /// Whether an HTTP response is served at all.
    pub serves_http: bool,
}

impl TcpServerBehavior {
    /// A server with full, correct ECN support that also uses ECN itself —
    /// the dominant behaviour Figure 6 observes for large CDNs via TCP.
    pub fn full_ecn() -> Self {
        TcpServerBehavior {
            negotiate_ecn: true,
            mirror_ce: true,
            egress_ecn: EcnCodepoint::Ect0,
            serves_http: true,
        }
    }

    /// A server that negotiates and mirrors but never sets codepoints itself.
    pub fn mirror_only() -> Self {
        TcpServerBehavior {
            egress_ecn: EcnCodepoint::NotEct,
            ..TcpServerBehavior::full_ecn()
        }
    }

    /// A server with ECN disabled (plain SYN-ACK, no ECE echo).
    pub fn no_ecn() -> Self {
        TcpServerBehavior {
            negotiate_ecn: false,
            mirror_ce: false,
            egress_ecn: EcnCodepoint::NotEct,
            serves_http: true,
        }
    }

    /// A server that negotiates ECN but never echoes CE (broken echo path).
    pub fn negotiate_without_mirroring() -> Self {
        TcpServerBehavior {
            negotiate_ecn: true,
            mirror_ce: false,
            egress_ecn: EcnCodepoint::Ect0,
            serves_http: true,
        }
    }
}

impl Default for TcpServerBehavior {
    fn default() -> Self {
        TcpServerBehavior::full_ecn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        assert!(TcpServerBehavior::full_ecn().negotiate_ecn);
        assert!(TcpServerBehavior::full_ecn().mirror_ce);
        assert_eq!(TcpServerBehavior::full_ecn().egress_ecn, EcnCodepoint::Ect0);
        assert!(!TcpServerBehavior::no_ecn().negotiate_ecn);
        assert_eq!(
            TcpServerBehavior::mirror_only().egress_ecn,
            EcnCodepoint::NotEct
        );
        assert!(!TcpServerBehavior::negotiate_without_mirroring().mirror_ce);
    }
}
