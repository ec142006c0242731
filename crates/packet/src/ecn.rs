//! ECN codepoints and DSCP values carried in the IP traffic-class octet.
//!
//! RFC 3168 splits the former IPv4 ToS octet (and the IPv6 traffic-class
//! octet) into a six-bit DSCP field and a two-bit ECN field.  The two ECN
//! bits encode four codepoints; routers that participate in ECN replace
//! `ECT(0)` / `ECT(1)` with `CE` instead of dropping the packet.

use std::fmt;

/// The two-bit ECN codepoint of an IP packet (RFC 3168 §5).
///
/// The numeric values are the on-the-wire bit patterns.  Note the asymmetry
/// the paper calls out in §7.1: `ECT(1)` is `0b01` and `ECT(0)` is `0b10`,
/// which invites implementation mix-ups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EcnCodepoint {
    /// `00` — the transport does not support ECN; routers drop on congestion.
    #[default]
    NotEct = 0b00,
    /// `01` — ECN-capable transport, codepoint 1.  Redefined by L4S (RFC 9331)
    /// to request low-latency (aggressive) marking.
    Ect1 = 0b01,
    /// `10` — ECN-capable transport, codepoint 0.  The codepoint classic
    /// senders (and the study's probes) set.
    Ect0 = 0b10,
    /// `11` — congestion experienced; set by a router instead of dropping.
    Ce = 0b11,
}

impl EcnCodepoint {
    /// All four codepoints, in ascending wire order.
    pub const ALL: [EcnCodepoint; 4] = [
        EcnCodepoint::NotEct,
        EcnCodepoint::Ect1,
        EcnCodepoint::Ect0,
        EcnCodepoint::Ce,
    ];

    /// Decode from the low two bits of a traffic-class octet.
    pub fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b00 => EcnCodepoint::NotEct,
            0b01 => EcnCodepoint::Ect1,
            0b10 => EcnCodepoint::Ect0,
            _ => EcnCodepoint::Ce,
        }
    }

    /// The two-bit wire representation.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// Whether the codepoint is one of the two ECT values (excluding `CE`).
    pub fn is_ect(self) -> bool {
        matches!(self, EcnCodepoint::Ect0 | EcnCodepoint::Ect1)
    }
}

impl fmt::Display for EcnCodepoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EcnCodepoint::NotEct => "not-ECT",
            EcnCodepoint::Ect1 => "ECT(1)",
            EcnCodepoint::Ect0 => "ECT(0)",
            EcnCodepoint::Ce => "CE",
        };
        f.write_str(s)
    }
}

/// A six-bit Differentiated Services codepoint.
///
/// The study's tracebox analysis distinguishes routers that rewrite only the
/// DSCP bits (legitimate) from routers that bleach the whole ToS octet and
/// thereby clear ECN (the impairment attributed to AS 1299 in §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Dscp(u8);

impl Dscp {
    /// Default forwarding (best effort).
    pub const BEST_EFFORT: Dscp = Dscp(0);

    /// Build a DSCP value; the argument is masked to six bits.
    pub fn new(value: u8) -> Self {
        Dscp(value & 0x3f)
    }

    /// The six-bit value.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Dscp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DSCP({})", self.0)
    }
}

/// Combine a DSCP value and an ECN codepoint into a traffic-class octet.
pub fn traffic_class(dscp: Dscp, ecn: EcnCodepoint) -> u8 {
    (dscp.value() << 2) | ecn.bits()
}

/// Split a traffic-class octet into its DSCP and ECN components.
pub fn split_traffic_class(octet: u8) -> (Dscp, EcnCodepoint) {
    (Dscp::new(octet >> 2), EcnCodepoint::from_bits(octet))
}

/// Per-codepoint counters, as kept by QUIC endpoints for ACK_ECN frames and by
/// the study's eBPF-style instrumentation of TCP sockets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcnCounts {
    /// Number of packets received with `ECT(0)`.
    pub ect0: u64,
    /// Number of packets received with `ECT(1)`.
    pub ect1: u64,
    /// Number of packets received with `CE`.
    pub ce: u64,
}

impl EcnCounts {
    /// Counters with all three fields zero.
    pub const ZERO: EcnCounts = EcnCounts {
        ect0: 0,
        ect1: 0,
        ce: 0,
    };

    /// Record one received codepoint. `not-ECT` packets are not counted,
    /// matching RFC 9000 §13.4.1.
    pub fn record(&mut self, ecn: EcnCodepoint) {
        match ecn {
            EcnCodepoint::Ect0 => self.ect0 += 1,
            EcnCodepoint::Ect1 => self.ect1 += 1,
            EcnCodepoint::Ce => self.ce += 1,
            EcnCodepoint::NotEct => {}
        }
    }

    /// Sum of all three counters.
    pub fn total(&self) -> u64 {
        self.ect0 + self.ect1 + self.ce
    }

    /// Component-wise saturating difference `self - earlier`.
    pub fn saturating_sub(&self, earlier: &EcnCounts) -> EcnCounts {
        EcnCounts {
            ect0: self.ect0.saturating_sub(earlier.ect0),
            ect1: self.ect1.saturating_sub(earlier.ect1),
            ce: self.ce.saturating_sub(earlier.ce),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &EcnCounts) -> EcnCounts {
        EcnCounts {
            ect0: self.ect0 + other.ect0,
            ect1: self.ect1 + other.ect1,
            ce: self.ce + other.ce,
        }
    }

    /// True if every component of `self` is `>=` the corresponding component
    /// of `other` (monotonicity check used by ECN validation).
    pub fn dominates(&self, other: &EcnCounts) -> bool {
        self.ect0 >= other.ect0 && self.ect1 >= other.ect1 && self.ce >= other.ce
    }
}

impl fmt::Display for EcnCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ect0={} ect1={} ce={}", self.ect0, self.ect1, self.ce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codepoint_bits_round_trip() {
        for cp in EcnCodepoint::ALL {
            assert_eq!(EcnCodepoint::from_bits(cp.bits()), cp);
        }
    }

    #[test]
    fn ect0_and_ect1_have_the_confusable_encoding() {
        // The paper (§7.1) notes ECT(0) = 0b10 and ECT(1) = 0b01; keep it that way.
        assert_eq!(EcnCodepoint::Ect0.bits(), 0b10);
        assert_eq!(EcnCodepoint::Ect1.bits(), 0b01);
    }

    #[test]
    fn from_bits_ignores_upper_bits() {
        assert_eq!(EcnCodepoint::from_bits(0b1111_1110), EcnCodepoint::Ect0);
    }

    #[test]
    fn traffic_class_round_trip() {
        for dscp in [0u8, 1, 8, 46, 63] {
            for ecn in EcnCodepoint::ALL {
                let tc = traffic_class(Dscp::new(dscp), ecn);
                let (d, e) = split_traffic_class(tc);
                assert_eq!(d.value(), dscp);
                assert_eq!(e, ecn);
            }
        }
    }

    #[test]
    fn dscp_masks_to_six_bits() {
        assert_eq!(Dscp::new(0xff).value(), 0x3f);
    }

    #[test]
    fn counts_record_and_total() {
        let mut c = EcnCounts::ZERO;
        c.record(EcnCodepoint::Ect0);
        c.record(EcnCodepoint::Ect0);
        c.record(EcnCodepoint::Ce);
        c.record(EcnCodepoint::NotEct);
        assert_eq!(
            c,
            EcnCounts {
                ect0: 2,
                ect1: 0,
                ce: 1
            }
        );
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn counts_domination() {
        let a = EcnCounts {
            ect0: 5,
            ect1: 0,
            ce: 2,
        };
        let b = EcnCounts {
            ect0: 4,
            ect1: 0,
            ce: 2,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
    }

    #[test]
    fn counts_saturating_sub() {
        let a = EcnCounts {
            ect0: 5,
            ect1: 1,
            ce: 2,
        };
        let b = EcnCounts {
            ect0: 7,
            ect1: 0,
            ce: 2,
        };
        assert_eq!(
            a.saturating_sub(&b),
            EcnCounts {
                ect0: 0,
                ect1: 1,
                ce: 0
            }
        );
    }

    #[test]
    fn display_matches_rfc_names() {
        assert_eq!(EcnCodepoint::Ect0.to_string(), "ECT(0)");
        assert_eq!(EcnCodepoint::Ce.to_string(), "CE");
        assert_eq!(EcnCodepoint::NotEct.to_string(), "not-ECT");
    }
}
