//! ICMPv4 and ICMPv6 messages used by the tracebox methodology.
//!
//! The path tracer (paper §4.2) sends QUIC Initial packets with increasing
//! TTLs; routers whose TTL expires answer with *time exceeded* messages that
//! quote the offending datagram.  The quotation is what lets the tracer see
//! which ECN / DSCP value the packet carried when it reached that hop.
//!
//! ICMPv4 quotes the IP header plus at least the first 8 bytes of the
//! transport payload (RFC 792); most modern routers quote more, and RFC 1812
//! recommends as much as fits.  ICMPv6 quotes as much of the packet as fits
//! in the minimum MTU (RFC 4443).  The simulator lets routers choose their
//! quote length so the tracer has to cope with short quotes.
//!
//! A message is read where it lies — [`IcmpMessage::decode`] lends the quote
//! as a slice of the datagram — and written where it goes:
//! [`write_time_exceeded`] puts the header into the body the response
//! datagram takes and lets the router write its quote straight behind it.

use crate::error::PacketError;
use crate::ip::internet_checksum;
use crate::Result;

/// ICMPv4 type for *time exceeded*.
pub const ICMPV4_TIME_EXCEEDED: u8 = 11;
/// ICMPv4 type for *destination unreachable*.
pub const ICMPV4_DEST_UNREACHABLE: u8 = 3;
/// ICMPv6 type for *time exceeded*.
pub const ICMPV6_TIME_EXCEEDED: u8 = 3;
/// ICMPv6 type for *destination unreachable*.
pub const ICMPV6_DEST_UNREACHABLE: u8 = 1;

/// Length of the fixed ICMP header (type, code, checksum, unused word).
pub const ICMP_HEADER_LEN: usize = 8;

/// The ICMP messages the simulator and tracer exchange, read in place: the
/// quote is borrowed from the bytes the message was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpMessage<'a> {
    /// Time exceeded in transit (TTL reached zero at a router).
    TimeExceeded {
        /// Whether this is an ICMPv6 (true) or ICMPv4 (false) message.
        v6: bool,
        /// Quotation of the expired datagram, starting at its IP header.
        quote: &'a [u8],
    },
    /// Destination unreachable (used for simulated administrative filtering).
    DestinationUnreachable {
        /// Whether this is an ICMPv6 (true) or ICMPv4 (false) message.
        v6: bool,
        /// ICMP code (e.g. 3 = port unreachable for ICMPv4).
        code: u8,
        /// Quotation of the rejected datagram.
        quote: &'a [u8],
    },
}

/// Append a time-exceeded message to `buf` — the body of the response
/// datagram — with the quote `quote` writes behind its header, and
/// checksum it.
pub fn write_time_exceeded(buf: &mut Vec<u8>, v6: bool, quote: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    let ty = if v6 {
        ICMPV6_TIME_EXCEEDED
    } else {
        ICMPV4_TIME_EXCEEDED
    };
    // Type, code, checksum placeholder, unused word; then the quote.
    buf.extend_from_slice(&[ty, 0, 0, 0, 0, 0, 0, 0]);
    quote(buf);
    let csum = internet_checksum(&buf[start..]);
    buf[start + 2..start + 4].copy_from_slice(&csum.to_be_bytes());
}

impl<'a> IcmpMessage<'a> {
    /// The quoted original datagram bytes.
    pub fn quote(&self) -> &'a [u8] {
        match *self {
            IcmpMessage::TimeExceeded { quote, .. } => quote,
            IcmpMessage::DestinationUnreachable { quote, .. } => quote,
        }
    }

    /// Whether this is a time-exceeded message.
    pub fn is_time_exceeded(&self) -> bool {
        matches!(self, IcmpMessage::TimeExceeded { .. })
    }

    /// Read an ICMP message in place.  `v6` selects the ICMPv6 type space.
    pub fn decode(buf: &'a [u8], v6: bool) -> Result<Self> {
        if buf.len() < ICMP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "icmp message",
                needed: ICMP_HEADER_LEN,
                available: buf.len(),
            });
        }
        if internet_checksum(buf) != 0 {
            return Err(PacketError::BadChecksum {
                what: "icmp message",
            });
        }
        let ty = buf[0];
        let code = buf[1];
        let quote = &buf[ICMP_HEADER_LEN..];
        let time_exceeded = if v6 {
            ICMPV6_TIME_EXCEEDED
        } else {
            ICMPV4_TIME_EXCEEDED
        };
        let unreachable = if v6 {
            ICMPV6_DEST_UNREACHABLE
        } else {
            ICMPV4_DEST_UNREACHABLE
        };
        if ty == time_exceeded {
            Ok(IcmpMessage::TimeExceeded { v6, quote })
        } else if ty == unreachable {
            Ok(IcmpMessage::DestinationUnreachable { v6, code, quote })
        } else {
            Err(PacketError::InvalidField {
                what: "icmp message",
                reason: "unsupported icmp type",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of `msg`: written in place as a router writes one, or —
    /// for the message no router sends — put together by hand.
    fn encoded(msg: &IcmpMessage<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        match *msg {
            IcmpMessage::TimeExceeded { v6, quote } => {
                write_time_exceeded(&mut bytes, v6, |buf| buf.extend_from_slice(quote));
            }
            IcmpMessage::DestinationUnreachable { v6, code, quote } => {
                let ty = [ICMPV4_DEST_UNREACHABLE, ICMPV6_DEST_UNREACHABLE][usize::from(v6)];
                bytes.extend_from_slice(&[ty, code, 0, 0, 0, 0, 0, 0]);
                bytes.extend_from_slice(quote);
                let csum = internet_checksum(&bytes);
                bytes[2..4].copy_from_slice(&csum.to_be_bytes());
            }
        }
        bytes
    }

    #[test]
    fn time_exceeded_round_trip_v4() {
        let msg = IcmpMessage::TimeExceeded {
            v6: false,
            quote: &[0x45, 0x02, 0x00, 0x1c, 1, 2, 3, 4],
        };
        let bytes = encoded(&msg);
        assert_eq!(bytes[0], ICMPV4_TIME_EXCEEDED);
        let decoded = IcmpMessage::decode(&bytes, false).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn time_exceeded_round_trip_v6() {
        let msg = IcmpMessage::TimeExceeded {
            v6: true,
            quote: &[0x60, 0, 0, 0],
        };
        let bytes = encoded(&msg);
        assert_eq!(bytes[0], ICMPV6_TIME_EXCEEDED);
        let decoded = IcmpMessage::decode(&bytes, true).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn unreachable_round_trip() {
        let msg = IcmpMessage::DestinationUnreachable {
            v6: false,
            code: 3,
            quote: &[1, 2, 3],
        };
        let bytes = encoded(&msg);
        let decoded = IcmpMessage::decode(&bytes, false).unwrap();
        assert_eq!(decoded, msg);
        assert!(!decoded.is_time_exceeded());
    }

    #[test]
    fn checksum_verified() {
        let msg = IcmpMessage::TimeExceeded {
            v6: false,
            quote: &[9; 32],
        };
        let mut bytes = encoded(&msg);
        bytes[10] ^= 0xa5;
        assert_eq!(
            IcmpMessage::decode(&bytes, false),
            Err(PacketError::BadChecksum {
                what: "icmp message"
            })
        );
    }

    #[test]
    fn truncated_rejected() {
        assert!(IcmpMessage::decode(&[11, 0, 0], false).is_err());
    }

    #[test]
    fn wrong_type_space_rejected() {
        // An ICMPv4 time-exceeded type (11) is not a valid ICMPv6 time-exceeded.
        let msg = IcmpMessage::TimeExceeded {
            v6: false,
            quote: &[],
        };
        let bytes = encoded(&msg);
        assert!(IcmpMessage::decode(&bytes, true).is_err());
    }
}
