//! TCP header encoding and decoding with the ECN-relevant flags (RFC 9293 / RFC 3168).
//!
//! The measurement study only needs the parts of TCP that interact with ECN:
//! the handshake flags used to negotiate ECN (`SYN` + `ECE` + `CWR`,
//! answered by `SYN`+`ACK`+`ECE`), the `ECE` echo of received `CE` marks and
//! the `CWR` acknowledgement of that echo.  Options other than MSS are not
//! modelled.

use crate::error::PacketError;
use crate::ip::{pseudo_header_checksum, IpProtocol};
use crate::Result;
use std::fmt;
use std::net::IpAddr;

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags, including the ECN nonce/echo bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Congestion window reduced.
    pub cwr: bool,
    /// ECN echo.
    pub ece: bool,
    /// Urgent pointer significant (unused by the study, kept for fidelity).
    pub urg: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// Push function.
    pub psh: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Synchronise sequence numbers.
    pub syn: bool,
    /// No more data from sender.
    pub fin: bool,
}

impl TcpFlags {
    /// Flags of an ECN-setup SYN (`SYN` + `ECE` + `CWR`, RFC 3168 §6.1.1).
    pub const ECN_SETUP_SYN: TcpFlags = TcpFlags {
        cwr: true,
        ece: true,
        urg: false,
        ack: false,
        psh: false,
        rst: false,
        syn: true,
        fin: false,
    };

    /// Encode into the flag octet.
    pub fn to_byte(self) -> u8 {
        (u8::from(self.cwr) << 7)
            | (u8::from(self.ece) << 6)
            | (u8::from(self.urg) << 5)
            | (u8::from(self.ack) << 4)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.syn) << 1)
            | u8::from(self.fin)
    }

    /// Decode from the flag octet.
    pub fn from_byte(b: u8) -> Self {
        TcpFlags {
            cwr: b & 0x80 != 0,
            ece: b & 0x40 != 0,
            urg: b & 0x20 != 0,
            ack: b & 0x10 != 0,
            psh: b & 0x08 != 0,
            rst: b & 0x04 != 0,
            syn: b & 0x02 != 0,
            fin: b & 0x01 != 0,
        }
    }

    /// True if this is an ECN-setup SYN (SYN set, ACK clear, ECE and CWR set).
    pub fn is_ecn_setup_syn(self) -> bool {
        self.syn && !self.ack && self.ece && self.cwr
    }

    /// True if this is an ECN-setup SYN-ACK (SYN, ACK and ECE set, CWR clear).
    pub fn is_ecn_setup_syn_ack(self) -> bool {
        self.syn && self.ack && self.ece && !self.cwr
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (set, name) in [
            (self.syn, "SYN"),
            (self.ack, "ACK"),
            (self.fin, "FIN"),
            (self.rst, "RST"),
            (self.psh, "PSH"),
            (self.urg, "URG"),
            (self.ece, "ECE"),
            (self.cwr, "CWR"),
        ] {
            if set {
                parts.push(name);
            }
        }
        write!(f, "[{}]", parts.join(","))
    }
}

/// A TCP header without options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Construct a header with a default 64 KiB window.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0xffff,
        }
    }

    /// Encode the header followed by `payload` into `buf` (cleared first, its
    /// capacity kept — a sender recycles one segment buffer for a whole
    /// flow), computing the checksum over the pseudo header for `src`/`dst`.
    pub fn encode(&self, src: IpAddr, dst: IpAddr, payload: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(TCP_HEADER_LEN + payload.len());
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.ack.to_be_bytes());
        buf.push(((TCP_HEADER_LEN / 4) as u8) << 4); // data offset, no options
        buf.push(self.flags.to_byte());
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&[0, 0]); // urgent pointer
        buf.extend_from_slice(payload);
        let csum = pseudo_header_checksum(src, dst, IpProtocol::Tcp, buf);
        buf[16..18].copy_from_slice(&csum.to_be_bytes());
    }

    /// Decode a TCP header; returns the header and the payload slice.
    pub fn decode(buf: &[u8]) -> Result<(Self, &[u8])> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "tcp header",
                needed: TCP_HEADER_LEN,
                available: buf.len(),
            });
        }
        let data_offset = ((buf[12] >> 4) as usize) * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > buf.len() {
            return Err(PacketError::InvalidField {
                what: "tcp header",
                reason: "data offset inconsistent with buffer",
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: TcpFlags::from_byte(buf[13]),
                window: u16::from_be_bytes([buf[14], buf[15]]),
            },
            &buf[data_offset..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(172, 16, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(172, 16, 0, 2)),
        )
    }

    #[test]
    fn flags_round_trip() {
        for byte in 0..=255u8 {
            assert_eq!(TcpFlags::from_byte(byte).to_byte(), byte);
        }
    }

    #[test]
    fn ecn_setup_flag_predicates() {
        assert!(TcpFlags::ECN_SETUP_SYN.is_ecn_setup_syn());
        let syn_ack = TcpFlags {
            syn: true,
            ack: true,
            ece: true,
            ..TcpFlags::default()
        };
        assert!(syn_ack.is_ecn_setup_syn_ack());
        assert!(!syn_ack.is_ecn_setup_syn());
        let plain_syn = TcpFlags {
            syn: true,
            ..TcpFlags::default()
        };
        assert!(!plain_syn.is_ecn_setup_syn());
    }

    #[test]
    fn header_round_trip() {
        let (src, dst) = addrs();
        let hdr = TcpHeader::new(50000, 443, 1000, 2000, TcpFlags::ECN_SETUP_SYN);
        let mut seg = Vec::new();
        hdr.encode(src, dst, b"GET /", &mut seg);
        let (decoded, payload) = TcpHeader::decode(&seg).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload, b"GET /");
    }

    #[test]
    fn checksum_detects_corruption() {
        let (src, dst) = addrs();
        let mut seg = Vec::new();
        TcpHeader::new(50000, 443, 1, 0, TcpFlags::default()).encode(src, dst, b"data", &mut seg);
        assert_eq!(pseudo_header_checksum(src, dst, IpProtocol::Tcp, &seg), 0);
        seg[4] ^= 1;
        assert_ne!(pseudo_header_checksum(src, dst, IpProtocol::Tcp, &seg), 0);
    }

    #[test]
    fn truncated_rejected() {
        assert!(TcpHeader::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn flags_display() {
        let s = TcpFlags::ECN_SETUP_SYN.to_string();
        assert!(s.contains("SYN") && s.contains("ECE") && s.contains("CWR"));
    }
}
