//! UDP header encoding and decoding (RFC 768).

use crate::error::PacketError;
use crate::ip::{pseudo_header_checksum, IpProtocol};
use crate::Result;
use std::net::IpAddr;

/// Length of a UDP header in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Construct a header.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        UdpHeader { src_port, dst_port }
    }

    /// Encode the header followed by `payload` into `buf` (cleared first, its
    /// capacity kept — a sender recycles one body for a whole flow),
    /// computing length and checksum over the pseudo header for `src`/`dst`.
    pub fn encode(&self, src: IpAddr, dst: IpAddr, payload: &[u8], buf: &mut Vec<u8>) {
        Self::begin(buf, payload.len());
        buf.extend_from_slice(payload);
        self.finish(src, dst, buf);
    }

    /// Start a segment in `buf` (cleared first, its capacity kept) with room
    /// for the header and `payload_room` bytes behind it: the caller writes
    /// the payload where it goes and then calls [`UdpHeader::finish`].
    pub fn begin(buf: &mut Vec<u8>, payload_room: usize) {
        buf.clear();
        buf.reserve(UDP_HEADER_LEN + payload_room);
        buf.extend_from_slice(&[0; UDP_HEADER_LEN]);
    }

    /// Complete a segment started with [`UdpHeader::begin`]: fill in the
    /// ports, the length and the checksum over the pseudo header for
    /// `src`/`dst` and everything in `segment`.
    pub fn finish(&self, src: IpAddr, dst: IpAddr, segment: &mut [u8]) {
        let len = segment.len() as u16;
        let Some(header) = segment.get_mut(..UDP_HEADER_LEN) else {
            return;
        };
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..6].copy_from_slice(&len.to_be_bytes());
        header[6..8].copy_from_slice(&[0, 0]); // checksum placeholder
        let csum = pseudo_header_checksum(src, dst, IpProtocol::Udp, segment);
        // A computed checksum of zero is transmitted as all ones (RFC 768).
        let csum = if csum == 0 { 0xffff } else { csum };
        segment[6..8].copy_from_slice(&csum.to_be_bytes());
    }

    /// Decode a UDP header; returns the header and the payload slice.
    ///
    /// The checksum is *not* verified here because routers in the simulator
    /// legitimately rewrite IP-level fields that do not participate in the
    /// UDP checksum; verification is available via [`UdpHeader::verify_checksum`].
    pub fn decode(buf: &[u8]) -> Result<(Self, &[u8])> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "udp header",
                needed: UDP_HEADER_LEN,
                available: buf.len(),
            });
        }
        let src_port = u16::from_be_bytes([buf[0], buf[1]]);
        let dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        let length = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if length < UDP_HEADER_LEN || length > buf.len() {
            return Err(PacketError::InvalidField {
                what: "udp header",
                reason: "length field inconsistent with buffer",
            });
        }
        Ok((
            UdpHeader { src_port, dst_port },
            &buf[UDP_HEADER_LEN..length],
        ))
    }

    /// Verify the UDP checksum of an encoded segment for the given endpoints.
    pub fn verify_checksum(src: IpAddr, dst: IpAddr, segment: &[u8]) -> bool {
        if segment.len() < UDP_HEADER_LEN {
            return false;
        }
        pseudo_header_checksum(src, dst, IpProtocol::Udp, segment) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
        )
    }

    fn encoded(hdr: UdpHeader, src: IpAddr, dst: IpAddr, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::new();
        hdr.encode(src, dst, payload, &mut seg);
        seg
    }

    #[test]
    fn round_trip() {
        let (src, dst) = addrs();
        let hdr = UdpHeader::new(40000, 443);
        let seg = encoded(hdr, src, dst, b"quic initial");
        let (decoded, payload) = UdpHeader::decode(&seg).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload, b"quic initial");
    }

    #[test]
    fn checksum_verifies() {
        let (src, dst) = addrs();
        let seg = encoded(UdpHeader::new(1234, 443), src, dst, b"payload");
        assert!(UdpHeader::verify_checksum(src, dst, &seg));
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let (src, dst) = addrs();
        let mut seg = encoded(UdpHeader::new(1234, 443), src, dst, b"payload!");
        seg[10] ^= 0x55;
        assert!(!UdpHeader::verify_checksum(src, dst, &seg));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            UdpHeader::decode(&[0, 1, 2]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_length_field_rejected() {
        let (src, dst) = addrs();
        let mut seg = encoded(UdpHeader::new(1, 2), src, dst, b"abc");
        seg[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(UdpHeader::decode(&seg).is_err());
    }

    #[test]
    fn ipv6_checksum_round_trip() {
        let src: IpAddr = "2001:db8::1".parse().unwrap();
        let dst: IpAddr = "2001:db8::2".parse().unwrap();
        let seg = encoded(UdpHeader::new(5000, 443), src, dst, b"h3");
        assert!(UdpHeader::verify_checksum(src, dst, &seg));
    }
}
