//! IPv4 and IPv6 headers with explicit DSCP / ECN handling.
//!
//! Only the fields the measurement pipeline and the path simulator care about
//! are modelled as structured data; IPv4 options are not supported (the study
//! never emits them) and are rejected on decode with an explicit error rather
//! than silently skipped.
//!
//! The RFC 1071 checksum every header here and in `udp`, `tcp` and `icmp`
//! relies on ([`internet_checksum`], [`pseudo_header_checksum`]) has one
//! kernel: it adds the bytes eight at a time as native-endian `u64` words,
//! counts the carries out of the top bit on the side and adds them back
//! (2⁶⁴ ≡ 1 in one's complement), and swaps the folded sum to big endian
//! once, at the end.  Every byte of a probe, a segment or a quote is
//! summed once, by one add per eight.

use crate::ecn::{split_traffic_class, traffic_class, Dscp, EcnCodepoint};
use crate::error::PacketError;
use crate::Result;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Transport protocol numbers used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IpProtocol {
    /// ICMP for IPv4 (protocol 1).
    Icmp = 1,
    /// TCP (protocol 6).
    Tcp = 6,
    /// UDP (protocol 17).
    Udp = 17,
    /// ICMPv6 (next header 58).
    Icmpv6 = 58,
}

impl IpProtocol {
    /// Decode a protocol / next-header number.
    pub fn from_u8(value: u8) -> Result<Self> {
        match value {
            1 => Ok(IpProtocol::Icmp),
            6 => Ok(IpProtocol::Tcp),
            17 => Ok(IpProtocol::Udp),
            58 => Ok(IpProtocol::Icmpv6),
            _ => Err(PacketError::InvalidField {
                what: "ip protocol",
                reason: "unsupported protocol number",
            }),
        }
    }

    /// The wire value.
    pub fn number(self) -> u8 {
        self as u8
    }
}

/// Minimum length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of the fixed IPv6 header.
pub const IPV6_HEADER_LEN: usize = 40;

/// An IPv4 header (RFC 791) without options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Differentiated services codepoint (upper six bits of the ToS octet).
    pub dscp: Dscp,
    /// ECN codepoint (lower two bits of the ToS octet).
    pub ecn: EcnCodepoint,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// IP identification field (used only for debugging / tracing realism).
    pub identification: u16,
}

impl Ipv4Header {
    /// Create a header with best-effort DSCP, `not-ECT`, and identification 0.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, ttl: u8) -> Self {
        Ipv4Header {
            src,
            dst,
            dscp: Dscp::BEST_EFFORT,
            ecn: EcnCodepoint::NotEct,
            ttl,
            protocol,
            identification: 0,
        }
    }

    /// Return a copy with the given ECN codepoint.
    pub fn with_ecn(mut self, ecn: EcnCodepoint) -> Self {
        self.ecn = ecn;
        self
    }

    /// Encode the header for a payload of `payload_len` bytes.
    ///
    /// The total-length field and the header checksum are computed here.
    pub fn encode(&self, payload_len: usize) -> [u8; IPV4_HEADER_LEN] {
        let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
        let mut buf = [0u8; IPV4_HEADER_LEN];
        buf[0] = (4 << 4) | 5; // version 4, IHL 5 words
        buf[1] = traffic_class(self.dscp, self.ecn);
        buf[2..4].copy_from_slice(&total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.identification.to_be_bytes());
        // flags: don't fragment, fragment offset 0
        buf[6] = 0b0100_0000;
        buf[7] = 0;
        buf[8] = self.ttl;
        buf[9] = self.protocol.number();
        // checksum at [10..12], computed below
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&buf);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
        buf
    }

    /// Decode a header from the front of `buf`, verifying the checksum.
    ///
    /// Returns the header and its length in bytes (always 20; headers with
    /// options are rejected).
    pub fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "ipv4 header",
                needed: IPV4_HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(PacketError::UnsupportedVersion {
                what: "ipv4 header",
                value: version as u32,
            });
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(PacketError::InvalidField {
                what: "ipv4 header",
                reason: "options are not supported",
            });
        }
        if internet_checksum(&buf[..IPV4_HEADER_LEN]) != 0 {
            return Err(PacketError::BadChecksum {
                what: "ipv4 header",
            });
        }
        let (dscp, ecn) = split_traffic_class(buf[1]);
        let identification = u16::from_be_bytes([buf[4], buf[5]]);
        let ttl = buf[8];
        let protocol = IpProtocol::from_u8(buf[9])?;
        let src = Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]);
        let dst = Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]);
        Ok((
            Ipv4Header {
                src,
                dst,
                dscp,
                ecn,
                ttl,
                protocol,
                identification,
            },
            IPV4_HEADER_LEN,
        ))
    }
}

/// An IPv6 header (RFC 8200) without extension headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Differentiated services codepoint (upper six bits of the traffic class).
    pub dscp: Dscp,
    /// ECN codepoint (lower two bits of the traffic class).
    pub ecn: EcnCodepoint,
    /// Hop limit (the IPv6 TTL).
    pub hop_limit: u8,
    /// Next header (payload protocol).
    pub next_header: IpProtocol,
    /// Flow label (20 bits).
    pub flow_label: u32,
}

impl Ipv6Header {
    /// Create a header with best-effort DSCP, `not-ECT` and flow label 0.
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: IpProtocol, hop_limit: u8) -> Self {
        Ipv6Header {
            src,
            dst,
            dscp: Dscp::BEST_EFFORT,
            ecn: EcnCodepoint::NotEct,
            hop_limit,
            next_header,
            flow_label: 0,
        }
    }

    /// Return a copy with the given ECN codepoint.
    pub fn with_ecn(mut self, ecn: EcnCodepoint) -> Self {
        self.ecn = ecn;
        self
    }

    /// Encode the header for a payload of `payload_len` bytes.
    pub fn encode(&self, payload_len: usize) -> [u8; IPV6_HEADER_LEN] {
        let mut buf = [0u8; IPV6_HEADER_LEN];
        let tc = traffic_class(self.dscp, self.ecn) as u32;
        let word0 = (6u32 << 28) | (tc << 20) | (self.flow_label & 0x000f_ffff);
        buf[0..4].copy_from_slice(&word0.to_be_bytes());
        buf[4..6].copy_from_slice(&(payload_len as u16).to_be_bytes());
        buf[6] = self.next_header.number();
        buf[7] = self.hop_limit;
        buf[8..24].copy_from_slice(&self.src.octets());
        buf[24..40].copy_from_slice(&self.dst.octets());
        buf
    }

    /// Decode a header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        if buf.len() < IPV6_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "ipv6 header",
                needed: IPV6_HEADER_LEN,
                available: buf.len(),
            });
        }
        let word0 = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let version = word0 >> 28;
        if version != 6 {
            return Err(PacketError::UnsupportedVersion {
                what: "ipv6 header",
                value: version,
            });
        }
        let tc = ((word0 >> 20) & 0xff) as u8;
        let (dscp, ecn) = split_traffic_class(tc);
        let flow_label = word0 & 0x000f_ffff;
        let next_header = IpProtocol::from_u8(buf[6])?;
        let hop_limit = buf[7];
        let mut src = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&buf[24..40]);
        Ok((
            Ipv6Header {
                src: Ipv6Addr::from(src),
                dst: Ipv6Addr::from(dst),
                dscp,
                ecn,
                hop_limit,
                next_header,
                flow_label,
            },
            IPV6_HEADER_LEN,
        ))
    }
}

/// Either an IPv4 or an IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpHeader {
    /// IPv4.
    V4(Ipv4Header),
    /// IPv6.
    V6(Ipv6Header),
}

impl IpHeader {
    /// Source address.
    pub fn src(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.src),
            IpHeader::V6(h) => IpAddr::V6(h.src),
        }
    }

    /// ECN codepoint.
    pub fn ecn(&self) -> EcnCodepoint {
        match self {
            IpHeader::V4(h) => h.ecn,
            IpHeader::V6(h) => h.ecn,
        }
    }

    /// Overwrite the ECN codepoint (router re-marking / clearing).
    pub fn set_ecn(&mut self, ecn: EcnCodepoint) {
        match self {
            IpHeader::V4(h) => h.ecn = ecn,
            IpHeader::V6(h) => h.ecn = ecn,
        }
    }

    /// DSCP value.
    pub fn dscp(&self) -> Dscp {
        match self {
            IpHeader::V4(h) => h.dscp,
            IpHeader::V6(h) => h.dscp,
        }
    }

    /// Overwrite the DSCP value (router bleaching).
    pub fn set_dscp(&mut self, dscp: Dscp) {
        match self {
            IpHeader::V4(h) => h.dscp = dscp,
            IpHeader::V6(h) => h.dscp = dscp,
        }
    }

    /// Payload protocol.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            IpHeader::V4(h) => h.protocol,
            IpHeader::V6(h) => h.next_header,
        }
    }

    /// Whether this is an IPv6 header.
    pub fn is_v6(&self) -> bool {
        matches!(self, IpHeader::V6(_))
    }

    /// Append the header, for a payload of `payload_len` bytes, to `buf`.
    pub fn write(&self, payload_len: usize, buf: &mut Vec<u8>) {
        match self {
            IpHeader::V4(h) => buf.extend_from_slice(&h.encode(payload_len)),
            IpHeader::V6(h) => buf.extend_from_slice(&h.encode(payload_len)),
        }
    }

    /// Decode either header variant based on the version nibble.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        if buf.is_empty() {
            return Err(PacketError::Truncated {
                what: "ip header",
                needed: 1,
                available: 0,
            });
        }
        match buf[0] >> 4 {
            4 => Ipv4Header::decode(buf).map(|(h, l)| (IpHeader::V4(h), l)),
            6 => Ipv6Header::decode(buf).map(|(h, l)| (IpHeader::V6(h), l)),
            v => Err(PacketError::UnsupportedVersion {
                what: "ip header",
                value: v as u32,
            }),
        }
    }
}

/// A full IP datagram: header plus transport payload bytes.
///
/// This is the unit the path simulator forwards hop by hop.  The payload is
/// opaque to routers except for the ICMP quotation logic, which re-encodes
/// the datagram's header via [`IpHeader::write`] ahead of the quoted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpDatagram {
    /// The network-layer header.
    pub header: IpHeader,
    /// Transport-layer payload (UDP / TCP / ICMP bytes).
    pub payload: Vec<u8>,
}

impl IpDatagram {
    /// Construct a datagram.
    pub fn new(header: IpHeader, payload: Vec<u8>) -> Self {
        IpDatagram { header, payload }
    }

    /// Put `transport` bytes (an encoded UDP / TCP / ICMP message) into a
    /// datagram from `src` to `dst`: best-effort DSCP (set another through
    /// [`IpHeader::set_dscp`]), identification / flow label 0.
    ///
    /// This is the one place the address family of a packet is decided: a
    /// v4/v6 pair cannot be put on the wire and is a typed error, which
    /// senders count as a packet that was never sent.
    pub fn assemble(
        src: IpAddr,
        dst: IpAddr,
        protocol: IpProtocol,
        ttl: u8,
        ecn: EcnCodepoint,
        transport: Vec<u8>,
    ) -> Result<Self> {
        let header = match (src, dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                IpHeader::V4(Ipv4Header::new(s, d, protocol, ttl).with_ecn(ecn))
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                IpHeader::V6(Ipv6Header::new(s, d, protocol, ttl).with_ecn(ecn))
            }
            _ => {
                return Err(PacketError::InvalidField {
                    what: "ip datagram",
                    reason: "source and destination address families differ",
                })
            }
        };
        Ok(IpDatagram::new(header, transport))
    }

    /// The transport bytes, borrowed, if the datagram carries `protocol`.
    pub fn transport(&self, protocol: IpProtocol) -> Option<&[u8]> {
        (self.header.protocol() == protocol).then_some(self.payload.as_slice())
    }

    /// Total on-the-wire size in bytes.
    pub fn wire_len(&self) -> usize {
        let hdr = if self.header.is_v6() {
            IPV6_HEADER_LEN
        } else {
            IPV4_HEADER_LEN
        };
        hdr + self.payload.len()
    }
}

/// The one's-complement sum of `data` as 16-bit words (an odd trailing
/// byte is padded with zero), not yet folded: under 2³³, so a few of them
/// add without overflow.
///
/// The words are read eight bytes at a time in native byte order (RFC 1071
/// §2(B): the sum is byte-order independent, so [`fold`] swaps it to big
/// endian once, at the end) and added as `u64`s, with the carries out of
/// bit 63 counted on the side: 2⁶⁴ ≡ 1 in one's complement, so each carry
/// is worth one and the count is added back.  The tail is a 4-, 2- and
/// 1-byte word at the lanes they would have had in a full one.
fn sum_words(data: &[u8]) -> u64 {
    let (mut sum, mut carries) = (0u64, 0u64);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_ne_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        let (next, carry) = sum.overflowing_add(word);
        sum = next;
        carries += u64::from(carry);
    }
    let (mut tail, mut tail_sum) = (words.remainder(), 0u64);
    if let [a, b, c, d, rest @ ..] = tail {
        tail_sum += u64::from(u32::from_ne_bytes([*a, *b, *c, *d]));
        tail = rest;
    }
    if let [a, b, rest @ ..] = tail {
        tail_sum += u64::from(u16::from_ne_bytes([*a, *b]));
        tail = rest;
    }
    if let [last] = tail {
        tail_sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    // Both are small: at most one more carry, after which the sum is
    // below them and cannot carry again.
    let (sum, carry) = sum.overflowing_add(carries + tail_sum);
    let sum = sum + u64::from(carry);
    (sum & 0xffff_ffff) + (sum >> 32)
}

/// Fold a word sum to 16 bits, swap it to big endian and complement it.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !u16::from_be(sum as u16)
}

/// RFC 1071 Internet checksum over `data` (used by IPv4, ICMP, UDP, TCP).
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold(sum_words(data))
}

/// Compute the transport checksum (UDP / TCP / ICMPv6) including the
/// pseudo-header for the given source/destination pair.
///
/// The pseudo-header is built on the stack and `transport_bytes` is summed
/// where it lies: both pseudo-headers are even-length, so the two word sums
/// add up to the sum over their concatenation.
pub fn pseudo_header_checksum(
    src: IpAddr,
    dst: IpAddr,
    protocol: IpProtocol,
    transport_bytes: &[u8],
) -> u16 {
    let mut pseudo = [0u8; 40];
    let pseudo_len = match (src, dst) {
        (IpAddr::V4(s), IpAddr::V4(d)) => {
            pseudo[0..4].copy_from_slice(&s.octets());
            pseudo[4..8].copy_from_slice(&d.octets());
            pseudo[9] = protocol.number();
            pseudo[10..12].copy_from_slice(&(transport_bytes.len() as u16).to_be_bytes());
            12
        }
        (IpAddr::V6(s), IpAddr::V6(d)) => {
            pseudo[0..16].copy_from_slice(&s.octets());
            pseudo[16..32].copy_from_slice(&d.octets());
            pseudo[32..36].copy_from_slice(&(transport_bytes.len() as u32).to_be_bytes());
            pseudo[39] = protocol.number();
            40
        }
        // Mixed address families cannot occur on a real path; fall back to
        // a checksum over the transport bytes only so the caller still
        // gets a deterministic value.
        _ => 0,
    };
    fold(sum_words(&pseudo[..pseudo_len]) + sum_words(transport_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4() -> Ipv4Header {
        let header = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(93, 184, 216, 34),
            IpProtocol::Udp,
            64,
        );
        Ipv4Header {
            dscp: Dscp::new(12),
            ..header.with_ecn(EcnCodepoint::Ect0)
        }
    }

    #[test]
    fn ipv4_round_trip() {
        let hdr = v4();
        let bytes = hdr.encode(100);
        let (decoded, len) = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(len, IPV4_HEADER_LEN);
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn ipv4_total_length_and_checksum() {
        let bytes = v4().encode(80);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 100);
        assert_eq!(internet_checksum(&bytes), 0);
    }

    #[test]
    fn ipv4_detects_corruption() {
        let mut bytes = v4().encode(0);
        bytes[8] ^= 0xff; // flip TTL without fixing the checksum
        assert_eq!(
            Ipv4Header::decode(&bytes),
            Err(PacketError::BadChecksum {
                what: "ipv4 header"
            })
        );
    }

    #[test]
    fn ipv4_truncated() {
        let bytes = v4().encode(0);
        assert!(matches!(
            Ipv4Header::decode(&bytes[..10]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn ipv6_round_trip() {
        let hdr = Ipv6Header::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            IpProtocol::Udp,
            64,
        )
        .with_ecn(EcnCodepoint::Ect1);
        let bytes = hdr.encode(42);
        let (decoded, len) = Ipv6Header::decode(&bytes).unwrap();
        assert_eq!(len, IPV6_HEADER_LEN);
        assert_eq!(decoded, hdr);
        assert_eq!(u16::from_be_bytes([bytes[4], bytes[5]]), 42);
    }

    #[test]
    fn ip_header_enum_dispatch() {
        let mut hdr = IpHeader::V4(v4());
        assert_eq!(hdr.ecn(), EcnCodepoint::Ect0);
        hdr.set_ecn(EcnCodepoint::Ce);
        assert_eq!(hdr.ecn(), EcnCodepoint::Ce);
        assert_eq!(hdr.protocol(), IpProtocol::Udp);
        assert!(!hdr.is_v6());
    }

    /// A datagram's header as it goes on the wire.
    fn header_bytes(dgram: &IpDatagram) -> Vec<u8> {
        let mut buf = Vec::new();
        dgram.header.write(dgram.payload.len(), &mut buf);
        buf
    }

    #[test]
    fn datagram_round_trip() {
        let dgram = IpDatagram::new(IpHeader::V4(v4()), vec![1, 2, 3, 4, 5]);
        let mut bytes = header_bytes(&dgram);
        bytes.extend_from_slice(&dgram.payload);
        let (header, len) = IpHeader::decode(&bytes).unwrap();
        assert_eq!(IpDatagram::new(header, bytes[len..].to_vec()), dgram);
        assert_eq!(dgram.wire_len(), IPV4_HEADER_LEN + 5);
    }

    /// `assemble` against the headers the per-crate assemblers it replaced
    /// built by hand: QUIC over UDP over IPv4 (the QUIC driver), TCP over
    /// IPv6 (the TCP connection) and a tracebox probe (TTL, DSCP and ECN
    /// all set).
    #[test]
    fn assemble_is_byte_exact() {
        let v4 = (
            Ipv4Addr::new(192, 0, 2, 10),
            Ipv4Addr::new(198, 51, 100, 80),
        );
        let v6: (Ipv6Addr, Ipv6Addr) = (
            "2001:db8::10".parse().unwrap(),
            "2001:db8:1::80".parse().unwrap(),
        );
        let transport = vec![0xa5; 37];

        let quic = IpDatagram::assemble(
            v4.0.into(),
            v4.1.into(),
            IpProtocol::Udp,
            64,
            EcnCodepoint::Ect0,
            transport.clone(),
        )
        .unwrap();
        let expected =
            Ipv4Header::new(v4.0, v4.1, IpProtocol::Udp, 64).with_ecn(EcnCodepoint::Ect0);
        assert_eq!(header_bytes(&quic), expected.encode(37));
        assert_eq!(quic.payload, transport);

        let tcp = IpDatagram::assemble(
            v6.0.into(),
            v6.1.into(),
            IpProtocol::Tcp,
            64,
            EcnCodepoint::Ce,
            transport.clone(),
        )
        .unwrap();
        let expected = Ipv6Header::new(v6.0, v6.1, IpProtocol::Tcp, 64).with_ecn(EcnCodepoint::Ce);
        assert_eq!(header_bytes(&tcp), expected.encode(37));

        let mut probe = IpDatagram::assemble(
            v4.0.into(),
            v4.1.into(),
            IpProtocol::Udp,
            3,
            EcnCodepoint::Ect1,
            transport.clone(),
        )
        .unwrap();
        probe.header.set_dscp(Dscp::new(46));
        let expected = Ipv4Header {
            dscp: Dscp::new(46),
            ..Ipv4Header::new(v4.0, v4.1, IpProtocol::Udp, 3).with_ecn(EcnCodepoint::Ect1)
        };
        assert_eq!(header_bytes(&probe), expected.encode(37));
    }

    #[test]
    fn assemble_rejects_mixed_address_families() {
        let v4 = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10));
        let v6 = IpAddr::V6("2001:db8::1".parse().unwrap());
        for (src, dst) in [(v4, v6), (v6, v4)] {
            assert_eq!(
                IpDatagram::assemble(
                    src,
                    dst,
                    IpProtocol::Udp,
                    64,
                    EcnCodepoint::Ect0,
                    Vec::new()
                ),
                Err(PacketError::InvalidField {
                    what: "ip datagram",
                    reason: "source and destination address families differ",
                })
            );
        }
    }

    #[test]
    fn transport_is_borrowed_by_protocol() {
        let dgram = IpDatagram::new(IpHeader::V4(v4()), vec![1, 2, 3]);
        assert_eq!(dgram.transport(IpProtocol::Udp), Some(&[1u8, 2, 3][..]));
        assert_eq!(dgram.transport(IpProtocol::Tcp), None);
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length() {
        assert_eq!(internet_checksum(&[0xff]), !0xff00);
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(IpProtocol::Udp.number(), 17);
        assert_eq!(IpProtocol::from_u8(6).unwrap(), IpProtocol::Tcp);
        assert!(IpProtocol::from_u8(89).is_err());
    }
}
