//! Property-based tests for the wire formats.

use proptest::prelude::*;
use qem_packet::ecn::{split_traffic_class, traffic_class, Dscp, EcnCodepoint, EcnCounts};
use qem_packet::ip::{
    internet_checksum, pseudo_header_checksum, IpProtocol, Ipv4Header, Ipv6Header,
};
use qem_packet::quic::{
    decode_varint, encode_varint, varint_len, AckFrame, ConnectionId, Frame, LongPacketType,
    PacketHeader, QuicPacket, QuicVersion,
};
use qem_packet::tcp::{TcpFlags, TcpHeader};
use qem_packet::udp::UdpHeader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn arb_ecn() -> impl Strategy<Value = EcnCodepoint> {
    prop_oneof![
        Just(EcnCodepoint::NotEct),
        Just(EcnCodepoint::Ect0),
        Just(EcnCodepoint::Ect1),
        Just(EcnCodepoint::Ce),
    ]
}

/// A (source, destination) pair: both IPv4, both IPv6, or — the
/// checksum's fallback case — one of each.
fn arb_addr_pair() -> impl Strategy<Value = (IpAddr, IpAddr)> {
    let v4 = |bits: u32| IpAddr::V4(Ipv4Addr::from(bits));
    let v6 = |bits: u128| IpAddr::V6(Ipv6Addr::from(bits));
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(move |(s, d)| (v4(s), v4(d))),
        (any::<u128>(), any::<u128>()).prop_map(move |(s, d)| (v6(s), v6(d))),
        (any::<u32>(), any::<u128>()).prop_map(move |(s, d)| (v4(s), v6(d))),
    ]
}

/// Encode twice — into an empty buffer and into a dirty, larger one — and
/// require the same bytes; then encode the first `shorter` payload bytes
/// into the warm buffer and require that it was reused in place.  Returns
/// the segment.
fn encode_reusing(
    payload: &[u8],
    shorter: usize,
    encode: impl Fn(&[u8], &mut Vec<u8>),
) -> Result<Vec<u8>, TestCaseError> {
    let mut clean = Vec::new();
    encode(payload, &mut clean);
    let mut warm = vec![0xa5; clean.len() + 300];
    encode(payload, &mut warm);
    prop_assert_eq!(&warm, &clean);
    let (ptr, capacity) = (warm.as_ptr(), warm.capacity());
    let shorter = &payload[..shorter.min(payload.len())];
    encode(shorter, &mut warm);
    prop_assert_eq!((warm.as_ptr(), warm.capacity()), (ptr, capacity));
    let mut expected = Vec::new();
    encode(shorter, &mut expected);
    prop_assert_eq!(warm, expected);
    Ok(clean)
}

proptest! {
    /// The heap-free checksum against the definition written out: the
    /// Internet checksum of pseudo-header ‖ segment, for IPv4, IPv6 and the
    /// mixed-family fallback (no pseudo-header), odd and even lengths up to
    /// the largest a length field can carry.
    #[test]
    fn pseudo_header_checksum_is_the_checksum_of_pseudo_header_then_bytes(
        addrs in arb_addr_pair(),
        udp in any::<bool>(),
        bytes in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..=1500),
            proptest::collection::vec(any::<u8>(), 0..=1500),
            proptest::collection::vec(any::<u8>(), 0..=1500),
            proptest::collection::vec(any::<u8>(), 65_535usize),
            proptest::collection::vec(any::<u8>(), 65_534usize),
        ],
    ) {
        let protocol = if udp { IpProtocol::Udp } else { IpProtocol::Tcp };
        let mut naive = Vec::new();
        match addrs {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                naive.extend_from_slice(&s.octets());
                naive.extend_from_slice(&d.octets());
                naive.extend_from_slice(&[0, protocol.number()]);
                naive.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                naive.extend_from_slice(&s.octets());
                naive.extend_from_slice(&d.octets());
                naive.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                naive.extend_from_slice(&[0, 0, 0, protocol.number()]);
            }
            _ => {}
        }
        naive.extend_from_slice(&bytes);
        prop_assert_eq!(
            pseudo_header_checksum(addrs.0, addrs.1, protocol, &bytes),
            internet_checksum(&naive)
        );
    }

    #[test]
    fn traffic_class_round_trips(dscp in 0u8..64, ecn in arb_ecn()) {
        let tc = traffic_class(Dscp::new(dscp), ecn);
        let (d, e) = split_traffic_class(tc);
        prop_assert_eq!(d.value(), dscp);
        prop_assert_eq!(e, ecn);
    }

    #[test]
    fn varint_round_trips(value in 0u64..(1u64 << 62)) {
        let mut buf = Vec::new();
        encode_varint(&mut buf, value);
        prop_assert_eq!(buf.len(), varint_len(value));
        let (decoded, consumed) = decode_varint(&buf).unwrap();
        prop_assert_eq!(decoded, value);
        prop_assert_eq!(consumed, buf.len());
    }

    #[test]
    fn varint_decoding_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..12)) {
        let _ = decode_varint(&bytes);
    }

    #[test]
    fn ipv4_header_round_trips(
        src in any::<u32>(),
        dst in any::<u32>(),
        dscp in 0u8..64,
        ecn in arb_ecn(),
        ttl in 1u8..=255,
        ident in any::<u16>(),
        payload_len in 0usize..1500,
    ) {
        let mut hdr = Ipv4Header::new(
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            IpProtocol::Udp,
            ttl,
        ).with_ecn(ecn).with_dscp(Dscp::new(dscp));
        hdr.identification = ident;
        let bytes = hdr.encode(payload_len);
        prop_assert_eq!(internet_checksum(&bytes), 0);
        let (decoded, len) = Ipv4Header::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, hdr);
        prop_assert_eq!(len, 20);
    }

    #[test]
    fn ipv6_header_round_trips(
        src in any::<u128>(),
        dst in any::<u128>(),
        ecn in arb_ecn(),
        hop_limit in 1u8..=255,
        flow in 0u32..(1 << 20),
    ) {
        let mut hdr = Ipv6Header::new(
            Ipv6Addr::from(src),
            Ipv6Addr::from(dst),
            IpProtocol::Udp,
            hop_limit,
        ).with_ecn(ecn);
        hdr.flow_label = flow;
        let bytes = hdr.encode(64);
        let (decoded, _) = Ipv6Header::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, hdr);
    }

    #[test]
    fn ip_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = qem_packet::ip::IpHeader::decode(&bytes);
    }

    #[test]
    fn udp_round_trips(
        addrs in arb_addr_pair(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        shorter in 0usize..256,
    ) {
        let (src, dst) = addrs;
        let hdr = UdpHeader::new(sport, dport);
        let seg = encode_reusing(&payload, shorter, |p, buf| hdr.encode(src, dst, p, buf))?;
        prop_assert!(UdpHeader::verify_checksum(src, dst, &seg));
        let (decoded, body) = UdpHeader::decode(&seg).unwrap();
        prop_assert_eq!(decoded, hdr);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn tcp_flags_round_trip(byte in any::<u8>()) {
        prop_assert_eq!(TcpFlags::from_byte(byte).to_byte(), byte);
    }

    #[test]
    fn tcp_round_trips(
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        addrs in arb_addr_pair(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        shorter in 0usize..128,
    ) {
        let (src, dst) = addrs;
        let hdr = TcpHeader::new(sport, dport, seq, ack, TcpFlags::from_byte(flags));
        let seg = encode_reusing(&payload, shorter, |p, buf| hdr.encode(src, dst, p, buf))?;
        prop_assert!(TcpHeader::verify_checksum(src, dst, &seg));
        let (decoded, body) = TcpHeader::decode(&seg).unwrap();
        prop_assert_eq!(decoded, hdr);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn quic_initial_round_trips(
        dcid in any::<u64>(),
        scid in any::<u64>(),
        pn in 0u64..u32::MAX as u64,
        token in proptest::collection::vec(any::<u8>(), 0..32),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let pkt = QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Initial,
                version: QuicVersion::V1,
                dcid: ConnectionId::from_u64(dcid),
                scid: ConnectionId::from_u64(scid),
                token,
                packet_number: pn,
            },
            payload,
        );
        let bytes = pkt.encode();
        let (decoded, consumed) = QuicPacket::decode(&bytes, 8).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, pkt);
    }

    #[test]
    fn quic_packet_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = QuicPacket::decode(&bytes, 8);
    }

    #[test]
    fn frame_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Frame::decode_all(&bytes);
    }

    #[test]
    fn ack_ecn_frame_round_trips(
        largest in 0u64..10_000,
        below in 0u64..100,
        ect0 in 0u64..1_000,
        ect1 in 0u64..1_000,
        ce in 0u64..1_000,
    ) {
        let first = largest.saturating_sub(below);
        let ack = AckFrame::contiguous(first, largest, Some(EcnCounts { ect0, ect1, ce }));
        let frames = vec![Frame::Ack(ack)];
        let decoded = Frame::decode_all(&Frame::encode_all(&frames)).unwrap();
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn ecn_counts_record_is_monotone(codes in proptest::collection::vec(arb_ecn(), 0..200)) {
        let mut counts = EcnCounts::ZERO;
        let mut prev = counts;
        for c in codes {
            counts.record(c);
            prop_assert!(counts.dominates(&prev));
            prev = counts;
        }
    }
}
