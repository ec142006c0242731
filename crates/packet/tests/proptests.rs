//! Property-based tests for the wire formats.

use proptest::prelude::*;
use qem_packet::ecn::{split_traffic_class, traffic_class, Dscp, EcnCodepoint, EcnCounts};
use qem_packet::icmp::{write_time_exceeded, IcmpMessage};
use qem_packet::ip::{
    internet_checksum, pseudo_header_checksum, IpProtocol, Ipv4Header, Ipv6Header,
};
use qem_packet::quic::{
    decode_varint, encode_varint, varint_len, AckFrame, ConnectionId, Frame, FrameRef, Frames,
    LongPacketType, PacketHeader, PacketRef, QuicPacket, QuicVersion,
};
use qem_packet::tcp::{TcpFlags, TcpHeader};
use qem_packet::udp::UdpHeader;
use qem_packet::PacketError;
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

/// The frame decoder this crate had before [`Frames`]: one owned frame per
/// call, one `Padding { size: 1 }` per padding byte, merged afterwards; and
/// the owned ICMP codec from before messages were read and written in
/// place.  Kept as the reference the borrowing forms are held to.
mod oracle {
    use qem_packet::ecn::EcnCounts;
    use qem_packet::icmp::{
        ICMPV4_DEST_UNREACHABLE, ICMPV4_TIME_EXCEEDED, ICMPV6_DEST_UNREACHABLE,
        ICMPV6_TIME_EXCEEDED, ICMP_HEADER_LEN,
    };
    use qem_packet::ip::internet_checksum;
    use qem_packet::quic::{decode_varint, AckFrame, Frame};
    use qem_packet::PacketError;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum IcmpMessage {
        TimeExceeded { v6: bool, quote: Vec<u8> },
        DestinationUnreachable { v6: bool, code: u8, quote: Vec<u8> },
    }

    impl IcmpMessage {
        pub fn encode(&self) -> Vec<u8> {
            let (ty, code, quote) = match self {
                IcmpMessage::TimeExceeded { v6, quote } => {
                    let ty = if *v6 {
                        ICMPV6_TIME_EXCEEDED
                    } else {
                        ICMPV4_TIME_EXCEEDED
                    };
                    (ty, 0u8, quote)
                }
                IcmpMessage::DestinationUnreachable { v6, code, quote } => {
                    let ty = if *v6 {
                        ICMPV6_DEST_UNREACHABLE
                    } else {
                        ICMPV4_DEST_UNREACHABLE
                    };
                    (ty, *code, quote)
                }
            };
            let mut buf = Vec::with_capacity(ICMP_HEADER_LEN + quote.len());
            buf.push(ty);
            buf.push(code);
            buf.extend_from_slice(&[0, 0]); // checksum placeholder
            buf.extend_from_slice(&[0, 0, 0, 0]); // unused
            buf.extend_from_slice(quote);
            let csum = internet_checksum(&buf);
            buf[2..4].copy_from_slice(&csum.to_be_bytes());
            buf
        }

        pub fn decode(buf: &[u8], v6: bool) -> Result<Self, PacketError> {
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
            let quote = buf[ICMP_HEADER_LEN..].to_vec();
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

    pub fn decode_all(buf: &[u8]) -> Result<Vec<Frame>, PacketError> {
        let mut frames = Vec::new();
        let mut at = 0usize;
        while at < buf.len() {
            let (frame, consumed) = oracle_decode_one(&buf[at..])?;
            at += consumed;
            // Merge consecutive padding entries.
            if let (Some(Frame::Padding { size }), Frame::Padding { size: add }) =
                (frames.last_mut(), &frame)
            {
                *size += add;
            } else {
                frames.push(frame);
            }
        }
        Ok(frames)
    }

    fn oracle_decode_one(buf: &[u8]) -> Result<(Frame, usize), PacketError> {
        let (ty, mut at) = decode_varint(buf)?;
        let need = |n: usize, at: usize| -> Result<(), PacketError> {
            if buf.len() < at + n {
                Err(PacketError::Truncated {
                    what: "quic frame",
                    needed: at + n,
                    available: buf.len(),
                })
            } else {
                Ok(())
            }
        };
        match ty {
            0x00 => Ok((Frame::Padding { size: 1 }, at)),
            0x01 => Ok((Frame::Ping, at)),
            0x02 | 0x03 => {
                let (largest_acked, c) = decode_varint(&buf[at..])?;
                at += c;
                let (ack_delay, c) = decode_varint(&buf[at..])?;
                at += c;
                let (range_count, c) = decode_varint(&buf[at..])?;
                at += c;
                let (first_range, c) = decode_varint(&buf[at..])?;
                at += c;
                if first_range > largest_acked {
                    return Err(PacketError::InvalidField {
                        what: "ack frame",
                        reason: "first range exceeds largest acknowledged",
                    });
                }
                let mut ranges = vec![(largest_acked - first_range, largest_acked)];
                let mut prev_start = largest_acked - first_range;
                for _ in 0..range_count {
                    let (gap, c) = decode_varint(&buf[at..])?;
                    at += c;
                    let (len, c) = decode_varint(&buf[at..])?;
                    at += c;
                    let end = prev_start
                        .checked_sub(gap + 2)
                        .ok_or(PacketError::InvalidField {
                            what: "ack frame",
                            reason: "gap underflows packet number space",
                        })?;
                    let start = end.checked_sub(len).ok_or(PacketError::InvalidField {
                        what: "ack frame",
                        reason: "range length underflows packet number space",
                    })?;
                    ranges.push((start, end));
                    prev_start = start;
                }
                let ecn = if ty == 0x03 {
                    let (ect0, c) = decode_varint(&buf[at..])?;
                    at += c;
                    let (ect1, c) = decode_varint(&buf[at..])?;
                    at += c;
                    let (ce, c) = decode_varint(&buf[at..])?;
                    at += c;
                    Some(EcnCounts { ect0, ect1, ce })
                } else {
                    None
                };
                Ok((
                    Frame::Ack(AckFrame {
                        largest_acked,
                        ack_delay,
                        ranges,
                        ecn,
                    }),
                    at,
                ))
            }
            0x06 => {
                let (offset, c) = decode_varint(&buf[at..])?;
                at += c;
                let (len, c) = decode_varint(&buf[at..])?;
                at += c;
                let len = len as usize;
                need(len, at)?;
                let data = buf[at..at + len].to_vec();
                Ok((Frame::Crypto { offset, data }, at + len))
            }
            0x0e | 0x0f => {
                let (stream_id, c) = decode_varint(&buf[at..])?;
                at += c;
                let (offset, c) = decode_varint(&buf[at..])?;
                at += c;
                let (len, c) = decode_varint(&buf[at..])?;
                at += c;
                let len = len as usize;
                need(len, at)?;
                let data = buf[at..at + len].to_vec();
                Ok((
                    Frame::Stream {
                        stream_id,
                        offset,
                        fin: ty == 0x0f,
                        data,
                    },
                    at + len,
                ))
            }
            0x1c => {
                let (error_code, c) = decode_varint(&buf[at..])?;
                at += c;
                let (_frame_type, c) = decode_varint(&buf[at..])?;
                at += c;
                let (len, c) = decode_varint(&buf[at..])?;
                at += c;
                let len = len as usize;
                need(len, at)?;
                let reason = String::from_utf8_lossy(&buf[at..at + len]).into_owned();
                Ok((Frame::ConnectionClose { error_code, reason }, at + len))
            }
            0x1e => Ok((Frame::HandshakeDone, at)),
            other => Err(PacketError::UnknownFrameType(other)),
        }
    }
}

/// What [`Frames`] reads from `bytes`, copied out — and, on the way, every
/// borrowed slice checked to lie in `bytes`, none overlapping another: the
/// parser's views are the input, so reading requests no heap at all and
/// copying them out no more than the input's length.
fn frames_read_in_place(bytes: &[u8]) -> Result<Result<Vec<Frame>, PacketError>, TestCaseError> {
    let input = bytes.as_ptr_range();
    let mut borrowed = 0usize;
    let mut last_end = input.start;
    let mut frames = Vec::new();
    for frame in Frames::new(bytes) {
        let frame = match frame {
            Ok(frame) => frame,
            Err(error) => return Ok(Err(error)),
        };
        if let FrameRef::Crypto { data, .. }
        | FrameRef::Stream { data, .. }
        | FrameRef::ConnectionClose { reason: data, .. } = frame
        {
            let view = data.as_ptr_range();
            prop_assert!(last_end <= view.start && view.end <= input.end);
            last_end = view.end;
            borrowed += data.len();
        }
        frames.push(frame.to_owned());
    }
    prop_assert!(borrowed <= bytes.len());
    Ok(Ok(frames))
}

/// One stretch of a generated payload.
#[derive(Debug, Clone)]
enum Piece {
    Frame(Frame),
    /// A run of one-byte padding frames.
    Zeros(usize),
    /// One padding frame whose type is a 2-, 4- or 8-byte varint.
    LongPadding(usize),
}

fn arb_ack() -> impl Strategy<Value = Frame> {
    (
        0u64..100_000,
        proptest::collection::vec((0u64..40, 0u64..40), 0..6),
        proptest::option::of((0u64..100, 0u64..100, 0u64..100)),
    )
        .prop_map(|(largest_acked, below, ecn)| {
            let mut ranges = vec![(largest_acked.saturating_sub(7), largest_acked)];
            for (gap, len) in below {
                let prev_start = ranges[ranges.len() - 1].0;
                let Some(end) = prev_start.checked_sub(gap + 2) else {
                    break;
                };
                ranges.push((end.saturating_sub(len), end));
            }
            Frame::Ack(AckFrame {
                largest_acked,
                ack_delay: largest_acked % 97,
                ranges,
                ecn: ecn.map(|(ect0, ect1, ce)| EcnCounts { ect0, ect1, ce }),
            })
        })
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    let data = || proptest::collection::vec(any::<u8>(), 0..80);
    prop_oneof![
        (0usize..=1300).prop_map(Piece::Zeros),
        (0usize..=3).prop_map(Piece::Zeros),
        prop_oneof![Just(2usize), Just(4usize), Just(8usize)].prop_map(Piece::LongPadding),
        Just(Piece::Frame(Frame::Ping)),
        Just(Piece::Frame(Frame::HandshakeDone)),
        arb_ack().prop_map(Piece::Frame),
        (any::<u32>(), data()).prop_map(|(offset, data)| Piece::Frame(Frame::Crypto {
            offset: u64::from(offset),
            data,
        })),
        (any::<u16>(), any::<u32>(), data()).prop_map(|(id, offset, data)| Piece::Frame(
            Frame::Stream {
                stream_id: u64::from(id),
                offset: u64::from(offset),
                fin: offset % 2 == 0,
                data,
            }
        )),
        (any::<u16>(), "[ -~]{0,24}").prop_map(|(code, reason)| Piece::Frame(
            Frame::ConnectionClose {
                error_code: u64::from(code),
                reason,
            }
        )),
    ]
}

/// The wire bytes of `pieces`, and the frames they decode to.
fn lay_out(pieces: &[Piece]) -> (Vec<u8>, Vec<Frame>) {
    let mut bytes = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    for piece in pieces {
        let frame = match piece {
            Piece::Frame(frame) => {
                frame.encode(&mut bytes);
                frame.clone()
            }
            Piece::Zeros(run) => {
                bytes.resize(bytes.len() + run, 0);
                Frame::Padding { size: *run }
            }
            Piece::LongPadding(len) => {
                bytes.push(((len.trailing_zeros()) as u8) << 6);
                bytes.resize(bytes.len() + len - 1, 0);
                Frame::Padding { size: 1 }
            }
        };
        match (frames.last_mut(), frame) {
            (_, Frame::Padding { size: 0 }) => {}
            (Some(Frame::Padding { size }), Frame::Padding { size: more }) => *size += more,
            (_, frame) => frames.push(frame),
        }
    }
    (bytes, frames)
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

    /// The transport headers inside the ICMP quotes a tracer reads: any
    /// bytes give a typed error or a header and a body inside the input.
    #[test]
    fn tcp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        if let Ok((_, body)) = TcpHeader::decode(&bytes) {
            prop_assert!(body.len() <= bytes.len());
        }
    }

    #[test]
    fn udp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        if let Ok((_, body)) = UdpHeader::decode(&bytes) {
            prop_assert!(body.len() <= bytes.len());
        }
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
    fn frames_of_arbitrary_bytes_are_the_oracles(
        bytes in proptest::collection::vec(any::<u8>(), 0..1500),
        zeros in 0usize..1400,
    ) {
        // As drawn — the first byte is rarely a frame type, so mostly the
        // error paths — and behind a run of padding, as hostile bytes at
        // the end of an Initial would sit.
        prop_assert_eq!(frames_read_in_place(&bytes)?, oracle::decode_all(&bytes));
        let mut padded = vec![0u8; zeros];
        padded.extend_from_slice(&bytes);
        prop_assert_eq!(frames_read_in_place(&padded)?, oracle::decode_all(&padded));
        prop_assert_eq!(Frame::decode_all(&padded), oracle::decode_all(&padded));
    }

    #[test]
    fn frames_between_padding_runs_are_the_oracles(
        pieces in proptest::collection::vec(arb_piece(), 0..12),
        cut in any::<u16>(),
        flip in (any::<u16>(), 1u8..=255),
    ) {
        let (bytes, frames) = lay_out(&pieces);
        prop_assert_eq!(frames_read_in_place(&bytes)?, Ok(frames));
        prop_assert_eq!(Frame::decode_all(&bytes), oracle::decode_all(&bytes));
        if bytes.is_empty() {
            return Ok(());
        }
        // Cut short anywhere, and with any one byte damaged: the same
        // frames or the same error.
        let cut = &bytes[..usize::from(cut) % bytes.len()];
        prop_assert_eq!(frames_read_in_place(cut)?, oracle::decode_all(cut));
        let mut damaged = bytes.clone();
        damaged[usize::from(flip.0) % bytes.len()] ^= flip.1;
        prop_assert_eq!(frames_read_in_place(&damaged)?, oracle::decode_all(&damaged));
        // The receiver's check of a whole payload says what the list would.
        let packet = PacketRef {
            header: PacketHeader::Short {
                dcid: ConnectionId::default(),
                packet_number: 0,
            },
            payload: &damaged,
        };
        prop_assert_eq!(
            packet.ack_eliciting(),
            oracle::decode_all(&damaged).map(|frames| frames.iter().any(Frame::is_ack_eliciting))
        );
    }

    #[test]
    fn packet_read_in_place_is_the_owned_decode(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        cid_len in 0usize..=20,
    ) {
        match (PacketRef::parse(&bytes, cid_len), QuicPacket::decode(&bytes, cid_len)) {
            (Ok((read, read_len)), Ok((owned, owned_len))) => {
                prop_assert_eq!(read_len, owned_len);
                prop_assert_eq!(&read.header, &owned.header);
                prop_assert_eq!(read.payload, &owned.payload[..]);
                // The payload is a slice of the datagram, and what was read
                // encodes back to the bytes consumed when they were minimal.
                let (input, view) = (bytes.as_ptr_range(), read.payload.as_ptr_range());
                prop_assert!(read.payload.is_empty() || (input.start <= view.start && view.end <= input.end));
                if let Ok((again, _)) = QuicPacket::decode(&owned.encode(), cid_len) {
                    prop_assert_eq!(again, owned);
                }
            }
            (Err(read), Err(owned)) => prop_assert_eq!(read, owned),
            (read, owned) => prop_assert!(false, "{read:?} vs {owned:?}"),
        }
    }

    #[test]
    fn packet_written_in_place_is_the_owned_encode(
        long in any::<u8>(),
        cids in (any::<u64>(), any::<u64>()),
        pn in any::<u32>(),
        token in proptest::collection::vec(any::<u8>(), 0..24),
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        stretch in prop_oneof![Just(0usize), Just(40usize), Just(17_000usize)],
        front in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        // Payload lengths on every side of the Length field's 1-, 2- and
        // 4-byte encodings, behind whatever the buffer already holds.
        let mut payload = payload;
        payload.resize(payload.len() + stretch, 0x5a);
        let (dcid, scid) = (ConnectionId::from_u64(cids.0), ConnectionId::from_u64(cids.1));
        let header = match long % 3 {
            0 => PacketHeader::Short { dcid, packet_number: u64::from(pn) },
            kind => PacketHeader::Long {
                ty: if kind == 1 { LongPacketType::Initial } else { LongPacketType::Handshake },
                version: QuicVersion::V1,
                dcid,
                scid,
                token: if kind == 1 { token } else { Vec::new() },
                packet_number: u64::from(pn),
            },
        };
        let mut buf = front.clone();
        let open = header.begin(&mut buf);
        buf.extend_from_slice(&payload);
        open.finish(&mut buf);
        prop_assert_eq!(&buf[..front.len()], &front[..]);
        let packet = QuicPacket::new(header, payload);
        prop_assert_eq!(&buf[front.len()..], &packet.encode()[..]);
        let (decoded, consumed) = QuicPacket::decode(&buf[front.len()..], 8).unwrap();
        prop_assert_eq!(consumed, buf.len() - front.len());
        prop_assert_eq!(decoded, packet);
    }

    #[test]
    fn connection_id_is_its_byte_string(
        bytes in proptest::collection::vec(any::<u8>(), 0..=40),
        other in proptest::collection::vec(any::<u8>(), 0..=40),
    ) {
        use std::hash::{Hash, Hasher};
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(value: &impl Hash) -> u64 {
            let mut hasher = DefaultHasher::new();
            value.hash(&mut hasher);
            hasher.finish()
        }
        // The heap form the inline one replaces: a `Vec` of at most 20 bytes.
        let vec_form = |bytes: &[u8]| bytes[..bytes.len().min(ConnectionId::MAX_LEN)].to_vec();
        let id = ConnectionId::new(&bytes);
        let copy = id;
        prop_assert_eq!(id.as_bytes(), &vec_form(&bytes)[..]);
        prop_assert_eq!(id.len(), vec_form(&bytes).len());
        prop_assert_eq!(id.is_empty(), vec_form(&bytes).is_empty());
        let hex: String = vec_form(&bytes).iter().map(|b| format!("{b:02x}")).collect();
        prop_assert_eq!(id.to_string(), hex);
        prop_assert_eq!(hash_of(&id), hash_of(&vec_form(&bytes)));
        prop_assert_eq!(id == ConnectionId::new(&other), vec_form(&bytes) == vec_form(&other));
        prop_assert_eq!(copy, id);
        if bytes.len() == 8 {
            let value = u64::from_be_bytes(bytes[..8].try_into().unwrap());
            prop_assert_eq!(ConnectionId::from_u64(value), id);
        }
    }

    /// ICMP messages read in place read what the owned decoder read — the
    /// same quote bytes, the same error — on arbitrary and on damaged
    /// bytes, never panicking; and a time-exceeded message written in
    /// place, its quote written where it goes, is the owned encoder's
    /// bytes.
    #[test]
    fn icmp_read_and_written_in_place_are_the_oracles(
        v6 in any::<bool>(),
        unreachable in any::<bool>(),
        code in any::<u8>(),
        quote in proptest::collection::vec(any::<u8>(), 0..200),
        damage in (any::<usize>(), any::<u8>(), any::<usize>()),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let expected = if unreachable {
            oracle::IcmpMessage::DestinationUnreachable { v6, code, quote: quote.clone() }
        } else {
            oracle::IcmpMessage::TimeExceeded { v6, quote: quote.clone() }
        };
        let bytes = expected.encode();
        let oracle_bytes = bytes.clone();
        if !unreachable {
            // A router writes its quote behind the header it was given.
            let mut written = vec![0xa5; 3];
            write_time_exceeded(&mut written, v6, |buf| buf.extend_from_slice(&quote));
            prop_assert_eq!(&written[3..], &oracle_bytes[..]);
        }
        let (at, flip, cut) = damage;
        let mut damaged = bytes.clone();
        damaged[at % bytes.len()] ^= flip;
        damaged.truncate(cut % (bytes.len() + 1));
        for (buf, v6) in [(&bytes, v6), (&bytes, !v6), (&damaged, v6), (&arbitrary, v6)] {
            let read = IcmpMessage::decode(buf, v6).map(|m| match m {
                IcmpMessage::TimeExceeded { v6, quote } => {
                    oracle::IcmpMessage::TimeExceeded { v6, quote: quote.to_vec() }
                }
                IcmpMessage::DestinationUnreachable { v6, code, quote } => {
                    oracle::IcmpMessage::DestinationUnreachable { v6, code, quote: quote.to_vec() }
                }
            });
            prop_assert_eq!(read, oracle::IcmpMessage::decode(buf, v6));
        }
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
