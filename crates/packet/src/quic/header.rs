//! QUIC packet headers: long headers (Initial / Handshake), short headers,
//! and version negotiation packets.
//!
//! Packet numbers are carried in the clear with an explicit length (1–4
//! bytes, encoded in the two low bits of the first byte exactly as RFC 9000
//! specifies) because header protection is deliberately not implemented
//! (see the crate-level documentation).
//!
//! A packet is read where it lies and written where it goes.
//! [`PacketRef::parse`] is the one parser: it yields the header — a value
//! without heap for every packet the endpoints exchange, since a
//! [`ConnectionId`] is stored inline — and the frame bytes as a slice of
//! the datagram; [`QuicPacket::decode`] copies that slice and nothing else.
//! [`PacketHeader::begin`] is the one encoder: it appends the header to the
//! buffer that becomes the datagram, the caller appends the frames behind
//! it, and [`OpenPacket::finish`] settles the long header's Length field;
//! [`QuicPacket::encode`] does exactly that with its owned payload.

use crate::error::PacketError;
use crate::quic::frame::Frames;
use crate::quic::varint::{decode_varint, encode_varint, varint_bytes};
use crate::quic::version::QuicVersion;
use crate::Result;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A QUIC connection ID (0–20 bytes), stored inline: copying one is a
/// 21-byte move, not an allocation.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionId {
    /// The ID's bytes, zero beyond `len` (so the derived `Eq` is an
    /// equality of IDs).
    bytes: [u8; ConnectionId::MAX_LEN],
    len: u8,
}

impl ConnectionId {
    /// Maximum connection-ID length permitted by RFC 9000.
    pub const MAX_LEN: usize = 20;

    /// Build a connection ID, truncating to [`ConnectionId::MAX_LEN`] bytes.
    pub fn new(bytes: &[u8]) -> Self {
        let len = bytes.len().min(Self::MAX_LEN);
        let mut id = ConnectionId {
            bytes: [0; Self::MAX_LEN],
            len: len as u8,
        };
        id.bytes[..len].copy_from_slice(&bytes[..len]);
        id
    }

    /// Build a connection ID from a `u64`, as the endpoints in this
    /// reproduction do (8-byte IDs).
    pub fn from_u64(value: u64) -> Self {
        Self::new(&value.to_be_bytes())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the connection ID is zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ConnectionId")
            .field(&self.as_bytes())
            .finish()
    }
}

/// Hashes as its byte string does, whatever the storage behind it.
impl Hash for ConnectionId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Long-header packet types (RFC 9000 §17.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LongPacketType {
    /// Initial packet (carries a token length field).
    Initial = 0b00,
    /// 0-RTT packet (unused by the measurement client but decodable).
    ZeroRtt = 0b01,
    /// Handshake packet.
    Handshake = 0b10,
    /// Retry packet.
    Retry = 0b11,
}

impl LongPacketType {
    fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b00 => LongPacketType::Initial,
            0b01 => LongPacketType::ZeroRtt,
            0b10 => LongPacketType::Handshake,
            _ => LongPacketType::Retry,
        }
    }
}

/// A decoded QUIC packet header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketHeader {
    /// A long-header packet (Initial, Handshake, …).
    Long {
        /// Packet type.
        ty: LongPacketType,
        /// Protocol version.
        version: QuicVersion,
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Source connection ID.
        scid: ConnectionId,
        /// Token (Initial packets only; empty otherwise).
        token: Vec<u8>,
        /// Packet number.
        packet_number: u64,
    },
    /// A short-header (1-RTT) packet.
    Short {
        /// Destination connection ID.
        dcid: ConnectionId,
        /// Packet number.
        packet_number: u64,
    },
    /// A version negotiation packet listing the server's supported versions.
    VersionNegotiation {
        /// Destination connection ID (the client's source connection ID).
        dcid: ConnectionId,
        /// Source connection ID (the client's destination connection ID).
        scid: ConnectionId,
        /// Versions the server supports.
        supported: Vec<QuicVersion>,
    },
}

/// Number of bytes used to encode packet numbers on the wire.
const PN_LEN: usize = 4;

/// Bytes [`PacketHeader::begin`] reserves for a long header's Length field:
/// the two-byte varint that fits every payload from 60 bytes to 16 KB.
const LENGTH_RESERVED: usize = 2;

impl PacketHeader {
    /// The version of a long-header packet.
    pub fn version(&self) -> Option<QuicVersion> {
        match self {
            PacketHeader::Long { version, .. } => Some(*version),
            _ => None,
        }
    }

    /// Append this header to `buf` — the buffer that becomes the datagram.
    /// The caller appends the packet's frames behind it and then calls
    /// [`OpenPacket::finish`].  Initial packets are *not* padded here;
    /// datagram padding to [`crate::quic::MIN_INITIAL_SIZE`] is the sender's
    /// job.
    pub fn begin(&self, buf: &mut Vec<u8>) -> OpenPacket {
        let mut open = OpenPacket { length_at: None };
        match self {
            PacketHeader::Long {
                ty,
                version,
                dcid,
                scid,
                token,
                packet_number,
            } => {
                // form=1, fixed=1, type, reserved=0, pn_len-1
                let first = 0b1100_0000 | ((*ty as u8) << 4) | ((PN_LEN - 1) as u8);
                buf.push(first);
                buf.extend_from_slice(&version.to_u32().to_be_bytes());
                buf.push(dcid.len() as u8);
                buf.extend_from_slice(dcid.as_bytes());
                buf.push(scid.len() as u8);
                buf.extend_from_slice(scid.as_bytes());
                if *ty == LongPacketType::Initial {
                    encode_varint(buf, token.len() as u64);
                    buf.extend_from_slice(token);
                }
                // Length field (packet number + payload), known once the
                // payload is behind it, then the packet number.
                open = OpenPacket::length(buf);
                buf.extend_from_slice(&(*packet_number as u32).to_be_bytes());
            }
            PacketHeader::Short {
                dcid,
                packet_number,
            } => {
                let first = 0b0100_0000 | ((PN_LEN - 1) as u8);
                buf.push(first);
                buf.extend_from_slice(dcid.as_bytes());
                buf.extend_from_slice(&(*packet_number as u32).to_be_bytes());
            }
            PacketHeader::VersionNegotiation {
                dcid,
                scid,
                supported,
            } => {
                buf.push(0b1000_0000);
                buf.extend_from_slice(&0u32.to_be_bytes());
                buf.push(dcid.len() as u8);
                buf.extend_from_slice(dcid.as_bytes());
                buf.push(scid.len() as u8);
                buf.extend_from_slice(scid.as_bytes());
                for v in supported {
                    buf.extend_from_slice(&v.to_u32().to_be_bytes());
                }
            }
        }
        open
    }
}

/// A packet whose header is in the buffer and whose frames are being
/// appended behind it; see [`PacketHeader::begin`].
#[derive(Debug)]
#[must_use = "a long header's Length field is only valid after `finish`"]
pub struct OpenPacket {
    /// Where a long header's Length field sits; `None` for the headers
    /// that carry none.
    length_at: Option<usize>,
}

impl OpenPacket {
    /// Reserve a length field at the end of `buf` for whatever the caller
    /// writes behind it — a CRYPTO or STREAM frame's data, written where it
    /// goes — settled by [`OpenPacket::finish`] as a long header's is.
    pub fn length(buf: &mut Vec<u8>) -> OpenPacket {
        let length_at = Some(buf.len());
        buf.extend_from_slice(&[0; LENGTH_RESERVED]);
        OpenPacket { length_at }
    }

    /// The packet is complete: everything behind the header in `buf` is its
    /// payload.  Writes the long header's Length field as the minimal
    /// varint, closing up (or widening) the two bytes reserved for it when
    /// the payload is shorter than 60 bytes (or longer than 16 KB).
    pub fn finish(self, buf: &mut Vec<u8>) {
        let Some(at) = self.length_at else {
            return;
        };
        let behind = at + LENGTH_RESERVED;
        let (field, len) = varint_bytes(buf.len().saturating_sub(behind) as u64);
        if len == LENGTH_RESERVED {
            buf[at..behind].copy_from_slice(&field[..len]);
        } else {
            buf.splice(at..behind, field[..len].iter().copied());
        }
    }
}

/// A full (plaintext) QUIC packet: header plus frame payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuicPacket {
    /// The packet header.
    pub header: PacketHeader,
    /// Encoded frames.
    pub payload: Vec<u8>,
}

impl QuicPacket {
    /// Construct a packet.
    pub fn new(header: PacketHeader, payload: Vec<u8>) -> Self {
        QuicPacket { header, payload }
    }

    /// Encode the packet into a buffer of its own; see
    /// [`PacketHeader::begin`] for writing one in place.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.payload.len());
        let open = self.header.begin(&mut buf);
        buf.extend_from_slice(&self.payload);
        open.finish(&mut buf);
        buf
    }

    /// Decode one packet from the front of `buf` into an owned packet: what
    /// [`PacketRef::parse`] reads, with the payload copied out.
    pub fn decode(buf: &[u8], local_cid_len: usize) -> Result<(Self, usize)> {
        let (packet, consumed) = PacketRef::parse(buf, local_cid_len)?;
        Ok((
            QuicPacket::new(packet.header, packet.payload.to_vec()),
            consumed,
        ))
    }
}

/// A packet read in place: its header and its frame bytes, the latter a
/// slice of the datagram it arrived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRef<'a> {
    /// The packet header.
    pub header: PacketHeader,
    /// Encoded frames.
    pub payload: &'a [u8],
}

impl<'a> PacketRef<'a> {
    /// Read one packet from the front of `buf`.
    ///
    /// `local_cid_len` is the length of connection IDs this endpoint issues;
    /// it is needed to delimit short headers.  Returns the packet and the
    /// number of bytes consumed, so coalesced datagrams can be processed by
    /// calling this in a loop.
    pub fn parse(buf: &'a [u8], local_cid_len: usize) -> Result<(Self, usize)> {
        match buf.first() {
            None => Err(PacketError::Truncated {
                what: "quic packet",
                needed: 1,
                available: 0,
            }),
            Some(first) if first & 0b1000_0000 != 0 => Self::decode_long(buf),
            Some(&first) => Self::decode_short(buf, local_cid_len, first),
        }
    }

    /// The frames of the payload, read in place.
    pub fn frames(&self) -> Frames<'a> {
        Frames::new(self.payload)
    }

    /// Check every frame: whether any is ack-eliciting, or the first
    /// malformed one's error.  A receiver that drops a packet with a
    /// malformed frame whole calls this before it acts on
    /// [`frames`](Self::frames) — two passes over the payload, no list of
    /// frames in between.
    pub fn ack_eliciting(&self) -> Result<bool> {
        let mut ack_eliciting = false;
        for frame in self.frames() {
            ack_eliciting |= frame?.is_ack_eliciting();
        }
        Ok(ack_eliciting)
    }

    fn decode_long(buf: &'a [u8]) -> Result<(Self, usize)> {
        let mut at = 1usize;
        let need = |n: usize, at: usize, buf: &[u8]| -> Result<()> {
            if buf.len() < at + n {
                Err(PacketError::Truncated {
                    what: "quic long header",
                    needed: at + n,
                    available: buf.len(),
                })
            } else {
                Ok(())
            }
        };
        need(4, at, buf)?;
        let version_raw = u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        at += 4;
        need(1, at, buf)?;
        let dcid_len = buf[at] as usize;
        at += 1;
        if dcid_len > ConnectionId::MAX_LEN {
            return Err(PacketError::InvalidField {
                what: "quic long header",
                reason: "destination connection id too long",
            });
        }
        need(dcid_len, at, buf)?;
        let dcid = ConnectionId::new(&buf[at..at + dcid_len]);
        at += dcid_len;
        need(1, at, buf)?;
        let scid_len = buf[at] as usize;
        at += 1;
        if scid_len > ConnectionId::MAX_LEN {
            return Err(PacketError::InvalidField {
                what: "quic long header",
                reason: "source connection id too long",
            });
        }
        need(scid_len, at, buf)?;
        let scid = ConnectionId::new(&buf[at..at + scid_len]);
        at += scid_len;

        if version_raw == 0 {
            // Version negotiation: the rest of the packet is a version list.
            let list = &buf[at..];
            let supported = list
                .chunks_exact(4)
                .map(|v| QuicVersion::from_u32(u32::from_be_bytes([v[0], v[1], v[2], v[3]])))
                .collect();
            let consumed = buf.len() - list.len() % 4;
            return Ok((
                PacketRef {
                    header: PacketHeader::VersionNegotiation {
                        dcid,
                        scid,
                        supported,
                    },
                    payload: &[],
                },
                consumed,
            ));
        }

        let version = QuicVersion::from_u32(version_raw);
        let first = buf[0];
        let ty = LongPacketType::from_bits((first >> 4) & 0b11);
        let pn_len = ((first & 0b11) as usize) + 1;

        let mut token = Vec::new();
        if ty == LongPacketType::Initial {
            let (token_len, consumed) = decode_varint(&buf[at..])?;
            at += consumed;
            let token_len = token_len as usize;
            need(token_len, at, buf)?;
            token = buf[at..at + token_len].to_vec();
            at += token_len;
        }
        let (length, consumed) = decode_varint(&buf[at..])?;
        at += consumed;
        let length = length as usize;
        need(length, at, buf)?;
        if length < pn_len {
            return Err(PacketError::InvalidField {
                what: "quic long header",
                reason: "length field shorter than packet number",
            });
        }
        let mut pn = 0u64;
        for b in &buf[at..at + pn_len] {
            pn = (pn << 8) | u64::from(*b);
        }
        Ok((
            PacketRef {
                header: PacketHeader::Long {
                    ty,
                    version,
                    dcid,
                    scid,
                    token,
                    packet_number: pn,
                },
                payload: &buf[at + pn_len..at + length],
            },
            at + length,
        ))
    }

    fn decode_short(buf: &'a [u8], local_cid_len: usize, first: u8) -> Result<(Self, usize)> {
        let pn_len = ((first & 0b11) as usize) + 1;
        let needed = 1 + local_cid_len + pn_len;
        if buf.len() < needed {
            return Err(PacketError::Truncated {
                what: "quic short header",
                needed,
                available: buf.len(),
            });
        }
        let dcid = ConnectionId::new(&buf[1..1 + local_cid_len]);
        let mut pn = 0u64;
        for b in &buf[1 + local_cid_len..1 + local_cid_len + pn_len] {
            pn = (pn << 8) | u64::from(*b);
        }
        // A short-header packet extends to the end of the datagram.
        Ok((
            PacketRef {
                header: PacketHeader::Short {
                    dcid,
                    packet_number: pn,
                },
                payload: &buf[needed..],
            },
            buf.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(v: u64) -> ConnectionId {
        ConnectionId::from_u64(v)
    }

    #[test]
    fn connection_id_basics() {
        let id = cid(0x1122_3344_5566_7788);
        assert_eq!(id.len(), 8);
        assert!(!id.is_empty());
        assert_eq!(id.to_string(), "1122334455667788");
        assert_eq!(ConnectionId::new(&[0u8; 40]).len(), ConnectionId::MAX_LEN);
    }

    #[test]
    fn initial_round_trip() {
        let pkt = QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Initial,
                version: QuicVersion::V1,
                dcid: cid(1),
                scid: cid(2),
                token: vec![0xaa, 0xbb],
                packet_number: 7,
            },
            vec![0x01, 0x00, 0x00],
        );
        let bytes = pkt.encode();
        let (decoded, consumed) = QuicPacket::decode(&bytes, 8).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, pkt);
        assert_eq!(decoded.header.version(), Some(QuicVersion::V1));
    }

    #[test]
    fn handshake_round_trip_draft_version() {
        let pkt = QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Handshake,
                version: QuicVersion::DRAFT_27,
                dcid: cid(3),
                scid: cid(4),
                token: vec![],
                packet_number: 1,
            },
            vec![0x06, 0x00, 0x05, 1, 2, 3, 4, 5],
        );
        let bytes = pkt.encode();
        let (decoded, _) = QuicPacket::decode(&bytes, 8).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn short_header_round_trip() {
        let pkt = QuicPacket::new(
            PacketHeader::Short {
                dcid: cid(9),
                packet_number: 42,
            },
            vec![1, 2, 3, 4],
        );
        let bytes = pkt.encode();
        let (decoded, consumed) = QuicPacket::decode(&bytes, 8).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn version_negotiation_round_trip() {
        let pkt = QuicPacket::new(
            PacketHeader::VersionNegotiation {
                dcid: cid(1),
                scid: cid(2),
                supported: vec![QuicVersion::V1, QuicVersion::DRAFT_29],
            },
            vec![],
        );
        let bytes = pkt.encode();
        let (decoded, _) = QuicPacket::decode(&bytes, 8).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn coalesced_packets_decode_in_sequence() {
        let first = QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Initial,
                version: QuicVersion::V1,
                dcid: cid(1),
                scid: cid(2),
                token: vec![],
                packet_number: 0,
            },
            vec![0x01],
        );
        let second = QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Handshake,
                version: QuicVersion::V1,
                dcid: cid(1),
                scid: cid(2),
                token: vec![],
                packet_number: 0,
            },
            vec![0x01, 0x01],
        );
        let mut datagram = first.encode();
        datagram.extend_from_slice(&second.encode());
        let (d1, used1) = QuicPacket::decode(&datagram, 8).unwrap();
        let (d2, used2) = QuicPacket::decode(&datagram[used1..], 8).unwrap();
        assert_eq!(d1, first);
        assert_eq!(d2, second);
        assert_eq!(used1 + used2, datagram.len());
    }

    #[test]
    fn truncated_inputs_rejected() {
        let pkt = QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Initial,
                version: QuicVersion::V1,
                dcid: cid(1),
                scid: cid(2),
                token: vec![],
                packet_number: 0,
            },
            vec![0u8; 64],
        );
        let bytes = pkt.encode();
        for cut in [0, 1, 5, 10, bytes.len() - 1] {
            assert!(QuicPacket::decode(&bytes[..cut], 8).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn oversized_cid_rejected() {
        // Hand-craft a long header claiming a 21-byte DCID.
        let mut bytes = vec![0b1100_0011];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(21);
        bytes.extend_from_slice(&[0u8; 21]);
        bytes.push(0);
        assert!(matches!(
            QuicPacket::decode(&bytes, 8),
            Err(PacketError::InvalidField { .. })
        ));
    }
}
