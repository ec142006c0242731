//! A simplified but RFC-shaped QUIC wire image.
//!
//! The measurement study needs QUIC packets that
//!
//! * carry a version field distinguishing QUIC v1 from drafts 27/29/32/34
//!   (Figure 4 / Figure 8 track ECN support per version),
//! * have an Initial long header large enough to be used as a tracebox probe,
//! * carry ACK frames with and without ECN counts (`ACK_ECN` is how servers
//!   mirror codepoints back to the client),
//! * and carry CRYPTO / STREAM frames for the handshake and the HTTP exchange.
//!
//! Header protection, AEAD encryption and retry integrity tags are **not**
//! implemented (see DESIGN.md §2): ECN lives in the IP header and in ACK
//! frames, so confidentiality is orthogonal to everything the study measures,
//! and omitting it keeps the simulation deterministic and fast.  Apart from
//! that omission the encodings follow RFC 9000 (variable-length integers,
//! long/short header layout, frame layouts).

pub mod frame;
pub mod header;
pub mod varint;
pub mod version;

pub use frame::{AckFrame, AckRef, Frame, FrameRef, Frames};
pub use header::{ConnectionId, LongPacketType, OpenPacket, PacketHeader, PacketRef, QuicPacket};
pub use varint::{decode_varint, encode_varint, varint_len};
pub use version::QuicVersion;

/// The UDP port HTTP/3 servers listen on.
pub const QUIC_PORT: u16 = 443;

/// Minimum size of a client Initial datagram (RFC 9000 §14.1).
pub const MIN_INITIAL_SIZE: usize = 1200;
