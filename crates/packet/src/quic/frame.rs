//! QUIC frames (RFC 9000 §19), restricted to the set the study exercises.
//!
//! The frame that matters most here is `ACK` with ECN counts (type `0x03`):
//! this is the mechanism by which a QUIC receiver *mirrors* the ECN
//! codepoints it observed on the IP layer back to the sender, and it is the
//! input to the sender-side ECN validation the paper analyses.
//!
//! [`Frames`] is the one parser: an iterator over a packet's payload whose
//! items ([`FrameRef`]) borrow their data from it and request no heap —
//! `CRYPTO` / `STREAM` data and the close reason are slices of the payload,
//! an ACK's ranges are re-read from it on demand ([`AckRef::ranges`]), and
//! a run of padding is consumed by one scan for the first non-zero byte (a
//! client Initial is ≈ 1 100 of them); [`FrameRef::to_owned`] copies one
//! out into an owned [`Frame`].  [`Frame::encode`] appends to the
//! caller's buffer; [`encode_ack`], [`encode_stream_header`] and
//! [`encode_connection_close`] are its parts for senders that hold the
//! content in another shape than an owned frame, and [`begin_crypto`] /
//! [`begin_stream`] open a frame whose data the sender then writes where it
//! goes.

use crate::ecn::EcnCounts;
use crate::error::PacketError;
use crate::quic::header::OpenPacket;
use crate::quic::varint::{decode_varint, encode_varint};
use crate::Result;

/// An ACK frame: the largest acknowledged packet number, the ranges of
/// acknowledged packet numbers below it, and optionally the ECN counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckFrame {
    /// Largest packet number being acknowledged.
    pub largest_acked: u64,
    /// Acknowledgment delay in microseconds (already scaled; the study's
    /// endpoints use an `ack_delay_exponent` of 0 for simplicity).
    pub ack_delay: u64,
    /// Acknowledged ranges as inclusive `(start, end)` pairs, highest first.
    /// The first range must end at `largest_acked`.
    pub ranges: Vec<(u64, u64)>,
    /// ECN counters, present only in `ACK_ECN` (type 0x03) frames.
    pub ecn: Option<EcnCounts>,
}

impl AckFrame {
    /// Build an ACK for a single contiguous range `[start, end]`.
    // lint: allow(unused-pub) benchmark: its packet probe builds an ACK frame
    pub fn contiguous(start: u64, end: u64, ecn: Option<EcnCounts>) -> Self {
        AckFrame {
            largest_acked: end,
            ack_delay: 0,
            ranges: vec![(start, end)],
            ecn,
        }
    }
}

/// The QUIC frames supported by this reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// PADDING (type 0x00); `size` consecutive padding bytes.
    Padding {
        /// Number of padding bytes this entry represents.
        size: usize,
    },
    /// PING (type 0x01).
    Ping,
    /// ACK / ACK_ECN (types 0x02 / 0x03).
    Ack(AckFrame),
    /// CRYPTO (type 0x06) — carries the plaintext handshake messages.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Crypto stream bytes.
        data: Vec<u8>,
    },
    /// STREAM with offset and length (type 0x0e) — carries the HTTP exchange.
    Stream {
        /// Stream identifier.
        stream_id: u64,
        /// Offset of `data` in the stream.
        offset: u64,
        /// Whether this frame ends the stream.
        fin: bool,
        /// Stream payload bytes.
        data: Vec<u8>,
    },
    /// CONNECTION_CLOSE (type 0x1c).
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// Human-readable reason phrase.
        reason: String,
    },
    /// HANDSHAKE_DONE (type 0x1e).
    HandshakeDone,
}

const FRAME_PADDING: u64 = 0x00;
const FRAME_PING: u64 = 0x01;
const FRAME_ACK: u64 = 0x02;
const FRAME_ACK_ECN: u64 = 0x03;
const FRAME_CRYPTO: u64 = 0x06;
const FRAME_STREAM_OFF_LEN: u64 = 0x0e;
const FRAME_STREAM_OFF_LEN_FIN: u64 = 0x0f;
const FRAME_CONNECTION_CLOSE: u64 = 0x1c;
const FRAME_HANDSHAKE_DONE: u64 = 0x1e;

/// Append an ACK (or, with `ecn`, an ACK_ECN) frame acknowledging `ranges`
/// — inclusive `(start, end)` pairs, highest first, the first ending at
/// `largest_acked` — to `buf`.
pub fn encode_ack(
    buf: &mut Vec<u8>,
    largest_acked: u64,
    ack_delay: u64,
    ranges: &[(u64, u64)],
    ecn: Option<EcnCounts>,
) {
    encode_varint(
        buf,
        if ecn.is_some() {
            FRAME_ACK_ECN
        } else {
            FRAME_ACK
        },
    );
    encode_varint(buf, largest_acked);
    encode_varint(buf, ack_delay);
    encode_varint(buf, ranges.len().saturating_sub(1) as u64);
    // First range: number of packets below largest_acked, inclusive.
    let (first_start, first_end) = ranges
        .first()
        .copied()
        .unwrap_or((largest_acked, largest_acked));
    encode_varint(buf, first_end - first_start);
    let mut prev_start = first_start;
    for (start, end) in ranges.iter().skip(1) {
        // Gap: packets between this range and the previous one, minus 2.
        encode_varint(buf, prev_start - end - 2);
        encode_varint(buf, end - start);
        prev_start = *start;
    }
    if let Some(ecn) = ecn {
        encode_varint(buf, ecn.ect0);
        encode_varint(buf, ecn.ect1);
        encode_varint(buf, ecn.ce);
    }
}

/// Append everything of a STREAM frame but its data — type, stream, offset
/// and the length `len` — to `buf`; the caller appends the `len` data bytes.
pub fn encode_stream_header(buf: &mut Vec<u8>, stream_id: u64, offset: u64, fin: bool, len: usize) {
    encode_varint(
        buf,
        if fin {
            FRAME_STREAM_OFF_LEN_FIN
        } else {
            FRAME_STREAM_OFF_LEN
        },
    );
    encode_varint(buf, stream_id);
    encode_varint(buf, offset);
    encode_varint(buf, len as u64);
}

/// Append the type and offset of a CRYPTO frame to `buf` and reserve its
/// length: the caller writes the data behind it and finishes the length.
pub fn begin_crypto(buf: &mut Vec<u8>, offset: u64) -> OpenPacket {
    encode_varint(buf, FRAME_CRYPTO);
    encode_varint(buf, offset);
    OpenPacket::length(buf)
}

/// [`encode_stream_header`] for data of a length not known yet: the caller
/// writes the data behind it and finishes the length.
pub fn begin_stream(buf: &mut Vec<u8>, stream_id: u64, offset: u64, fin: bool) -> OpenPacket {
    // A zero length is the one byte `0`: take it back, reserve two.
    encode_stream_header(buf, stream_id, offset, fin, 0);
    buf.pop();
    OpenPacket::length(buf)
}

/// Append a CONNECTION_CLOSE frame to `buf`.
pub fn encode_connection_close(buf: &mut Vec<u8>, error_code: u64, reason: &str) {
    encode_varint(buf, FRAME_CONNECTION_CLOSE);
    encode_varint(buf, error_code);
    encode_varint(buf, 0); // triggering frame type
    encode_varint(buf, reason.len() as u64);
    buf.extend_from_slice(reason.as_bytes());
}

impl Frame {
    /// Append the wire encoding of this frame to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Padding { size } => buf.resize(buf.len() + size, 0),
            Frame::Ping => encode_varint(buf, FRAME_PING),
            Frame::Ack(ack) => {
                encode_ack(buf, ack.largest_acked, ack.ack_delay, &ack.ranges, ack.ecn)
            }
            Frame::Crypto { offset, data } => {
                encode_varint(buf, FRAME_CRYPTO);
                encode_varint(buf, *offset);
                encode_varint(buf, data.len() as u64);
                buf.extend_from_slice(data);
            }
            Frame::Stream {
                stream_id,
                offset,
                fin,
                data,
            } => {
                encode_stream_header(buf, *stream_id, *offset, *fin, data.len());
                buf.extend_from_slice(data);
            }
            Frame::ConnectionClose { error_code, reason } => {
                encode_connection_close(buf, *error_code, reason);
            }
            Frame::HandshakeDone => encode_varint(buf, FRAME_HANDSHAKE_DONE),
        }
    }

    /// Encode a sequence of frames into a payload buffer.
    // lint: allow(unused-pub) benchmark: its packet probe encodes an ACK payload
    pub fn encode_all(frames: &[Frame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in frames {
            frame.encode(&mut buf);
        }
        buf
    }
}

/// A frame read in place: [`Frame`] with its data borrowed from the payload
/// it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// PADDING: a whole run of `size` consecutive padding frames.
    Padding {
        /// Number of padding frames in the run.
        size: usize,
    },
    /// PING.
    Ping,
    /// ACK / ACK_ECN.
    Ack(AckRef<'a>),
    /// CRYPTO.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Crypto stream bytes.
        data: &'a [u8],
    },
    /// STREAM with offset and length.
    Stream {
        /// Stream identifier.
        stream_id: u64,
        /// Offset of `data` in the stream.
        offset: u64,
        /// Whether this frame ends the stream.
        fin: bool,
        /// Stream payload bytes.
        data: &'a [u8],
    },
    /// CONNECTION_CLOSE.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// Reason phrase as sent — not necessarily UTF-8.
        reason: &'a [u8],
    },
    /// HANDSHAKE_DONE.
    HandshakeDone,
}

impl FrameRef<'_> {
    /// Whether loss of this frame must be repaired (ack-eliciting and
    /// retransmittable content).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            FrameRef::Ack(_) | FrameRef::Padding { .. } | FrameRef::ConnectionClose { .. }
        )
    }

    /// The frame with its data copied out.
    pub fn to_owned(&self) -> Frame {
        match *self {
            FrameRef::Padding { size } => Frame::Padding { size },
            FrameRef::Ping => Frame::Ping,
            FrameRef::Ack(ack) => Frame::Ack(ack.to_owned()),
            FrameRef::Crypto { offset, data } => Frame::Crypto {
                offset,
                data: data.to_vec(),
            },
            FrameRef::Stream {
                stream_id,
                offset,
                fin,
                data,
            } => Frame::Stream {
                stream_id,
                offset,
                fin,
                data: data.to_vec(),
            },
            FrameRef::ConnectionClose { error_code, reason } => Frame::ConnectionClose {
                error_code,
                reason: String::from_utf8_lossy(reason).into_owned(),
            },
            FrameRef::HandshakeDone => Frame::HandshakeDone,
        }
    }
}

/// An ACK frame read in place.  The ranges below the first stay in the
/// payload — checked when the frame was read, decoded again by
/// [`AckRef::ranges`] — so an ACK of any size requests no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRef<'a> {
    /// Largest packet number being acknowledged.
    pub largest_acked: u64,
    /// Acknowledgment delay in microseconds.
    pub ack_delay: u64,
    /// ECN counters, present only in `ACK_ECN` frames.
    pub ecn: Option<EcnCounts>,
    /// Packets below `largest_acked` in the first range.
    first_range: u64,
    /// The `(gap, length)` varint pairs of the further ranges.
    more: &'a [u8],
}

impl<'a> AckRef<'a> {
    /// The acknowledged ranges as inclusive `(start, end)` pairs, highest
    /// first.
    pub fn ranges(&self) -> AckRanges<'a> {
        let first_start = self.largest_acked.saturating_sub(self.first_range);
        AckRanges {
            first: Some((first_start, self.largest_acked)),
            prev_start: first_start,
            more: self.more,
        }
    }

    /// Whether `pn` is covered by one of the ranges.
    pub fn acknowledges(&self, pn: u64) -> bool {
        self.ranges()
            .any(|(start, end)| (start..=end).contains(&pn))
    }

    /// The frame with its ranges collected.
    pub fn to_owned(&self) -> AckFrame {
        AckFrame {
            largest_acked: self.largest_acked,
            ack_delay: self.ack_delay,
            ranges: self.ranges().collect(),
            ecn: self.ecn,
        }
    }
}

/// Iterator over the ranges of an [`AckRef`].
#[derive(Debug, Clone)]
pub struct AckRanges<'a> {
    first: Option<(u64, u64)>,
    prev_start: u64,
    more: &'a [u8],
}

impl Iterator for AckRanges<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if let Some(first) = self.first.take() {
            return Some(first);
        }
        let (range, consumed) = next_range(self.more, self.prev_start).ok()?;
        self.more = &self.more[consumed..];
        self.prev_start = range.0;
        Some(range)
    }
}

/// Read one `(gap, length)` pair from the front of `buf`: the range it
/// denotes below a range starting at `prev_start`, and the bytes consumed.
fn next_range(buf: &[u8], prev_start: u64) -> Result<((u64, u64), usize)> {
    let mut r = Reader { buf, at: 0 };
    let gap = r.varint()?;
    let len = r.varint()?;
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
    Ok(((start, end), r.at))
}

/// A cursor over the bytes of one frame.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64> {
        let (value, consumed) = decode_varint(&self.buf[self.at..])?;
        self.at += consumed;
        Ok(value)
    }

    /// The next `len` bytes, `len` being a length field just read.
    fn bytes(&mut self, len: u64) -> Result<&'a [u8]> {
        let rest = &self.buf[self.at..];
        if (rest.len() as u64) < len {
            return Err(PacketError::Truncated {
                what: "quic frame",
                needed: self.at.saturating_add(len as usize),
                available: self.buf.len(),
            });
        }
        self.at += len as usize;
        Ok(&rest[..len as usize])
    }
}

/// Length of the run of zero bytes at the front of `buf`.
fn zero_run(buf: &[u8]) -> usize {
    // Whole blocks first — OR-ing a block together has no early exit, so it
    // compiles to a few wide loads — then bytewise to the exact end.
    const BLOCK: usize = 32;
    let zero_blocks = buf
        .chunks_exact(BLOCK)
        .take_while(|block| block.iter().fold(0, |acc, &b| acc | b) == 0)
        .count();
    let rest = &buf[zero_blocks * BLOCK..];
    zero_blocks * BLOCK + rest.iter().position(|&b| b != 0).unwrap_or(rest.len())
}

/// Iterator over the frames of a packet payload, each read in place.
/// Yields the first malformed frame's error and then ends.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    rest: &'a [u8],
}

impl<'a> Frames<'a> {
    /// The frames of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Frames { rest: payload }
    }

    /// Read the frame at the front of `buf`; returns it and the bytes
    /// consumed.
    fn decode_one(buf: &'a [u8]) -> Result<(FrameRef<'a>, usize)> {
        let mut r = Reader { buf, at: 0 };
        let frame = match r.varint()? {
            FRAME_PADDING => {
                // A padding frame is one zero byte, and a padded Initial has
                // a thousand in a row: take each run in one scan.  Between
                // runs, a padding type written as a longer varint (`40 00`)
                // is one more padding frame of the same entry.
                let mut size = 1;
                loop {
                    let run = zero_run(&buf[r.at..]);
                    size += run;
                    r.at += run;
                    match decode_varint(&buf[r.at..]) {
                        Ok((FRAME_PADDING, consumed)) => {
                            size += 1;
                            r.at += consumed;
                        }
                        _ => break,
                    }
                }
                FrameRef::Padding { size }
            }
            FRAME_PING => FrameRef::Ping,
            ty @ (FRAME_ACK | FRAME_ACK_ECN) => {
                let largest_acked = r.varint()?;
                let ack_delay = r.varint()?;
                let range_count = r.varint()?;
                let first_range = r.varint()?;
                if first_range > largest_acked {
                    return Err(PacketError::InvalidField {
                        what: "ack frame",
                        reason: "first range exceeds largest acknowledged",
                    });
                }
                let more_at = r.at;
                let mut prev_start = largest_acked - first_range;
                for _ in 0..range_count {
                    let ((start, _), consumed) = next_range(&buf[r.at..], prev_start)?;
                    r.at += consumed;
                    prev_start = start;
                }
                let more = &buf[more_at..r.at];
                let ecn = if ty == FRAME_ACK_ECN {
                    Some(EcnCounts {
                        ect0: r.varint()?,
                        ect1: r.varint()?,
                        ce: r.varint()?,
                    })
                } else {
                    None
                };
                FrameRef::Ack(AckRef {
                    largest_acked,
                    ack_delay,
                    ecn,
                    first_range,
                    more,
                })
            }
            FRAME_CRYPTO => {
                let offset = r.varint()?;
                let len = r.varint()?;
                FrameRef::Crypto {
                    offset,
                    data: r.bytes(len)?,
                }
            }
            ty @ (FRAME_STREAM_OFF_LEN | FRAME_STREAM_OFF_LEN_FIN) => {
                let stream_id = r.varint()?;
                let offset = r.varint()?;
                let len = r.varint()?;
                FrameRef::Stream {
                    stream_id,
                    offset,
                    fin: ty == FRAME_STREAM_OFF_LEN_FIN,
                    data: r.bytes(len)?,
                }
            }
            FRAME_CONNECTION_CLOSE => {
                let error_code = r.varint()?;
                let _frame_type = r.varint()?;
                let len = r.varint()?;
                FrameRef::ConnectionClose {
                    error_code,
                    reason: r.bytes(len)?,
                }
            }
            FRAME_HANDSHAKE_DONE => FrameRef::HandshakeDone,
            other => return Err(PacketError::UnknownFrameType(other)),
        };
        Ok((frame, r.at))
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<FrameRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let result = Self::decode_one(self.rest);
        self.rest = match &result {
            Ok((_, consumed)) => &self.rest[*consumed..],
            Err(_) => &[],
        };
        Some(result.map(|(frame, _)| frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`Frames`] reads from `buf`, copied out: a run of padding is
    /// one [`Frame::Padding`].
    fn decode_all(buf: &[u8]) -> Result<Vec<Frame>> {
        Frames::new(buf)
            .map(|frame| frame.map(|f| f.to_owned()))
            .collect()
    }

    fn round_trip(frames: &[Frame]) -> Vec<Frame> {
        decode_all(&Frame::encode_all(frames)).unwrap()
    }

    #[test]
    fn ping_and_handshake_done() {
        let frames = vec![Frame::Ping, Frame::HandshakeDone];
        assert_eq!(round_trip(&frames), frames);
    }

    #[test]
    fn padding_is_collapsed() {
        let frames = vec![Frame::Padding { size: 37 }, Frame::Ping];
        let decoded = round_trip(&frames);
        assert_eq!(decoded, frames);
    }

    #[test]
    fn ack_without_ecn() {
        let frames = vec![Frame::Ack(AckFrame::contiguous(0, 9, None))];
        assert_eq!(round_trip(&frames), frames);
    }

    #[test]
    fn ack_with_ecn_counts() {
        let ecn = EcnCounts {
            ect0: 5,
            ect1: 0,
            ce: 2,
        };
        let frames = vec![Frame::Ack(AckFrame::contiguous(3, 11, Some(ecn)))];
        let decoded = round_trip(&frames);
        match &decoded[0] {
            Frame::Ack(a) => assert_eq!(a.ecn, Some(ecn)),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn ack_with_multiple_ranges() {
        let ack = AckFrame {
            largest_acked: 20,
            ack_delay: 11,
            ranges: vec![(18, 20), (10, 14), (2, 5)],
            ecn: None,
        };
        let frames = vec![Frame::Ack(ack)];
        assert_eq!(round_trip(&frames), frames);
    }

    #[test]
    fn crypto_and_stream_frames() {
        let frames = vec![
            Frame::Crypto {
                offset: 0,
                data: b"client hello".to_vec(),
            },
            Frame::Stream {
                stream_id: 0,
                offset: 100,
                fin: true,
                data: b"GET /".to_vec(),
            },
        ];
        assert_eq!(round_trip(&frames), frames);
    }

    #[test]
    fn connection_close_round_trip() {
        let frames = vec![Frame::ConnectionClose {
            error_code: 0x0a,
            reason: "protocol violation".to_string(),
        }];
        assert_eq!(round_trip(&frames), frames);
    }

    #[test]
    fn ack_eliciting_classification() {
        let frames = Frame::encode_all(&[
            Frame::Ping,
            Frame::Crypto {
                offset: 0,
                data: vec![],
            },
            Frame::Ack(AckFrame::contiguous(0, 0, None)),
            Frame::Padding { size: 1 },
        ]);
        let eliciting: Vec<bool> = Frames::new(&frames)
            .map(|frame| frame.unwrap().is_ack_eliciting())
            .collect();
        assert_eq!(eliciting, [true, true, false, false]);
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let buf = vec![0x21u8, 0, 0];
        assert!(matches!(
            decode_all(&buf),
            Err(PacketError::UnknownFrameType(0x21))
        ));
    }

    #[test]
    fn malformed_ack_rejected() {
        // largest_acked = 1 but first range claims 5 packets below it.
        let mut buf = Vec::new();
        encode_varint(&mut buf, FRAME_ACK);
        encode_varint(&mut buf, 1);
        encode_varint(&mut buf, 0);
        encode_varint(&mut buf, 0);
        encode_varint(&mut buf, 5);
        assert!(decode_all(&buf).is_err());
    }

    #[test]
    fn truncated_crypto_rejected() {
        let mut buf = Vec::new();
        Frame::Crypto {
            offset: 0,
            data: vec![1, 2, 3, 4, 5, 6],
        }
        .encode(&mut buf);
        assert!(decode_all(&buf[..buf.len() - 2]).is_err());
    }
}
