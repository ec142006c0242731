//! Application-data sourcing for QUIC flows: the sans-IO hooks workload
//! scenarios use to put *real traffic* — not just handshake probes — on the
//! wire.
//!
//! The measurement endpoints ([`ClientConnection`](crate::client) /
//! [`ServerConnection`](crate::server)) implement exactly the probe exchange
//! the paper's scanner needs; application workloads (bulk transfers, RTC
//! frame streaming) instead need a steady supply of 1-RTT packets carrying
//! STREAM data.  This module provides the two halves:
//!
//! * the sources handing out [`AppChunk`]s of stream data: [`BulkObject`]
//!   for a fixed-size HTTP-style object, [`FrameSource`] for periodic RTC
//!   frames;
//! * [`StreamPacketizer`] — appends chunks as short-header QUIC packets
//!   (one STREAM frame per packet, monotonically increasing packet
//!   numbers) to the datagram a flow is building, and reads them back in
//!   place on the receiving side; neither direction allocates.
//!
//! Everything here is sans-IO and deterministic: no clocks, no sockets, no
//! randomness.  The discrete-event engine owns time; `qem-workload` owns the
//! send/receive scheduling and congestion response.

use qem_packet::quic::frame::encode_stream_header;
use qem_packet::quic::{ConnectionId, FrameRef, PacketHeader, PacketRef};

/// A chunk of application stream data scheduled for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppChunk {
    /// Offset of the chunk in the application stream.
    pub offset: u64,
    /// Number of payload bytes in the chunk.
    pub len: usize,
    /// Whether this chunk ends the stream.
    pub fin: bool,
}

/// A fixed-size object transferred once: the bulk-goodput workload's data
/// source (think "HTTP response body of `size` bytes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkObject {
    size: u64,
    next: u64,
}

impl BulkObject {
    /// An object of `size` bytes, none of it handed out yet.
    pub fn new(size: u64) -> Self {
        BulkObject { size, next: 0 }
    }

    /// The object's size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The next chunk of at most `max_len` bytes, or `None` once the whole
    /// object has been handed out.
    pub fn next_chunk(&mut self, max_len: usize) -> Option<AppChunk> {
        if self.next >= self.size || max_len == 0 {
            return None;
        }
        let len = (self.size - self.next).min(max_len as u64) as usize;
        let chunk = AppChunk {
            offset: self.next,
            len,
            fin: self.next + len as u64 >= self.size,
        };
        self.next += len as u64;
        Some(chunk)
    }
}

/// A periodic frame generator: the RTC workload's data source.  Each call to
/// [`FrameSource::next_frame`] emits the chunks of one video-style frame at
/// consecutive stream offsets; the *caller* decides when frames are due
/// (every `frame_interval` on the virtual timeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSource {
    frame_bytes: u64,
    offset: u64,
    frames_emitted: u64,
}

impl FrameSource {
    /// A source emitting `frame_bytes`-byte frames.
    pub fn new(frame_bytes: u64) -> Self {
        FrameSource {
            frame_bytes: frame_bytes.max(1),
            offset: 0,
            frames_emitted: 0,
        }
    }

    /// The chunks of the next frame, each at most `max_len` bytes, handed
    /// out as they are taken: the frame is counted once, and the stream
    /// offset advances with each chunk, so the caller takes them all.
    pub fn next_frame(&mut self, max_len: usize) -> impl Iterator<Item = AppChunk> + '_ {
        let max_len = max_len.max(1) as u64;
        let mut remaining = self.frame_bytes;
        self.frames_emitted += 1;
        std::iter::from_fn(move || {
            let len = remaining.min(max_len);
            if len == 0 {
                return None;
            }
            let chunk = AppChunk {
                offset: self.offset,
                len: len as usize,
                fin: false,
            };
            self.offset += len;
            remaining -= len;
            Some(chunk)
        })
    }
}

/// Builds (and parses) the 1-RTT short-header packets that carry application
/// stream data, with monotonically increasing packet numbers — the wire
/// format workload flows put through the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPacketizer {
    dcid: ConnectionId,
    stream_id: u64,
    next_pn: u64,
}

impl StreamPacketizer {
    /// The most a packet adds to its chunk: a short header with an 8-byte
    /// connection ID and the STREAM frame's type, stream, offset and length.
    pub const PACKET_OVERHEAD: usize = 13 + 25;

    /// A packetizer for `stream_id`, addressing packets to the connection ID
    /// derived from `cid_seed`.
    pub fn new(cid_seed: u64, stream_id: u64) -> Self {
        StreamPacketizer {
            dcid: ConnectionId::from_u64(cid_seed),
            stream_id,
            next_pn: 0,
        }
    }

    /// Append `chunk` to `buf` as a short-header packet carrying one STREAM
    /// frame, written where it goes: `buf` is the datagram under
    /// construction.  The stream payload is zero bytes of the chunk's
    /// length — workloads measure delivery, not content.
    pub fn packetize(&mut self, chunk: &AppChunk, buf: &mut Vec<u8>) {
        let header = PacketHeader::Short {
            dcid: self.dcid,
            packet_number: self.next_pn,
        };
        self.next_pn += 1;
        let open = header.begin(buf);
        encode_stream_header(buf, self.stream_id, chunk.offset, chunk.fin, chunk.len);
        buf.resize(buf.len() + chunk.len, 0);
        open.finish(buf);
    }

    /// Parse a packet built by [`StreamPacketizer::packetize`] back into its
    /// chunk, for the receiving side of a workload flow.  Returns `None` for
    /// anything that is not a short-header packet with one STREAM frame.
    pub fn parse(payload: &[u8], cid_len: usize) -> Option<AppChunk> {
        let (packet, _) = PacketRef::parse(payload, cid_len).ok()?;
        if !matches!(packet.header, PacketHeader::Short { .. }) {
            return None;
        }
        // Any malformed frame spoils the packet, also one behind the STREAM
        // frame looked for.
        let mut chunk = None;
        for frame in packet.frames() {
            if let FrameRef::Stream {
                offset, fin, data, ..
            } = frame.ok()?
            {
                chunk = chunk.or(Some(AppChunk {
                    offset,
                    len: data.len(),
                    fin,
                }));
            }
        }
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CID_LEN;

    #[test]
    fn bulk_object_chunks_cover_the_object_exactly_once() {
        let mut object = BulkObject::new(2_500);
        let mut chunks = Vec::new();
        while let Some(chunk) = object.next_chunk(1_200) {
            chunks.push(chunk);
        }
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].offset, 0);
        assert_eq!(chunks[1].offset, 1_200);
        assert_eq!(chunks[2].len, 100);
        assert!(chunks[2].fin && !chunks[0].fin);
        assert_eq!(object.size(), 2_500);
        assert_eq!(object.next_chunk(1_200), None);
    }

    #[test]
    fn frame_source_emits_consecutive_offsets_across_frames() {
        let mut source = FrameSource::new(2_600);
        let first: Vec<_> = source.next_frame(1_200).collect();
        let second: Vec<_> = source.next_frame(1_200).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(first.last().map(|c| c.len), Some(200));
        assert_eq!(second.first().map(|c| c.offset), Some(2_600));
        assert_eq!(source.frames_emitted, 2);
    }

    #[test]
    fn packetizer_round_trips_chunks_through_real_short_header_packets() {
        let mut packetizer = StreamPacketizer::new(0xfeed, 4);
        let chunk = AppChunk {
            offset: 7_200,
            len: 1_200,
            fin: true,
        };
        let mut wire = Vec::new();
        packetizer.packetize(&chunk, &mut wire);
        let parsed = StreamPacketizer::parse(&wire, CID_LEN).expect("valid stream packet");
        assert_eq!(parsed, chunk);
    }
}
