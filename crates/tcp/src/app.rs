//! Application-data sourcing for TCP flows: the segment-building half of the
//! workload layer's bulk-transfer apps.
//!
//! Mirrors `qem_quic::app` for the TCP side: workload flows pull
//! `AppChunk`s from a `BulkObject` (both defined in the QUIC crate, which
//! owns the shared sourcing vocabulary) and hand them to a
//! [`SegmentPacketizer`], which emits real `ACK|PSH` data segments with
//! monotonically advancing sequence numbers.  Sans-IO and deterministic, like
//! everything below the engine: no sockets, no clocks, no randomness.

use qem_packet::tcp::{TcpFlags, TcpHeader};
use std::net::IpAddr;

/// Builds (and parses) the `ACK|PSH` data segments that carry application
/// bytes for a TCP workload flow, tracking the next sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPacketizer {
    src_port: u16,
    dst_port: u16,
    next_seq: u32,
}

impl SegmentPacketizer {
    /// A packetizer for the `src_port` → `dst_port` direction of an
    /// established connection, starting at sequence number `isn`.
    pub fn new(src_port: u16, dst_port: u16, isn: u32) -> Self {
        SegmentPacketizer {
            src_port,
            dst_port,
            next_seq: isn,
        }
    }

    /// Encode the next `len` application bytes as one `ACK|PSH` segment
    /// between `src` and `dst` into `segment` (cleared first, capacity
    /// kept).  The payload is zeroed — workloads measure delivery, not
    /// content — and the sequence number advances by `len`.
    pub fn packetize(&mut self, src: IpAddr, dst: IpAddr, len: usize, segment: &mut Vec<u8>) {
        let flags = TcpFlags {
            ack: true,
            psh: true,
            ..TcpFlags::default()
        };
        let header = TcpHeader::new(self.src_port, self.dst_port, self.next_seq, 0, flags);
        header.encode(src, dst, &vec![0u8; len], segment);
        self.next_seq = self.next_seq.wrapping_add(len as u32);
    }

    /// Parse a data segment back into `(seq, payload_len)`, for the
    /// receiving side of a workload flow.  Returns `None` for anything that
    /// does not decode as a TCP segment.
    pub fn parse(segment: &[u8]) -> Option<(u32, usize)> {
        let (header, payload) = TcpHeader::decode(segment).ok()?;
        Some((header.seq, payload.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(198, 18, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(198, 19, 0, 1)),
        )
    }

    #[test]
    fn sequence_numbers_advance_by_payload_length() {
        let (src, dst) = addrs();
        let mut packetizer = SegmentPacketizer::new(443, 50_000, 1_000);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        packetizer.packetize(src, dst, 1_200, &mut first);
        packetizer.packetize(src, dst, 600, &mut second);
        assert_eq!(packetizer.next_seq, 1_000 + 1_200 + 600);
        assert_eq!(SegmentPacketizer::parse(&first), Some((1_000, 1_200)));
        assert_eq!(SegmentPacketizer::parse(&second), Some((2_200, 600)));
    }

    #[test]
    fn segments_carry_ack_and_psh() {
        let (src, dst) = addrs();
        let mut packetizer = SegmentPacketizer::new(443, 50_000, 0);
        let mut wire = Vec::new();
        packetizer.packetize(src, dst, 64, &mut wire);
        let (header, payload) = TcpHeader::decode(&wire).expect("valid segment");
        assert!(header.flags.ack && header.flags.psh);
        assert!(!header.flags.syn && !header.flags.fin);
        assert_eq!(payload.len(), 64);
    }
}
