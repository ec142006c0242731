//! Packet number spaces: per-space packet numbering, receive tracking, ECN
//! accounting and unacknowledged-packet bookkeeping.
//!
//! RFC 9000 keeps Initial, Handshake and 1-RTT (application) packets in
//! separate packet number spaces and also keeps the *receiver-side ECN
//! counters* separate per space.  That separation is load-bearing for this
//! study: the LiteSpeed undercounting bug the paper diagnoses in §7.3 is a
//! failure to carry ECN accounting across the handshake → 1-RTT transition,
//! which can only be modelled if the spaces are real.
//!
//! A space keeps what it received as the ranges an ACK reports — highest
//! first, one range on a loss-free connection — and writes its ACK frame
//! from them straight into the packet under construction
//! ([`PacketSpace::encode_ack`]).  An incoming ACK is read in place
//! ([`AckRef`]) and splits `sent` in place; its two counts
//! ([`AckResult`]) are all a caller reads.  The client — the endpoint that
//! repairs loss — remembers a sent packet by its number, its codepoint and
//! the `Copy` [`Content`] tag a PTO writes it again from; the server
//! records none.

use crate::outbox::Content;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::frame::encode_ack;
use qem_packet::quic::{AckRef, ConnectionId, LongPacketType, PacketHeader, QuicVersion};

/// Identifier of a packet number space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpaceId {
    /// Initial packets.
    Initial = 0,
    /// Handshake packets.
    Handshake = 1,
    /// 1-RTT / application packets.
    Application = 2,
}

impl SpaceId {
    /// All spaces in ascending order.
    pub const ALL: [SpaceId; 3] = [SpaceId::Initial, SpaceId::Handshake, SpaceId::Application];

    /// Index into per-space arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The header of packet `packet_number` in this space, from `scid` to
    /// `dcid`: Initial and Handshake long headers, a short one for 1-RTT.
    pub fn header(
        self,
        version: QuicVersion,
        dcid: ConnectionId,
        scid: ConnectionId,
        packet_number: u64,
    ) -> PacketHeader {
        let ty = match self {
            SpaceId::Initial => LongPacketType::Initial,
            SpaceId::Handshake => LongPacketType::Handshake,
            SpaceId::Application => {
                return PacketHeader::Short {
                    dcid,
                    packet_number,
                }
            }
        };
        PacketHeader::Long {
            ty,
            version,
            dcid,
            scid,
            token: Vec::new(),
            packet_number,
        }
    }

    /// The space a long-header packet type belongs to (`None` for Retry).
    pub fn for_long_type(ty: LongPacketType) -> Option<SpaceId> {
        match ty {
            LongPacketType::Initial => Some(SpaceId::Initial),
            LongPacketType::Handshake => Some(SpaceId::Handshake),
            LongPacketType::ZeroRtt => Some(SpaceId::Application),
            LongPacketType::Retry => None,
        }
    }
}

/// A packet this endpoint sent and has not yet seen acknowledged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentPacket {
    /// Packet number.
    pub packet_number: u64,
    /// What it carried: what a PTO writes again.
    pub content: Content,
    /// ECN codepoint the packet was sent with.
    pub ecn: EcnCodepoint,
    /// How many times this payload has been retransmitted already.
    pub retransmissions: u32,
}

/// Result of processing an ACK frame against a space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckResult {
    /// Number of newly acknowledged packets.
    pub count: u64,
    /// Number of newly acknowledged packets that carried an ECT/CE mark.
    pub marked_count: u64,
}

/// One packet number space of a connection.
#[derive(Debug, Clone, Default)]
pub struct PacketSpace {
    next_packet_number: u64,
    /// All packet numbers ever received (for duplicate suppression), as the
    /// ranges an ACK reports: inclusive `(start, end)`, highest first,
    /// neither overlapping nor adjacent.  A loss-free connection keeps one.
    received: Vec<(u64, u64)>,
    /// ECN codepoints observed on packets received in this space.
    ecn_received: EcnCounts,
    /// Packets sent and not yet acknowledged.
    sent: Vec<SentPacket>,
    /// Whether an ACK should be sent.
    ack_pending: bool,
}

impl PacketSpace {
    /// Allocate the next packet number.
    pub fn next_pn(&mut self) -> u64 {
        let pn = self.next_packet_number;
        self.next_packet_number += 1;
        pn
    }

    /// Forget everything, keeping the allocations: observably a new space.
    pub fn reset(&mut self) {
        self.received.clear();
        self.sent.clear();
        (self.next_packet_number, self.ack_pending) = (0, false);
        self.ecn_received = EcnCounts::ZERO;
    }

    /// Record a sent packet for possible retransmission.
    pub fn on_packet_sent(&mut self, packet: SentPacket) {
        self.sent.push(packet);
    }

    /// Record a received packet.  Returns `false` for duplicates.
    pub fn on_packet_received(&mut self, pn: u64, ecn: EcnCodepoint, ack_eliciting: bool) -> bool {
        if !self.insert_received(pn) {
            return false;
        }
        self.ecn_received.record(ecn);
        if ack_eliciting {
            self.ack_pending = true;
        }
        true
    }

    /// Add `pn` to the received ranges; `false` if it is in one already.
    fn insert_received(&mut self, pn: u64) -> bool {
        let above = pn.checked_add(1);
        // The first range `pn` is not strictly below with a gap in between.
        let Some(i) = self
            .received
            .iter()
            .position(|&(start, _)| above.map_or(true, |above| start <= above))
        else {
            self.received.push((pn, pn));
            return true;
        };
        let (start, end) = self.received[i];
        if above == Some(start) {
            // Extends this range downwards — maybe onto the next one.
            match self.received.get(i + 1) {
                Some(&(below_start, below_end)) if below_end + 1 == pn => {
                    self.received[i].0 = below_start;
                    self.received.remove(i + 1);
                }
                _ => self.received[i].0 = pn,
            }
        } else if pn <= end {
            return false;
        } else if pn == end + 1 {
            // Extends it upwards; a range starting at `pn + 1` would have
            // been found first, so there is nothing to join above.
            self.received[i].1 = pn;
        } else {
            self.received.insert(i, (pn, pn));
        }
        true
    }

    /// ECN counters for packets received in this space.
    pub fn ecn_received(&self) -> EcnCounts {
        self.ecn_received
    }

    /// Whether an acknowledgment is owed.
    pub fn ack_pending(&self) -> bool {
        self.ack_pending
    }

    /// Whether any sent, ack-eliciting packet is still unacknowledged.
    pub fn has_unacked(&self) -> bool {
        self.sent.iter().any(|p| p.content.is_ack_eliciting())
    }

    /// Number of sent packets not yet acknowledged, ack-eliciting or not:
    /// the positions [`PacketSpace::retransmit`] takes, oldest first.
    pub fn sent_len(&self) -> usize {
        self.sent.len()
    }

    /// If the unacknowledged packet at position `at` is ack-eliciting and
    /// has retransmission budget left, charge the whole budget against it —
    /// so the next PTO does not resend the same data again — and return
    /// what it carried with the retransmission count its repeat is sent
    /// with.
    pub fn retransmit(&mut self, at: usize, max_retransmissions: u32) -> Option<(Content, u32)> {
        let packet = self.sent.get_mut(at)?;
        if !packet.content.is_ack_eliciting() || packet.retransmissions >= max_retransmissions {
            return None;
        }
        let repeat = packet.retransmissions + 1;
        packet.retransmissions = max_retransmissions;
        Some((packet.content, repeat))
    }

    /// Append an ACK frame covering everything received so far to `buf`,
    /// with the given ECN counters (the counters are chosen by the caller
    /// because the server-behaviour profiles deliberately mis-report them),
    /// and consider the acknowledgment paid.
    ///
    /// Appends nothing if nothing has been received yet.
    pub fn encode_ack(&mut self, ecn: Option<EcnCounts>, buf: &mut Vec<u8>) {
        if let Some(&(_, largest)) = self.received.first() {
            encode_ack(buf, largest, 0, &self.received, ecn);
            self.ack_pending = false;
        }
    }

    /// Process an ACK frame from the peer.
    pub fn on_ack_received(&mut self, ack: &AckRef<'_>) -> AckResult {
        let mut result = AckResult::default();
        self.sent.retain(|packet| {
            if !ack.acknowledges(packet.packet_number) {
                return true;
            }
            result.count += 1;
            result.marked_count += u64::from(packet.ecn != EcnCodepoint::NotEct);
            false
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_packet::quic::{AckFrame, Frame, FrameRef, Frames};

    fn sent(pn: u64, ecn: EcnCodepoint) -> SentPacket {
        SentPacket {
            packet_number: pn,
            content: Content::Ping,
            ecn,
            retransmissions: 0,
        }
    }

    /// The ACK frame in `wire`, read in place.
    fn read_ack(wire: &[u8]) -> AckRef<'_> {
        match Frames::new(wire).next() {
            Some(Ok(FrameRef::Ack(ack))) => ack,
            other => panic!("expected an ACK, got {other:?}"),
        }
    }

    /// `space` processing the ACK of the single range `[start, end]`.
    fn ack_range(space: &mut PacketSpace, start: u64, end: u64) -> AckResult {
        let wire = Frame::encode_all(&[Frame::Ack(AckFrame::contiguous(start, end, None))]);
        space.on_ack_received(&read_ack(&wire))
    }

    #[test]
    fn packet_numbers_are_sequential() {
        let mut space = PacketSpace::default();
        assert_eq!(space.next_pn(), 0);
        assert_eq!(space.next_pn(), 1);
    }

    #[test]
    fn duplicate_receive_is_ignored() {
        let mut space = PacketSpace::default();
        assert!(space.on_packet_received(3, EcnCodepoint::Ect0, true));
        assert!(!space.on_packet_received(3, EcnCodepoint::Ect0, true));
        assert_eq!(space.ecn_received().ect0, 1);
    }

    #[test]
    fn ack_ranges_cover_received_packets() {
        let mut space = PacketSpace::default();
        for pn in [0, 1, 2, 5, 6, 9] {
            space.on_packet_received(pn, EcnCodepoint::NotEct, true);
        }
        assert!(space.ack_pending());
        let mut wire = Vec::new();
        space.encode_ack(None, &mut wire);
        let ack = read_ack(&wire).to_owned();
        assert_eq!(ack.largest_acked, 9);
        assert_eq!(ack.ranges, vec![(9, 9), (5, 6), (0, 2)]);
        assert!(!space.ack_pending());
    }

    #[test]
    fn received_ranges_are_the_set_of_received_numbers() {
        // Every arrival order of a few numbers around gaps, joins and
        // duplicates ends in the ranges of the set, highest first.
        let arrivals: [&[u64]; 6] = [
            &[0, 1, 2, 3],
            &[3, 2, 1, 0],
            &[0, 2, 1, 1, 4, 3],
            &[5, 0, 3, 1, 4, 2, 5, 0],
            &[7, 3, 5, 9, 1],
            &[10, 12, 11, 0, 2, 1, 6, 6],
        ];
        for order in arrivals {
            let mut space = PacketSpace::default();
            let mut seen = std::collections::BTreeSet::new();
            for &pn in order {
                let is_new = space.on_packet_received(pn, EcnCodepoint::NotEct, false);
                assert_eq!(is_new, seen.insert(pn), "{order:?} at {pn}");
            }
            let mut expected: Vec<(u64, u64)> = Vec::new();
            for &pn in seen.iter().rev() {
                match expected.last_mut() {
                    Some((start, _)) if *start == pn + 1 => *start = pn,
                    _ => expected.push((pn, pn)),
                }
            }
            assert_eq!(space.received, expected, "{order:?}");
        }
        let mut space = PacketSpace::default();
        assert!(space.on_packet_received(u64::MAX, EcnCodepoint::NotEct, false));
        assert!(space.on_packet_received(u64::MAX - 1, EcnCodepoint::NotEct, false));
        assert!(!space.on_packet_received(u64::MAX, EcnCodepoint::NotEct, false));
        assert_eq!(space.received, vec![(u64::MAX - 1, u64::MAX)]);
    }

    #[test]
    fn build_ack_requires_received_packets() {
        let mut space = PacketSpace::default();
        let mut wire = Vec::new();
        space.encode_ack(None, &mut wire);
        assert!(wire.is_empty());
    }

    #[test]
    fn ack_processing_partitions_sent_packets() {
        let mut space = PacketSpace::default();
        for pn in 0..5 {
            space.on_packet_sent(sent(pn, EcnCodepoint::Ect0));
        }
        let result = ack_range(&mut space, 0, 2);
        assert_eq!(result.count, 3);
        assert_eq!(result.marked_count, 3);
        assert!(space.has_unacked());
        assert_eq!(space.sent_len(), 2);
        // Acknowledged again: nothing new, and what is left keeps its order.
        assert_eq!(ack_range(&mut space, 0, 2), AckResult::default());
        let left: Vec<u64> = space.sent.iter().map(|p| p.packet_number).collect();
        assert_eq!(left, [3, 4]);
    }

    #[test]
    fn marked_count_distinguishes_codepoints() {
        let mut space = PacketSpace::default();
        space.on_packet_sent(sent(0, EcnCodepoint::Ect0));
        space.on_packet_sent(sent(1, EcnCodepoint::NotEct));
        let result = ack_range(&mut space, 0, 1);
        assert_eq!(result.count, 2);
        assert_eq!(result.marked_count, 1);
    }

    #[test]
    fn retransmittable_charges_the_budget_once() {
        let mut space = PacketSpace::default();
        space.on_packet_sent(sent(0, EcnCodepoint::Ect0));
        space.on_packet_sent(SentPacket {
            content: Content::Ack(None),
            ..sent(1, EcnCodepoint::Ect0)
        });
        assert_eq!(space.sent_len(), 2);
        assert_eq!(space.retransmit(0, 1), Some((Content::Ping, 1)));
        assert_eq!(space.retransmit(0, 1), None, "charged");
        assert_eq!(space.retransmit(1, 1), None, "not ack-eliciting");
        assert_eq!(space.retransmit(2, 1), None, "no such packet");
        // Budget two: the first repeat goes with count 1, and it is spent.
        space.on_packet_sent(sent(2, EcnCodepoint::Ect0));
        assert_eq!(space.retransmit(2, 2), Some((Content::Ping, 1)));
        assert_eq!(space.retransmit(2, 2), None);
    }

    #[test]
    fn a_reset_space_is_a_fresh_space() {
        let mut space = PacketSpace::default();
        for pn in [0, 1, 5] {
            space.on_packet_received(pn, EcnCodepoint::Ce, true);
            let pn = space.next_pn();
            space.on_packet_sent(sent(pn, EcnCodepoint::Ect0));
        }
        ack_range(&mut space, 0, 1);
        space.reset();
        let fresh = PacketSpace::default();
        assert_eq!(format!("{space:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn space_id_mapping() {
        assert_eq!(
            SpaceId::for_long_type(LongPacketType::Initial),
            Some(SpaceId::Initial)
        );
        assert_eq!(
            SpaceId::for_long_type(LongPacketType::Handshake),
            Some(SpaceId::Handshake)
        );
        assert_eq!(SpaceId::for_long_type(LongPacketType::Retry), None);
        assert_eq!(SpaceId::Application.index(), 2);
    }
}
