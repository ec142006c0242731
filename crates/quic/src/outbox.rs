//! What an endpoint has built and not yet handed to its driver: one byte
//! buffer the datagrams are written into back to back, each header and its
//! frames appended where they will be read from, and a FIFO of where each
//! ends.  The buffer is rewound whenever the queue has drained, so an
//! endpoint allocates for its largest burst once, not per packet.
//!
//! What a packet carries is a `Copy` [`Content`] tag: the endpoint writes
//! the frame from it — a handshake message or an HTTP message straight
//! into the packet, from what its configuration says — and the client keeps
//! the tag, not the frame, for a PTO to write again.  An endpoint's outbox,
//! packet number spaces and stream buffer are its `Buffers`, which a driver
//! lends from one connection to the next ([`QuicScratch`](crate::QuicScratch)).

use crate::handshake::HandshakeMessage;
use crate::spaces::PacketSpace;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::frame::{begin_crypto, begin_stream, encode_connection_close};
use qem_packet::quic::{Frame, PacketHeader, MIN_INITIAL_SIZE};
use std::collections::VecDeque;

/// A UDP datagram the connection wants to send, with the ECN codepoint to be
/// set on the enclosing IP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmit<'a> {
    /// UDP payload (one or more QUIC packets), lent by the endpoint until
    /// its next call.
    pub payload: &'a [u8],
    /// ECN codepoint for the IP header.
    pub ecn: EcnCodepoint,
}

/// What one outgoing packet carries: the one frame of every packet the
/// endpoints send, as a tag to write it from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// CRYPTO with the endpoint's hello (ClientHello or ServerHello).
    Hello,
    /// CRYPTO with Finished.
    Finished,
    /// STREAM 0, whole and finished: the client's request or the server's
    /// response.
    Http,
    /// PING.
    Ping,
    /// HANDSHAKE_DONE.
    HandshakeDone,
    /// An ACK of everything received in the packet's space, reporting
    /// these ECN counters.
    Ack(Option<EcnCounts>),
    /// CONNECTION_CLOSE with this error code and reason.
    Close(u64, &'static str),
}

/// The messages only the endpoint knows: what its configuration says.
pub(crate) trait Messages {
    /// The endpoint's hello.
    fn hello(&self) -> HandshakeMessage<'_>;
    /// Append the endpoint's HTTP message to `buf`.
    fn http(&self, buf: &mut Vec<u8>);
}

impl Content {
    /// Append the frame to `buf`, its message written where it goes from
    /// `msgs`; an ACK is read from — and settles the acknowledgment
    /// owed by — `space`.
    pub(crate) fn encode(self, msgs: &impl Messages, space: &mut PacketSpace, buf: &mut Vec<u8>) {
        let crypto = |buf: &mut Vec<u8>, message: &HandshakeMessage<'_>| {
            let length = begin_crypto(buf, 0);
            message.encode(buf);
            length.finish(buf);
        };
        match self {
            Content::Hello => crypto(buf, &msgs.hello()),
            Content::Finished => crypto(buf, &HandshakeMessage::Finished),
            Content::Http => {
                let length = begin_stream(buf, 0, 0, true);
                msgs.http(buf);
                length.finish(buf);
            }
            Content::Ping => Frame::Ping.encode(buf),
            Content::HandshakeDone => Frame::HandshakeDone.encode(buf),
            Content::Ack(ecn) => space.encode_ack(ecn, buf),
            Content::Close(error_code, reason) => encode_connection_close(buf, error_code, reason),
        }
    }

    /// Whether the packet elicits an acknowledgment — and a PTO repeats it.
    pub fn is_ack_eliciting(self) -> bool {
        !matches!(self, Content::Ack(_) | Content::Close(..))
    }
}

/// What an endpoint allocates and the next connection can use again: its
/// packet number spaces, its outbox and the stream it reassembles.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buffers {
    pub(crate) spaces: [PacketSpace; 3],
    pub(crate) outbox: Outbox,
    pub(crate) stream: Vec<u8>,
}

impl Buffers {
    /// Forget everything, keeping the allocations: observably new buffers.
    pub(crate) fn reset(&mut self) {
        self.spaces.iter_mut().for_each(PacketSpace::reset);
        // A drained outbox rewinds at its next push.
        self.outbox.queue.clear();
        self.stream.clear();
    }
}

/// Two padded client Initials with their headers, rounded up: room for
/// the largest burst either endpoint queues (a server answering a
/// handshake and a request at once).
const DATAGRAM_ROOM: usize = 2 * (MIN_INITIAL_SIZE + 80);

/// The FIFO of built datagrams.
#[derive(Debug, Clone, Default)]
pub(crate) struct Outbox {
    /// The queued datagrams back to back, behind those already handed out
    /// since the queue was last empty.
    bytes: Vec<u8>,
    /// Where each queued datagram ends in `bytes`, and its codepoint;
    /// oldest first.
    queue: VecDeque<(usize, EcnCodepoint)>,
    /// Where the oldest queued datagram starts.
    next: usize,
}

impl Outbox {
    /// Queue a datagram of one packet: `header`, then whatever `frames`
    /// appends to the buffer it is given.
    pub(crate) fn push(
        &mut self,
        header: &PacketHeader,
        ecn: EcnCodepoint,
        frames: impl FnOnce(&mut Vec<u8>),
    ) {
        if self.queue.is_empty() {
            self.bytes.clear();
            self.next = 0;
            // Room for the largest burst, so that one allocation serves.
            self.bytes.reserve(DATAGRAM_ROOM);
            self.queue.reserve(16);
        }
        let open = header.begin(&mut self.bytes);
        frames(&mut self.bytes);
        open.finish(&mut self.bytes);
        self.queue.push_back((self.bytes.len(), ecn));
    }

    /// The oldest queued datagram, if any.
    pub(crate) fn pop(&mut self) -> Option<Transmit<'_>> {
        let (end, ecn) = self.queue.pop_front()?;
        let payload = &self.bytes[self.next..end];
        self.next = end;
        Some(Transmit { payload, ecn })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::SpaceId;
    use qem_packet::quic::{ConnectionId, QuicPacket, QuicVersion};

    fn header(pn: u64) -> PacketHeader {
        let (dcid, scid) = (ConnectionId::from_u64(1), ConnectionId::from_u64(2));
        SpaceId::Handshake.header(QuicVersion::V1, dcid, scid, pn)
    }

    /// Queue packet `pn` carrying `len` bytes of CRYPTO data.
    fn push(outbox: &mut Outbox, pn: u64, len: usize, ecn: EcnCodepoint) {
        let frame = Frame::Crypto {
            offset: pn,
            data: vec![pn as u8; len],
        };
        outbox.push(&header(pn), ecn, |buf| frame.encode(buf));
    }

    /// The packet numbers and codepoints of everything queued, in order.
    fn drain(outbox: &mut Outbox) -> Vec<(u64, EcnCodepoint, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(transmit) = outbox.pop() {
            let (packet, used) = QuicPacket::decode(transmit.payload, 8).unwrap();
            assert_eq!(used, transmit.payload.len(), "one packet per datagram");
            let (PacketHeader::Long { packet_number, .. }
            | PacketHeader::Short { packet_number, .. }) = packet.header
            else {
                panic!("a version negotiation packet has no number");
            };
            out.push((packet_number, transmit.ecn, transmit.payload.to_vec()));
        }
        out
    }

    #[test]
    fn datagrams_come_out_in_the_order_they_went_in() {
        let mut outbox = Outbox::default();
        assert!(outbox.pop().is_none());
        // Short and long payloads: the Length field of the first closes up
        // by a byte, under the datagrams queued behind it.
        for (pn, len) in [(0, 3), (1, 900), (2, 0), (3, 70)] {
            push(&mut outbox, pn, len, EcnCodepoint::Ect0);
        }
        assert_eq!(
            outbox.pop().map(|t| t.payload.len()),
            Some(1 + 4 + 18 + 1 + 4 + 6)
        );
        // Queued while others wait: behind them.
        push(&mut outbox, 4, 10, EcnCodepoint::Ce);
        let rest = drain(&mut outbox);
        let order: Vec<(u64, EcnCodepoint)> = rest.iter().map(|(pn, ecn, _)| (*pn, *ecn)).collect();
        assert_eq!(
            order,
            [
                (1, EcnCodepoint::Ect0),
                (2, EcnCodepoint::Ect0),
                (3, EcnCodepoint::Ect0),
                (4, EcnCodepoint::Ce)
            ]
        );
    }

    #[test]
    fn a_rewound_outbox_is_a_fresh_outbox() {
        // Drained, the buffer is written over from the start; what was in
        // it — longer datagrams, other codepoints — leaves no trace.
        let mut reused = Outbox::default();
        for pn in 0..6 {
            push(&mut reused, pn, 1_100, EcnCodepoint::Ce);
        }
        drain(&mut reused);
        let capacity = reused.bytes.capacity();
        let mut fresh = Outbox::default();
        for outbox in [&mut reused, &mut fresh] {
            push(outbox, 7, 5, EcnCodepoint::Ect0);
            push(outbox, 8, 64, EcnCodepoint::NotEct);
        }
        assert_eq!(drain(&mut reused), drain(&mut fresh));
        assert_eq!(reused.bytes.capacity(), capacity, "no allocation once warm");
    }
}
