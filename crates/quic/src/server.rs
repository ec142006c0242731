//! A simulated QUIC/HTTP-3 server whose ECN behaviour follows a
//! [`ServerBehavior`] profile.
//!
//! The server is deliberately forgiving: it answers retransmitted
//! ClientHellos and requests by re-sending its own handshake and response, so
//! a lossy forward path converges as long as the client keeps probing — the
//! same property real deployments have thanks to their loss recovery.
//! It therefore never repeats a packet, and keeps none it sent: a packet is
//! written into the outbox and forgotten, and an ACK from the client has
//! nothing to settle.  Datagrams are read in place, like the client's —
//! ClientHello and request as slices of the datagram and of the reassembled
//! stream — and the ServerHello, the response and a version negotiation are
//! written where they go.

use crate::behavior::ServerBehavior;
use crate::handshake::HandshakeMessage;
use crate::http::{HttpRequest, HttpResponse};
use crate::outbox::{Buffers, Content, Messages, Transmit};
use crate::spaces::SpaceId;
use crate::CID_LEN;
use qem_netsim::SimInstant;
use qem_packet::ecn::EcnCodepoint;
use qem_packet::quic::{
    ConnectionId, FrameRef, LongPacketType, PacketHeader, PacketRef, QuicVersion,
};

impl Messages for ServerBehavior {
    fn hello(&self) -> HandshakeMessage<'_> {
        HandshakeMessage::ServerHello {
            transport_params: self.transport_params,
            alpn: b"h3",
        }
    }

    fn http(&self, buf: &mut Vec<u8>) {
        let response = HttpResponse {
            server: self.server_header,
            via: self.via_header,
            ..HttpResponse::ok()
        };
        response.encode(buf);
    }
}

/// A sans-IO QUIC server connection (one per client).
#[derive(Debug, Clone)]
pub struct ServerConnection {
    behavior: ServerBehavior,
    local_cid: ConnectionId,
    remote_cid: ConnectionId,
    version: QuicVersion,
    /// Packet number spaces, outbox and the request stream.
    buffers: Buffers,
    hello_received: bool,
    client_finished: bool,
    /// Whether a well-formed request has arrived.
    request: bool,
    response_sent: bool,
    handshake_done_sent: bool,
    closed: bool,
}

impl ServerConnection {
    /// Create a server endpoint with the given behaviour profile.
    pub fn new(behavior: ServerBehavior, cid_seed: u64) -> Self {
        ServerConnection::over(behavior, cid_seed, Buffers::default())
    }

    /// [`ServerConnection::new`] over `buffers`, reset first.
    pub(crate) fn over(behavior: ServerBehavior, cid_seed: u64, mut buffers: Buffers) -> Self {
        buffers.reset();
        ServerConnection {
            behavior,
            local_cid: ConnectionId::from_u64(cid_seed ^ 0xdead_beef_0000_0000),
            remote_cid: ConnectionId::default(),
            version: QuicVersion::V1,
            buffers,
            hello_received: false,
            client_finished: false,
            request: false,
            response_sent: false,
            handshake_done_sent: false,
            closed: false,
        }
    }

    /// The buffers the connection ran in.
    pub(crate) fn finish(self) -> Buffers {
        self.buffers
    }

    /// Whether the connection is closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Feed an incoming UDP payload.
    pub fn handle_datagram(&mut self, _now: SimInstant, ecn: EcnCodepoint, payload: &[u8]) {
        if self.closed {
            return;
        }
        let mut rest = payload;
        while !rest.is_empty() {
            let Ok((packet, consumed)) = PacketRef::parse(rest, CID_LEN) else {
                break;
            };
            rest = &rest[consumed..];
            self.handle_packet(ecn, &packet);
        }
        self.flush_acks();
    }

    /// Next datagram to send, if any.
    pub fn poll_transmit(&mut self, _now: SimInstant) -> Option<Transmit<'_>> {
        self.buffers.outbox.pop()
    }

    /// Servers in this reproduction are purely reactive; they never arm timers.
    pub fn poll_timeout(&self) -> Option<SimInstant> {
        None
    }

    /// Present for interface symmetry with the client; a no-op.
    pub fn handle_timeout(&mut self, _now: SimInstant) {}

    // ------------------------------------------------------------------

    fn handle_packet(&mut self, ecn: EcnCodepoint, packet: &PacketRef<'_>) {
        let (space_id, pn) = match &packet.header {
            PacketHeader::Long {
                ty,
                version,
                scid,
                packet_number,
                ..
            } => {
                if *ty == LongPacketType::Initial && !self.behavior.supports_version(*version) {
                    // Version negotiation; echo the client's connection IDs
                    // and write the version list behind them.
                    let vn = PacketHeader::VersionNegotiation {
                        dcid: *scid,
                        scid: self.local_cid,
                        supported: Vec::new(),
                    };
                    let versions = self.behavior.supported_versions.iter();
                    self.buffers.outbox.push(&vn, EcnCodepoint::NotEct, |buf| {
                        versions.for_each(|v| buf.extend_from_slice(&v.to_u32().to_be_bytes()));
                    });
                    return;
                }
                if *ty == LongPacketType::Initial {
                    self.version = *version;
                    self.remote_cid = *scid;
                }
                let Some(space_id) = SpaceId::for_long_type(*ty) else {
                    return;
                };
                (space_id, *packet_number)
            }
            PacketHeader::Short { packet_number, .. } => (SpaceId::Application, *packet_number),
            PacketHeader::VersionNegotiation { .. } => return,
        };
        // A packet with a malformed frame is dropped whole.
        let Ok(ack_eliciting) = packet.ack_eliciting() else {
            return;
        };
        let is_new =
            self.buffers.spaces[space_id.index()].on_packet_received(pn, ecn, ack_eliciting);
        let mut saw_client_hello = false;
        let mut saw_request = false;
        if is_new {
            for frame in packet.frames().flatten() {
                match frame {
                    FrameRef::Crypto { data, .. } => match HandshakeMessage::decode(data) {
                        Ok(HandshakeMessage::ClientHello { .. }) => saw_client_hello = true,
                        Ok(HandshakeMessage::Finished) if space_id == SpaceId::Handshake => {
                            self.client_finished = true;
                        }
                        _ => {}
                    },
                    FrameRef::Stream { data, fin, .. } => {
                        self.buffers.stream.extend_from_slice(data);
                        if fin {
                            self.request = HttpRequest::decode(&self.buffers.stream).is_some();
                            saw_request = true;
                        }
                    }
                    FrameRef::ConnectionClose { .. } => {
                        self.closed = true;
                    }
                    FrameRef::Ack(_)
                    | FrameRef::Ping
                    | FrameRef::Padding { .. }
                    | FrameRef::HandshakeDone => {}
                }
            }
        } else {
            // A retransmitted ClientHello or request: re-send our answer.
            saw_client_hello = space_id == SpaceId::Initial && self.hello_received;
            saw_request = space_id == SpaceId::Application && self.request;
        }

        if saw_client_hello {
            self.hello_received = true;
            self.send_server_hello();
        }
        if self.client_finished && !self.handshake_done_sent {
            self.send_packet(SpaceId::Application, Content::HandshakeDone);
            self.handshake_done_sent = true;
        }
        if saw_request && self.request {
            self.send_response();
        }
    }

    fn send_server_hello(&mut self) {
        self.send_packet(SpaceId::Initial, Content::Hello);
        self.send_packet(SpaceId::Handshake, Content::Finished);
    }

    fn send_response(&mut self) {
        if self.response_sent || !self.behavior.serves_http {
            if !self.behavior.serves_http && !self.response_sent {
                // H3_GENERAL_PROTOCOL_ERROR-ish
                self.send_packet(SpaceId::Application, Content::Close(0x0100, "not serving"));
                self.response_sent = true;
            }
            return;
        }
        self.send_packet(SpaceId::Application, Content::Http);
        self.response_sent = true;
    }

    /// Send ACKs for any space with pending acknowledgments, applying the
    /// behaviour profile to the reported ECN counters.
    fn flush_acks(&mut self) {
        for space_id in SpaceId::ALL {
            if self.buffers.spaces[space_id.index()].ack_pending() {
                let observed = self.buffers.spaces[space_id.index()].ecn_received();
                let reported = self
                    .behavior
                    .mirroring
                    .report(observed, space_id == SpaceId::Application);
                // Plain ACK (no ECN section) when the profile reports nothing
                // or has never seen a mark.
                let ecn = reported.filter(|c| c.total() > 0 || observed.total() > 0);
                self.send_packet(space_id, Content::Ack(ecn));
            }
        }
    }

    fn send_packet(&mut self, space_id: SpaceId, content: Content) {
        let ecn = self.behavior.egress_ecn;
        let space = &mut self.buffers.spaces[space_id.index()];
        let pn = space.next_pn();
        let header = space_id.header(self.version, self.remote_cid, self.local_cid, pn);
        let behavior = &self.behavior;
        self.buffers
            .outbox
            .push(&header, ecn, |buf| content.encode(behavior, space, buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{EcnMirroringBehavior, Versions};
    use crate::transport_params::TransportParameters;
    use qem_packet::quic::{Frame, Frames, QuicPacket};

    fn client_initial(version: QuicVersion) -> Vec<u8> {
        let mut hello = Vec::new();
        HandshakeMessage::ClientHello {
            sni: b"example.org",
            alpn: b"h3",
            transport_params: TransportParameters::client_default(),
        }
        .encode(&mut hello);
        QuicPacket::new(
            PacketHeader::Long {
                ty: LongPacketType::Initial,
                version,
                dcid: ConnectionId::from_u64(99),
                scid: ConnectionId::from_u64(7),
                token: Vec::new(),
                packet_number: 0,
            },
            Frame::encode_all(&[Frame::Crypto {
                offset: 0,
                data: hello,
            }]),
        )
        .encode()
    }

    #[test]
    fn responds_to_client_hello_with_hello_finished_and_ack() {
        let mut server = ServerConnection::new(ServerBehavior::accurate(), 1);
        server.handle_datagram(
            SimInstant::EPOCH,
            EcnCodepoint::Ect0,
            &client_initial(QuicVersion::V1),
        );
        let mut kinds = Vec::new();
        while let Some(t) = server.poll_transmit(SimInstant::EPOCH) {
            let (pkt, _) = QuicPacket::decode(t.payload, CID_LEN).unwrap();
            kinds.push(match pkt.header {
                PacketHeader::Long { ty, .. } => format!("{ty:?}"),
                PacketHeader::Short { .. } => "Short".to_string(),
                PacketHeader::VersionNegotiation { .. } => "VN".to_string(),
            });
        }
        assert!(kinds.contains(&"Initial".to_string()));
        assert!(kinds.contains(&"Handshake".to_string()));
        let initial = &server.buffers.spaces[SpaceId::Initial.index()];
        assert_eq!(initial.ecn_received().ect0, 1);
    }

    #[test]
    fn unsupported_version_triggers_version_negotiation() {
        let behavior = ServerBehavior {
            supported_versions: Versions::new([QuicVersion::DRAFT_27]),
            ..ServerBehavior::accurate()
        };
        let mut server = ServerConnection::new(behavior, 1);
        server.handle_datagram(
            SimInstant::EPOCH,
            EcnCodepoint::NotEct,
            &client_initial(QuicVersion::V1),
        );
        let t = server.poll_transmit(SimInstant::EPOCH).unwrap();
        let (pkt, _) = QuicPacket::decode(t.payload, CID_LEN).unwrap();
        match pkt.header {
            PacketHeader::VersionNegotiation { supported, .. } => {
                assert_eq!(supported, vec![QuicVersion::DRAFT_27]);
            }
            other => panic!("expected version negotiation, got {other:?}"),
        }
        assert!(server.poll_transmit(SimInstant::EPOCH).is_none());
    }

    #[test]
    fn ack_carries_ecn_counts_according_to_behavior() {
        let mut server = ServerConnection::new(
            ServerBehavior {
                mirroring: EcnMirroringBehavior::None,
                ..ServerBehavior::accurate()
            },
            1,
        );
        server.handle_datagram(
            SimInstant::EPOCH,
            EcnCodepoint::Ect0,
            &client_initial(QuicVersion::V1),
        );
        let mut saw_ack_without_ecn = false;
        while let Some(t) = server.poll_transmit(SimInstant::EPOCH) {
            let (pkt, _) = QuicPacket::decode(t.payload, CID_LEN).unwrap();
            for frame in Frames::new(&pkt.payload) {
                if let FrameRef::Ack(ack) = frame.unwrap() {
                    assert!(ack.ecn.is_none());
                    saw_ack_without_ecn = true;
                }
            }
        }
        assert!(saw_ack_without_ecn);
    }

    #[test]
    fn egress_ecn_follows_behavior() {
        let mut server = ServerConnection::new(
            ServerBehavior {
                egress_ecn: EcnCodepoint::Ect0,
                ..ServerBehavior::accurate()
            },
            1,
        );
        server.handle_datagram(
            SimInstant::EPOCH,
            EcnCodepoint::NotEct,
            &client_initial(QuicVersion::V1),
        );
        let t = server.poll_transmit(SimInstant::EPOCH).unwrap();
        assert_eq!(t.ecn, EcnCodepoint::Ect0);
    }

    #[test]
    fn duplicate_client_hello_resends_server_hello() {
        let mut server = ServerConnection::new(ServerBehavior::accurate(), 1);
        let initial = client_initial(QuicVersion::V1);
        server.handle_datagram(SimInstant::EPOCH, EcnCodepoint::Ect0, &initial);
        while server.poll_transmit(SimInstant::EPOCH).is_some() {}
        // Same packet again (e.g. the client's PTO retransmission).
        server.handle_datagram(SimInstant::EPOCH, EcnCodepoint::Ect0, &initial);
        let mut resent_crypto = false;
        while let Some(t) = server.poll_transmit(SimInstant::EPOCH) {
            let (pkt, _) = QuicPacket::decode(t.payload, CID_LEN).unwrap();
            for frame in Frames::new(&pkt.payload) {
                if matches!(frame.unwrap(), FrameRef::Crypto { .. }) {
                    resent_crypto = true;
                }
            }
        }
        assert!(resent_crypto);
    }
}
