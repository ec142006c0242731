//! A simulated QUIC/HTTP-3 server whose ECN behaviour follows a
//! [`ServerBehavior`] profile.
//!
//! The server is deliberately forgiving: it answers retransmitted
//! ClientHellos and requests by re-sending its own handshake and response, so
//! a lossy forward path converges as long as the client keeps probing — the
//! same property real deployments have thanks to their loss recovery.

use crate::behavior::ServerBehavior;
use crate::client::Transmit;
use crate::handshake::HandshakeMessage;
use crate::http::{HttpRequest, HttpResponse};
use crate::spaces::{PacketSpace, SentPacket, SpaceId};
use crate::CID_LEN;
use qem_netsim::SimInstant;
use qem_packet::ecn::EcnCodepoint;
use qem_packet::quic::{
    ConnectionId, Frame, LongPacketType, PacketHeader, QuicPacket, QuicVersion,
};

/// A sans-IO QUIC server connection (one per client).
#[derive(Debug, Clone)]
pub struct ServerConnection {
    behavior: ServerBehavior,
    local_cid: ConnectionId,
    remote_cid: ConnectionId,
    version: QuicVersion,
    spaces: [PacketSpace; 3],
    outbox: Vec<Transmit>,
    hello_received: bool,
    client_finished: bool,
    request: Option<HttpRequest>,
    request_buf: Vec<u8>,
    response_sent: bool,
    handshake_done_sent: bool,
    closed: bool,
}

impl ServerConnection {
    /// Create a server endpoint with the given behaviour profile.
    pub fn new(behavior: ServerBehavior, cid_seed: u64) -> Self {
        ServerConnection {
            behavior,
            local_cid: ConnectionId::from_u64(cid_seed ^ 0xdead_beef_0000_0000),
            remote_cid: ConnectionId::default(),
            version: QuicVersion::V1,
            spaces: Default::default(),
            outbox: Vec::new(),
            hello_received: false,
            client_finished: false,
            request: None,
            request_buf: Vec::new(),
            response_sent: false,
            handshake_done_sent: false,
            closed: false,
        }
    }

    /// The behaviour profile in use.
    pub fn behavior(&self) -> &ServerBehavior {
        &self.behavior
    }

    /// Whether the connection is closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// ECN counters the server actually observed in a given space (ground
    /// truth, before the behaviour profile distorts the report).
    pub fn observed_ecn(&self, space: SpaceId) -> qem_packet::ecn::EcnCounts {
        self.spaces[space.index()].ecn_received()
    }

    /// Feed an incoming UDP payload.
    pub fn handle_datagram(&mut self, now: SimInstant, ecn: EcnCodepoint, payload: &[u8]) {
        if self.closed {
            return;
        }
        let mut at = 0usize;
        while at < payload.len() {
            match QuicPacket::decode(&payload[at..], CID_LEN) {
                Ok((packet, consumed)) => {
                    at += consumed;
                    self.handle_packet(now, ecn, packet);
                }
                Err(_) => break,
            }
        }
        self.flush_acks();
    }

    /// Next datagram to send, if any.
    pub fn poll_transmit(&mut self, _now: SimInstant) -> Option<Transmit> {
        if self.outbox.is_empty() {
            None
        } else {
            Some(self.outbox.remove(0))
        }
    }

    /// Servers in this reproduction are purely reactive; they never arm timers.
    pub fn poll_timeout(&self) -> Option<SimInstant> {
        None
    }

    /// Present for interface symmetry with the client; a no-op.
    pub fn handle_timeout(&mut self, _now: SimInstant) {}

    // ------------------------------------------------------------------

    fn handle_packet(&mut self, now: SimInstant, ecn: EcnCodepoint, packet: QuicPacket) {
        match &packet.header {
            PacketHeader::Long {
                ty,
                version,
                scid,
                dcid: _,
                packet_number,
                ..
            } => {
                if *ty == LongPacketType::Initial && !self.behavior.supports_version(*version) {
                    // Version negotiation; echo the client's connection IDs.
                    let vn = QuicPacket::new(
                        PacketHeader::VersionNegotiation {
                            dcid: scid.clone(),
                            scid: self.local_cid.clone(),
                            supported: self.behavior.supported_versions.clone(),
                        },
                        Vec::new(),
                    );
                    self.outbox.push(Transmit {
                        payload: vn.encode(),
                        ecn: EcnCodepoint::NotEct,
                    });
                    return;
                }
                if *ty == LongPacketType::Initial {
                    self.version = *version;
                    self.remote_cid = scid.clone();
                }
                let Some(space_id) = SpaceId::for_long_type(*ty) else {
                    return;
                };
                self.receive_in_space(now, space_id, *packet_number, ecn, &packet.payload);
            }
            PacketHeader::Short { packet_number, .. } => {
                self.receive_in_space(
                    now,
                    SpaceId::Application,
                    *packet_number,
                    ecn,
                    &packet.payload,
                );
            }
            PacketHeader::VersionNegotiation { .. } => {}
        }
    }

    fn receive_in_space(
        &mut self,
        now: SimInstant,
        space_id: SpaceId,
        pn: u64,
        ecn: EcnCodepoint,
        payload: &[u8],
    ) {
        let Ok(frames) = Frame::decode_all(payload) else {
            return;
        };
        let ack_eliciting = frames.iter().any(Frame::is_ack_eliciting);
        let is_new = self.spaces[space_id.index()].on_packet_received(pn, ecn, ack_eliciting);
        let mut saw_client_hello = false;
        let mut saw_request = false;
        if is_new {
            for frame in frames {
                match frame {
                    Frame::Crypto { data, .. } => {
                        if let Ok(message) = HandshakeMessage::decode(&data) {
                            match message {
                                HandshakeMessage::ClientHello { .. } => {
                                    saw_client_hello = true;
                                }
                                HandshakeMessage::Finished => {
                                    if space_id == SpaceId::Handshake {
                                        self.client_finished = true;
                                    }
                                }
                                HandshakeMessage::ServerHello { .. } => {}
                            }
                        }
                    }
                    Frame::Stream { data, fin, .. } => {
                        self.request_buf.extend_from_slice(&data);
                        if fin {
                            self.request = HttpRequest::decode(&self.request_buf);
                            saw_request = true;
                        }
                    }
                    Frame::Ack(ack) => {
                        let _ = self.spaces[space_id.index()].on_ack_received(&ack);
                    }
                    Frame::ConnectionClose { .. } => {
                        self.closed = true;
                    }
                    Frame::Ping | Frame::Padding { .. } | Frame::HandshakeDone => {}
                }
            }
        } else {
            // A retransmitted ClientHello or request: re-send our answer.
            saw_client_hello = space_id == SpaceId::Initial && self.hello_received;
            saw_request = space_id == SpaceId::Application && self.request.is_some();
        }

        if saw_client_hello {
            self.hello_received = true;
            self.send_server_hello(now);
        }
        if self.client_finished && !self.handshake_done_sent {
            self.send_packet(SpaceId::Application, vec![Frame::HandshakeDone], now);
            self.handshake_done_sent = true;
        }
        if saw_request && self.request.is_some() {
            self.send_response(now);
        }
    }

    fn send_server_hello(&mut self, now: SimInstant) {
        let hello = HandshakeMessage::ServerHello {
            transport_params: self.behavior.transport_params,
            alpn: "h3".to_string(),
        };
        self.send_packet(
            SpaceId::Initial,
            vec![Frame::Crypto {
                offset: 0,
                data: hello.encode(),
            }],
            now,
        );
        self.send_packet(
            SpaceId::Handshake,
            vec![Frame::Crypto {
                offset: 0,
                data: HandshakeMessage::Finished.encode(),
            }],
            now,
        );
    }

    fn send_response(&mut self, now: SimInstant) {
        if self.response_sent || !self.behavior.serves_http {
            if !self.behavior.serves_http && !self.response_sent {
                self.send_packet(
                    SpaceId::Application,
                    vec![Frame::ConnectionClose {
                        error_code: 0x0100, // H3_GENERAL_PROTOCOL_ERROR-ish
                        reason: "not serving".to_string(),
                    }],
                    now,
                );
                self.response_sent = true;
            }
            return;
        }
        let mut response = HttpResponse::ok();
        if let Some(server) = &self.behavior.server_header {
            response = response.with_server(server);
        }
        if let Some(via) = &self.behavior.via_header {
            response = response.with_via(via);
        }
        self.send_packet(
            SpaceId::Application,
            vec![Frame::Stream {
                stream_id: 0,
                offset: 0,
                fin: true,
                data: response.encode(),
            }],
            now,
        );
        self.response_sent = true;
    }

    /// Send ACKs for any space with pending acknowledgments, applying the
    /// behaviour profile to the reported ECN counters.
    fn flush_acks(&mut self) {
        for space_id in SpaceId::ALL {
            if self.spaces[space_id.index()].ack_pending() {
                let observed = self.spaces[space_id.index()].ecn_received();
                let reported = self
                    .behavior
                    .mirroring
                    .report(observed, space_id == SpaceId::Application);
                // Plain ACK (no ECN section) when the profile reports nothing
                // or has never seen a mark.
                let ecn = reported.filter(|c| c.total() > 0 || observed.total() > 0);
                if let Some(ack) = self.spaces[space_id.index()].build_ack(ecn) {
                    self.send_packet_now(space_id, vec![Frame::Ack(ack)]);
                }
            }
        }
    }

    fn send_packet(&mut self, space_id: SpaceId, frames: Vec<Frame>, now: SimInstant) {
        let _ = now;
        self.send_packet_now(space_id, frames);
    }

    fn send_packet_now(&mut self, space_id: SpaceId, frames: Vec<Frame>) {
        let pn = self.spaces[space_id.index()].next_pn();
        let payload = Frame::encode_all(&frames);
        let header = match space_id {
            SpaceId::Initial => PacketHeader::Long {
                ty: LongPacketType::Initial,
                version: self.version,
                dcid: self.remote_cid.clone(),
                scid: self.local_cid.clone(),
                token: Vec::new(),
                packet_number: pn,
            },
            SpaceId::Handshake => PacketHeader::Long {
                ty: LongPacketType::Handshake,
                version: self.version,
                dcid: self.remote_cid.clone(),
                scid: self.local_cid.clone(),
                token: Vec::new(),
                packet_number: pn,
            },
            SpaceId::Application => PacketHeader::Short {
                dcid: self.remote_cid.clone(),
                packet_number: pn,
            },
        };
        let ack_eliciting = frames.iter().any(Frame::is_ack_eliciting);
        let packet = QuicPacket::new(header, payload);
        self.outbox.push(Transmit {
            payload: packet.encode(),
            ecn: self.behavior.egress_ecn,
        });
        self.spaces[space_id.index()].on_packet_sent(SentPacket {
            packet_number: pn,
            frames,
            ecn: self.behavior.egress_ecn,
            ack_eliciting,
            time_sent: SimInstant::EPOCH,
            retransmissions: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::EcnMirroringBehavior;
    use crate::transport_params::TransportParameters;

    fn client_initial(version: QuicVersion) -> Vec<u8> {
        let hello = HandshakeMessage::ClientHello {
            sni: "example.org".to_string(),
            alpn: "h3".to_string(),
            transport_params: TransportParameters::client_default(),
        };
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
                data: hello.encode(),
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
            let (pkt, _) = QuicPacket::decode(&t.payload, CID_LEN).unwrap();
            kinds.push(match pkt.header {
                PacketHeader::Long { ty, .. } => format!("{ty:?}"),
                PacketHeader::Short { .. } => "Short".to_string(),
                PacketHeader::VersionNegotiation { .. } => "VN".to_string(),
            });
        }
        assert!(kinds.contains(&"Initial".to_string()));
        assert!(kinds.contains(&"Handshake".to_string()));
        assert_eq!(server.observed_ecn(SpaceId::Initial).ect0, 1);
    }

    #[test]
    fn unsupported_version_triggers_version_negotiation() {
        let behavior = ServerBehavior::accurate().with_versions(vec![QuicVersion::DRAFT_27]);
        let mut server = ServerConnection::new(behavior, 1);
        server.handle_datagram(
            SimInstant::EPOCH,
            EcnCodepoint::NotEct,
            &client_initial(QuicVersion::V1),
        );
        let t = server.poll_transmit(SimInstant::EPOCH).unwrap();
        let (pkt, _) = QuicPacket::decode(&t.payload, CID_LEN).unwrap();
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
            ServerBehavior::accurate().with_mirroring(EcnMirroringBehavior::None),
            1,
        );
        server.handle_datagram(
            SimInstant::EPOCH,
            EcnCodepoint::Ect0,
            &client_initial(QuicVersion::V1),
        );
        let mut saw_ack_without_ecn = false;
        while let Some(t) = server.poll_transmit(SimInstant::EPOCH) {
            let (pkt, _) = QuicPacket::decode(&t.payload, CID_LEN).unwrap();
            for frame in Frame::decode_all(&pkt.payload).unwrap() {
                if let Frame::Ack(ack) = frame {
                    assert!(ack.ecn.is_none());
                    saw_ack_without_ecn = true;
                }
            }
        }
        assert!(saw_ack_without_ecn);
    }

    #[test]
    fn egress_ecn_follows_behavior() {
        let mut server = ServerConnection::new(ServerBehavior::accurate().with_ecn_use(), 1);
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
            let (pkt, _) = QuicPacket::decode(&t.payload, CID_LEN).unwrap();
            for frame in Frame::decode_all(&pkt.payload).unwrap() {
                if matches!(frame, Frame::Crypto { .. }) {
                    resent_crypto = true;
                }
            }
        }
        assert!(resent_crypto);
    }
}
