//! The measurement client: a sans-IO QUIC connection that performs an
//! HTTP/3-style request while using and validating ECN.
//!
//! This models the paper's adapted `quic-go` stack (§4.1): it supports QUIC
//! v1 plus drafts 27/29/32/34, retransmits lost packets only once to limit
//! network stress, applies a 10 s overall timeout and runs the ECN
//! validation algorithm with a reduced budget of 5 testing packets and 2
//! timeouts.  After the handshake it tops the connection up with PING
//! packets so that the full testing budget is exercised even for a single
//! small HTTP exchange.

use crate::ecn::{EcnConfig, EcnValidationState, EcnValidator};
use crate::handshake::HandshakeMessage;
use crate::http::{HttpRequest, HttpResponse};
use crate::spaces::{PacketSpace, SentPacket, SpaceId};
use crate::transport_params::TransportParameters;
use crate::CID_LEN;
use qem_netsim::{SimDuration, SimInstant};
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::{
    ConnectionId, Frame, LongPacketType, PacketHeader, QuicPacket, QuicVersion, MIN_INITIAL_SIZE,
};
use serde::{Deserialize, Serialize};

/// Whether and how the client uses ECN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientEcnMode {
    /// Never set ECN codepoints (the unmodified quic-go behaviour).
    Disabled,
    /// Set codepoints and run ECN validation with the given configuration.
    Validate(EcnConfig),
}

impl ClientEcnMode {
    /// The paper's default: validate with 5 packets / 2 timeouts, ECT(0).
    pub fn paper_default() -> Self {
        ClientEcnMode::Validate(EcnConfig::paper_default())
    }
}

/// Client configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// The domain name being probed (SNI and HTTP authority).
    pub sni: String,
    /// The QUIC version offered first.
    pub preferred_version: QuicVersion,
    /// ECN mode.
    pub ecn: ClientEcnMode,
    /// Client transport parameters.
    pub transport_params: TransportParameters,
    /// Overall connection deadline (the paper uses 10 s per request).
    pub idle_timeout: SimDuration,
    /// Probe timeout before retransmitting.
    pub pto: SimDuration,
    /// Maximum number of retransmissions per packet (the paper reduces this
    /// to 1 to limit network stress).
    pub max_retransmissions: u32,
    /// Additional PING packets sent after the request so the ECN testing
    /// budget is fully exercised.
    pub extra_pings: u64,
}

impl ClientConfig {
    /// Configuration matching the paper's methodology for `sni`.
    pub fn paper_default(sni: &str) -> Self {
        ClientConfig {
            sni: sni.to_string(),
            preferred_version: QuicVersion::V1,
            ecn: ClientEcnMode::paper_default(),
            transport_params: TransportParameters::client_default(),
            idle_timeout: SimDuration::from_secs(10),
            pto: SimDuration::from_millis(600),
            max_retransmissions: 1,
            extra_pings: 3,
        }
    }

    /// Same as [`paper_default`](ClientConfig::paper_default) but sending CE
    /// instead of ECT(0) — the §6.3 TCP-comparison experiment.
    pub fn force_ce(sni: &str) -> Self {
        ClientConfig {
            ecn: ClientEcnMode::Validate(EcnConfig::force_ce()),
            ..ClientConfig::paper_default(sni)
        }
    }
}

/// A UDP datagram the connection wants to send, with the ECN codepoint to be
/// set on the enclosing IP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmit {
    /// UDP payload (one or more QUIC packets).
    pub payload: Vec<u8>,
    /// ECN codepoint for the IP header.
    pub ecn: EcnCodepoint,
}

/// Summary of a finished (or failed) client connection, consumed by the
/// measurement pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientReport {
    /// Whether the QUIC handshake completed.
    pub connected: bool,
    /// Whether an HTTP response was received.
    pub response: Option<HttpResponse>,
    /// The QUIC version in use when the connection finished.
    pub version: QuicVersion,
    /// The server's transport parameters, if the handshake got far enough.
    pub server_transport_params: Option<TransportParameters>,
    /// Fingerprint of the server's transport parameters.
    pub transport_fingerprint: Option<u64>,
    /// Final state of ECN validation.
    pub ecn_state: EcnValidationState,
    /// Whether the server mirrored any ECN counters at all ("Mirroring").
    pub peer_mirrored: bool,
    /// The last cumulative mirrored counters (aggregated over spaces).
    pub mirrored_counts: EcnCounts,
    /// Codepoints this client set on its own packets.
    pub sent_counts: EcnCounts,
    /// Codepoints observed on packets arriving from the server ("Use" by the
    /// server, as seen through the reverse path).
    pub received_ecn: EcnCounts,
    /// Whether any arriving packet carried an ECT or CE mark.
    pub server_used_ecn: bool,
    /// Terminal error, if the connection failed.
    pub error: Option<String>,
}

/// A sans-IO QUIC client connection.
#[derive(Debug, Clone)]
pub struct ClientConnection {
    config: ClientConfig,
    version: QuicVersion,
    local_cid: ConnectionId,
    remote_cid: ConnectionId,
    spaces: [PacketSpace; 3],
    validator: EcnValidator,
    ecn_enabled: bool,
    /// Last cumulative ECN counters reported by the peer, per space.
    peer_counts: [Option<EcnCounts>; 3],
    /// Aggregate of `peer_counts` fed to the validator.
    aggregate_counts: EcnCounts,
    received_ecn: EcnCounts,
    outbox: Vec<Transmit>,

    hello_sent: bool,
    server_hello: Option<HandshakeMessage>,
    server_params: Option<TransportParameters>,
    finished_sent: bool,
    handshake_done: bool,
    request_sent: bool,
    pings_sent: u64,
    response_buf: Vec<u8>,
    response_fin: bool,
    response: Option<HttpResponse>,
    close_sent: bool,
    closed: bool,
    error: Option<String>,
    version_negotiated: bool,

    start_time: SimInstant,
    last_activity: SimInstant,
    pto_deadline: Option<SimInstant>,
    pto_count: u32,
}

impl ClientConnection {
    /// Create a connection; `cid_seed` makes connection IDs deterministic.
    pub fn new(config: ClientConfig, now: SimInstant, cid_seed: u64) -> Self {
        let validator = match config.ecn {
            ClientEcnMode::Disabled => EcnValidator::disabled(),
            ClientEcnMode::Validate(ecn_config) => EcnValidator::new(ecn_config),
        };
        let ecn_enabled = matches!(config.ecn, ClientEcnMode::Validate(_));
        let version = config.preferred_version;
        ClientConnection {
            config,
            version,
            local_cid: ConnectionId::from_u64(cid_seed),
            remote_cid: ConnectionId::from_u64(cid_seed.wrapping_add(1)),
            spaces: Default::default(),
            validator,
            ecn_enabled,
            peer_counts: [None; 3],
            aggregate_counts: EcnCounts::ZERO,
            received_ecn: EcnCounts::ZERO,
            outbox: Vec::new(),
            hello_sent: false,
            server_hello: None,
            server_params: None,
            finished_sent: false,
            handshake_done: false,
            request_sent: false,
            pings_sent: 0,
            response_buf: Vec::new(),
            response_fin: false,
            response: None,
            close_sent: false,
            closed: false,
            error: None,
            version_negotiated: false,
            start_time: now,
            last_activity: now,
            pto_deadline: None,
            pto_count: 0,
        }
    }

    /// The connection ID this client expects on incoming short-header packets.
    pub fn local_cid(&self) -> &ConnectionId {
        &self.local_cid
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.finished_sent && self.server_hello.is_some()
    }

    /// Whether the connection is finished (successfully or not).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    fn all_acked(&self) -> bool {
        !self.spaces.iter().any(|s| s.has_unacked())
    }

    /// Produce the measurement report.
    pub fn report(&self) -> ClientReport {
        ClientReport {
            connected: self.is_established(),
            response: self.response.clone(),
            version: self.version,
            server_transport_params: self.server_params,
            transport_fingerprint: self.server_params.map(|p| p.fingerprint()),
            ecn_state: self.validator.state(),
            peer_mirrored: self.validator.peer_mirrored(),
            mirrored_counts: self.aggregate_counts,
            sent_counts: self.validator.sent_counts(),
            received_ecn: self.received_ecn,
            server_used_ecn: self.received_ecn.total() > 0,
            error: self.error.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Sans-IO interface
    // ------------------------------------------------------------------

    /// Feed an incoming UDP payload (with the ECN codepoint of its IP header).
    pub fn handle_datagram(&mut self, now: SimInstant, ecn: EcnCodepoint, payload: &[u8]) {
        if self.closed {
            return;
        }
        self.last_activity = now;
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
        self.drive(now);
    }

    /// Next datagram to send, if any.
    pub fn poll_transmit(&mut self, now: SimInstant) -> Option<Transmit> {
        if !self.hello_sent {
            self.drive(now);
        }
        if self.outbox.is_empty() {
            None
        } else {
            Some(self.outbox.remove(0))
        }
    }

    /// The next instant at which [`handle_timeout`](Self::handle_timeout)
    /// must be called, if any.
    pub fn poll_timeout(&self) -> Option<SimInstant> {
        if self.closed {
            return None;
        }
        let idle = self.start_time + self.config.idle_timeout;
        match self.pto_deadline {
            Some(pto) if self.has_unacked() => Some(pto.min(idle)),
            _ => Some(idle),
        }
    }

    fn has_unacked(&self) -> bool {
        self.spaces.iter().any(|s| s.has_unacked())
    }

    /// Handle the expiry of the timer returned by [`poll_timeout`](Self::poll_timeout).
    pub fn handle_timeout(&mut self, now: SimInstant) {
        if self.closed {
            return;
        }
        let idle = self.start_time + self.config.idle_timeout;
        if now >= idle {
            if self.response.is_none() {
                self.error = Some(if self.is_established() {
                    "request timed out".to_string()
                } else {
                    "handshake timed out".to_string()
                });
            }
            self.closed = true;
            return;
        }
        if let Some(pto) = self.pto_deadline {
            if now >= pto && self.has_unacked() {
                self.on_pto(now);
            }
        }
        self.drive(now);
    }

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    fn on_pto(&mut self, now: SimInstant) {
        self.pto_count += 1;
        if self.ecn_enabled {
            self.validator.on_timeout();
        }
        // Retransmit unacknowledged ack-eliciting data, respecting the
        // retransmission budget (1 by default, per the paper).
        for space_id in SpaceId::ALL {
            let to_resend: Vec<SentPacket> =
                self.spaces[space_id.index()].retransmittable(self.config.max_retransmissions);
            for packet in to_resend {
                let frames: Vec<Frame> = packet
                    .frames
                    .iter()
                    .filter(|f| f.is_ack_eliciting())
                    .cloned()
                    .collect();
                if frames.is_empty() {
                    continue;
                }
                self.send_packet(space_id, frames, now, packet.retransmissions + 1);
            }
        }
        // Exponential backoff for the next PTO.
        let backoff = self.config.pto * (1 << self.pto_count.min(6));
        self.pto_deadline = Some(now + backoff);
    }

    fn handle_packet(&mut self, now: SimInstant, ecn: EcnCodepoint, packet: QuicPacket) {
        match &packet.header {
            PacketHeader::VersionNegotiation { supported, .. } => {
                self.on_version_negotiation(now, supported.clone());
            }
            PacketHeader::Long {
                ty,
                version,
                scid,
                packet_number,
                ..
            } => {
                if *version != self.version {
                    return;
                }
                let Some(space_id) = SpaceId::for_long_type(*ty) else {
                    return;
                };
                // Learn the server's connection ID from its first packet.
                if *ty == LongPacketType::Initial {
                    self.remote_cid = scid.clone();
                }
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
        self.received_ecn.record(ecn);
        if !is_new {
            return;
        }
        for frame in frames {
            self.handle_frame(now, space_id, frame);
        }
    }

    fn handle_frame(&mut self, _now: SimInstant, space_id: SpaceId, frame: Frame) {
        match frame {
            Frame::Ack(ack) => {
                let result = self.spaces[space_id.index()].on_ack_received(&ack);
                if result.count() > 0 {
                    self.pto_count = 0;
                    self.pto_deadline = None;
                }
                if self.ecn_enabled {
                    // Aggregate per-space cumulative counters into a single
                    // connection-level cumulative series for the validator.
                    let aggregate = match ack.ecn {
                        Some(counts) => {
                            let prev =
                                self.peer_counts[space_id.index()].unwrap_or(EcnCounts::ZERO);
                            if counts.dominates(&prev) {
                                let delta = counts.saturating_sub(&prev);
                                self.peer_counts[space_id.index()] = Some(counts);
                                self.aggregate_counts = self.aggregate_counts.plus(&delta);
                            } else {
                                // Per-space regression; surface it to the
                                // validator as a non-monotonic aggregate.
                                self.peer_counts[space_id.index()] = Some(counts);
                                self.aggregate_counts = EcnCounts {
                                    ect0: self.aggregate_counts.ect0.saturating_sub(1),
                                    ..self.aggregate_counts
                                };
                            }
                            Some(self.aggregate_counts)
                        }
                        None => None,
                    };
                    self.validator.on_ack_received(
                        result.marked_count(),
                        result.count(),
                        aggregate,
                    );
                }
            }
            Frame::Crypto { data, .. } => {
                if let Ok(message) = HandshakeMessage::decode(&data) {
                    match message {
                        HandshakeMessage::ServerHello {
                            transport_params, ..
                        } => {
                            self.server_params = Some(transport_params);
                            self.server_hello = Some(HandshakeMessage::ServerHello {
                                transport_params,
                                alpn: "h3".to_string(),
                            });
                        }
                        HandshakeMessage::Finished => {}
                        HandshakeMessage::ClientHello { .. } => {}
                    }
                }
            }
            Frame::HandshakeDone => {
                self.handshake_done = true;
            }
            Frame::Stream { data, fin, .. } => {
                self.response_buf.extend_from_slice(&data);
                if fin {
                    self.response_fin = true;
                    self.response = HttpResponse::decode(&self.response_buf);
                }
            }
            Frame::ConnectionClose { reason, .. } => {
                if self.response.is_none() && self.error.is_none() {
                    self.error = Some(format!("closed by peer: {reason}"));
                }
                self.closed = true;
            }
            Frame::Ping | Frame::Padding { .. } => {}
        }
    }

    fn on_version_negotiation(&mut self, now: SimInstant, supported: Vec<QuicVersion>) {
        if self.version_negotiated {
            return;
        }
        self.version_negotiated = true;
        // Preference order: v1 first, then the newest supported draft.
        let preference = [
            QuicVersion::V1,
            QuicVersion::DRAFT_34,
            QuicVersion::DRAFT_32,
            QuicVersion::DRAFT_29,
            QuicVersion::DRAFT_27,
        ];
        let chosen = preference.into_iter().find(|v| supported.contains(v));
        match chosen {
            Some(version) => {
                self.version = version;
                // Restart the connection state with the new version.
                self.spaces = Default::default();
                self.peer_counts = [None; 3];
                self.aggregate_counts = EcnCounts::ZERO;
                self.hello_sent = false;
                self.finished_sent = false;
                self.request_sent = false;
                self.pings_sent = 0;
                self.server_hello = None;
                self.server_params = None;
                self.validator = match self.config.ecn {
                    ClientEcnMode::Disabled => EcnValidator::disabled(),
                    ClientEcnMode::Validate(cfg) => EcnValidator::new(cfg),
                };
                self.pto_deadline = None;
                self.pto_count = 0;
                self.drive(now);
            }
            None => {
                self.error = Some("no common QUIC version".to_string());
                self.closed = true;
            }
        }
    }

    /// Advance the connection state machine and queue any packets that have
    /// become sendable.
    fn drive(&mut self, now: SimInstant) {
        if self.closed {
            return;
        }
        // 1. Client Initial with the ClientHello.
        if !self.hello_sent {
            let hello = HandshakeMessage::ClientHello {
                sni: self.config.sni.clone(),
                alpn: "h3".to_string(),
                transport_params: self.config.transport_params,
            };
            self.send_packet(
                SpaceId::Initial,
                vec![Frame::Crypto {
                    offset: 0,
                    data: hello.encode(),
                }],
                now,
                0,
            );
            self.hello_sent = true;
        }
        // 2. Client Finished once the ServerHello has arrived.
        if self.server_hello.is_some() && !self.finished_sent {
            self.send_packet(
                SpaceId::Handshake,
                vec![Frame::Crypto {
                    offset: 0,
                    data: HandshakeMessage::Finished.encode(),
                }],
                now,
                0,
            );
            self.finished_sent = true;
        }
        // 3. The HTTP request.
        if self.finished_sent && !self.request_sent {
            let request = HttpRequest::get(&self.config.sni);
            self.send_packet(
                SpaceId::Application,
                vec![Frame::Stream {
                    stream_id: 0,
                    offset: 0,
                    fin: true,
                    data: request.encode(),
                }],
                now,
                0,
            );
            self.request_sent = true;
        }
        // 4. Top-up PINGs so the ECN testing budget is exercised.
        if self.request_sent && self.pings_sent < self.config.extra_pings {
            while self.pings_sent < self.config.extra_pings {
                self.send_packet(SpaceId::Application, vec![Frame::Ping], now, 0);
                self.pings_sent += 1;
            }
        }
        // 5. Acknowledge whatever is pending (accurate ECN counts — the
        //    client is the measurement instrument).
        for space_id in SpaceId::ALL {
            if self.spaces[space_id.index()].ack_pending() {
                let counts = self.spaces[space_id.index()].ecn_received();
                let ecn = if counts.total() > 0 {
                    Some(counts)
                } else {
                    None
                };
                if let Some(ack) = self.spaces[space_id.index()].build_ack(ecn) {
                    self.send_packet(space_id, vec![Frame::Ack(ack)], now, 0);
                }
            }
        }
        // 6. Close once everything we came for has arrived: the HTTP
        //    response plus acknowledgments (and thus ECN feedback) for every
        //    ack-eliciting packet we sent.
        if self.response.is_some() && !self.close_sent && self.all_acked() {
            self.send_packet(
                SpaceId::Application,
                vec![Frame::ConnectionClose {
                    error_code: 0,
                    reason: "done".to_string(),
                }],
                now,
                0,
            );
            self.close_sent = true;
            self.closed = true;
        }
    }

    fn send_packet(
        &mut self,
        space_id: SpaceId,
        frames: Vec<Frame>,
        now: SimInstant,
        retransmissions: u32,
    ) {
        let ecn = if self.ecn_enabled {
            self.validator.codepoint_for_next_packet()
        } else {
            EcnCodepoint::NotEct
        };
        let pn = self.spaces[space_id.index()].next_pn();
        let mut payload = Frame::encode_all(&frames);
        let header = match space_id {
            SpaceId::Initial => {
                // Pad client Initials to the RFC minimum datagram size.
                let overhead = 48; // generous estimate of header bytes
                if payload.len() + overhead < MIN_INITIAL_SIZE {
                    Frame::Padding {
                        size: MIN_INITIAL_SIZE - overhead - payload.len(),
                    }
                    .encode(&mut payload);
                }
                PacketHeader::Long {
                    ty: LongPacketType::Initial,
                    version: self.version,
                    dcid: self.remote_cid.clone(),
                    scid: self.local_cid.clone(),
                    token: Vec::new(),
                    packet_number: pn,
                }
            }
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
            ecn,
        });
        if self.ecn_enabled {
            self.validator.on_packet_sent(ecn);
        }
        self.spaces[space_id.index()].on_packet_sent(SentPacket {
            packet_number: pn,
            frames,
            ecn,
            ack_eliciting,
            time_sent: now,
            retransmissions,
        });
        if ack_eliciting && self.pto_deadline.is_none() {
            self.pto_deadline = Some(now + self.config.pto);
        }
        self.last_activity = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_client() -> ClientConnection {
        ClientConnection::new(
            ClientConfig::paper_default("www.example.org"),
            SimInstant::EPOCH,
            0x1000,
        )
    }

    #[test]
    fn first_transmit_is_a_padded_marked_initial() {
        let mut client = new_client();
        let transmit = client.poll_transmit(SimInstant::EPOCH).unwrap();
        assert!(transmit.payload.len() >= MIN_INITIAL_SIZE - 60);
        assert_eq!(transmit.ecn, EcnCodepoint::Ect0);
        let (packet, _) = QuicPacket::decode(&transmit.payload, CID_LEN).unwrap();
        assert!(packet.header.is_initial());
        assert_eq!(packet.header.version(), Some(QuicVersion::V1));
    }

    #[test]
    fn disabled_ecn_sends_not_ect() {
        let config = ClientConfig {
            ecn: ClientEcnMode::Disabled,
            ..ClientConfig::paper_default("example.com")
        };
        let mut client = ClientConnection::new(config, SimInstant::EPOCH, 1);
        let transmit = client.poll_transmit(SimInstant::EPOCH).unwrap();
        assert_eq!(transmit.ecn, EcnCodepoint::NotEct);
    }

    #[test]
    fn force_ce_mode_marks_ce() {
        let mut client =
            ClientConnection::new(ClientConfig::force_ce("example.com"), SimInstant::EPOCH, 1);
        let transmit = client.poll_transmit(SimInstant::EPOCH).unwrap();
        assert_eq!(transmit.ecn, EcnCodepoint::Ce);
    }

    #[test]
    fn version_negotiation_restarts_with_common_version() {
        let mut client = new_client();
        let first = client.poll_transmit(SimInstant::EPOCH).unwrap();
        let (initial, _) = QuicPacket::decode(&first.payload, CID_LEN).unwrap();
        let (dcid, scid) = match &initial.header {
            PacketHeader::Long { dcid, scid, .. } => (dcid.clone(), scid.clone()),
            _ => unreachable!(),
        };
        let vn = QuicPacket::new(
            PacketHeader::VersionNegotiation {
                dcid: scid,
                scid: dcid,
                supported: vec![QuicVersion::DRAFT_27],
            },
            Vec::new(),
        );
        client.handle_datagram(SimInstant::EPOCH, EcnCodepoint::NotEct, &vn.encode());
        let retry = client.poll_transmit(SimInstant::EPOCH).unwrap();
        let (packet, _) = QuicPacket::decode(&retry.payload, CID_LEN).unwrap();
        assert_eq!(packet.header.version(), Some(QuicVersion::DRAFT_27));
        assert!(!client.is_closed());
    }

    #[test]
    fn version_negotiation_without_common_version_fails() {
        let mut client = new_client();
        let first = client.poll_transmit(SimInstant::EPOCH).unwrap();
        let (initial, _) = QuicPacket::decode(&first.payload, CID_LEN).unwrap();
        let (dcid, scid) = match &initial.header {
            PacketHeader::Long { dcid, scid, .. } => (dcid.clone(), scid.clone()),
            _ => unreachable!(),
        };
        let vn = QuicPacket::new(
            PacketHeader::VersionNegotiation {
                dcid: scid,
                scid: dcid,
                supported: vec![QuicVersion::Other(0xbabababa)],
            },
            Vec::new(),
        );
        client.handle_datagram(SimInstant::EPOCH, EcnCodepoint::NotEct, &vn.encode());
        assert!(client.is_closed());
        assert!(client.report().error.unwrap().contains("version"));
    }

    #[test]
    fn idle_timeout_closes_with_error() {
        let mut client = new_client();
        let _ = client.poll_transmit(SimInstant::EPOCH);
        let deadline = client.poll_timeout().unwrap();
        assert_eq!(deadline, SimInstant::EPOCH + SimDuration::from_millis(600));
        let idle = SimInstant::EPOCH + SimDuration::from_secs(10);
        client.handle_timeout(idle);
        assert!(client.is_closed());
        let report = client.report();
        assert!(!report.connected);
        assert!(report.error.unwrap().contains("handshake timed out"));
    }

    #[test]
    fn pto_retransmits_initial_once() {
        let mut client = new_client();
        let _ = client.poll_transmit(SimInstant::EPOCH).unwrap();
        assert!(client.poll_transmit(SimInstant::EPOCH).is_none());
        // First PTO: the Initial is retransmitted.
        let pto1 = SimInstant::EPOCH + SimDuration::from_millis(600);
        client.handle_timeout(pto1);
        let retransmit = client.poll_transmit(pto1);
        assert!(retransmit.is_some());
        // Second PTO: the retransmission budget (1) is exhausted.
        let pto2 = pto1 + SimDuration::from_secs(2);
        client.handle_timeout(pto2);
        assert!(client.poll_transmit(pto2).is_none());
    }

    #[test]
    fn report_before_any_progress_is_unconnected() {
        let client = new_client();
        let report = client.report();
        assert!(!report.connected);
        assert_eq!(report.ecn_state, EcnValidationState::Testing);
        assert!(report.response.is_none());
        assert!(!report.server_used_ecn);
    }
}
