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
//!
//! Incoming datagrams are read where they lie: each packet's header by
//! value, its frames as views of the datagram, a packet with a malformed
//! frame dropped whole, the ServerHello read in place.  Outgoing packets
//! are written where they go: header, frame — ClientHello and request
//! included — and Initial padding appended to the connection's outbox,
//! which [`ClientConnection::poll_transmit`] lends out first-in first-out.
//! An ack-eliciting packet's [`Content`] tag stays with its [`SentPacket`]
//! until acknowledged, so that a PTO can write it again.  The one thing a
//! connection allocates for keeps is its report's response, which it moves
//! into the report.

use crate::ecn::{EcnConfig, EcnValidationState, EcnValidator};
use crate::handshake::HandshakeMessage;
use crate::http::{HttpRequest, HttpResponse};
use crate::outbox::{Buffers, Content, Messages};
use crate::spaces::{AckResult, PacketSpace, SentPacket, SpaceId};
use crate::transport_params::TransportParameters;
use crate::CID_LEN;
use qem_netsim::{SimDuration, SimInstant};
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::{
    ConnectionId, FrameRef, LongPacketType, PacketHeader, PacketRef, QuicVersion, MIN_INITIAL_SIZE,
};
use std::borrow::Borrow;

/// Client configuration: what a census varies from probe to probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// The domain name being probed (SNI and HTTP authority).
    pub sni: String,
    /// The QUIC version offered first.
    pub preferred_version: QuicVersion,
    /// The ECN validation budget and the codepoint it probes with.
    pub ecn: EcnConfig,
}

impl ClientConfig {
    /// Configuration matching the paper's methodology for `sni`.
    pub fn paper_default(sni: &str) -> Self {
        ClientConfig {
            sni: sni.to_string(),
            preferred_version: QuicVersion::V1,
            ecn: EcnConfig::paper_default(),
        }
    }

    /// Same as [`paper_default`](ClientConfig::paper_default) but sending CE
    /// instead of ECT(0) — the §6.3 TCP-comparison experiment.
    pub fn force_ce(sni: &str) -> Self {
        ClientConfig {
            ecn: EcnConfig::force_ce(),
            ..ClientConfig::paper_default(sni)
        }
    }
}

/// Overall connection deadline: the paper gives each request 10 s (§4.1).
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Probe timeout before the first retransmission; each further PTO doubles
/// it.
const PTO: SimDuration = SimDuration::from_millis(600);

/// Retransmissions per packet: the paper reduces them to one to limit
/// network stress (§4.1).
const MAX_RETRANSMISSIONS: u32 = 1;

/// PING packets sent after the request, so that the ECN testing budget is
/// exercised even for a single small HTTP exchange.
const EXTRA_PINGS: u64 = 3;

impl Messages for ClientConfig {
    fn hello(&self) -> HandshakeMessage<'_> {
        HandshakeMessage::ClientHello {
            sni: self.sni.as_bytes(),
            alpn: b"h3",
            transport_params: TransportParameters::client_default(),
        }
    }

    fn http(&self, buf: &mut Vec<u8>) {
        HttpRequest::get(&self.sni).encode(buf);
    }
}

pub use crate::outbox::Transmit;

/// Frame bytes a client Initial is padded to, so that the datagram — with
/// a generous 48 bytes allowed for its header — meets the RFC 9000 §14.1
/// minimum.
const INITIAL_PAYLOAD: usize = MIN_INITIAL_SIZE - 48;

/// Summary of a finished (or failed) client connection, consumed by the
/// measurement pipeline.
#[derive(Debug, PartialEq)]
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

impl Clone for ClientReport {
    fn clone(&self) -> Self {
        ClientReport {
            response: self.response.clone(),
            error: self.error.clone(),
            ..*self
        }
    }

    /// Field by field, so the response's header values and the error reuse
    /// what `self` holds.
    fn clone_from(&mut self, source: &Self) {
        let ClientReport {
            connected,
            response,
            version,
            server_transport_params,
            transport_fingerprint,
            ecn_state,
            peer_mirrored,
            mirrored_counts,
            sent_counts,
            received_ecn,
            server_used_ecn,
            error,
        } = source;
        self.connected = *connected;
        self.response.clone_from(response);
        self.version = *version;
        self.server_transport_params = *server_transport_params;
        self.transport_fingerprint = *transport_fingerprint;
        self.ecn_state = *ecn_state;
        self.peer_mirrored = *peer_mirrored;
        self.mirrored_counts = *mirrored_counts;
        self.sent_counts = *sent_counts;
        self.received_ecn = *received_ecn;
        self.server_used_ecn = *server_used_ecn;
        self.error.clone_from(error);
    }
}

/// A sans-IO QUIC client connection, reading its configuration from a
/// `C`: a [`ClientConfig`] it owns, or `&ClientConfig` — one its caller
/// keeps for many connections (a scan worker, through
/// [`ConnectionRun::lent`](crate::ConnectionRun::lent)).
#[derive(Debug, Clone)]
pub struct ClientConnection<C = ClientConfig> {
    config: C,
    version: QuicVersion,
    local_cid: ConnectionId,
    remote_cid: ConnectionId,
    /// Packet number spaces, outbox and the response stream.
    buffers: Buffers,
    validator: EcnValidator,
    /// Last cumulative ECN counters accepted from the peer, per space.
    peer_counts: [EcnCounts; 3],
    /// Aggregate of `peer_counts` fed to the validator.
    aggregate_counts: EcnCounts,
    received_ecn: EcnCounts,

    hello_sent: bool,
    /// The ServerHello's parameters, once it has arrived.
    server_params: Option<TransportParameters>,
    finished_sent: bool,
    request_sent: bool,
    pings_sent: u64,
    response: Option<HttpResponse>,
    close_sent: bool,
    closed: bool,
    error: Option<String>,
    version_negotiated: bool,

    start_time: SimInstant,
    pto_deadline: Option<SimInstant>,
    pto_count: u32,
}

impl<C: Borrow<ClientConfig>> ClientConnection<C> {
    /// Create a connection; `cid_seed` makes connection IDs deterministic.
    pub fn new(config: C, now: SimInstant, cid_seed: u64) -> Self {
        ClientConnection::over(config, now, cid_seed, Buffers::default())
    }

    /// [`ClientConnection::new`] over `buffers`, reset first.
    pub(crate) fn over(config: C, now: SimInstant, cid_seed: u64, mut buffers: Buffers) -> Self {
        buffers.reset();
        let (validator, version) = {
            let config = config.borrow();
            (EcnValidator::new(config.ecn), config.preferred_version)
        };
        ClientConnection {
            config,
            version,
            local_cid: ConnectionId::from_u64(cid_seed),
            remote_cid: ConnectionId::from_u64(cid_seed.wrapping_add(1)),
            buffers,
            validator,
            peer_counts: [EcnCounts::ZERO; 3],
            aggregate_counts: EcnCounts::ZERO,
            received_ecn: EcnCounts::ZERO,
            hello_sent: false,
            server_params: None,
            finished_sent: false,
            request_sent: false,
            pings_sent: 0,
            response: None,
            close_sent: false,
            closed: false,
            error: None,
            version_negotiated: false,
            start_time: now,
            pto_deadline: None,
            pto_count: 0,
        }
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.finished_sent && self.server_params.is_some()
    }

    /// Whether the connection is finished (successfully or not).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Produce the measurement report.
    pub fn report(&self) -> ClientReport {
        self.report_with(self.response.clone(), self.error.clone())
    }

    /// The measurement report, the response and error moved into it, and
    /// the buffers the connection ran in.
    pub(crate) fn finish(mut self) -> (ClientReport, Buffers) {
        let (response, error) = (self.response.take(), self.error.take());
        (self.report_with(response, error), self.buffers)
    }

    fn report_with(&self, response: Option<HttpResponse>, error: Option<String>) -> ClientReport {
        ClientReport {
            connected: self.is_established(),
            response,
            version: self.version,
            server_transport_params: self.server_params,
            transport_fingerprint: self.server_params.map(|p| p.fingerprint()),
            ecn_state: self.validator.state(),
            peer_mirrored: self.validator.peer_mirrored(),
            mirrored_counts: self.aggregate_counts,
            sent_counts: self.validator.sent_counts(),
            received_ecn: self.received_ecn,
            server_used_ecn: self.received_ecn.total() > 0,
            error,
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
        let mut rest = payload;
        while !rest.is_empty() {
            let Ok((packet, consumed)) = PacketRef::parse(rest, CID_LEN) else {
                break;
            };
            rest = &rest[consumed..];
            self.handle_packet(now, ecn, &packet);
        }
        self.drive(now);
    }

    /// Next datagram to send, if any.
    pub fn poll_transmit(&mut self, now: SimInstant) -> Option<Transmit<'_>> {
        if !self.hello_sent {
            self.drive(now);
        }
        self.buffers.outbox.pop()
    }

    /// The next instant at which [`handle_timeout`](Self::handle_timeout)
    /// must be called, if any.
    pub fn poll_timeout(&self) -> Option<SimInstant> {
        if self.closed {
            return None;
        }
        let idle = self.start_time + IDLE_TIMEOUT;
        match self.pto_deadline {
            Some(pto) if self.has_unacked() => Some(pto.min(idle)),
            _ => Some(idle),
        }
    }

    fn has_unacked(&self) -> bool {
        self.buffers.spaces.iter().any(|s| s.has_unacked())
    }

    /// Handle the expiry of the timer returned by [`poll_timeout`](Self::poll_timeout).
    pub fn handle_timeout(&mut self, now: SimInstant) {
        if self.closed {
            return;
        }
        let idle = self.start_time + IDLE_TIMEOUT;
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
        self.validator.on_timeout();
        // Retransmit unacknowledged ack-eliciting data, respecting the
        // retransmission budget (one, per the paper).  Only the
        // packets sent before the PTO are visited; repeats queue behind.
        for space_id in SpaceId::ALL {
            let i = space_id.index();
            for at in 0..self.buffers.spaces[i].sent_len() {
                let retransmit = self.buffers.spaces[i].retransmit(at, MAX_RETRANSMISSIONS);
                if let Some((content, repeat)) = retransmit {
                    self.send_packet(space_id, content, now, repeat);
                }
            }
        }
        // Exponential backoff for the next PTO.
        let backoff = PTO * (1 << self.pto_count.min(6));
        self.pto_deadline = Some(now + backoff);
    }

    fn handle_packet(&mut self, now: SimInstant, ecn: EcnCodepoint, packet: &PacketRef<'_>) {
        let (space_id, pn) = match &packet.header {
            PacketHeader::VersionNegotiation { supported, .. } => {
                return self.on_version_negotiation(now, supported);
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
                    self.remote_cid = *scid;
                }
                (space_id, *packet_number)
            }
            PacketHeader::Short { packet_number, .. } => (SpaceId::Application, *packet_number),
        };
        // A packet with a malformed frame is dropped whole.
        let Ok(ack_eliciting) = packet.ack_eliciting() else {
            return;
        };
        let is_new =
            self.buffers.spaces[space_id.index()].on_packet_received(pn, ecn, ack_eliciting);
        self.received_ecn.record(ecn);
        if !is_new {
            return;
        }
        for frame in packet.frames().flatten() {
            self.handle_frame(space_id, frame);
        }
    }

    fn handle_frame(&mut self, space_id: SpaceId, frame: FrameRef<'_>) {
        match frame {
            FrameRef::Ack(ack) => {
                let result = self.buffers.spaces[space_id.index()].on_ack_received(&ack);
                if result.count > 0 {
                    self.pto_count = 0;
                    self.pto_deadline = None;
                }
                self.on_ack_ecn(space_id.index(), ack.ecn, result);
            }
            FrameRef::Crypto { data, .. } => {
                if let Ok(HandshakeMessage::ServerHello {
                    transport_params, ..
                }) = HandshakeMessage::decode(data)
                {
                    self.server_params = Some(transport_params);
                }
            }
            FrameRef::Stream { data, fin, .. } => {
                self.buffers.stream.extend_from_slice(data);
                if fin {
                    self.response = HttpResponse::decode(&self.buffers.stream);
                }
            }
            FrameRef::ConnectionClose { reason, .. } => {
                if self.response.is_none() && self.error.is_none() {
                    let reason = String::from_utf8_lossy(reason);
                    self.error = Some(format!("closed by peer: {reason}"));
                }
                self.closed = true;
            }
            FrameRef::Ping | FrameRef::Padding { .. } | FrameRef::HandshakeDone => {}
        }
    }

    /// Fold an ACK's per-space cumulative counters into the one
    /// connection-level series the validator reads.
    fn on_ack_ecn(&mut self, space: usize, ecn: Option<EcnCounts>, ack: AckResult) {
        let base = self.peer_counts[space];
        match ecn {
            // A per-space regression keeps the accepted base; it fails
            // validation iff this ACK acknowledges anything new (RFC 9000
            // §13.4.2.1: a reordered ACK must not).
            Some(counts) if !counts.dominates(&base) => {
                self.validator.on_regressed_counts(ack.count)
            }
            _ => {
                if let Some(counts) = ecn {
                    self.peer_counts[space] = counts;
                    self.aggregate_counts =
                        self.aggregate_counts.plus(&counts.saturating_sub(&base));
                }
                let aggregate = ecn.map(|_| self.aggregate_counts);
                self.validator
                    .on_ack_received(ack.marked_count, ack.count, aggregate);
            }
        }
    }

    fn on_version_negotiation(&mut self, now: SimInstant, supported: &[QuicVersion]) {
        if self.version_negotiated {
            return;
        }
        self.version_negotiated = true;
        let chosen = QuicVersion::CLIENT_SUPPORTED
            .into_iter()
            .find(|v| supported.contains(v));
        match chosen {
            Some(version) => {
                self.version = version;
                // Restart the connection state with the new version.
                self.buffers.spaces.iter_mut().for_each(PacketSpace::reset);
                self.peer_counts = [EcnCounts::ZERO; 3];
                self.aggregate_counts = EcnCounts::ZERO;
                self.hello_sent = false;
                self.finished_sent = false;
                self.request_sent = false;
                self.pings_sent = 0;
                self.server_params = None;
                self.validator = EcnValidator::new(self.config.borrow().ecn);
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
            self.send_packet(SpaceId::Initial, Content::Hello, now, 0);
            self.hello_sent = true;
        }
        // 2. Client Finished once the ServerHello has arrived.
        if self.server_params.is_some() && !self.finished_sent {
            self.send_packet(SpaceId::Handshake, Content::Finished, now, 0);
            self.finished_sent = true;
        }
        // 3. The HTTP request.
        if self.finished_sent && !self.request_sent {
            self.send_packet(SpaceId::Application, Content::Http, now, 0);
            self.request_sent = true;
        }
        // 4. Top-up PINGs so the ECN testing budget is exercised.
        while self.request_sent && self.pings_sent < EXTRA_PINGS {
            self.send_packet(SpaceId::Application, Content::Ping, now, 0);
            self.pings_sent += 1;
        }
        // 5. Acknowledge whatever is pending (accurate ECN counts — the
        //    client is the measurement instrument).
        for space_id in SpaceId::ALL {
            if self.buffers.spaces[space_id.index()].ack_pending() {
                let counts = self.buffers.spaces[space_id.index()].ecn_received();
                let ecn = (counts.total() > 0).then_some(counts);
                self.send_packet(space_id, Content::Ack(ecn), now, 0);
            }
        }
        // 6. Close once everything we came for has arrived: the HTTP
        //    response plus acknowledgments (and thus ECN feedback) for every
        //    ack-eliciting packet we sent.
        if self.response.is_some() && !self.close_sent && !self.has_unacked() {
            self.send_packet(SpaceId::Application, Content::Close(0, "done"), now, 0);
            self.close_sent = true;
            self.closed = true;
        }
    }

    fn send_packet(
        &mut self,
        space_id: SpaceId,
        content: Content,
        now: SimInstant,
        retransmissions: u32,
    ) {
        let ecn = self.validator.codepoint_for_next_packet();
        let space = &mut self.buffers.spaces[space_id.index()];
        let pn = space.next_pn();
        let header = space_id.header(self.version, self.remote_cid, self.local_cid, pn);
        let config = self.config.borrow();
        self.buffers.outbox.push(&header, ecn, |buf| {
            let payload_at = buf.len();
            content.encode(config, space, buf);
            // Pad client Initials to the RFC minimum datagram size.
            if space_id == SpaceId::Initial && buf.len() < payload_at + INITIAL_PAYLOAD {
                buf.resize(payload_at + INITIAL_PAYLOAD, 0);
            }
        });
        self.validator.on_packet_sent(ecn);
        space.on_packet_sent(SentPacket {
            packet_number: pn,
            content,
            ecn,
            retransmissions,
        });
        if content.is_ack_eliciting() && self.pto_deadline.is_none() {
            self.pto_deadline = Some(now + PTO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_packet::quic::{Frame, QuicPacket};

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
        let (packet, _) = QuicPacket::decode(transmit.payload, CID_LEN).unwrap();
        assert!(matches!(
            packet.header,
            qem_packet::quic::PacketHeader::Long {
                ty: qem_packet::quic::LongPacketType::Initial,
                ..
            }
        ));
        assert_eq!(packet.header.version(), Some(QuicVersion::V1));
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
        let (initial, _) = QuicPacket::decode(first.payload, CID_LEN).unwrap();
        let (dcid, scid) = match &initial.header {
            PacketHeader::Long { dcid, scid, .. } => (*dcid, *scid),
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
        let (packet, _) = QuicPacket::decode(retry.payload, CID_LEN).unwrap();
        assert_eq!(packet.header.version(), Some(QuicVersion::DRAFT_27));
        assert!(!client.is_closed());
    }

    #[test]
    fn version_negotiation_without_common_version_fails() {
        let mut client = new_client();
        let first = client.poll_transmit(SimInstant::EPOCH).unwrap();
        let (initial, _) = QuicPacket::decode(first.payload, CID_LEN).unwrap();
        let (dcid, scid) = match &initial.header {
            PacketHeader::Long { dcid, scid, .. } => (*dcid, *scid),
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

    /// A client whose Initial space holds two marked packets — its
    /// ClientHello and the PTO's repeat — fed the server ACKs `acks`, each
    /// `(largest, count)`: packets `0..=largest` acknowledged, `count` of
    /// the client's own codepoint mirrored.
    fn acked(config: ClientConfig, acks: &[(u64, u64)]) -> ClientReport {
        use qem_packet::quic::AckFrame;
        let mut client = ClientConnection::new(config, SimInstant::EPOCH, 0x1000);
        let codepoint = client.poll_transmit(SimInstant::EPOCH).unwrap().ecn;
        let pto = client.poll_timeout().unwrap();
        client.handle_timeout(pto);
        assert_eq!(client.poll_transmit(pto).map(|t| t.ecn), Some(codepoint));
        for (pn, &(largest, count)) in acks.iter().enumerate() {
            let mut counts = EcnCounts::ZERO;
            *if codepoint == EcnCodepoint::Ce {
                &mut counts.ce
            } else {
                &mut counts.ect0
            } = count;
            let ack = Frame::Ack(AckFrame::contiguous(0, largest, Some(counts)));
            let header = PacketHeader::Long {
                ty: LongPacketType::Initial,
                version: QuicVersion::V1,
                dcid: client.local_cid,
                scid: ConnectionId::from_u64(7),
                token: Vec::new(),
                packet_number: pn as u64,
            };
            let packet = QuicPacket::new(header, Frame::encode_all(&[ack])).encode();
            client.handle_datagram(pto, EcnCodepoint::NotEct, &packet);
        }
        client.report()
    }

    #[test]
    fn a_per_space_regression_is_judged_alike_whatever_the_codepoint() {
        use crate::ecn::EcnValidationFailure::{NonMonotonic, Undercount};
        for config in [
            ClientConfig::paper_default("example.org"),
            ClientConfig::force_ce("example.org"),
        ] {
            let mode = config.ecn;
            // A reordered ACK that acknowledges nothing new is ignored and
            // the base stays at the counts accepted before it: an honest
            // ACK after it validates, and nothing is counted twice…
            let honest = acked(config.clone(), &[(0, 1), (0, 0), (1, 2)]);
            assert_eq!(honest.ecn_state, EcnValidationState::Testing, "{mode:?}");
            assert_eq!(honest.mirrored_counts.total(), 2, "{mode:?}");
            // …and an ACK mirroring one of two is an undercount.
            let short = acked(config.clone(), &[(0, 1), (0, 0), (1, 1)]);
            assert_eq!(
                short.ecn_state,
                EcnValidationState::Failed(Undercount),
                "{mode:?}"
            );
            assert_eq!(short.mirrored_counts.total(), 1, "{mode:?}");
            // A regression on an ACK that newly acknowledges fails.
            let regressed = acked(config, &[(0, 1), (1, 0)]);
            assert_eq!(
                regressed.ecn_state,
                EcnValidationState::Failed(NonMonotonic),
                "{mode:?}"
            );
            assert_eq!(regressed.mirrored_counts.total(), 1, "{mode:?}");
        }
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

    #[test]
    fn a_report_cloned_into_a_used_slot_is_its_clone() {
        let response = |server: &str, via: Option<&str>| HttpResponse {
            server: Some(server.to_string()),
            via: via.map(str::to_string),
            ..HttpResponse::ok()
        };
        let base = new_client().report();
        let reports = [
            base.clone(),
            ClientReport {
                connected: true,
                response: Some(response("LiteSpeed", None)),
                peer_mirrored: true,
                ..base.clone()
            },
            ClientReport {
                connected: true,
                response: Some(response(
                    "a much longer server header value",
                    Some("1.1 google"),
                )),
                server_used_ecn: true,
                ..base.clone()
            },
            ClientReport {
                connected: true,
                response: Some(HttpResponse::ok()),
                ..base.clone()
            },
            ClientReport {
                error: Some("handshake timed out".to_string()),
                ..base.clone()
            },
            ClientReport {
                error: Some("idle".to_string()),
                version: QuicVersion::DRAFT_27,
                ..base
            },
        ];
        for source in &reports {
            for slot in &reports {
                let mut slot = slot.clone();
                let kept = slot.response.as_ref().and_then(|r| r.server.as_ref());
                let kept = kept.map(|server| (server.as_ptr(), server.capacity()));
                slot.clone_from(source);
                assert_eq!(&slot, source);
                assert_eq!(slot, source.clone());
                // A header value that fits is written over the slot's own.
                let server = slot.response.as_ref().and_then(|r| r.server.as_ref());
                if let (Some((ptr, capacity)), Some(server)) = (kept, server) {
                    if server.len() <= capacity {
                        assert_eq!(server.as_ptr(), ptr);
                    }
                }
            }
        }
    }
}
