//! Property-based tests for the ECN validation machine and the endpoints,
//! and for the handshake, HTTP and transport-parameter readers and writers:
//! total over arbitrary bytes, and held to the owned codecs they replaced
//! (`mod oracle`) field for field, error for error and byte for byte.

use proptest::prelude::*;
use qem_netsim::SimInstant;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::frame::{begin_crypto, begin_stream};
use qem_packet::quic::{ConnectionId, Frame, LongPacketType, PacketHeader, QuicVersion};
use qem_quic::behavior::EcnMirroringBehavior;
use qem_quic::client::{ClientConfig, ClientConnection};
use qem_quic::ecn::{EcnConfig, EcnValidationFailure, EcnValidationState, EcnValidator};
use qem_quic::handshake::HandshakeMessage;
use qem_quic::http::{HttpRequest, HttpResponse};
use qem_quic::transport_params::TransportParameters;

/// The owned codecs this crate had before its messages were read and
/// written in place, verbatim: the reference the in-place forms are held
/// to.
mod oracle {
    use qem_packet::quic::{decode_varint, encode_varint};
    use qem_packet::PacketError;
    use qem_quic::transport_params::TransportParameters;

    const TAG_CLIENT_HELLO: u64 = 1;
    const TAG_SERVER_HELLO: u64 = 2;
    const TAG_FINISHED: u64 = 3;

    pub fn encode_params(params: &TransportParameters) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        let mut put = |id: u64, value: u64| {
            encode_varint(&mut buf, id);
            let mut v = Vec::with_capacity(8);
            encode_varint(&mut v, value);
            encode_varint(&mut buf, v.len() as u64);
            buf.extend_from_slice(&v);
        };
        put(0x01, params.max_idle_timeout_ms);
        put(0x03, params.max_udp_payload_size);
        put(0x04, params.initial_max_data);
        put(0x05, params.initial_max_stream_data);
        put(0x08, params.initial_max_streams_bidi);
        put(0x0a, params.ack_delay_exponent);
        put(0x0b, params.max_ack_delay_ms);
        put(0x0e, params.active_connection_id_limit);
        buf
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum HandshakeMessage {
        ClientHello {
            sni: String,
            alpn: String,
            transport_params: TransportParameters,
        },
        ServerHello {
            transport_params: TransportParameters,
            alpn: String,
        },
        Finished,
    }

    fn put_string(buf: &mut Vec<u8>, s: &str) {
        encode_varint(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    }

    fn get_string(buf: &[u8], at: &mut usize) -> Result<String, PacketError> {
        let (len, c) = decode_varint(&buf[*at..])?;
        *at += c;
        let len = len as usize;
        if *at + len > buf.len() {
            return Err(PacketError::Truncated {
                what: "handshake string",
                needed: *at + len,
                available: buf.len(),
            });
        }
        let s = String::from_utf8_lossy(&buf[*at..*at + len]).into_owned();
        *at += len;
        Ok(s)
    }

    fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
        encode_varint(buf, data.len() as u64);
        buf.extend_from_slice(data);
    }

    fn get_bytes<'a>(buf: &'a [u8], at: &mut usize) -> Result<&'a [u8], PacketError> {
        let (len, c) = decode_varint(&buf[*at..])?;
        *at += c;
        let len = len as usize;
        if *at + len > buf.len() {
            return Err(PacketError::Truncated {
                what: "handshake bytes",
                needed: *at + len,
                available: buf.len(),
            });
        }
        let out = &buf[*at..*at + len];
        *at += len;
        Ok(out)
    }

    impl HandshakeMessage {
        pub fn encode(&self) -> Vec<u8> {
            let mut buf = Vec::with_capacity(128);
            match self {
                HandshakeMessage::ClientHello {
                    sni,
                    alpn,
                    transport_params,
                } => {
                    encode_varint(&mut buf, TAG_CLIENT_HELLO);
                    put_string(&mut buf, sni);
                    put_string(&mut buf, alpn);
                    put_bytes(&mut buf, &encode_params(transport_params));
                }
                HandshakeMessage::ServerHello {
                    transport_params,
                    alpn,
                } => {
                    encode_varint(&mut buf, TAG_SERVER_HELLO);
                    put_string(&mut buf, alpn);
                    put_bytes(&mut buf, &encode_params(transport_params));
                }
                HandshakeMessage::Finished => {
                    encode_varint(&mut buf, TAG_FINISHED);
                }
            }
            buf
        }

        pub fn decode(buf: &[u8]) -> Result<Self, PacketError> {
            let mut at = 0usize;
            let (tag, c) = decode_varint(buf)?;
            at += c;
            match tag {
                TAG_CLIENT_HELLO => {
                    let sni = get_string(buf, &mut at)?;
                    let alpn = get_string(buf, &mut at)?;
                    let params = TransportParameters::decode(get_bytes(buf, &mut at)?)?;
                    Ok(HandshakeMessage::ClientHello {
                        sni,
                        alpn,
                        transport_params: params,
                    })
                }
                TAG_SERVER_HELLO => {
                    let alpn = get_string(buf, &mut at)?;
                    let params = TransportParameters::decode(get_bytes(buf, &mut at)?)?;
                    Ok(HandshakeMessage::ServerHello {
                        transport_params: params,
                        alpn,
                    })
                }
                TAG_FINISHED => Ok(HandshakeMessage::Finished),
                other => Err(PacketError::UnknownFrameType(other)),
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HttpRequest {
        pub authority: String,
        pub path: String,
        pub user_agent: String,
    }

    impl HttpRequest {
        pub fn get(authority: &str) -> Self {
            HttpRequest {
                authority: authority.to_string(),
                path: "/".to_string(),
                user_agent: "quic-ecn-measurements (research scan; see project page)".to_string(),
            }
        }

        pub fn encode(&self) -> Vec<u8> {
            format!(
                "GET {} HTTP/3\r\nhost: {}\r\nuser-agent: {}\r\n\r\n",
                self.path, self.authority, self.user_agent
            )
            .into_bytes()
        }

        pub fn decode(bytes: &[u8]) -> Option<Self> {
            let text = std::str::from_utf8(bytes).ok()?;
            let mut lines = text.lines();
            let request_line = lines.next()?;
            let mut parts = request_line.split_whitespace();
            let method = parts.next()?;
            if method != "GET" {
                return None;
            }
            let path = parts.next()?.to_string();
            let mut authority = String::new();
            let mut user_agent = String::new();
            for line in lines {
                if let Some((name, value)) = line.split_once(':') {
                    match name.trim().to_ascii_lowercase().as_str() {
                        "host" => authority = value.trim().to_string(),
                        "user-agent" => user_agent = value.trim().to_string(),
                        _ => {}
                    }
                }
            }
            Some(HttpRequest {
                authority,
                path,
                user_agent,
            })
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HttpResponse {
        pub status: u16,
        pub server: Option<String>,
        pub via: Option<String>,
        pub alt_svc: Option<String>,
        pub body_len: usize,
    }

    impl HttpResponse {
        pub fn encode(&self) -> Vec<u8> {
            let mut text = format!("HTTP/3 {}\r\n", self.status);
            if let Some(server) = &self.server {
                text.push_str(&format!("server: {server}\r\n"));
            }
            if let Some(via) = &self.via {
                text.push_str(&format!("via: {via}\r\n"));
            }
            if let Some(alt_svc) = &self.alt_svc {
                text.push_str(&format!("alt-svc: {alt_svc}\r\n"));
            }
            text.push_str(&format!("content-length: {}\r\n\r\n", self.body_len));
            let mut bytes = text.into_bytes();
            bytes.extend(std::iter::repeat(b'x').take(self.body_len));
            bytes
        }

        pub fn decode(bytes: &[u8]) -> Option<Self> {
            let text = String::from_utf8_lossy(bytes);
            let mut lines = text.lines();
            let status_line = lines.next()?;
            let status = status_line.split_whitespace().nth(1)?.parse().ok()?;
            let mut response = HttpResponse {
                status,
                server: None,
                via: None,
                alt_svc: None,
                body_len: 0,
            };
            for line in lines {
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    let value = value.trim().to_string();
                    match name.trim().to_ascii_lowercase().as_str() {
                        "server" => response.server = Some(value),
                        "via" => response.via = Some(value),
                        "alt-svc" => response.alt_svc = Some(value),
                        "content-length" => response.body_len = value.parse().unwrap_or(0),
                        _ => {}
                    }
                }
            }
            Some(response)
        }
    }
}

/// What `write` appends to an empty buffer.
fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf);
    buf
}

/// `s` cut to at most `max` bytes, at a character boundary.
fn within(s: String, max: usize) -> String {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s[..end].to_string()
}

/// Host names, ASCII and not, of 0–255 bytes.
fn arb_sni() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9.-]{0,255}".prop_map(|s| within(s, 255)),
        "[a-z0-9.\u{e0}-\u{ff}\u{3b1}-\u{3c9}\u{4e00}-\u{4e20}]{0,200}"
            .prop_map(|s| within(s, 255)),
    ]
}

/// Header values, with the spaces and slashes real ones have and
/// characters beyond ASCII.
fn arb_header() -> impl Strategy<Value = String> {
    "[A-Za-z0-9/. ;=\u{e9}-\u{ff}-]{0,40}"
}

fn arb_params() -> impl Strategy<Value = TransportParameters> {
    let value = || prop_oneof![0u64..64, 64u64..16_384, any::<u64>()];
    (
        (value(), value(), value()),
        (value(), value(), value()),
        (value(), value()),
    )
        .prop_map(|((a, b, c), (d, e, f), (g, h))| TransportParameters {
            max_idle_timeout_ms: a,
            max_udp_payload_size: b,
            initial_max_data: c,
            initial_max_stream_data: d,
            initial_max_streams_bidi: e,
            ack_delay_exponent: f,
            max_ack_delay_ms: g,
            active_connection_id_limit: h,
        })
}

/// Arbitrary bytes, real messages, and bytes that start like a real message
/// and go wrong.
fn arb_bytes(valid: Vec<Vec<u8>>) -> impl Strategy<Value = Vec<u8>> {
    let intact = {
        let valid = valid.clone();
        (0..valid.len()).prop_map(move |which| valid[which].clone())
    };
    let mangled = (
        (0..valid.len(), any::<usize>()),
        (any::<u8>(), any::<usize>()),
    )
        .prop_map(move |((which, at), (byte, cut))| {
            let mut bytes = valid[which].clone();
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= byte;
                bytes.truncate(cut % (bytes.len() + 1));
            }
            bytes
        });
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..300),
        intact,
        mangled
    ]
}

/// The in-place reading of a handshake message, in the oracle's owned shape.
fn owned(message: HandshakeMessage<'_>) -> oracle::HandshakeMessage {
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    match message {
        HandshakeMessage::ClientHello {
            sni,
            alpn,
            transport_params,
        } => oracle::HandshakeMessage::ClientHello {
            sni: text(sni),
            alpn: text(alpn),
            transport_params,
        },
        HandshakeMessage::ServerHello {
            transport_params,
            alpn,
        } => oracle::HandshakeMessage::ServerHello {
            transport_params,
            alpn: text(alpn),
        },
        HandshakeMessage::Finished => oracle::HandshakeMessage::Finished,
    }
}

fn valid_messages() -> Vec<Vec<u8>> {
    let params = TransportParameters::client_default();
    vec![
        written(|buf| {
            HandshakeMessage::ClientHello {
                sni: "www.example.org".as_bytes(),
                alpn: b"h3",
                transport_params: params,
            }
            .encode(buf)
        }),
        written(|buf| {
            HandshakeMessage::ServerHello {
                transport_params: params,
                alpn: b"h3",
            }
            .encode(buf)
        }),
        written(|buf| HttpRequest::get("www.example.org").encode(buf)),
        written(|buf| {
            HttpResponse {
                server: Some("LiteSpeed/6.1"),
                via: Some("1.1 google"),
                alt_svc: Some("h3=\":443\""),
                body_len: 12,
                ..HttpResponse::ok()
            }
            .encode(buf)
        }),
        written(|buf| params.encode(buf)),
        // Header names in any case, values padded, lines a real stack might
        // send: the readers match names as the owned ones did.
        b"GET /index.html HTTP/3\r\nHOST:  www.example.org \r\nUser-Agent:x\r\n\r\n".to_vec(),
        b"HTTP/3 404 Not Found\r\nSERVER: nginx/1.25 \r\nVia:1.1 google\r\n\
          ALT-SVC : h3\r\nContent-Length:  12 \r\nx-extra: 1\r\n\r\nbody"
            .to_vec(),
    ]
}

/// Stream bytes a response may arrive as: arbitrary bytes, bytes drawn
/// from the ones line splitting and UTF-8 decoding turn on, and a written
/// response — any header values, any status — whose body holds invalid
/// UTF-8, bare `\r`, `\n\n` and header lines.
fn arb_response_stream() -> impl Strategy<Value = Vec<u8>> {
    let tricky = || {
        prop_oneof![
            Just(b'\r'),
            Just(b'\n'),
            Just(b':'),
            Just(b' '),
            Just(b'x'),
            Just(0xff),
            Just(0xc3),
            Just(0xa9),
            Just(0xe2),
            Just(0x80),
        ]
    };
    // Lines a reader that ran on into the body would take for headers.
    let body_piece = prop_oneof![
        tricky().prop_map(|byte| vec![byte]),
        Just(b"server: body\r\n".to_vec()),
        Just(b"Content-Length: 9\n".to_vec()),
        Just(b"\r\n\r\n".to_vec()),
    ];
    let value = || {
        proptest::option::of(prop_oneof![
            arb_header(),
            "[\u{1}-\u{2fff}]{0,30}",
            "[ \t\r\n:\u{85}\u{a0}\u{2028}a-z]{0,20}",
        ])
    };
    let response = (
        (any::<u16>(), value()),
        (value(), value()),
        (0usize..2000, proptest::collection::vec(body_piece, 0..100)),
    )
        .prop_map(|((status, server), (via, alt_svc), (body_len, body))| {
            let mut bytes = written(|buf| {
                HttpResponse {
                    status,
                    server: server.as_deref(),
                    via: via.as_deref(),
                    alt_svc: alt_svc.as_deref(),
                    body_len,
                }
                .encode(buf)
            });
            let start = bytes.len() - body_len;
            bytes.truncate(start);
            bytes.extend(body.concat());
            bytes
        });
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..300),
        proptest::collection::vec(tricky(), 0..300),
        response,
    ]
}

fn arb_config() -> impl Strategy<Value = EcnConfig> {
    prop_oneof![
        Just(EcnConfig::paper_default()),
        // RFC 9000 §13.4.2's suggestion.
        Just(EcnConfig {
            testing_packets: 10,
            max_timeouts: 3,
            codepoint: EcnCodepoint::Ect0,
        }),
    ]
}

proptest! {
    /// Honest mirroring (possibly with CE marks applied by a congested but
    /// compliant network) always validates, regardless of how the ACKs are
    /// batched.
    #[test]
    fn honest_mirroring_always_validates(
        config in arb_config(),
        batches in proptest::collection::vec(1u64..4, 1..8),
        ce_marked in 0u64..3,
    ) {
        let mut validator = EcnValidator::new(config);
        let mut sent_marked = 0u64;
        // Send the full testing budget.
        while sent_marked < config.testing_packets {
            let cp = validator.codepoint_for_next_packet();
            validator.on_packet_sent(cp);
            if cp != EcnCodepoint::NotEct {
                sent_marked += 1;
            } else {
                break;
            }
        }
        // Acknowledge it in arbitrary batches with accurate cumulative counts.
        let mut acked = 0u64;
        let mut cumulative = EcnCounts::ZERO;
        let mut ce_budget = ce_marked.min(sent_marked.saturating_sub(1));
        for batch in batches {
            let batch = batch.min(sent_marked - acked);
            if batch == 0 {
                break;
            }
            acked += batch;
            // A compliant router may have turned *some* (not all) ECT(0)
            // packets into CE; marking every single one is the "All CE"
            // failure class and is tested separately.
            let ce_now = ce_budget.min(batch.saturating_sub(1));
            ce_budget -= ce_now;
            cumulative.ect0 += batch - ce_now;
            cumulative.ce += ce_now;
            validator.on_ack_received(batch, batch, Some(cumulative));
            prop_assert!(!matches!(
                validator.state(),
                EcnValidationState::Failed(_)
            ), "honest feedback must never fail validation");
        }
        if acked == sent_marked && acked > 0 {
            prop_assert_eq!(validator.state(), EcnValidationState::Capable);
        }
    }

    /// Reporting fewer marks than were acknowledged always ends in a failure
    /// (undercount or no-mirroring), never in Capable.
    #[test]
    fn underreporting_never_validates(
        config in arb_config(),
        missing in 1u64..5,
    ) {
        let mut validator = EcnValidator::new(config);
        for _ in 0..config.testing_packets {
            let cp = validator.codepoint_for_next_packet();
            validator.on_packet_sent(cp);
        }
        let sent = config.testing_packets;
        let reported = sent.saturating_sub(missing);
        validator.on_ack_received(
            sent,
            sent,
            Some(EcnCounts { ect0: reported, ect1: 0, ce: 0 }),
        );
        prop_assert!(matches!(
            validator.state(),
            EcnValidationState::Failed(EcnValidationFailure::Undercount)
                | EcnValidationState::Failed(EcnValidationFailure::NoMirroring)
        ));
    }

    /// The validator's sent counters always dominate what any honest peer
    /// could report, and marking stops as soon as the state machine reaches a
    /// failure state.
    #[test]
    fn marking_stops_after_failure(config in arb_config()) {
        let mut validator = EcnValidator::new(config);
        for _ in 0..config.testing_packets {
            let cp = validator.codepoint_for_next_packet();
            validator.on_packet_sent(cp);
        }
        validator.on_ack_received(config.testing_packets, config.testing_packets, None);
        prop_assert!(matches!(validator.state(), EcnValidationState::Failed(_)));
        prop_assert_eq!(validator.codepoint_for_next_packet(), EcnCodepoint::NotEct);
    }

    /// The mirroring behaviour profiles never report more total marks than
    /// they observed (they can only lose or re-label information), except for
    /// the deliberately dishonest AlwaysCe profile which relabels everything.
    #[test]
    fn mirroring_profiles_never_invent_marks(
        ect0 in 0u64..100,
        ect1 in 0u64..100,
        ce in 0u64..100,
        app_space in any::<bool>(),
    ) {
        let observed = EcnCounts { ect0, ect1, ce };
        for behavior in [
            EcnMirroringBehavior::None,
            EcnMirroringBehavior::Accurate,
            EcnMirroringBehavior::MirrorOnlyHandshake,
            EcnMirroringBehavior::MirrorAsEct1,
            EcnMirroringBehavior::AlwaysCe,
        ] {
            if let Some(reported) = behavior.report(observed, app_space) {
                prop_assert!(reported.total() <= observed.total());
            }
        }
    }

    /// Transport parameters and HTTP messages round-trip for arbitrary values
    /// (the fingerprint clustering relies on byte-exact re-encoding).
    #[test]
    fn transport_params_round_trip(
        idle in 0u64..1_000_000,
        max_data in 0u64..(1 << 40),
        streams in 0u64..10_000,
        ack_exp in 0u64..20,
    ) {
        let params = TransportParameters {
            max_idle_timeout_ms: idle,
            initial_max_data: max_data,
            initial_max_streams_bidi: streams,
            ack_delay_exponent: ack_exp,
            ..TransportParameters::client_default()
        };
        let bytes = written(|buf| params.encode(buf));
        let decoded = TransportParameters::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, params);
        prop_assert_eq!(decoded.fingerprint(), params.fingerprint());
    }

    /// The plaintext HTTP layer survives arbitrary authorities and server
    /// header values.
    #[test]
    fn http_round_trips(
        authority in "[a-z0-9.-]{1,40}",
        server in proptest::option::of("[A-Za-z0-9/. -]{1,24}"),
        status in 100u16..600,
    ) {
        let request = written(|buf| HttpRequest::get(&authority).encode(buf));
        let parsed = HttpRequest::decode(&request).unwrap();
        prop_assert_eq!(parsed.authority, authority.as_str());

        let response = HttpResponse {
            status,
            server: server.as_deref(),
            ..HttpResponse::ok()
        };
        let parsed = HttpResponse::decode(&written(|buf| response.encode(buf))).unwrap();
        prop_assert_eq!(parsed.status, status);
        prop_assert_eq!(parsed.server, server.map(|s| s.trim().to_string()));
    }

    /// Arbitrary bytes make every reader return a typed error or a value
    /// that writes back to what it read, never a panic; and each reader
    /// reads what the owned decoder it replaced read, field for field, or
    /// fails where it failed, error for error.
    #[test]
    fn readers_in_place_are_total_and_read_what_the_oracles_read(
        bytes in arb_bytes(valid_messages()),
    ) {
        let message = HandshakeMessage::decode(&bytes);
        prop_assert_eq!(message.clone().map(owned), oracle::HandshakeMessage::decode(&bytes));
        if let Ok(message) = message {
            let again = written(|buf| message.encode(buf));
            prop_assert_eq!(HandshakeMessage::decode(&again), Ok(message));
        }

        let request = HttpRequest::decode(&bytes);
        let expected = oracle::HttpRequest::decode(&bytes);
        prop_assert_eq!(request.is_some(), expected.is_some());
        if let (Some(request), Some(expected)) = (request, expected) {
            prop_assert_eq!(request.authority, expected.authority.as_str());
            prop_assert_eq!(request.path, expected.path.as_str());
            prop_assert_eq!(request.user_agent, expected.user_agent.as_str());
        }

        let response = HttpResponse::decode(&bytes).map(|r| (r.status, r.server, r.via, r.alt_svc, r.body_len));
        let expected = oracle::HttpResponse::decode(&bytes).map(|r| (r.status, r.server, r.via, r.alt_svc, r.body_len));
        prop_assert_eq!(response, expected);

        if let Ok(params) = TransportParameters::decode(&bytes) {
            let again = written(|buf| params.encode(buf));
            prop_assert_eq!(TransportParameters::decode(&again), Ok(params));
        }
    }

    /// The handshake and HTTP messages written where they go are the bytes
    /// the owned encoders produced — as messages and as the CRYPTO / STREAM
    /// frames they are written into — for any SNI of up to 255 bytes, any
    /// parameters and every combination of response headers.
    #[test]
    fn writers_in_place_write_what_the_oracles_wrote(
        sni in arb_sni(),
        alpn in "[a-z0-9]{0,8}",
        params in arb_params(),
        headers in (
            proptest::option::of(arb_header()),
            proptest::option::of(arb_header()),
            proptest::option::of(arb_header()),
        ),
        status in 100u16..600,
        body_len in prop_oneof![0usize..64, 64usize..20_000],
    ) {
        prop_assert_eq!(written(|buf| params.encode(buf)), oracle::encode_params(&params));
        let hellos = [
            (
                HandshakeMessage::ClientHello {
                    sni: sni.as_bytes(),
                    alpn: alpn.as_bytes(),
                    transport_params: params,
                },
                oracle::HandshakeMessage::ClientHello {
                    sni: sni.clone(),
                    alpn: alpn.clone(),
                    transport_params: params,
                },
            ),
            (
                HandshakeMessage::ServerHello {
                    transport_params: params,
                    alpn: alpn.as_bytes(),
                },
                oracle::HandshakeMessage::ServerHello {
                    transport_params: params,
                    alpn: alpn.clone(),
                },
            ),
            (HandshakeMessage::Finished, oracle::HandshakeMessage::Finished),
        ];
        for (message, expected) in hellos {
            let expected = expected.encode();
            prop_assert_eq!(written(|buf| message.encode(buf)), expected.clone());
            let framed = written(|buf| {
                let length = begin_crypto(buf, 0);
                message.encode(buf);
                length.finish(buf);
            });
            let data = expected;
            prop_assert_eq!(framed, written(|buf| Frame::Crypto { offset: 0, data }.encode(buf)));
        }

        let request = written(|buf| HttpRequest::get(&sni).encode(buf));
        prop_assert_eq!(&request, &oracle::HttpRequest::get(&sni).encode());
        let (server, via, alt_svc) = headers;
        let response = HttpResponse {
            status,
            server: server.as_deref(),
            via: via.as_deref(),
            alt_svc: alt_svc.as_deref(),
            body_len,
        };
        let expected = oracle::HttpResponse {
            status,
            server: server.clone(),
            via: via.clone(),
            alt_svc: alt_svc.clone(),
            body_len,
        }
        .encode();
        prop_assert_eq!(written(|buf| response.encode(buf)), expected.clone());
        let framed = |write: &dyn Fn(&mut Vec<u8>)| {
            written(|buf| {
                let length = begin_stream(buf, 0, 0, true);
                write(buf);
                length.finish(buf);
            })
        };
        let frame = |data| written(|buf| Frame::Stream { stream_id: 0, offset: 0, fin: true, data }.encode(buf));
        prop_assert_eq!(framed(&|buf| HttpRequest::get(&sni).encode(buf)), frame(request));
        prop_assert_eq!(framed(&|buf| response.encode(buf)), frame(expected));
    }

    /// A client's first datagram — the ClientHello written into its padded
    /// Initial — is the packet the owned encoders built, in every version
    /// the client speaks.
    #[test]
    fn client_initial_is_the_oracles_packet(sni in arb_sni(), seed in any::<u64>()) {
        for version in QuicVersion::CLIENT_SUPPORTED {
            let config = ClientConfig {
                preferred_version: version,
                ..ClientConfig::paper_default(&sni)
            };
            let mut client = ClientConnection::new(config, SimInstant::EPOCH, seed);
            let sent = client.poll_transmit(SimInstant::EPOCH).map(|t| t.payload.to_vec());
            let hello = oracle::HandshakeMessage::ClientHello {
                sni: sni.clone(),
                alpn: "h3".to_string(),
                transport_params: TransportParameters::client_default(),
            };
            let header = PacketHeader::Long {
                ty: LongPacketType::Initial,
                version,
                dcid: ConnectionId::from_u64(seed.wrapping_add(1)),
                scid: ConnectionId::from_u64(seed),
                token: Vec::new(),
                packet_number: 0,
            };
            let expected = written(|buf| {
                let open = header.begin(buf);
                let at = buf.len();
                Frame::Crypto { offset: 0, data: hello.encode() }.encode(buf);
                let padded = at + qem_packet::quic::MIN_INITIAL_SIZE - 48;
                if buf.len() < padded {
                    buf.resize(padded, 0);
                }
                open.finish(buf);
            });
            prop_assert_eq!((version, sent), (version, Some(expected)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The response reader, which stops at the blank line that ends the
    /// headers and decodes a line at a time, reads what the owned reader —
    /// the whole stream's lossy text, split into lines — read, field for
    /// field: over arbitrary bytes, and over responses with any header
    /// values and bodies of invalid UTF-8, bare `\r` and `\n\n`.
    #[test]
    fn response_reader_reads_what_the_whole_stream_reader_read(
        bytes in arb_response_stream(),
    ) {
        let response = HttpResponse::decode(&bytes).map(|r| (r.status, r.server, r.via, r.alt_svc, r.body_len));
        let expected = oracle::HttpResponse::decode(&bytes).map(|r| (r.status, r.server, r.via, r.alt_svc, r.body_len));
        prop_assert_eq!(response, expected);
    }
}
