//! The plaintext handshake messages carried in CRYPTO frames.
//!
//! Real QUIC embeds TLS 1.3; this reproduction replaces it with a minimal
//! plaintext exchange (ClientHello → ServerHello + Finished → ClientFinished)
//! that carries exactly the information the measurement pipeline consumes:
//! the SNI / authority, the ALPN, and the peers' transport parameters.
//! See DESIGN.md for why this substitution does not affect any measured
//! quantity.

use crate::transport_params::TransportParameters;
use qem_packet::quic::{decode_varint, encode_varint};
use qem_packet::PacketError;

/// Handshake message tags.
const TAG_CLIENT_HELLO: u64 = 1;
const TAG_SERVER_HELLO: u64 = 2;
const TAG_FINISHED: u64 = 3;

/// A handshake ("crypto stream") message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// Sent by the client in its Initial packet.
    ClientHello {
        /// Server name indication — the domain being measured.
        sni: String,
        /// Application protocol (the scanner sends `h3`).
        alpn: String,
        /// The client's transport parameters.
        transport_params: TransportParameters,
    },
    /// Sent by the server in its Initial packet.
    ServerHello {
        /// The server's transport parameters (fingerprinted by the pipeline).
        transport_params: TransportParameters,
        /// The negotiated application protocol.
        alpn: String,
    },
    /// Sent by both sides in the Handshake packet number space to conclude
    /// the handshake.
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
    /// Encode to crypto-stream bytes.
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
                put_bytes(&mut buf, &transport_params.encode());
            }
            HandshakeMessage::ServerHello {
                transport_params,
                alpn,
            } => {
                encode_varint(&mut buf, TAG_SERVER_HELLO);
                put_string(&mut buf, alpn);
                put_bytes(&mut buf, &transport_params.encode());
            }
            HandshakeMessage::Finished => {
                encode_varint(&mut buf, TAG_FINISHED);
            }
        }
        buf
    }

    /// Decode one message from crypto-stream bytes.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_round_trip() {
        let msg = HandshakeMessage::ClientHello {
            sni: "www.example.org".to_string(),
            alpn: "h3".to_string(),
            transport_params: TransportParameters::client_default(),
        };
        assert_eq!(HandshakeMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn server_hello_round_trip() {
        let msg = HandshakeMessage::ServerHello {
            transport_params: TransportParameters {
                initial_max_data: 42,
                ..TransportParameters::client_default()
            },
            alpn: "h3".to_string(),
        };
        assert_eq!(HandshakeMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn finished_round_trip() {
        let msg = HandshakeMessage::Finished;
        assert_eq!(HandshakeMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn truncated_rejected() {
        let msg = HandshakeMessage::ClientHello {
            sni: "www.example.org".to_string(),
            alpn: "h3".to_string(),
            transport_params: TransportParameters::client_default(),
        };
        let bytes = msg.encode();
        assert!(HandshakeMessage::decode(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(HandshakeMessage::decode(&[0x17]).is_err());
    }
}
