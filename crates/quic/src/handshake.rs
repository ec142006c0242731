//! The plaintext handshake messages carried in CRYPTO frames.
//!
//! Real QUIC embeds TLS 1.3; this reproduction replaces it with a minimal
//! plaintext exchange (ClientHello → ServerHello + Finished → ClientFinished)
//! that carries exactly the information the measurement pipeline consumes:
//! the SNI / authority, the ALPN, and the peers' transport parameters.
//! See DESIGN.md for why this substitution does not affect any measured
//! quantity.
//!
//! A message is read where it lies and written where it goes:
//! [`HandshakeMessage::decode`] lends SNI and ALPN as slices of the CRYPTO
//! data, and [`HandshakeMessage::encode`] appends to the frame under
//! construction — no message owns a byte.

use crate::transport_params::TransportParameters;
use qem_packet::quic::{decode_varint, encode_varint, OpenPacket};
use qem_packet::PacketError;

/// Handshake message tags.
const TAG_CLIENT_HELLO: u64 = 1;
const TAG_SERVER_HELLO: u64 = 2;
const TAG_FINISHED: u64 = 3;

/// A handshake ("crypto stream") message, its strings borrowed from the
/// bytes it was read from or is written from — as sent, not necessarily
/// UTF-8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeMessage<'a> {
    /// Sent by the client in its Initial packet.
    ClientHello {
        /// Server name indication — the domain being measured.
        sni: &'a [u8],
        /// Application protocol (the scanner sends `h3`).
        alpn: &'a [u8],
        /// The client's transport parameters.
        transport_params: TransportParameters,
    },
    /// Sent by the server in its Initial packet.
    ServerHello {
        /// The server's transport parameters (fingerprinted by the pipeline).
        transport_params: TransportParameters,
        /// The negotiated application protocol.
        alpn: &'a [u8],
    },
    /// Sent by both sides in the Handshake packet number space to conclude
    /// the handshake.
    Finished,
}

fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    encode_varint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

fn put_params(buf: &mut Vec<u8>, params: &TransportParameters) {
    let length = OpenPacket::length(buf);
    params.encode(buf);
    length.finish(buf);
}

fn get_bytes<'a>(
    buf: &'a [u8],
    at: &mut usize,
    what: &'static str,
) -> Result<&'a [u8], PacketError> {
    let (len, c) = decode_varint(&buf[*at..])?;
    *at += c;
    let len = len as usize;
    if *at + len > buf.len() {
        return Err(PacketError::Truncated {
            what,
            needed: *at + len,
            available: buf.len(),
        });
    }
    let out = &buf[*at..*at + len];
    *at += len;
    Ok(out)
}

impl<'a> HandshakeMessage<'a> {
    /// Append the message to `buf`: crypto-stream bytes, written where they
    /// go.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            HandshakeMessage::ClientHello {
                sni,
                alpn,
                transport_params,
            } => {
                encode_varint(buf, TAG_CLIENT_HELLO);
                put_bytes(buf, sni);
                put_bytes(buf, alpn);
                put_params(buf, transport_params);
            }
            HandshakeMessage::ServerHello {
                transport_params,
                alpn,
            } => {
                encode_varint(buf, TAG_SERVER_HELLO);
                put_bytes(buf, alpn);
                put_params(buf, transport_params);
            }
            HandshakeMessage::Finished => encode_varint(buf, TAG_FINISHED),
        }
    }

    /// Read one message from crypto-stream bytes, in place.
    pub fn decode(buf: &'a [u8]) -> Result<Self, PacketError> {
        let mut at = 0usize;
        let (tag, c) = decode_varint(buf)?;
        at += c;
        match tag {
            TAG_CLIENT_HELLO => {
                let sni = get_bytes(buf, &mut at, "handshake string")?;
                let alpn = get_bytes(buf, &mut at, "handshake string")?;
                let params = get_bytes(buf, &mut at, "handshake bytes")?;
                Ok(HandshakeMessage::ClientHello {
                    sni,
                    alpn,
                    transport_params: TransportParameters::decode(params)?,
                })
            }
            TAG_SERVER_HELLO => {
                let alpn = get_bytes(buf, &mut at, "handshake string")?;
                let params = get_bytes(buf, &mut at, "handshake bytes")?;
                Ok(HandshakeMessage::ServerHello {
                    transport_params: TransportParameters::decode(params)?,
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

    fn encoded(msg: &HandshakeMessage<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn client_hello_round_trip() {
        let msg = HandshakeMessage::ClientHello {
            sni: b"www.example.org",
            alpn: b"h3",
            transport_params: TransportParameters::client_default(),
        };
        assert_eq!(HandshakeMessage::decode(&encoded(&msg)).unwrap(), msg);
    }

    #[test]
    fn server_hello_round_trip() {
        let msg = HandshakeMessage::ServerHello {
            transport_params: TransportParameters {
                initial_max_data: 42,
                ..TransportParameters::client_default()
            },
            alpn: b"h3",
        };
        assert_eq!(HandshakeMessage::decode(&encoded(&msg)).unwrap(), msg);
    }

    #[test]
    fn finished_round_trip() {
        let msg = HandshakeMessage::Finished;
        assert_eq!(HandshakeMessage::decode(&encoded(&msg)).unwrap(), msg);
    }

    #[test]
    fn truncated_rejected() {
        let msg = HandshakeMessage::ClientHello {
            sni: b"www.example.org",
            alpn: b"h3",
            transport_params: TransportParameters::client_default(),
        };
        let bytes = encoded(&msg);
        assert!(HandshakeMessage::decode(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(HandshakeMessage::decode(&[0x17]).is_err());
    }
}
