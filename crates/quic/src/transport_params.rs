//! QUIC transport parameters, reduced to the subset the study fingerprints.
//!
//! The paper identifies server stacks that do not set an HTTP `server`
//! header by comparing the transport parameters of their connections with
//! those of known deployments (§5.3: "we compared the transport parameters
//! of the QUIC connections and found that these were mostly equal to those
//! of requests identifying as LiteSpeed").  This module provides both the
//! wire encoding of the parameters (carried inside the handshake CRYPTO
//! exchange) and a stable fingerprint for that comparison.  The parameters
//! are a `Copy` value: decoding reads them where they lie, encoding appends
//! them to the handshake message under construction.

use qem_packet::quic::{decode_varint, encode_varint, varint_len};
use qem_packet::PacketError;

/// A (simplified) set of QUIC transport parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransportParameters {
    /// `max_idle_timeout` in milliseconds.
    pub max_idle_timeout_ms: u64,
    /// `max_udp_payload_size`.
    pub max_udp_payload_size: u64,
    /// `initial_max_data`.
    pub initial_max_data: u64,
    /// `initial_max_stream_data_bidi_local`.
    pub initial_max_stream_data: u64,
    /// `initial_max_streams_bidi`.
    pub initial_max_streams_bidi: u64,
    /// `ack_delay_exponent`.
    pub ack_delay_exponent: u64,
    /// `max_ack_delay` in milliseconds.
    pub max_ack_delay_ms: u64,
    /// `active_connection_id_limit`.
    pub active_connection_id_limit: u64,
}

impl TransportParameters {
    /// Parameters used by the measurement client (adapted quic-go).
    pub fn client_default() -> Self {
        TransportParameters {
            max_idle_timeout_ms: 10_000,
            max_udp_payload_size: 1452,
            initial_max_data: 786_432,
            initial_max_stream_data: 524_288,
            initial_max_streams_bidi: 100,
            ack_delay_exponent: 0,
            max_ack_delay_ms: 25,
            active_connection_id_limit: 4,
        }
    }

    /// A stable 64-bit fingerprint of the parameter set (FNV-1a).
    ///
    /// Two servers running the same stack/configuration produce the same
    /// fingerprint, which is how the pipeline clusters "unknown" server
    /// headers with known stacks.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, value) in self.wire() {
            for byte in value.to_be_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Every parameter as the `(id, value)` pair it is sent as, in wire
    /// order.
    fn wire(&self) -> [(u64, u64); 8] {
        [
            (0x01, self.max_idle_timeout_ms),
            (0x03, self.max_udp_payload_size),
            (0x04, self.initial_max_data),
            (0x05, self.initial_max_stream_data),
            (0x08, self.initial_max_streams_bidi),
            (0x0a, self.ack_delay_exponent),
            (0x0b, self.max_ack_delay_ms),
            (0x0e, self.active_connection_id_limit),
        ]
    }

    /// Append the parameters to `buf` as a sequence of (id, length, value)
    /// triples like RFC 9000 §18.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        for (id, value) in self.wire() {
            encode_varint(buf, id);
            encode_varint(buf, varint_len(value) as u64);
            encode_varint(buf, value);
        }
    }

    /// Decode from the wire representation; unknown parameter ids are skipped
    /// (as required for forward compatibility).
    pub fn decode(buf: &[u8]) -> Result<Self, PacketError> {
        let mut params = TransportParameters::client_default();
        let mut at = 0usize;
        while at < buf.len() {
            let (id, c) = decode_varint(&buf[at..])?;
            at += c;
            let (len, c) = decode_varint(&buf[at..])?;
            at += c;
            let len = len as usize;
            if at + len > buf.len() {
                return Err(PacketError::Truncated {
                    what: "transport parameters",
                    needed: at + len,
                    available: buf.len(),
                });
            }
            let value = if len == 0 {
                0
            } else {
                decode_varint(&buf[at..at + len])?.0
            };
            at += len;
            match id {
                0x01 => params.max_idle_timeout_ms = value,
                0x03 => params.max_udp_payload_size = value,
                0x04 => params.initial_max_data = value,
                0x05 => params.initial_max_stream_data = value,
                0x08 => params.initial_max_streams_bidi = value,
                0x0a => params.ack_delay_exponent = value,
                0x0b => params.max_ack_delay_ms = value,
                0x0e => params.active_connection_id_limit = value,
                _ => {}
            }
        }
        Ok(params)
    }
}

impl Default for TransportParameters {
    fn default() -> Self {
        TransportParameters::client_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(params: &TransportParameters) -> Vec<u8> {
        let mut buf = Vec::new();
        params.encode(&mut buf);
        buf
    }

    #[test]
    fn round_trip() {
        let params = TransportParameters {
            max_idle_timeout_ms: 30_000,
            max_udp_payload_size: 1350,
            initial_max_data: 1_000_000,
            initial_max_stream_data: 250_000,
            initial_max_streams_bidi: 16,
            ack_delay_exponent: 3,
            max_ack_delay_ms: 26,
            active_connection_id_limit: 8,
        };
        let decoded = TransportParameters::decode(&encoded(&params)).unwrap();
        assert_eq!(decoded, params);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        let a = TransportParameters::client_default();
        let b = TransportParameters {
            initial_max_data: a.initial_max_data + 1,
            ..a
        };
        assert_eq!(
            a.fingerprint(),
            TransportParameters::client_default().fingerprint()
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn unknown_parameters_are_skipped() {
        let mut buf = encoded(&TransportParameters::client_default());
        // Append an unknown parameter (id 0x7f, 2-byte value).
        encode_varint(&mut buf, 0x7f);
        encode_varint(&mut buf, 2);
        buf.extend_from_slice(&[0x40, 0x20]);
        let decoded = TransportParameters::decode(&buf).unwrap();
        assert_eq!(decoded, TransportParameters::client_default());
    }

    #[test]
    fn truncated_rejected() {
        let buf = encoded(&TransportParameters::client_default());
        assert!(TransportParameters::decode(&buf[..buf.len() - 1]).is_err());
    }
}
