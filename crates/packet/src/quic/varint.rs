//! RFC 9000 §16 variable-length integer encoding.
//!
//! The two most significant bits of the first byte select the total length
//! (1, 2, 4 or 8 bytes); the remaining bits carry the value in network order.

use crate::error::PacketError;
use crate::Result;

/// Largest value representable as a QUIC varint (2^62 - 1).
pub const VARINT_MAX: u64 = (1 << 62) - 1;

/// Number of bytes [`encode_varint`] will use for `value`.
///
/// Returns 8 for values that exceed [`VARINT_MAX`] (they are clamped on
/// encode; callers that care should validate beforehand).
pub fn varint_len(value: u64) -> usize {
    if value < 1 << 6 {
        1
    } else if value < 1 << 14 {
        2
    } else if value < 1 << 30 {
        4
    } else {
        8
    }
}

/// The varint encoding of `value` and its length: the first `.1` bytes of
/// `.0`.
///
/// Values above [`VARINT_MAX`] are clamped to it; QUIC cannot represent them.
pub fn varint_bytes(value: u64) -> ([u8; 8], usize) {
    let value = value.min(VARINT_MAX);
    let len = varint_len(value);
    // The length's logarithm in the top two bits of the value's `len`
    // bytes, and those moved to the front of the eight.
    let tagged = value | (u64::from(len.trailing_zeros()) << (8 * len - 2));
    ((tagged << (64 - 8 * len)).to_be_bytes(), len)
}

/// Append the varint encoding of `value` to `buf`.
///
/// Values above [`VARINT_MAX`] are clamped to it; QUIC cannot represent them.
pub fn encode_varint(buf: &mut Vec<u8>, value: u64) {
    let (bytes, len) = varint_bytes(value);
    // Fixed-size appends: frame types, small offsets and counts make most
    // varints one byte.
    match len {
        1 => buf.push(bytes[0]),
        2 => buf.extend_from_slice(&bytes[..2]),
        4 => buf.extend_from_slice(&bytes[..4]),
        _ => buf.extend_from_slice(&bytes),
    }
}

/// Decode a varint from the front of `buf`, returning the value and the
/// number of bytes consumed.
pub fn decode_varint(buf: &[u8]) -> Result<(u64, usize)> {
    let first = *buf.first().ok_or(PacketError::InvalidVarint)?;
    let len = 1usize << (first >> 6);
    if buf.len() < len {
        return Err(PacketError::InvalidVarint);
    }
    let mut value = u64::from(first & 0x3f);
    for byte in &buf[1..len] {
        value = (value << 8) | u64::from(*byte);
    }
    Ok((value, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> (u64, usize) {
        let mut buf = Vec::new();
        encode_varint(&mut buf, v);
        decode_varint(&buf).unwrap()
    }

    #[test]
    fn rfc_9000_appendix_a_examples() {
        // Examples from RFC 9000 Appendix A.1.
        assert_eq!(decode_varint(&[0x25]).unwrap(), (37, 1));
        assert_eq!(decode_varint(&[0x7b, 0xbd]).unwrap(), (15293, 2));
        assert_eq!(
            decode_varint(&[0x9d, 0x7f, 0x3e, 0x7d]).unwrap(),
            (494_878_333, 4)
        );
        assert_eq!(
            decode_varint(&[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c]).unwrap(),
            (151_288_809_941_952_652, 8)
        );
    }

    #[test]
    fn boundaries_round_trip() {
        for v in [
            0,
            63,
            64,
            16_383,
            16_384,
            (1 << 30) - 1,
            1 << 30,
            VARINT_MAX,
        ] {
            let (decoded, len) = round_trip(v);
            assert_eq!(decoded, v);
            assert_eq!(len, varint_len(v));
        }
    }

    #[test]
    fn values_above_max_are_clamped() {
        let (decoded, _) = round_trip(u64::MAX);
        assert_eq!(decoded, VARINT_MAX);
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(decode_varint(&[]), Err(PacketError::InvalidVarint));
        assert_eq!(decode_varint(&[0x40]), Err(PacketError::InvalidVarint));
        assert_eq!(
            decode_varint(&[0xc0, 0, 0]),
            Err(PacketError::InvalidVarint)
        );
    }
}
