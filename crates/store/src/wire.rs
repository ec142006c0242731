//! Low-level wire primitives of the store format: LEB128 varints, a bounds-
//! checked byte reader and the FNV-1a checksum that seals every file.
//!
//! Everything here is hand-rolled on purpose — the store must not pull in
//! registry crates (the build runs fully offline), and the format is simple
//! enough that a dependency would cost more than it saves.

use crate::{StoreError, FORMAT_VERSION};

/// Append a LEB128-encoded unsigned integer to `buf`.
pub fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append a little-endian `u64` (used for f64 bit patterns and checksums,
/// where varint encoding would inflate random bit patterns).
pub fn write_u64_le(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// The 64-bit FNV-1a hash of `data` — the integrity seal at the end of every
/// store file.  Not cryptographic; it catches truncation and bit rot, which
/// is all a local result store needs.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Split a sealed store file into its body and the trailing little-endian
/// [`fnv1a`] seal.  Every store file ends with this 8-byte seal; a file
/// shorter than the seal itself is truncation, reported as
/// [`StoreError::Corrupt`] rather than a slicing panic.
pub fn split_seal(bytes: &[u8]) -> Result<(&[u8], u64), StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Corrupt(
            "file shorter than its 8-byte integrity seal".to_string(),
        ));
    }
    let (body, seal_bytes) = bytes.split_at(bytes.len() - 8);
    let mut seal = [0u8; 8];
    seal.copy_from_slice(seal_bytes);
    Ok((body, u64::from_le_bytes(seal)))
}

/// Open a sealed header file — `magic`, the format version, a payload, the
/// [`fnv1a`] seal — and return a reader over the payload.  `what` names the
/// kind of file in the error of a failed seal, magic or version check.
pub fn open_sealed<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    what: &str,
) -> Result<ByteReader<'a>, StoreError> {
    let (body, stored) =
        split_seal(bytes).map_err(|_| StoreError::Corrupt(format!("{what} truncated")))?;
    if stored != fnv1a(body) {
        return Err(StoreError::Corrupt(format!("{what} checksum mismatch")));
    }
    let mut r = ByteReader::new(body);
    if r.bytes(magic.len())? != magic {
        return Err(StoreError::Corrupt(format!("bad {what} magic")));
    }
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported {what} version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    Ok(r)
}

/// A bounds-checked cursor over an encoded buffer.  Every read error carries
/// the reader's position so corrupt files produce actionable messages.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a buffer.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Fail unless every byte has been consumed: bytes a decoder does not
    /// read are bytes nobody validated.
    pub fn expect_end(&self, what: &str) -> Result<(), StoreError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(&format!("trailing bytes in {what}")))
        }
    }

    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::Corrupt(format!("{what} at offset {}", self.pos))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let byte = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.corrupt("unexpected end of data"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| self.corrupt("unexpected end of data"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read a LEB128 varint in its shortest form.
    pub fn varint(&mut self) -> Result<u64, StoreError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(self.corrupt("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // A zero last byte adds nothing: `write_varint` never
                // writes one, so the value has one encoding.
                if byte == 0 && shift > 0 {
                    return Err(self.corrupt("overlong varint"));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Read a little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, StoreError> {
        let bytes = self.bytes(8)?;
        let mut array = [0u8; 8];
        array.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(array))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StoreError> {
        let len = self.varint()? as usize;
        if len > self.data.len().saturating_sub(self.pos) {
            return Err(self.corrupt("string length exceeds remaining data"));
        }
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 at offset {}", self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_across_magnitudes() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut reader = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(reader.varint().unwrap(), v);
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn truncated_varint_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.truncate(buf.len() - 1);
        assert!(ByteReader::new(&buf).varint().is_err());
    }

    #[test]
    fn a_varint_has_one_encoding() {
        assert_eq!(ByteReader::new(&[0x00]).varint().unwrap(), 0);
        assert_eq!(ByteReader::new(&[0x80, 0x01]).varint().unwrap(), 128);
        // The same values, padded with a zero last byte.
        assert!(ByteReader::new(&[0x80, 0x00]).varint().is_err());
        assert!(ByteReader::new(&[0x80, 0x81, 0x00]).varint().is_err());
    }

    #[test]
    fn oversized_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert!(ByteReader::new(&buf).varint().is_err());
    }

    #[test]
    fn strings_round_trip_and_reject_bad_lengths() {
        let mut buf = Vec::new();
        write_str(&mut buf, "Aachen (main)");
        write_str(&mut buf, "");
        let mut reader = ByteReader::new(&buf);
        assert_eq!(reader.string().unwrap(), "Aachen (main)");
        assert_eq!(reader.string().unwrap(), "");

        let mut bad = Vec::new();
        write_varint(&mut bad, 1_000);
        bad.push(b'x');
        assert!(ByteReader::new(&bad).string().is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
