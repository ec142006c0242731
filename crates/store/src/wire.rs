//! Low-level wire primitives of the store format: LEB128 varints, a bounds-
//! checked byte reader and the FNV-1a checksum that seals every file.
//!
//! Everything here is hand-rolled on purpose — the store must not pull in
//! registry crates (the build runs fully offline), and the format is simple
//! enough that a dependency would cost more than it saves.

use crate::{StoreError, FORMAT_VERSION};
use qem_netsim::Probability;

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

/// The number of bytes [`write_varint`] appends for `value`: one per seven
/// significant bits, and one for zero.
pub(crate) fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
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

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
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

    #[cold]
    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::Corrupt(format!("{what} at offset {}", self.pos))
    }

    /// Read one byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        match self.data.get(self.pos) {
            Some(&byte) => {
                self.pos += 1;
                Ok(byte)
            }
            None => Err(self.corrupt("unexpected end of data")),
        }
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
    ///
    /// A value below 128 is one byte without the continuation bit, and it is
    /// most of what a record holds: that byte is read here, and everything
    /// else — the multi-byte, overlong and overflow rules — in
    /// `varint_multi_byte`.
    #[inline(always)]
    pub fn varint(&mut self) -> Result<u64, StoreError> {
        match self.data.get(self.pos) {
            Some(&byte) if byte & 0x80 == 0 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.varint_multi_byte(),
        }
    }

    /// [`ByteReader::varint`] past its one-byte case: a varint that has a
    /// continuation bit, or no byte at all.
    #[inline(never)]
    fn varint_multi_byte(&mut self) -> Result<u64, StoreError> {
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

    /// Read a probability stored as its `f64` bits, through
    /// [`Probability::new`]: a stored NaN reads as 0.
    pub(crate) fn probability(&mut self) -> Result<Probability, StoreError> {
        Ok(Probability::new(f64::from_bits(self.u64_le()?)))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StoreError> {
        self.str().map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string where it lies, for a caller
    /// that keeps it in another form (the dictionaries, as `Arc<str>`).
    pub(crate) fn str(&mut self) -> Result<&'a str, StoreError> {
        let len = self.varint()? as usize;
        if len > self.remaining() {
            return Err(self.corrupt("string length exceeds remaining data"));
        }
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
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
            let before = buf.len();
            write_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() - before, "{v}");
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

    /// [`ByteReader::u8`] as it read before its fast path: the reference.
    fn reference_u8(r: &mut ByteReader<'_>) -> Result<u8, StoreError> {
        let byte = *r
            .data
            .get(r.pos)
            .ok_or_else(|| r.corrupt("unexpected end of data"))?;
        r.pos += 1;
        Ok(byte)
    }

    /// [`ByteReader::varint`] as it read before its one-byte fast path: one
    /// loop for every length, the reference.
    fn reference_varint(r: &mut ByteReader<'_>) -> Result<u64, StoreError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = reference_u8(r)?;
            if shift == 63 && byte > 1 {
                return Err(r.corrupt("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(r.corrupt("overlong varint"));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(r.corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Whether `read` and `reference` agree from every start offset of
    /// `data`: on the value or the error text, and on where they stop.
    fn agrees_with_reference<'d, T: PartialEq + std::fmt::Debug>(
        data: &'d [u8],
        read: fn(&mut ByteReader<'d>) -> Result<T, StoreError>,
        reference: fn(&mut ByteReader<'d>) -> Result<T, StoreError>,
    ) {
        for start in 0..=data.len() {
            let (mut fast, mut slow) = (ByteReader::new(data), ByteReader::new(data));
            fast.pos = start;
            slow.pos = start;
            let text = |read: Result<T, StoreError>| read.map_err(|e| e.to_string());
            assert_eq!(
                text(read(&mut fast)),
                text(reference(&mut slow)),
                "{data:02x?} from {start}"
            );
            assert_eq!(fast.position(), slow.position(), "{data:02x?} from {start}");
        }
    }

    fn check_readers(data: &[u8]) {
        agrees_with_reference(data, ByteReader::u8, reference_u8);
        agrees_with_reference(data, ByteReader::varint, reference_varint);
    }

    #[test]
    fn the_fast_paths_read_what_the_reference_loop_reads_at_the_edges() {
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        for data in [
            &[][..],
            &[0x00],
            &[0x7f],
            &[0x80],
            &[0x80, 0x00],
            &[0x80, 0x01],
            &[0x80, 0x81, 0x00],
            &overflow,
            &max,
            &[0x80; 11],
        ] {
            check_readers(data);
        }
        assert!(ByteReader::new(&overflow).varint().is_err());
        assert_eq!(ByteReader::new(&max).varint().unwrap(), u64::MAX);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Over arbitrary bytes, the one-byte fast paths of `u8` and
        /// `varint` return what the reference loop returns — value or error
        /// text — and leave the reader where it leaves it.
        #[test]
        fn the_fast_paths_read_what_the_reference_loop_reads(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            check_readers(&data);
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
