//! Segment files: the append unit of the store.
//!
//! A segment holds one encoded block of measurements (see
//! [`crate::codec::encode_block`]) wrapped in framing:
//!
//! ```text
//! "QSEG" | version u8 | block bytes … | FNV-1a-64 of everything before (LE)
//! ```
//!
//! Segments are written **atomically**: the bytes go to `<name>.tmp`, the
//! file is synced, then renamed into place.  A campaign killed mid-write
//! therefore leaves either a complete, checksummed segment or an ignorable
//! `.tmp` orphan — never a half-segment — which is the invariant resume
//! relies on.  The file's bytes are laid out in one buffer allocated once at
//! their exact size.
//!
//! Reading takes a byte buffer lent by the caller: a pass over a snapshot
//! reads every segment into the same allocation, cleared first so that a
//! shorter file never shows the tail of the longer one before it.

use crate::codec::{block_record_count, decode_block_into, Element, EncodedBlock, FORMAT_VERSION};
use crate::wire::{fnv1a, split_seal, ByteReader};
use crate::StoreError;
use qem_core::observation::HostMeasurement;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"QSEG";
/// Length of the FNV-1a seal that ends a segment file.
const SEAL_LEN: usize = 8;

/// File name of segment `index` inside a snapshot directory.
pub fn segment_file_name(index: u32) -> String {
    format!("segment-{index:05}.qseg")
}

/// Write `measurements` as segment `index` in `dir`, atomically, and return
/// the file's length in bytes.  Framing and block are built in one buffer
/// allocated once at its exact size.
pub fn write_segment(
    dir: &Path,
    index: u32,
    measurements: &[HostMeasurement],
) -> Result<u64, StoreError> {
    let block = EncodedBlock::new(measurements);
    let mut bytes = Vec::with_capacity(MAGIC.len() + 1 + block.len() + SEAL_LEN);
    bytes.extend_from_slice(MAGIC);
    bytes.push(FORMAT_VERSION);
    block.write_to(&mut bytes);
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    write_atomically(&dir.join(segment_file_name(index)), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Write `bytes` to `path` via a `.tmp` sibling plus rename, syncing before
/// the rename so the name never points at partial data, and syncing the
/// parent directory afterwards so the rename itself survives power loss —
/// otherwise segment N's directory entry could vanish while N+1's persists,
/// breaking the gapless-prefix invariant resume relies on.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp_path = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp_path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp_path, path)?;
    if let Some(parent) = path.parent() {
        // Best-effort: fsync on a directory handle is well-defined on Linux
        // (the target platform) but not everywhere; a failure here degrades
        // power-loss durability, not correctness of what was written.
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Read and fully validate one segment file onto the end of `out`, each
/// record as a `T`, all or nothing: its host ids rise strictly from above
/// `after` ([`decode_block_into`]), and any failure is [`StoreError::Corrupt`]
/// naming the file, with `out` left as it was.  The file is read into
/// `bytes`, a buffer lent from file to file ([`read_file_into`]).
pub(crate) fn read_segment_into<T: Element>(
    path: &Path,
    after: Option<usize>,
    out: &mut Vec<T>,
    bytes: &mut Vec<u8>,
) -> Result<(), StoreError> {
    read_file_into(path, bytes)?;
    check_framing(bytes)
        .and_then(|payload| decode_block_into(payload, after, out))
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
}

/// Verify a segment file's framing and FNV seal without decoding the block,
/// returning the block's record count.  The file is read into `bytes`, a
/// buffer lent from file to file: cleared first, so it never holds a byte
/// of the file before.
///
/// This is the eager integrity check [`crate::StoredSnapshot::open`] runs
/// over every segment, so corruption surfaces as a typed
/// [`StoreError::Corrupt`] naming the file at open time instead of failing
/// (or silently skipping) halfway through a census; the counts let it check
/// the `COMPLETE` marker against what the segments hold.
pub fn verify_segment(path: &Path, bytes: &mut Vec<u8>) -> Result<u64, StoreError> {
    read_file_into(path, bytes)?;
    check_framing(bytes)
        .and_then(block_record_count)
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
}

/// Replace the contents of `bytes` with the file at `path`: cleared, grown
/// to the file's length at most once, then read to the end — so a buffer
/// lent across a pass allocates only when a file outgrows every file before
/// it, and never holds a byte of the file before.
fn read_file_into(path: &Path, bytes: &mut Vec<u8>) -> Result<(), StoreError> {
    let mut file = fs::File::open(path)?;
    bytes.clear();
    let len = file.metadata()?.len();
    bytes.reserve(usize::try_from(len).unwrap_or(0));
    file.read_to_end(bytes)?;
    Ok(())
}

/// Validate magic, version and checksum; return the enclosed block bytes.
pub fn check_framing(bytes: &[u8]) -> Result<&[u8], StoreError> {
    if bytes.len() < MAGIC.len() + 1 + SEAL_LEN {
        return Err(StoreError::Corrupt(
            "file shorter than segment framing".to_string(),
        ));
    }
    let (body, stored) = split_seal(bytes)?;
    let computed = fnv1a(body);
    if stored != computed {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let mut r = ByteReader::new(body);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(StoreError::Corrupt(
            "bad magic (not a segment file)".to_string(),
        ));
    }
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    Ok(&body[MAGIC.len() + 1..])
}

/// Remove `.tmp` orphans left behind by a killed writer.
pub fn remove_tmp_orphans(dir: &Path) -> Result<(), StoreError> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "tmp") {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// List the gapless prefix of complete segment files in `dir`, in order.
///
/// Renames are atomic and segments are written in order, so a crash leaves a
/// contiguous run `segment-00000 … segment-NNNNN`.  A gap would mean the
/// directory was tampered with; segments after it are unreachable from the
/// resume protocol, so their presence is reported as corruption.
pub fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut indices = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(index) = name
            .strip_prefix("segment-")
            .and_then(|rest| rest.strip_suffix(".qseg"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            indices.push(index);
        }
    }
    indices.sort_unstable();
    for (expected, &actual) in indices.iter().enumerate() {
        if actual != expected as u32 {
            return Err(StoreError::Corrupt(format!(
                "segment numbering has a gap: expected segment {expected}, found {actual}"
            )));
        }
    }
    Ok(indices
        .into_iter()
        .map(|index| dir.join(segment_file_name(index)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;

    fn measurement(host_id: usize) -> HostMeasurement {
        HostMeasurement {
            host_id,
            quic_reachable: false,
            quic: None,
            tcp: None,
            trace: None,
        }
    }

    #[test]
    fn segments_round_trip_through_the_filesystem() {
        let dir = temp_dir("roundtrip");
        let hosts: Vec<HostMeasurement> = (0..10).map(measurement).collect();
        let written = write_segment(&dir, 0, &hosts).unwrap();
        let path = dir.join(segment_file_name(0));
        assert_eq!(written, fs::metadata(&path).unwrap().len());
        let mut read: Vec<HostMeasurement> = Vec::new();
        read_segment_into(&path, None, &mut read, &mut Vec::new()).unwrap();
        assert_eq!(read, hosts);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_is_detected() {
        let dir = temp_dir("bitflip");
        write_segment(&dir, 0, &[measurement(7)]).unwrap();
        let path = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let read =
            read_segment_into::<HostMeasurement>(&path, None, &mut Vec::new(), &mut Vec::new());
        assert!(matches!(read, Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_skips_tmp_orphans_and_rejects_gaps() {
        let dir = temp_dir("listing");
        write_segment(&dir, 0, &[measurement(0)]).unwrap();
        write_segment(&dir, 1, &[measurement(1)]).unwrap();
        fs::write(dir.join("segment-00002.tmp"), b"partial").unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        remove_tmp_orphans(&dir).unwrap();
        assert!(!dir.join("segment-00002.tmp").exists());

        // Introduce a gap: 0, 1, 3.
        write_segment(&dir, 3, &[measurement(3)]).unwrap();
        assert!(matches!(list_segments(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
