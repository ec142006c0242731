//! Read-path resilience: corruption surfaces as typed [`StoreError`]s at
//! open time, quarantining degrades a snapshot to partial results instead
//! of dying, and a campaign killed mid-write (torn `.tmp` and all) resumes
//! to a store byte-identical to an uninterrupted run.

use qem_core::observation::HostMeasurement;
use qem_core::source::SnapshotSource;
use qem_store::{
    CampaignWriter, LongitudinalStore, LongitudinalWriter, SnapshotMeta, StoreError, StoredSnapshot,
};
use qem_web::SnapshotDate;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qem-store-resilience-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta() -> SnapshotMeta {
    SnapshotMeta::for_campaign(
        &qem_core::campaign::CampaignOptions::paper_default(),
        &qem_core::vantage::VantagePoint::main(),
        false,
    )
}

fn measurement(host_id: usize) -> HostMeasurement {
    HostMeasurement {
        host_id,
        quic_reachable: host_id % 3 == 0,
        quic: None,
        tcp: None,
        trace: None,
    }
}

/// A complete store of `hosts` measurements split into segments of
/// `capacity`.
fn write_store(dir: &Path, hosts: usize, capacity: usize) -> StoredSnapshot {
    let mut writer = CampaignWriter::create(dir, &meta())
        .unwrap()
        .with_segment_capacity(capacity);
    for id in 0..hosts {
        writer.append(measurement(id)).unwrap();
    }
    writer.finish().unwrap()
}

// ---------------------------------------------------------------------------
// Eager seal verification (satellite: typed corruption at open)
// ---------------------------------------------------------------------------

#[test]
fn a_flipped_bit_fails_open_with_a_typed_error_naming_the_segment() {
    let dir = temp_dir("bitflip");
    write_store(&dir, 20, 8);
    let victim = dir.join("segment-00001.qseg");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01; // a single flipped bit
    fs::write(&victim, &bytes).unwrap();

    match StoredSnapshot::open(&dir) {
        Err(StoreError::Corrupt(msg)) => assert!(
            msg.contains("segment-00001.qseg"),
            "error must name the corrupt segment: {msg}"
        ),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_truncated_segment_fails_open_with_a_typed_error_naming_the_segment() {
    let dir = temp_dir("truncate");
    write_store(&dir, 20, 8);
    let victim = dir.join("segment-00002.qseg");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    match StoredSnapshot::open(&dir) {
        Err(StoreError::Corrupt(msg)) => assert!(
            msg.contains("segment-00002.qseg"),
            "error must name the truncated segment: {msg}"
        ),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Even truncation below the 8-byte seal is a typed error, not a panic.
    fs::write(&victim, b"QSE").unwrap();
    assert!(matches!(
        StoredSnapshot::open(&dir),
        Err(StoreError::Corrupt(_))
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_complete_store_missing_its_last_segment_fails_open() {
    let dir = temp_dir("tail");
    write_store(&dir, 24, 8); // segments 0, 1, 2 with 8 hosts each
    fs::remove_file(dir.join("segment-00002.qseg")).unwrap();

    // The segment list is still gapless, so only the COMPLETE marker's
    // record count can tell that the tail is gone.
    match StoredSnapshot::open(&dir) {
        Err(StoreError::Corrupt(msg)) => assert!(
            msg.contains(&dir.display().to_string()) && msg.contains("24"),
            "error must name the store and the sealed count: {msg}"
        ),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // The tolerant open quarantines nothing but no longer trusts the
    // marker: the host count is what the segments actually hold.
    let (snapshot, report) = StoredSnapshot::open_quarantining(&dir).unwrap();
    assert!(report.is_clean());
    assert!(!snapshot.is_complete());
    assert_eq!(snapshot.host_count(), 16);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// COMPLETE markers are validated, not merely present
// ---------------------------------------------------------------------------

/// Every way these tests damage a sealed marker: each byte flipped in turn,
/// one byte appended, and — under a fresh, valid seal, so only the check in
/// question can catch it — a bumped version byte and a padded payload.
fn damaged_markers(marker: &[u8]) -> Vec<Vec<u8>> {
    let reseal = |mut body: Vec<u8>| {
        let seal = qem_store::wire::fnv1a(&body);
        body.extend_from_slice(&seal.to_le_bytes());
        body
    };
    let body = &marker[..marker.len() - 8];
    let mut damaged: Vec<Vec<u8>> = (0..marker.len())
        .map(|i| {
            let mut flipped = marker.to_vec();
            flipped[i] ^= 0x10;
            flipped
        })
        .collect();
    damaged.push([marker, &[0]].concat());
    let mut bumped = body.to_vec();
    bumped[4] += 1; // magic is four bytes; the version follows it
    damaged.push(reseal(bumped));
    damaged.push(reseal([body, &[0]].concat()));
    damaged
}

/// `open` must refuse every damaged form of `marker` with a `Corrupt` error
/// naming the file, and accept the original again afterwards.
fn assert_marker_is_validated<T>(marker: &Path, open: impl Fn() -> Result<T, StoreError>) {
    let original = fs::read(marker).unwrap();
    for damaged in damaged_markers(&original) {
        fs::write(marker, &damaged).unwrap();
        match open() {
            Err(StoreError::Corrupt(msg)) => assert!(
                msg.contains("COMPLETE"),
                "error must name the marker: {msg}"
            ),
            Err(other) => panic!("expected Corrupt for {damaged:02x?}, got {other:?}"),
            Ok(_) => panic!("a store with marker {damaged:02x?} was accepted"),
        }
    }
    fs::write(marker, &original).unwrap();
    assert!(open().is_ok());
}

#[test]
fn a_damaged_snapshot_complete_marker_fails_open_with_a_typed_error() {
    let dir = temp_dir("marker");
    write_store(&dir, 20, 8);
    assert_marker_is_validated(&dir.join("COMPLETE"), || StoredSnapshot::open(&dir));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_damaged_series_complete_marker_fails_open_with_a_typed_error() {
    let dir = temp_dir("series-marker");
    let mut writer = LongitudinalWriter::create(
        &dir,
        &qem_core::vantage::VantagePoint::main(),
        &qem_core::campaign::CampaignOptions::paper_default(),
        &[SnapshotDate::JUN_2022],
    )
    .unwrap();
    writer.begin_date().unwrap();
    for id in 0..5 {
        writer.append(measurement(id)).unwrap();
    }
    writer.end_date().unwrap();
    writer.finish().unwrap();
    assert_marker_is_validated(&dir.join("COMPLETE"), || LongitudinalStore::open(&dir));
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Quarantine: skip + count + report
// ---------------------------------------------------------------------------

#[test]
fn quarantining_skips_corrupt_segments_and_counts_them() {
    let dir = temp_dir("quarantine");
    write_store(&dir, 24, 8); // segments 0, 1, 2 with 8 hosts each
    let victim = dir.join("segment-00001.qseg");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    fs::write(&victim, &bytes).unwrap();

    let (snapshot, report) = StoredSnapshot::open_quarantining(&dir).unwrap();
    assert_eq!(report.quarantined_segments(), 1);
    assert!(!report.is_clean());
    assert_eq!(report.segments[0].0, victim);

    // The census-facing read path completes with the surviving 16 hosts.
    assert_eq!(snapshot.host_count(), 16);
    let mut seen = Vec::new();
    snapshot.for_each_host(&mut |m| seen.push(m.host_id));
    let expected: Vec<usize> = (0..8).chain(16..24).collect();
    assert_eq!(seen, expected);
    assert_eq!(snapshot.quarantined_segments(), 1);
    assert_eq!(
        snapshot
            .quarantine_telemetry()
            .counter("store.quarantine.segments"),
        Some(1)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_clean_store_quarantines_nothing_and_keeps_its_complete_count() {
    let dir = temp_dir("clean");
    write_store(&dir, 24, 8);
    let (snapshot, report) = StoredSnapshot::open_quarantining(&dir).unwrap();
    assert!(report.is_clean());
    assert_eq!(
        snapshot
            .quarantine_telemetry()
            .counter("store.quarantine.segments"),
        None
    );
    assert!(snapshot.is_complete());
    assert_eq!(snapshot.host_count(), 24);
    assert_eq!(snapshot.quarantined_segments(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_rot_after_open_degrades_for_each_host_instead_of_panicking() {
    let dir = temp_dir("rot");
    write_store(&dir, 24, 8);
    let snapshot = StoredSnapshot::open(&dir).unwrap(); // verifies: all clean
                                                        // The file rots *after* the eager check — the TOCTOU window the
                                                        // tolerant read path exists for.
    let victim = dir.join("segment-00000.qseg");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    fs::write(&victim, &bytes).unwrap();

    let mut seen = 0usize;
    snapshot.for_each_host(&mut |_| seen += 1);
    assert_eq!(seen, 16, "the two healthy segments still stream");
    assert_eq!(snapshot.quarantined_segments(), 1);

    // A second pass (a census renders several tables) must not double
    // count: the quarantine counter is a high-water mark.
    snapshot.for_each_host(&mut |_| {});
    assert_eq!(snapshot.quarantined_segments(), 1);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// One read loop, two policies: strict accessors fail, the census path skips
// ---------------------------------------------------------------------------

fn streamed_ids(snapshot: &StoredSnapshot) -> Vec<usize> {
    let mut ids = Vec::new();
    snapshot.for_each_host(&mut |m| ids.push(m.host_id));
    ids
}

#[test]
fn strict_and_tolerant_readers_agree_on_a_clean_store() {
    let dir = temp_dir("agree");
    write_store(&dir, 30, 8);
    let snapshot = StoredSnapshot::open(&dir).unwrap();
    let ids = snapshot.host_ids().unwrap();
    assert_eq!(ids, (0..30).collect::<Vec<_>>());
    let materialised: Vec<usize> = snapshot
        .to_snapshot()
        .unwrap()
        .hosts
        .into_values()
        .map(|m| m.host_id)
        .collect();
    assert_eq!(materialised, ids);
    assert_eq!(streamed_ids(&snapshot), ids);
    assert_eq!(snapshot.quarantined_segments(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn after_open_rot_fails_strict_readers_and_degrades_the_census_path() {
    let dir = temp_dir("policies");
    write_store(&dir, 24, 8);
    let snapshot = StoredSnapshot::open(&dir).unwrap();
    let victim = dir.join("segment-00001.qseg");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    fs::write(&victim, &bytes).unwrap();

    for result in [
        snapshot.host_ids().map(drop),
        snapshot.to_snapshot().map(drop),
    ] {
        match result {
            Err(StoreError::Corrupt(msg)) => assert!(
                msg.contains("segment-00001.qseg"),
                "error must name the rotten segment: {msg}"
            ),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
    let expected: Vec<usize> = (0..8).chain(16..24).collect();
    assert_eq!(streamed_ids(&snapshot), expected);
    assert_eq!(snapshot.quarantined_segments(), 1);
    assert_eq!(
        snapshot
            .quarantine_telemetry()
            .counter("store.quarantine.segments"),
        Some(1)
    );
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Host-id order is checked on read, never repaired
// ---------------------------------------------------------------------------

/// A complete store whose segments hold `segments`' host ids, each one
/// sealed correctly: the writer refuses such ids, so each segment is
/// rewritten through the segment writer over a store of the same shape.
fn write_unordered_store(dir: &Path, segments: &[&[usize]]) -> StoredSnapshot {
    let capacity = segments[0].len();
    let total: usize = segments.iter().map(|ids| ids.len()).sum();
    assert!(segments.iter().all(|ids| ids.len() <= capacity));
    write_store(dir, total, capacity);
    for (index, ids) in segments.iter().enumerate() {
        let records: Vec<HostMeasurement> = ids.iter().map(|&id| measurement(id)).collect();
        qem_store::segment::write_segment(dir, index as u32, &records).unwrap();
    }
    StoredSnapshot::open(dir).expect("every seal and the sealed count hold")
}

/// A store's segments by host id, the segment that breaks the order, and
/// the ids the tolerant reader still streams.
type OrderCase = (&'static [&'static [usize]], &'static str, &'static [usize]);

#[test]
fn ids_out_of_order_fail_strict_readers_and_skip_their_segment() {
    // One descending and one repeated id: within a segment, and across the
    // boundary between two.
    let cases: [OrderCase; 4] = [
        (&[&[0, 2, 1]], "segment-00000.qseg", &[]),
        (&[&[0, 1, 1]], "segment-00000.qseg", &[]),
        (&[&[0, 1, 2], &[1, 3]], "segment-00001.qseg", &[0, 1, 2]),
        (&[&[0, 1, 2], &[2, 3]], "segment-00001.qseg", &[0, 1, 2]),
    ];
    for (segments, culprit, kept) in cases {
        let dir = temp_dir("order");
        let snapshot = write_unordered_store(&dir, segments);
        for result in [
            snapshot.host_ids().map(drop),
            snapshot.to_snapshot().map(drop),
        ] {
            match result {
                Err(StoreError::Corrupt(msg)) => assert!(
                    msg.contains(culprit) && msg.contains("follows"),
                    "{segments:?}: the error must name the segment: {msg}"
                ),
                other => panic!("{segments:?}: expected Corrupt, got {other:?}"),
            }
        }
        assert_eq!(streamed_ids(&snapshot), kept, "{segments:?}");
        assert_eq!(snapshot.quarantined_segments(), 1, "{segments:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Kill-and-resume byte identity (satellite: injected mid-write kill)
// ---------------------------------------------------------------------------

/// Byte-compare every store artifact (segments, metadata, COMPLETE) in two
/// directories.  `telemetry.json` is informational and excluded.
fn assert_stores_byte_identical(a: &Path, b: &Path) {
    let listing = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "telemetry.json")
            .collect();
        names.sort();
        names
    };
    let names = listing(a);
    assert_eq!(names, listing(b), "file sets differ");
    for name in names {
        assert_eq!(
            fs::read(a.join(&name)).unwrap(),
            fs::read(b.join(&name)).unwrap(),
            "{name} differs between the uninterrupted and resumed stores"
        );
    }
}

#[test]
fn a_mid_write_kill_with_a_torn_tmp_resumes_to_an_identical_store() {
    // 8 ≪ DEFAULT_SEGMENT_CAPACITY: the test must control segment
    // boundaries itself, on both the reference and the resumed writer.
    let capacity = 8;

    // Reference: the uninterrupted run.
    let reference = temp_dir("uninterrupted");
    write_store(&reference, 30, capacity);

    // The killed run: one full segment persisted, the second mid-write —
    // its torn `.tmp` is exactly what `kill -9` during `write_atomically`
    // leaves behind — and the buffered tail lost.
    let resumed = temp_dir("killed");
    {
        let mut writer = CampaignWriter::create(&resumed, &meta())
            .unwrap()
            .with_segment_capacity(capacity);
        for id in 0..13 {
            writer.append(measurement(id)).unwrap();
        }
        fs::write(resumed.join("segment-00001.tmp"), b"torn mid-write").unwrap();
        // Writer dropped without finish(): the injected kill.
    }

    let (writer, read_meta, persisted) = CampaignWriter::resume(&resumed).unwrap();
    // Byte identity needs the same spill threshold as the reference run —
    // segment boundaries are part of the on-disk layout.
    let mut writer = writer.with_segment_capacity(capacity);
    assert_eq!(read_meta, meta());
    assert_eq!(persisted, (0..8).collect::<Vec<_>>());
    assert!(
        !resumed.join("segment-00001.tmp").exists(),
        "resume removes torn tmp orphans"
    );
    for id in 8..30 {
        writer.append(measurement(id)).unwrap();
    }
    writer.finish().unwrap();

    assert_stores_byte_identical(&reference, &resumed);
    fs::remove_dir_all(&reference).unwrap();
    fs::remove_dir_all(&resumed).unwrap();
}
