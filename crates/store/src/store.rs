//! One snapshot on disk: metadata, the streaming writer and the reader.
//!
//! Directory layout (one directory per snapshot):
//!
//! ```text
//! <dir>/
//!   snapshot.meta      identity: date, family, vantage, probe options
//!   segment-00000.qseg measurements in ascending host-id order
//!   segment-00001.qseg …
//!   COMPLETE           end marker + total record count (absent ⇒ resumable)
//! ```
//!
//! Every file is checksummed and written atomically, so the directory is
//! always in one of three states: empty, a resumable prefix of a campaign,
//! or a complete snapshot.
//!
//! Reading has two openers over one loader (metadata, segment list,
//! marker): [`StoredSnapshot::open`] requires the marker and verifies every
//! seal and the marker's record count; [`StoredSnapshot::open_quarantining`]
//! sets corrupt segments aside instead.  Every accessor then reads through
//! one per-segment loop that decodes into a buffer it is lent and holds
//! the host ids strictly ascending across segments — strictly
//! ([`StoredSnapshot::host_ids`], [`StoredSnapshot::to_snapshot`]) or,
//! behind [`SnapshotSource`], skipping and counting what fails.
//! `to_snapshot` decodes every segment into one `Vec` sized to the sealed
//! count; the streaming readers reuse one segment's worth of buffer.  The
//! openers and the loop each read the files of a pass through one byte
//! buffer, and the writer reserves its one segment's worth of measurements
//! at its first append.

use crate::codec::FORMAT_VERSION;
use crate::segment::{
    list_segments, read_segment_into, remove_tmp_orphans, verify_segment, write_atomically,
    write_segment,
};
use crate::wire::{fnv1a, open_sealed, write_str, write_u64_le, write_varint};
use crate::StoreError;
use qem_core::campaign::{CampaignOptions, SnapshotMeasurement};
use qem_core::host_map::HostMap;
use qem_core::observation::HostMeasurement;
use qem_core::resilience::RetryPolicy;
use qem_core::scanner::ProbeMode;
use qem_core::source::SnapshotSource;
use qem_core::vantage::{CloudProvider, VantagePoint, VantageQuirks};
use qem_netsim::CrossTraffic;
use qem_obs::MetricsSnapshot;
use qem_web::SnapshotDate;
use std::convert::Infallible;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const META_MAGIC: &[u8; 4] = b"QMET";
const COMPLETE_MAGIC: &[u8; 4] = b"QDON";

/// File holding the snapshot identity.
pub const META_FILE: &str = "snapshot.meta";
/// End marker file; its presence means the snapshot is complete.
pub const COMPLETE_FILE: &str = "COMPLETE";
/// Optional [`qem_obs::RunTelemetry`] JSON written next to the segments by
/// store-backed campaign runs.
pub const TELEMETRY_FILE: &str = "telemetry.json";

/// Records per segment file.  4096 full measurements (reports plus traces)
/// stay in the low tens of megabytes — the writer's entire memory footprint.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

/// Identity of one stored snapshot: everything (except the universe itself)
/// needed to re-derive the remaining measurements of an interrupted campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Snapshot date.
    pub date: SnapshotDate,
    /// Whether IPv6 was probed.
    pub ipv6: bool,
    /// The vantage point.
    pub vantage: VantagePoint,
    /// Probe mode.
    pub probe: ProbeMode,
    /// Tracebox sampling probability.
    pub trace_sample_probability: f64,
    /// Campaign seed (the scanner derives every per-host RNG from it).
    pub seed: u64,
    /// Whether the segments hold a delta against the previous longitudinal
    /// date instead of a full snapshot.
    pub delta: bool,
}

impl SnapshotMeta {
    /// Metadata for one snapshot of a campaign run.
    pub fn for_campaign(options: &CampaignOptions, vantage: &VantagePoint, ipv6: bool) -> Self {
        SnapshotMeta {
            date: options.date,
            ipv6,
            vantage: vantage.clone(),
            probe: options.probe,
            trace_sample_probability: options.trace_sample_probability,
            seed: options.seed,
            delta: false,
        }
    }

    /// The options of the campaign that produces the measurements this
    /// store holds — the inverse of [`SnapshotMeta::for_campaign`].  The
    /// worker count is not part of the identity (scheduling never changes
    /// results), so it is supplied; stores only ever hold the single-flow,
    /// single-attempt methodology, so cross traffic and retries are off.
    pub fn campaign_options(&self, workers: usize) -> CampaignOptions {
        CampaignOptions {
            date: self.date,
            probe: self.probe,
            trace_sample_probability: self.trace_sample_probability,
            workers,
            seed: self.seed,
            cross_traffic: CrossTraffic::none(),
            retry: RetryPolicy::none(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(96);
        bytes.extend_from_slice(META_MAGIC);
        bytes.push(FORMAT_VERSION);
        let mut flags = 0u8;
        flags |= u8::from(self.ipv6);
        flags |= u8::from(self.delta) << 1;
        bytes.push(flags);
        write_varint(&mut bytes, u64::from(self.date.year));
        bytes.push(self.date.month);
        write_str(&mut bytes, &self.vantage.name);
        bytes.push(match self.vantage.provider {
            CloudProvider::Main => 0,
            CloudProvider::Aws => 1,
            CloudProvider::Vultr => 2,
        });
        write_varint(&mut bytes, u64::from(self.vantage.asn.0));
        let quirks = &self.vantage.quirks;
        let mut quirk_flags = 0u8;
        quirk_flags |= u8::from(quirks.wix_unreachable);
        quirk_flags |= u8::from(quirks.google_ce_anomaly) << 1;
        bytes.push(quirk_flags);
        write_u64_le(&mut bytes, quirks.extra_remark_probability.to_bits());
        write_u64_le(&mut bytes, quirks.remark_suppression_probability.to_bits());
        bytes.push(match self.probe {
            ProbeMode::Ect0 => 0,
            ProbeMode::ForceCe => 1,
        });
        write_u64_le(&mut bytes, self.trace_sample_probability.to_bits());
        write_u64_le(&mut bytes, self.seed);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<SnapshotMeta, StoreError> {
        let mut r = open_sealed(bytes, META_MAGIC, "metadata")?;
        let flags = r.u8()?;
        let year = r.varint()?;
        let month = r.u8()?;
        let name = r.string()?;
        let provider = match r.u8()? {
            0 => CloudProvider::Main,
            1 => CloudProvider::Aws,
            2 => CloudProvider::Vultr,
            tag => return Err(StoreError::Corrupt(format!("invalid provider tag {tag}"))),
        };
        let asn = r.varint()?;
        let quirk_flags = r.u8()?;
        let extra_remark = f64::from_bits(r.u64_le()?);
        let remark_suppression = f64::from_bits(r.u64_le()?);
        let probe = match r.u8()? {
            0 => ProbeMode::Ect0,
            1 => ProbeMode::ForceCe,
            tag => return Err(StoreError::Corrupt(format!("invalid probe tag {tag}"))),
        };
        let trace_sample_probability = f64::from_bits(r.u64_le()?);
        let seed = r.u64_le()?;
        r.expect_end("metadata")?;
        Ok(SnapshotMeta {
            date: SnapshotDate::new(
                u16::try_from(year)
                    .map_err(|_| StoreError::Corrupt(format!("year {year} overflows u16")))?,
                month,
            ),
            ipv6: flags & 1 != 0,
            vantage: VantagePoint {
                name,
                provider,
                asn: qem_netsim::Asn(
                    u32::try_from(asn)
                        .map_err(|_| StoreError::Corrupt(format!("ASN {asn} overflows u32")))?,
                ),
                quirks: VantageQuirks {
                    wix_unreachable: quirk_flags & 1 != 0,
                    google_ce_anomaly: quirk_flags & 2 != 0,
                    extra_remark_probability: extra_remark,
                    remark_suppression_probability: remark_suppression,
                },
            },
            probe,
            trace_sample_probability,
            seed,
            delta: flags & 2 != 0,
        })
    }

    fn write_to(&self, dir: &Path) -> Result<(), StoreError> {
        write_atomically(&dir.join(META_FILE), &self.encode())
    }

    fn read_from(dir: &Path) -> Result<SnapshotMeta, StoreError> {
        let path = dir.join(META_FILE);
        let bytes = fs::read(&path)
            .map_err(|e| StoreError::State(format!("no snapshot at {}: {e}", dir.display())))?;
        SnapshotMeta::decode(&bytes)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
    }
}

fn write_complete_marker(dir: &Path, record_count: u64) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(24);
    bytes.extend_from_slice(COMPLETE_MAGIC);
    bytes.push(FORMAT_VERSION);
    write_varint(&mut bytes, record_count);
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    write_atomically(&dir.join(COMPLETE_FILE), &bytes)
}

fn read_complete_marker(dir: &Path) -> Result<Option<u64>, StoreError> {
    let path = dir.join(COMPLETE_FILE);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    decode_complete_marker(&bytes)
        .map(Some)
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
}

fn decode_complete_marker(bytes: &[u8]) -> Result<u64, StoreError> {
    let mut r = open_sealed(bytes, COMPLETE_MAGIC, "COMPLETE marker")?;
    let record_count = r.varint()?;
    r.expect_end("COMPLETE marker")?;
    Ok(record_count)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// What a [`CampaignWriter`] has done so far, as plain counters.
///
/// All values are byte-exact properties of the written artifacts, so for a
/// fixed segment capacity they are as deterministic as the store itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Segment files flushed to disk.
    pub segments_written: u64,
    /// Total size of the flushed segment files, framing and checksums
    /// included.
    pub bytes_written: u64,
    /// Measurements flushed to disk (excluding any still buffered).
    pub records_written: u64,
    /// Records found already persisted by [`CampaignWriter::resume`] and
    /// therefore never re-written.
    pub resume_skipped: u64,
}

impl WriterStats {
    /// The stats as a `store.*` metrics snapshot (for [`qem_obs::RunTelemetry`]).
    pub fn telemetry(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("store.segments_written", self.segments_written);
        snap.set_counter("store.bytes_written", self.bytes_written);
        snap.set_counter("store.records_written", self.records_written);
        snap.set_counter("store.resume_skipped", self.resume_skipped);
        snap
    }
}

/// Streaming snapshot writer: measurements come in (in ascending host-id
/// order, which is what [`qem_core::Scanner::scan_hosts_streaming`]
/// delivers), segments go out.  At most one segment of measurements is held
/// in memory.
pub struct CampaignWriter {
    dir: PathBuf,
    buf: Vec<HostMeasurement>,
    segment_capacity: usize,
    next_segment: u32,
    appended: u64,
    last_host_id: Option<usize>,
    stats: WriterStats,
}

impl CampaignWriter {
    /// Start a new snapshot in `dir` (created if missing).  Fails if the
    /// directory already holds a snapshot — complete or partial; use
    /// [`CampaignWriter::resume`] for the latter.
    pub fn create(dir: &Path, meta: &SnapshotMeta) -> Result<CampaignWriter, StoreError> {
        fs::create_dir_all(dir)?;
        if dir.join(COMPLETE_FILE).exists() {
            return Err(StoreError::State(format!(
                "{} already holds a complete snapshot",
                dir.display()
            )));
        }
        if dir.join(META_FILE).exists() {
            return Err(StoreError::State(format!(
                "{} already holds a partial snapshot; resume it instead",
                dir.display()
            )));
        }
        meta.write_to(dir)?;
        Ok(CampaignWriter {
            dir: dir.to_path_buf(),
            buf: Vec::new(),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            next_segment: 0,
            appended: 0,
            last_host_id: None,
            stats: WriterStats::default(),
        })
    }

    /// Reopen an interrupted snapshot: validates the persisted prefix,
    /// removes `.tmp` orphans and returns the writer (positioned after the
    /// last complete segment) together with the metadata and the host ids
    /// already persisted.  The segment listing never includes an orphan, so
    /// it does not matter that it is taken before they are removed.
    pub fn resume(dir: &Path) -> Result<(CampaignWriter, SnapshotMeta, Vec<usize>), StoreError> {
        let stored = StoredSnapshot::load(dir)?;
        if stored.is_complete() {
            return Err(StoreError::State(format!(
                "{} is already complete; nothing to resume",
                dir.display()
            )));
        }
        remove_tmp_orphans(dir)?;
        let persisted = stored.host_ids()?;
        let writer = CampaignWriter {
            dir: dir.to_path_buf(),
            buf: Vec::new(),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            next_segment: stored.segment_count() as u32,
            appended: persisted.len() as u64,
            last_host_id: persisted.last().copied(),
            stats: WriterStats {
                resume_skipped: persisted.len() as u64,
                ..WriterStats::default()
            },
        };
        Ok((writer, stored.meta, persisted))
    }

    /// Override the records-per-segment spill threshold.
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.max(1);
        self
    }

    /// Number of measurements appended so far (including persisted ones
    /// found by [`CampaignWriter::resume`]).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// What this writer has done so far.
    pub fn stats(&self) -> WriterStats {
        self.stats
    }

    /// Append one measurement; spills a segment to disk when the buffer
    /// reaches the segment capacity.  The first append reserves the whole
    /// segment's buffer, which every later segment reuses.
    pub fn append(&mut self, m: HostMeasurement) -> Result<(), StoreError> {
        if let Some(last) = self.last_host_id {
            if m.host_id <= last {
                return Err(StoreError::State(format!(
                    "measurements must arrive in ascending host-id order (got {} after {})",
                    m.host_id, last
                )));
            }
        }
        self.last_host_id = Some(m.host_id);
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.segment_capacity);
        }
        self.buf.push(m);
        self.appended += 1;
        if self.buf.len() >= self.segment_capacity {
            self.flush_segment()?;
        }
        Ok(())
    }

    fn flush_segment(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let bytes = write_segment(&self.dir, self.next_segment, &self.buf)?;
        self.stats.segments_written += 1;
        self.stats.bytes_written += bytes;
        self.stats.records_written += self.buf.len() as u64;
        self.next_segment += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flush the remaining buffer and seal the snapshot with its `COMPLETE`
    /// marker.  Dropping the writer without calling this leaves a valid,
    /// resumable prefix — that is the crash-consistency story, not an error.
    pub fn finish(self) -> Result<StoredSnapshot, StoreError> {
        Ok(self.finish_with_stats()?.0)
    }

    /// Like [`CampaignWriter::finish`], additionally returning the final
    /// [`WriterStats`] (which are consumed by sealing).
    pub fn finish_with_stats(mut self) -> Result<(StoredSnapshot, WriterStats), StoreError> {
        self.flush_segment()?;
        write_complete_marker(&self.dir, self.appended)?;
        // Every segment was just written and synced here: no re-hashing.
        Ok((StoredSnapshot::load(&self.dir)?, self.stats))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// What [`StoredSnapshot::open_quarantining`] had to set aside: segments
/// whose FNV seal failed, with the corruption that condemned them.  The
/// quarantined segments are dropped from the read set, so a census over the
/// snapshot degrades to partial results instead of dying; their count
/// reaches the run telemetry through [`StoredSnapshot::quarantine_telemetry`].
#[derive(Debug, Default)]
pub struct QuarantineReport {
    /// Quarantined segment paths, each with the error that condemned it.
    pub segments: Vec<(PathBuf, StoreError)>,
}

impl QuarantineReport {
    /// Whether every segment passed verification.
    pub fn is_clean(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of segments set aside.
    pub fn quarantined_segments(&self) -> u64 {
        self.segments.len() as u64
    }
}

/// A snapshot directory opened for reading.
///
/// Implements [`SnapshotSource`], so every table and figure builder consumes
/// it directly — decoding one segment at a time, never the whole campaign.
#[derive(Debug)]
pub struct StoredSnapshot {
    meta: SnapshotMeta,
    segments: Vec<PathBuf>,
    recorded_count: Option<u64>,
    /// Segments the tolerant [`SnapshotSource`] read path had to skip —
    /// a high-water mark across passes, seeded by
    /// [`StoredSnapshot::open_quarantining`].
    quarantined: AtomicU64,
}

impl StoredSnapshot {
    /// Open a **complete** snapshot, eagerly verifying every segment's FNV
    /// seal and that the segments hold the record count the `COMPLETE`
    /// marker seals: corruption — a flipped bit, a truncated or a deleted
    /// segment — surfaces here as [`StoreError::Corrupt`] naming the bad
    /// file or directory, not as a failure (or a wrong count) halfway
    /// through report generation.  Use [`StoredSnapshot::open_quarantining`]
    /// to degrade gracefully instead.
    pub fn open(dir: &Path) -> Result<StoredSnapshot, StoreError> {
        let snapshot = StoredSnapshot::load(dir)?;
        let Some(recorded) = snapshot.recorded_count else {
            return Err(StoreError::State(format!(
                "{} holds an incomplete snapshot (no COMPLETE marker); resume the campaign first",
                dir.display()
            )));
        };
        // Counts come from disk: sum them where no segment list can overflow.
        let mut held = 0u128;
        let mut bytes = Vec::new();
        for path in &snapshot.segments {
            held += u128::from(verify_segment(path, &mut bytes)?);
        }
        if held != u128::from(recorded) {
            return Err(StoreError::Corrupt(format!(
                "{}: COMPLETE marker records {recorded} hosts but the segments hold {held}",
                dir.display()
            )));
        }
        Ok(snapshot)
    }

    /// Open a snapshot — complete or still mid-campaign — tolerantly: verify
    /// every segment's seal and **quarantine** the corrupt ones — skip,
    /// count and report them — so downstream consumers see a partial but
    /// well-formed snapshot instead of an error or a panic.
    ///
    /// The `COMPLETE` marker's record count stands only if the kept
    /// segments hold exactly that many records; otherwise (a segment
    /// quarantined or missing) the snapshot reports itself as incomplete
    /// and counts hosts by streaming.
    // lint: allow(unused-pub) pending ROADMAP item 1's `open(dir, OnCorrupt)` fold, which benchmark/'s call to `StoredSnapshot::open(&dir)` blocks
    pub fn open_quarantining(dir: &Path) -> Result<(StoredSnapshot, QuarantineReport), StoreError> {
        let mut snapshot = StoredSnapshot::load(dir)?;
        let mut report = QuarantineReport::default();
        let mut held = 0u128;
        let mut bytes = Vec::new();
        for path in std::mem::take(&mut snapshot.segments) {
            match verify_segment(&path, &mut bytes) {
                Ok(records) => {
                    held += u128::from(records);
                    snapshot.segments.push(path);
                }
                Err(e) => report.segments.push((path, e)),
            }
        }
        if !report.is_clean() || snapshot.recorded_count.map(u128::from) != Some(held) {
            snapshot.recorded_count = None;
        }
        snapshot
            .quarantined
            .store(report.quarantined_segments(), Ordering::Relaxed);
        Ok((snapshot, report))
    }

    /// What every opener shares: the identity, the gapless segment list and
    /// the `COMPLETE` marker, in that order, verifying nothing else.  The
    /// writer re-opens its own freshly synced output this way.
    fn load(dir: &Path) -> Result<StoredSnapshot, StoreError> {
        let meta = SnapshotMeta::read_from(dir)?;
        let segments = list_segments(dir)?;
        let recorded_count = read_complete_marker(dir)?;
        Ok(StoredSnapshot {
            meta,
            segments,
            recorded_count,
            quarantined: AtomicU64::new(0),
        })
    }

    /// The snapshot identity.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Whether the `COMPLETE` marker is present.
    pub fn is_complete(&self) -> bool {
        self.recorded_count.is_some()
    }

    /// The record count sealed into the `COMPLETE` marker, if complete.
    // lint: allow(unused-pub) benchmark: the store-read workload reports the sealed count
    pub fn recorded_host_count(&self) -> Option<u64> {
        self.recorded_count
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Segments the tolerant [`SnapshotSource`] read path has had to skip,
    /// seeded by what [`StoredSnapshot::open_quarantining`] set aside.  A
    /// nonzero value means reports built from this snapshot are partial.
    ///
    /// The counter is a high-water mark, not a sum: a store may be streamed
    /// more than once (one join per report set, Figure 7 once more per
    /// vantage), and one bad segment stays one bad segment.
    pub fn quarantined_segments(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// The current quarantine state as `store.quarantine.*` counters for
    /// [`qem_obs::RunTelemetry`] (empty while nothing was skipped, so clean
    /// runs' telemetry is unchanged).
    // lint: allow(unused-pub) pending ROADMAP item 1's `open(dir, OnCorrupt)` fold, which benchmark/'s call to `StoredSnapshot::open(&dir)` blocks
    pub fn quarantine_telemetry(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let skipped = self.quarantined_segments();
        if skipped > 0 {
            snap.set_counter("store.quarantine.segments", skipped);
        }
        snap
    }

    /// The records the `COMPLETE` marker seals, as a capacity: 0 while the
    /// snapshot is partial.  Every opener has checked the count against the
    /// segments, whose block counts are bounded by their bytes.
    fn sealed_len(&self) -> usize {
        self.recorded_count
            .and_then(|count| usize::try_from(count).ok())
            .unwrap_or(0)
    }

    /// The one read loop: each segment in turn read into one byte buffer
    /// kept for the pass, decoded onto the end of `buf`, then handed to `f`
    /// with the outcome — `Ok` once its records are in `buf`, or, with `buf`
    /// as it was, the [`StoreError::Corrupt`] naming a file that is
    /// unreadable, damaged, or does not continue the strictly ascending
    /// host-id order of the segments read before it.
    ///
    /// `f` decides what the records become: left in `buf` to build one
    /// `Vec`, or consumed and cleared so that the next segment decodes into
    /// the same capacity.  Strict readers stop at the first `Err`; the
    /// [`SnapshotSource`] methods skip and count it.
    pub(crate) fn read_segments<E>(
        &self,
        buf: &mut Vec<HostMeasurement>,
        mut f: impl FnMut(&mut Vec<HostMeasurement>, Result<(), StoreError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut last = None;
        let mut bytes = Vec::new();
        for path in &self.segments {
            let read = read_segment_into(path, last, buf, &mut bytes);
            if read.is_ok() {
                last = buf.last().map(|m| m.host_id).or(last);
            }
            f(buf, read)?;
        }
        Ok(())
    }

    /// The host ids persisted so far, in order.
    pub fn host_ids(&self) -> Result<Vec<usize>, StoreError> {
        let mut ids = Vec::with_capacity(self.sealed_len());
        self.read_segments(&mut Vec::new(), |records, read| {
            read.map(|()| ids.extend(records.drain(..).map(|m| m.host_id)))
        })?;
        Ok(ids)
    }

    /// Materialise the snapshot as an in-memory [`SnapshotMeasurement`]:
    /// every segment decoded straight into one `Vec` sized to the sealed
    /// record count, which the snapshot's [`HostMap`] then wraps as it is.
    ///
    /// This is the convenience path for small universes and tests; the
    /// report builders do **not** need it — they consume the store directly
    /// through [`SnapshotSource`].
    // lint: allow(unused-pub) benchmark: the store-read workload materialises with it
    pub fn to_snapshot(&self) -> Result<SnapshotMeasurement, StoreError> {
        let mut hosts = Vec::with_capacity(self.sealed_len());
        self.read_segments(&mut hosts, |_, read| read)?;
        if let Some(recorded) = self.recorded_count {
            if recorded != hosts.len() as u64 {
                return Err(StoreError::Corrupt(format!(
                    "COMPLETE marker records {recorded} hosts but segments hold {}",
                    hosts.len()
                )));
            }
        }
        Ok(SnapshotMeasurement {
            date: self.meta.date,
            ipv6: self.meta.ipv6,
            vantage: self.meta.vantage.clone(),
            hosts: HostMap::from(hosts),
        })
    }
}

impl SnapshotSource for StoredSnapshot {
    fn date(&self) -> SnapshotDate {
        self.meta.date
    }

    fn ipv6(&self) -> bool {
        self.meta.ipv6
    }

    fn vantage(&self) -> &VantagePoint {
        &self.meta.vantage
    }

    fn host_count(&self) -> usize {
        // The COMPLETE marker seals the exact record count — no need to
        // decode the segments just to count them.  Partial (or quarantined)
        // stores fall back to streaming, skipping unreadable segments the
        // same way `for_each_host` does.
        match self.recorded_count {
            Some(count) => count as usize,
            None => {
                let mut count = 0usize;
                self.for_each_host(&mut |_| count += 1);
                count
            }
        }
    }

    /// Streams from disk through one buffer lent from segment to segment,
    /// skipping segments that fail their checksum or break the host-id
    /// order.
    ///
    /// A skipped segment bumps [`StoredSnapshot::quarantined_segments`]
    /// instead of aborting the census; reports degrade to partial results.
    /// [`StoredSnapshot::open`] verifies eagerly, so skips here mean the
    /// file rotted (or was tampered with) after open, or was sealed with
    /// records out of order.
    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
        let mut skipped = 0u64;
        let Ok(()) = self.read_segments(&mut Vec::new(), |records, read| {
            match read {
                Ok(()) => {
                    records.iter().for_each(&mut *f);
                    records.clear();
                }
                Err(_) => skipped += 1,
            }
            Ok::<_, Infallible>(())
        });
        self.quarantined.fetch_max(skipped, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_block;
    use crate::testutil::temp_dir;
    use qem_core::source::SnapshotSource;

    fn meta() -> SnapshotMeta {
        SnapshotMeta::for_campaign(
            &CampaignOptions::paper_default(),
            &VantagePoint::main(),
            false,
        )
    }

    fn measurement(host_id: usize) -> HostMeasurement {
        HostMeasurement {
            host_id,
            quic_reachable: host_id % 2 == 0,
            quic: None,
            tcp: None,
            trace: None,
        }
    }

    #[test]
    fn metadata_round_trips_including_quirky_vantages() {
        for vantage in VantagePoint::cloud_fleet() {
            let meta = SnapshotMeta {
                date: SnapshotDate::MAY_2023,
                ipv6: true,
                vantage,
                probe: ProbeMode::ForceCe,
                trace_sample_probability: 0.2,
                seed: 0x1299,
                delta: true,
            };
            let decoded = SnapshotMeta::decode(&meta.encode()).unwrap();
            assert_eq!(decoded, meta);
        }
    }

    #[test]
    fn write_then_read_round_trips_across_segments() {
        let dir = temp_dir("write-read");
        let mut writer = CampaignWriter::create(&dir, &meta())
            .unwrap()
            .with_segment_capacity(7);
        let hosts: Vec<HostMeasurement> = (0..23).map(measurement).collect();
        for m in &hosts {
            writer.append(m.clone()).unwrap();
        }
        let stored = writer.finish().unwrap();
        assert!(stored.is_complete());
        assert_eq!(stored.recorded_host_count(), Some(23));
        assert_eq!(stored.segment_count(), 4); // 7 + 7 + 7 + 2
        let read: Vec<HostMeasurement> =
            stored.to_snapshot().unwrap().hosts.into_values().collect();
        assert_eq!(read, hosts);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Over `path`, a segment holding `block` under a valid seal.
    fn reseal(path: &Path, block: &[u8]) {
        let mut bytes = b"QSEG".to_vec();
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(block);
        let seal = fnv1a(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn a_segment_with_a_bad_last_record_yields_none_of_its_records() {
        let measured = |host_id| HostMeasurement {
            tcp: Some(qem_tcp::TcpReport {
                forward_losses: 300,
                ..Default::default()
            }),
            ..measurement(host_id)
        };
        let block = encode_block(&(4..8).map(measured).collect::<Vec<_>>());
        let mut cut = block.clone();
        cut.pop();
        // The last byte of the last record's two-byte loss count zeroed: an
        // overlong varint, found after three records have decoded.
        let mut damaged = block.clone();
        *damaged.last_mut().unwrap() = 0;
        for bad in [cut, damaged] {
            let dir = temp_dir("bad-last");
            let mut writer = CampaignWriter::create(&dir, &meta())
                .unwrap()
                .with_segment_capacity(4);
            for id in 0..12 {
                writer.append(measured(id)).unwrap();
            }
            let stored = writer.finish().unwrap();
            reseal(&dir.join(crate::segment::segment_file_name(1)), &bad);
            let mut streamed = Vec::new();
            stored.for_each_host(&mut |m| streamed.push(m.host_id));
            assert_eq!(streamed, [0, 1, 2, 3, 8, 9, 10, 11]);
            assert_eq!(stored.quarantined_segments(), 1);
            assert!(matches!(stored.to_snapshot(), Err(StoreError::Corrupt(_))));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_lent_buffer_keeps_its_capacity_across_segments() {
        let dir = temp_dir("lent");
        let mut writer = CampaignWriter::create(&dir, &meta())
            .unwrap()
            .with_segment_capacity(7);
        for id in 0..23 {
            writer.append(measurement(id)).unwrap();
        }
        let stored = writer.finish().unwrap();
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        stored
            .read_segments(&mut buf, |records, read| {
                read?;
                seen.push((records.len(), records.as_ptr(), records.capacity()));
                records.clear();
                Ok::<_, StoreError>(())
            })
            .unwrap();
        let lengths: Vec<usize> = seen.iter().map(|&(len, _, _)| len).collect();
        assert_eq!(lengths, [7, 7, 7, 2]);
        assert!(seen
            .iter()
            .all(|&(_, ptr, cap)| (ptr, cap) == (seen[0].1, seen[0].2)));
        assert_eq!((buf.as_ptr(), buf.capacity()), (seen[0].1, seen[0].2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shorter_segment_never_reads_the_tail_of_the_one_before() {
        let dir = temp_dir("stale");
        let mut writer = CampaignWriter::create(&dir, &meta())
            .unwrap()
            .with_segment_capacity(7);
        for id in 0..23 {
            writer.append(measurement(id)).unwrap();
        }
        let stored = writer.finish().unwrap();
        let segments = list_segments(&dir).unwrap();
        // Segment 1 becomes segment 0 cut by three bytes: what a buffer that
        // kept segment 0's tail would read back whole, with a valid seal.
        let first = fs::read(&segments[0]).unwrap();
        fs::write(&segments[1], &first[..first.len() - 3]).unwrap();
        let names_the_cut_file = |e: StoreError| {
            matches!(&e, StoreError::Corrupt(m)
                if m.contains(&segments[1].display().to_string()) && !m.contains("follows"))
        };
        assert!(names_the_cut_file(StoredSnapshot::open(&dir).unwrap_err()));
        assert!(names_the_cut_file(stored.host_ids().unwrap_err()));
        assert!(names_the_cut_file(stored.to_snapshot().unwrap_err()));

        let mut streamed = Vec::new();
        stored
            .read_segments(&mut Vec::new(), |records, read| {
                streamed.push(read.map(|()| std::mem::take(records)));
                Ok::<_, Infallible>(())
            })
            .unwrap();
        assert_eq!(streamed.len(), segments.len());
        for (streamed, path) in streamed.iter().zip(&segments) {
            let mut alone = Vec::new();
            let alone = crate::segment::read_segment_into(path, None, &mut alone, &mut Vec::new())
                .map(|()| alone);
            match (streamed, alone) {
                (Ok(records), Ok(alone)) => assert_eq!(records, &alone),
                (Err(_), Err(_)) => {}
                (streamed, alone) => panic!("{streamed:?} streamed, {alone:?} alone"),
            }
        }
        assert!(streamed[1].is_err());
        let mut ids = Vec::new();
        stored.for_each_host(&mut |m| ids.push(m.host_id));
        assert_eq!(
            ids,
            [(0..7).collect::<Vec<_>>(), (14..23).collect()].concat()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_stats_account_for_segments_bytes_and_the_codec_win() {
        let dir = temp_dir("stats");
        let mut writer = CampaignWriter::create(&dir, &meta())
            .unwrap()
            .with_segment_capacity(7);
        for id in 0..23 {
            writer.append(measurement(id)).unwrap();
        }
        let buffered = writer.stats();
        assert_eq!(buffered.segments_written, 3, "the tail is still buffered");
        assert_eq!(buffered.records_written, 21);
        let (_, stats) = writer.finish_with_stats().unwrap();
        assert_eq!(stats.segments_written, 4);
        assert_eq!(stats.records_written, 23);
        assert_eq!(stats.resume_skipped, 0);
        let on_disk: u64 = (0..4)
            .map(|i| {
                fs::metadata(dir.join(crate::segment::segment_file_name(i)))
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(stats.bytes_written, on_disk);
        // The codec win the shared per-block dictionaries buy, computed here
        // rather than by re-encoding every record on the production path.
        let hosts: Vec<HostMeasurement> = (0..23).map(measurement).collect();
        let alone: usize = hosts
            .iter()
            .map(|m| encode_block(std::slice::from_ref(m)).len())
            .sum();
        assert!(encode_block(&hosts).len() < alone);
        let telemetry = stats.telemetry();
        assert_eq!(telemetry.counter("store.records_written"), Some(23));
        assert!(!dir.join(TELEMETRY_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_writer_leaves_a_resumable_prefix() {
        let dir = temp_dir("resume");
        {
            let mut writer = CampaignWriter::create(&dir, &meta())
                .unwrap()
                .with_segment_capacity(5);
            for id in 0..12 {
                writer.append(measurement(id)).unwrap();
            }
            // Dropped without finish(): segments 0 and 1 (10 hosts) are on
            // disk, hosts 10 and 11 are lost with the buffer — exactly what
            // a kill -9 would leave.
        }
        let (mut writer, read_meta, persisted) = CampaignWriter::resume(&dir).unwrap();
        assert_eq!(read_meta, meta());
        assert_eq!(persisted, (0..10).collect::<Vec<_>>());
        for id in 10..15 {
            writer.append(measurement(id)).unwrap();
        }
        let stored = writer.finish().unwrap();
        assert_eq!(stored.host_ids().unwrap(), (0..15).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_appends_are_rejected() {
        let dir = temp_dir("order");
        let mut writer = CampaignWriter::create(&dir, &meta()).unwrap();
        writer.append(measurement(5)).unwrap();
        assert!(matches!(
            writer.append(measurement(5)),
            Err(StoreError::State(_))
        ));
        assert!(matches!(
            writer.append(measurement(3)),
            Err(StoreError::State(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_incomplete_and_create_refuses_existing() {
        let dir = temp_dir("states");
        let mut writer = CampaignWriter::create(&dir, &meta())
            .unwrap()
            .with_segment_capacity(2);
        writer.append(measurement(0)).unwrap();
        writer.append(measurement(1)).unwrap();
        drop(writer);
        assert!(matches!(
            StoredSnapshot::open(&dir),
            Err(StoreError::State(_))
        ));
        let (partial, report) = StoredSnapshot::open_quarantining(&dir).unwrap();
        assert!(report.is_clean());
        assert!(!partial.is_complete());
        assert_eq!(partial.host_ids().unwrap(), [0, 1]);
        assert_eq!(partial.host_count(), 2);
        assert!(matches!(
            CampaignWriter::create(&dir, &meta()),
            Err(StoreError::State(_))
        ));
        let (writer, _, _) = CampaignWriter::resume(&dir).unwrap();
        let stored = writer.finish().unwrap();
        assert!(stored.is_complete());
        assert!(matches!(
            CampaignWriter::resume(&dir),
            Err(StoreError::State(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
