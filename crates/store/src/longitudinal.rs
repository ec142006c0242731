//! Delta-encoded longitudinal series.
//!
//! A longitudinal run scans the same host population once per month.  Most
//! hosts behave identically from one month to the next — the interesting
//! signal is exactly the hosts that *changed* (a stack upgrade, an outage, a
//! path impairment appearing).  The store exploits that: the first date is
//! persisted in full, every later date stores only the measurements that
//! differ from the previous date.  Storage drops from
//! `O(dates × hosts)` to `O(hosts + changed)`, and the writer never holds
//! more than one date's state in memory.
//!
//! Layout:
//!
//! ```text
//! <dir>/
//!   longitudinal.meta  vantage, probe options, the date sequence
//!   date-000/          full snapshot store (delta = false)
//!   date-001/          changed hosts only   (delta = true)
//!   …
//!   COMPLETE
//! ```
//!
//! The date sequence is persisted as `months_since_start` offsets
//! ([`SnapshotDate::months_since_start`]); reconstruction relies on the
//! round-trip with [`SnapshotDate::from_months_since_start`].
//!
//! The scanned host set must be identical across dates (it is: membership
//! depends only on address-family coverage, never on the date).  The writer
//! enforces this, because replay correctness depends on it.
//!
//! Both directions keep one date's state as a [`HostMap`] in host-id order:
//! the writer compares each measurement with the previous date's by binary
//! search, and the replay drains each segment, decoded into one lent
//! buffer, into the running state.

use crate::codec::FORMAT_VERSION;
use crate::segment::write_atomically;
use crate::store::{CampaignWriter, SnapshotMeta, StoredSnapshot};
use crate::wire::{fnv1a, open_sealed, write_str, write_u64_le, write_varint};
use crate::StoreError;
use qem_core::campaign::{CampaignOptions, SnapshotMeasurement};
use qem_core::host_map::HostMap;
use qem_core::observation::HostMeasurement;
use qem_core::vantage::VantagePoint;
use qem_netsim::Probability;
use qem_web::SnapshotDate;
use std::fs;
use std::path::{Path, PathBuf};

const LONGITUDINAL_MAGIC: &[u8; 4] = b"QLON";
const LONGITUDINAL_COMPLETE_MAGIC: &[u8; 4] = b"QLDN";

/// File holding the series identity.
pub const LONGITUDINAL_META_FILE: &str = "longitudinal.meta";
/// End marker; present once every date has been written.
pub const LONGITUDINAL_COMPLETE_FILE: &str = "COMPLETE";

/// Subdirectory of date `idx`.
pub fn date_dir_name(idx: usize) -> String {
    format!("date-{idx:03}")
}

fn encode_series_meta(
    vantage: &VantagePoint,
    options: &CampaignOptions,
    dates: &[SnapshotDate],
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64 + dates.len());
    bytes.extend_from_slice(LONGITUDINAL_MAGIC);
    bytes.push(FORMAT_VERSION);
    write_str(&mut bytes, &vantage.name);
    write_u64_le(&mut bytes, options.seed);
    write_u64_le(&mut bytes, options.trace_sample_probability.get().to_bits());
    write_varint(&mut bytes, dates.len() as u64);
    for date in dates {
        write_varint(&mut bytes, u64::from(date.months_since_start()));
    }
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// What `longitudinal.meta` records: the series identity every date's
/// [`SnapshotMeta`] must match, and the date sequence.
struct SeriesManifest {
    vantage_name: String,
    seed: u64,
    trace_sample_probability: Probability,
    dates: Vec<SnapshotDate>,
}

impl SeriesManifest {
    /// Why date `idx`'s `meta` does not belong to this series, if it does
    /// not; `first` is date 0's.
    fn mismatch(&self, idx: usize, meta: &SnapshotMeta, first: &SnapshotMeta) -> Option<String> {
        let date = self.dates[idx];
        if meta.date != date {
            Some(format!("holds {} but the manifest says {date}", meta.date))
        } else if meta.delta != (idx > 0) {
            Some("has the wrong delta flag".to_string())
        } else if meta.vantage.name != self.vantage_name
            || meta.seed != self.seed
            || meta.trace_sample_probability != self.trace_sample_probability
        {
            Some("differs from the manifest in vantage, seed or trace probability".to_string())
        } else if meta.probe != first.probe
            || meta.ipv6 != first.ipv6
            || meta.vantage != first.vantage
        {
            Some("differs from date 0 in probe mode, address family or vantage".to_string())
        } else {
            None
        }
    }
}

fn decode_series_manifest(bytes: &[u8]) -> Result<SeriesManifest, StoreError> {
    let mut r = open_sealed(bytes, LONGITUDINAL_MAGIC, "longitudinal metadata")?;
    let vantage_name = r.string()?;
    let seed = r.u64_le()?;
    let trace_sample_probability = r.probability()?;
    let count = r.varint()? as usize;
    let mut dates = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let months = r.varint()?;
        dates.push(SnapshotDate::from_months_since_start(
            u32::try_from(months)
                .map_err(|_| StoreError::Corrupt(format!("date offset {months} overflows u32")))?,
        ));
    }
    Ok(SeriesManifest {
        vantage_name,
        seed,
        trace_sample_probability,
        dates,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer for a longitudinal series.
///
/// Dates must be written in sequence; within a date, measurements stream in
/// ascending host-id order (what the scanner delivers).  The writer keeps
/// exactly one full date of state in memory — the previous date's
/// measurements, needed to compute the next delta.
pub struct LongitudinalWriter {
    dir: PathBuf,
    dates: Vec<SnapshotDate>,
    vantage: VantagePoint,
    options: CampaignOptions,
    /// The previous date's full state, in host-id order.
    previous: HostMap,
    /// Hosts seen in the current date, to enforce the constant-population
    /// invariant replay depends on.
    current_count: usize,
    /// Highest host id appended in the current date.  The per-date segment
    /// writer only sees *changed* hosts, so ordering (and thereby
    /// duplicate-freeness) of the full stream is enforced here.
    current_last_id: Option<usize>,
    current_writer: Option<CampaignWriter>,
    next_date: usize,
    /// Records actually persisted per finished date (the delta sizes).
    stored_per_date: Vec<u64>,
}

impl LongitudinalWriter {
    /// Create a new series at `dir` for the given dates (IPv4, as in the
    /// paper's longitudinal figures).
    pub fn create(
        dir: &Path,
        vantage: &VantagePoint,
        options: &CampaignOptions,
        dates: &[SnapshotDate],
    ) -> Result<LongitudinalWriter, StoreError> {
        if dates.is_empty() {
            return Err(StoreError::State(
                "a series needs at least one date".to_string(),
            ));
        }
        // The manifest stores dates as months-since-June-2022 offsets;
        // months_since_start saturates below the epoch, so a pre-epoch date
        // would write a manifest that can never be opened.  Reject it before
        // any scanning happens.
        if let Some(bad) = dates
            .iter()
            .find(|d| SnapshotDate::from_months_since_start(d.months_since_start()) != **d)
        {
            return Err(StoreError::State(format!(
                "date {bad} predates the June 2022 epoch of the offset encoding"
            )));
        }
        fs::create_dir_all(dir)?;
        if dir.join(LONGITUDINAL_COMPLETE_FILE).exists()
            || dir.join(LONGITUDINAL_META_FILE).exists()
        {
            return Err(StoreError::State(format!(
                "{} already holds a longitudinal series",
                dir.display()
            )));
        }
        write_atomically(
            &dir.join(LONGITUDINAL_META_FILE),
            &encode_series_meta(vantage, options, dates),
        )?;
        Ok(LongitudinalWriter {
            dir: dir.to_path_buf(),
            dates: dates.to_vec(),
            vantage: vantage.clone(),
            options: *options,
            previous: HostMap::default(),
            current_count: 0,
            current_last_id: None,
            current_writer: None,
            next_date: 0,
            stored_per_date: Vec::new(),
        })
    }

    /// Open the store for the next date in the sequence.
    pub fn begin_date(&mut self) -> Result<SnapshotDate, StoreError> {
        if self.current_writer.is_some() {
            return Err(StoreError::State("previous date not finished".to_string()));
        }
        let Some(&date) = self.dates.get(self.next_date) else {
            return Err(StoreError::State("every date already written".to_string()));
        };
        let meta = SnapshotMeta {
            delta: self.next_date > 0,
            ..SnapshotMeta::for_campaign(
                &CampaignOptions {
                    date,
                    ..self.options
                },
                &self.vantage,
                false,
            )
        };
        let date_dir = self.dir.join(date_dir_name(self.next_date));
        self.current_writer = Some(CampaignWriter::create(&date_dir, &meta)?);
        self.current_count = 0;
        self.current_last_id = None;
        Ok(date)
    }

    /// Append one measurement of the current date.  Only measurements that
    /// differ from the previous date are persisted.
    pub fn append(&mut self, m: HostMeasurement) -> Result<(), StoreError> {
        let writer = self
            .current_writer
            .as_mut()
            .ok_or_else(|| StoreError::State("no date in progress".to_string()))?;
        // Enforce ascending host ids on the *full* stream, not just the
        // changed subset the segment writer sees: without this, a duplicated
        // unchanged host could mask an omitted changed one in the population
        // count, and replay would resurrect the omitted host's old state.
        if let Some(last) = self.current_last_id {
            if m.host_id <= last {
                return Err(StoreError::State(format!(
                    "measurements must arrive in ascending host-id order (got {} after {last})",
                    m.host_id
                )));
            }
        }
        self.current_last_id = Some(m.host_id);
        self.current_count += 1;
        let changed = self.previous.get(m.host_id) != Some(&m);
        if changed {
            writer.append(m.clone())?;
        }
        self.previous.insert(m);
        Ok(())
    }

    /// Seal the current date.
    pub fn end_date(&mut self) -> Result<(), StoreError> {
        let writer = self
            .current_writer
            .take()
            .ok_or_else(|| StoreError::State("no date in progress".to_string()))?;
        // Replay applies deltas over the running state, so a host silently
        // missing from a later scan would resurrect its old measurement.
        // The population is constant by construction; verify it.  (append
        // enforces strictly ascending ids, so the count is duplicate-free
        // and comparing it against the running state suffices.)
        if self.next_date > 0 && self.current_count != self.previous.len() {
            return Err(StoreError::State(format!(
                "date {} scanned {} hosts but the series population is {}",
                self.next_date,
                self.current_count,
                self.previous.len()
            )));
        }
        let stored = writer.appended();
        writer.finish()?;
        self.stored_per_date.push(stored);
        self.next_date += 1;
        Ok(())
    }

    /// Records persisted per finished date — the measured delta sizes.
    // lint: allow(unused-pub) benchmark: store.delta_stored_share reads it
    pub fn stored_per_date(&self) -> &[u64] {
        &self.stored_per_date
    }

    /// Seal the series.
    pub fn finish(self) -> Result<LongitudinalStore, StoreError> {
        if self.current_writer.is_some() {
            return Err(StoreError::State("a date is still in progress".to_string()));
        }
        if self.next_date != self.dates.len() {
            return Err(StoreError::State(format!(
                "only {} of {} dates written",
                self.next_date,
                self.dates.len()
            )));
        }
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(LONGITUDINAL_COMPLETE_MAGIC);
        bytes.push(FORMAT_VERSION);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        write_atomically(&self.dir.join(LONGITUDINAL_COMPLETE_FILE), &bytes)?;
        LongitudinalStore::open(&self.dir)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A complete longitudinal series opened for reading.
pub struct LongitudinalStore {
    dates: Vec<SnapshotDate>,
    snapshots: Vec<StoredSnapshot>,
}

impl LongitudinalStore {
    /// Open a sealed series.
    pub fn open(dir: &Path) -> Result<LongitudinalStore, StoreError> {
        let marker = dir.join(LONGITUDINAL_COMPLETE_FILE);
        let sealed = match fs::read(&marker) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::State(format!(
                    "{} holds an unfinished longitudinal series",
                    dir.display()
                )));
            }
            Err(e) => return Err(e.into()),
        };
        open_sealed(&sealed, LONGITUDINAL_COMPLETE_MAGIC, "COMPLETE marker")
            .and_then(|r| r.expect_end("COMPLETE marker"))
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", marker.display())))?;
        let meta_bytes = fs::read(dir.join(LONGITUDINAL_META_FILE))?;
        let manifest = decode_series_manifest(&meta_bytes)?;
        let mut snapshots: Vec<StoredSnapshot> = Vec::with_capacity(manifest.dates.len());
        for idx in 0..manifest.dates.len() {
            let date_dir = dir.join(date_dir_name(idx));
            let snapshot = StoredSnapshot::open(&date_dir)?;
            let first = snapshots.first().unwrap_or(&snapshot).meta();
            if let Some(why) = manifest.mismatch(idx, snapshot.meta(), first) {
                return Err(StoreError::Corrupt(format!(
                    "{}: {why}",
                    date_dir.display()
                )));
            }
            snapshots.push(snapshot);
        }
        Ok(LongitudinalStore {
            dates: manifest.dates,
            snapshots,
        })
    }

    /// Replay the series once, handing each date's **full** reconstructed
    /// snapshot to `f` in order.  Memory stays at O(hosts) — the single
    /// running state *is* the snapshot handed out (moved in and taken back,
    /// never cloned) — independent of the number of dates.  Every segment of
    /// every date decodes into one lent buffer, drained into the state: the
    /// first date appends in host-id order, a delta replaces in place.
    // lint: allow(unused-pub) tested feature: the series' read path; tests/scan_determinism.rs replays it
    pub fn for_each_snapshot(
        &self,
        f: &mut dyn FnMut(&SnapshotMeasurement),
    ) -> Result<(), StoreError> {
        let mut state = HostMap::default();
        let mut buf = Vec::new();
        for (idx, snapshot) in self.snapshots.iter().enumerate() {
            snapshot.read_segments(&mut buf, |records, read| {
                read.map(|()| {
                    for m in records.drain(..) {
                        state.insert(m);
                    }
                })
            })?;
            let full = SnapshotMeasurement {
                date: self.dates[idx],
                ipv6: false,
                vantage: snapshot.meta().vantage.clone(),
                hosts: state,
            };
            f(&full);
            state = full.hosts;
        }
        Ok(())
    }
}

#[cfg(test)]
impl LongitudinalStore {
    /// Every date reconstructed: the O(dates × hosts) materialisation
    /// [`LongitudinalStore::for_each_snapshot`] avoids.
    pub(crate) fn snapshots(&self) -> Result<Vec<SnapshotMeasurement>, StoreError> {
        let mut out = Vec::with_capacity(self.dates.len());
        self.for_each_snapshot(&mut |snapshot| out.push(snapshot.clone()))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;

    fn measurement(host_id: usize, reachable: bool) -> HostMeasurement {
        HostMeasurement {
            host_id,
            quic_reachable: reachable,
            quic: None,
            tcp: None,
            trace: None,
        }
    }

    #[test]
    fn deltas_store_only_changed_hosts_and_replay_in_full() {
        let dir = temp_dir("delta");
        let dates = [
            SnapshotDate::JUN_2022,
            SnapshotDate::new(2022, 7),
            SnapshotDate::new(2022, 8),
        ];
        let mut writer = LongitudinalWriter::create(
            &dir,
            &VantagePoint::main(),
            &CampaignOptions::paper_default(),
            &dates,
        )
        .unwrap();

        // Date 0: hosts 0..50, none reachable.  Date 1: host 7 flips.
        // Date 2: hosts 7 and 13 flip.
        let flips: [&[usize]; 3] = [&[], &[7], &[7, 13]];
        let mut reachable = [false; 50];
        for date_flips in flips {
            for &host in date_flips {
                reachable[host] = !reachable[host];
            }
            writer.begin_date().unwrap();
            for (id, &up) in reachable.iter().enumerate() {
                writer.append(measurement(id, up)).unwrap();
            }
            writer.end_date().unwrap();
        }
        assert_eq!(writer.stored_per_date(), &[50, 1, 2]);
        let store = writer.finish().unwrap();
        assert_eq!(store.dates, dates);
        let stored: Vec<_> = store
            .snapshots
            .iter()
            .map(|s| s.recorded_host_count())
            .collect();
        assert_eq!(stored, [Some(50), Some(1), Some(2)]);

        // Replay: every date reconstructs the full 50-host population.
        let snapshots = store.snapshots().unwrap();
        assert_eq!(snapshots.len(), 3);
        for snapshot in &snapshots {
            assert_eq!(snapshot.hosts.len(), 50);
        }
        assert!(!snapshots[0].hosts[&7].quic_reachable);
        assert!(snapshots[1].hosts[&7].quic_reachable);
        assert!(!snapshots[2].hosts[&7].quic_reachable);
        assert!(snapshots[2].hosts[&13].quic_reachable);
        let date1: HostMap = (0..50).map(|id| (id, measurement(id, id == 7))).collect();
        assert_eq!(snapshots[1].hosts, date1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shrinking_population_is_rejected() {
        let dir = temp_dir("population");
        let dates = [SnapshotDate::JUN_2022, SnapshotDate::new(2022, 7)];
        let mut writer = LongitudinalWriter::create(
            &dir,
            &VantagePoint::main(),
            &CampaignOptions::paper_default(),
            &dates,
        )
        .unwrap();
        writer.begin_date().unwrap();
        for id in 0..10 {
            writer.append(measurement(id, false)).unwrap();
        }
        writer.end_date().unwrap();
        writer.begin_date().unwrap();
        for id in 0..9 {
            writer.append(measurement(id, false)).unwrap();
        }
        assert!(matches!(writer.end_date(), Err(StoreError::State(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_epoch_dates_are_rejected_before_any_scanning() {
        let dir = temp_dir("pre-epoch");
        let result = LongitudinalWriter::create(
            &dir,
            &VantagePoint::main(),
            &CampaignOptions::paper_default(),
            &[SnapshotDate::new(2022, 3), SnapshotDate::JUN_2022],
        );
        assert!(matches!(result, Err(StoreError::State(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_appends_within_a_date_are_rejected() {
        let dir = temp_dir("order");
        let dates = [SnapshotDate::JUN_2022];
        let mut writer = LongitudinalWriter::create(
            &dir,
            &VantagePoint::main(),
            &CampaignOptions::paper_default(),
            &dates,
        )
        .unwrap();
        writer.begin_date().unwrap();
        writer.append(measurement(4, false)).unwrap();
        // A duplicate — even an *unchanged* one the segment writer never
        // sees — must not slip past the population accounting.
        assert!(matches!(
            writer.append(measurement(4, false)),
            Err(StoreError::State(_))
        ));
        assert!(matches!(
            writer.append(measurement(2, false)),
            Err(StoreError::State(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unfinished_series_cannot_be_opened() {
        let dir = temp_dir("unfinished");
        let dates = [SnapshotDate::JUN_2022, SnapshotDate::new(2022, 7)];
        let mut writer = LongitudinalWriter::create(
            &dir,
            &VantagePoint::main(),
            &CampaignOptions::paper_default(),
            &dates,
        )
        .unwrap();
        writer.begin_date().unwrap();
        writer.append(measurement(0, false)).unwrap();
        writer.end_date().unwrap();
        assert!(matches!(writer.finish(), Err(StoreError::State(_))));
        assert!(matches!(
            LongitudinalStore::open(&dir),
            Err(StoreError::State(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Over the sealed file at `path`: its body with the 8 bytes at `at`
    /// (which hold a 0.0) replaced by a NaN's, under a recomputed seal.
    fn reseal_nan_at(path: &Path, at: impl FnOnce(&[u8]) -> usize) {
        let bytes = fs::read(path).unwrap();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        let at = at(&body);
        assert_eq!(body[at..at + 8], 0.0f64.to_bits().to_le_bytes());
        body[at..at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let seal = fnv1a(&body);
        body.extend_from_slice(&seal.to_le_bytes());
        fs::write(path, body).unwrap();
    }

    #[test]
    fn a_series_stored_with_a_nan_trace_probability_replays_as_zero_does() {
        // Until the option was a `Probability`, a NaN one reached the disk:
        // in every date's metadata and in the series manifest.  Both decode
        // through `Probability::new`, so they still agree.
        let dates = [SnapshotDate::JUN_2022, SnapshotDate::new(2022, 7)];
        let dir = temp_dir("nan-trace-p");
        let options = CampaignOptions {
            trace_sample_probability: Probability::new(0.0),
            ..CampaignOptions::paper_default()
        };
        let vantage = VantagePoint::main();
        let mut writer = LongitudinalWriter::create(&dir, &vantage, &options, &dates).unwrap();
        for date in 0..dates.len() {
            writer.begin_date().unwrap();
            for id in 0..20 {
                writer
                    .append(measurement(id, date == 1 && id == 7))
                    .unwrap();
            }
            writer.end_date().unwrap();
        }
        let replay = |store: LongitudinalStore| -> Vec<_> {
            let snapshots = store.snapshots().unwrap();
            snapshots
                .into_iter()
                .map(|s| (s.date, s.ipv6, s.vantage, s.hosts))
                .collect()
        };
        let zero = replay(writer.finish().unwrap());

        // The manifest: magic, version, vantage name (one length byte),
        // seed, then the probability.
        reseal_nan_at(&dir.join(LONGITUDINAL_META_FILE), |_| {
            4 + 1 + 1 + vantage.name.len() + 8
        });
        // A date's metadata ends with the probability, then the seed.
        for idx in 0..dates.len() {
            let meta = dir.join(date_dir_name(idx)).join(crate::store::META_FILE);
            reseal_nan_at(&meta, |body| body.len() - 16);
        }
        let store = LongitudinalStore::open(&dir).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(replay(store), zero);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_date_spliced_in_from_another_series_is_refused() {
        let dates = [SnapshotDate::JUN_2022, SnapshotDate::new(2022, 7)];
        // Two series over the same dates and hosts, seeds 1 and 2; host
        // `flip` changes at date 1.
        let write = |seed: u64, flip: usize| {
            let dir = temp_dir(&format!("splice-{seed}"));
            let options = CampaignOptions {
                seed,
                ..CampaignOptions::paper_default()
            };
            let mut writer =
                LongitudinalWriter::create(&dir, &VantagePoint::main(), &options, &dates).unwrap();
            for date in 0..dates.len() {
                writer.begin_date().unwrap();
                for id in 0..20 {
                    writer
                        .append(measurement(id, date == 1 && id == flip))
                        .unwrap();
                }
                writer.end_date().unwrap();
            }
            writer.finish().unwrap();
            dir
        };
        let (one, two) = (write(1, 7), write(2, 13));
        let spliced = one.join(date_dir_name(1));
        fs::remove_dir_all(&spliced).unwrap();
        fs::create_dir(&spliced).unwrap();
        for entry in fs::read_dir(two.join(date_dir_name(1))).unwrap() {
            let from = entry.unwrap().path();
            fs::copy(&from, spliced.join(from.file_name().unwrap())).unwrap();
        }
        match LongitudinalStore::open(&one) {
            Err(StoreError::Corrupt(why)) => assert!(why.contains("date-001"), "{why}"),
            other => panic!("a spliced date opened: {:?}", other.map(|s| s.dates)),
        }
        fs::remove_dir_all(&one).unwrap();
        fs::remove_dir_all(&two).unwrap();
    }
}
