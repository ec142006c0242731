//! Store-backed campaign runs: streaming ingest and kill-and-resume.
//!
//! [`CampaignStoreExt`] extends [`qem_core::Campaign`] with variants of the
//! snapshot and longitudinal runs that spill to a store directory instead of
//! accumulating measurements in memory.  Because every per-host measurement
//! is a pure function of `seed × host id`, a resumed campaign — skipping the
//! hosts already persisted before the kill — produces a snapshot
//! bit-identical to an uninterrupted run at any worker count.  Every scan
//! is made by [`Campaign::scanner`], so its workers take the kits the
//! campaign's other runs, and the dates before it, gave back.

use crate::longitudinal::{LongitudinalStore, LongitudinalWriter};
use crate::segment::write_atomically;
use crate::store::{CampaignWriter, SnapshotMeta, StoredSnapshot, WriterStats, TELEMETRY_FILE};
use crate::StoreError;
use qem_core::campaign::{Campaign, CampaignOptions};
use qem_core::scanner::Scanner;
use qem_core::vantage::VantagePoint;
use qem_obs::RunTelemetry;
use qem_web::SnapshotDate;
use std::collections::BTreeSet;
use std::path::Path;

/// What a resumed campaign did.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The completed snapshot.
    pub store: StoredSnapshot,
    /// Hosts that were already persisted and therefore **not** re-scanned.
    pub skipped_hosts: usize,
    /// Hosts measured by the resume run.
    pub scanned_hosts: usize,
}

/// Drive a streaming scan into a fallible sink (typically
/// [`CampaignWriter::append`]), stopping the (cheap) appends after the first
/// error and surfacing it afterwards.  The scan itself runs to completion —
/// the executor owns worker threads that must join.
pub fn scan_into<F>(scanner: &Scanner<'_>, ids: &[usize], mut sink: F) -> Result<(), StoreError>
where
    F: FnMut(qem_core::observation::HostMeasurement) -> Result<(), StoreError>,
{
    let mut first_error: Option<StoreError> = None;
    scanner.scan_hosts_streaming(ids, |m| {
        if first_error.is_none() {
            if let Err(e) = sink(m) {
                first_error = Some(e);
            }
        }
    });
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The `telemetry.json` written next to the segments by store-backed runs:
/// the scan's deterministic metrics plus what the writer did.  Informational
/// only — never part of the snapshot identity or the measurement data.
fn write_run_telemetry(
    dir: &Path,
    meta: &SnapshotMeta,
    scanner: &Scanner<'_>,
    stats: WriterStats,
) -> Result<(), StoreError> {
    let mut telemetry = RunTelemetry::new();
    telemetry.set_info("campaign", "snapshot");
    telemetry.set_info("date", meta.date.to_string());
    telemetry.set_info("family", if meta.ipv6 { "v6" } else { "v4" });
    telemetry.set_info("probe", format!("{:?}", meta.probe));
    telemetry.set_info("seed", meta.seed.to_string());
    telemetry.insert_section("scan", scanner.metrics_snapshot());
    telemetry.insert_section("store", stats.telemetry());
    write_atomically(&dir.join(TELEMETRY_FILE), telemetry.to_json().as_bytes())
}

/// Stores hold only the single-flow methodology (see [`CampaignStoreExt`]).
fn reject_cross_traffic(options: &CampaignOptions) -> Result<(), StoreError> {
    if options.cross_traffic.is_enabled() {
        return Err(StoreError::Mismatch(
            "cross-traffic scenarios cannot be persisted: the scenario is not \
             part of the store identity, so a resumed scan could not reproduce \
             it — run what-if campaigns in memory instead"
                .to_string(),
        ));
    }
    // Same argument for retries: a failed attempt re-draws from the per-host
    // RNG, so the retry policy shapes the measurement stream — and it is not
    // part of [`SnapshotMeta`], so a resume could not reproduce it.
    if !options.retry.is_noop() {
        return Err(StoreError::Mismatch(
            "retrying campaigns cannot be persisted: the retry policy is not \
             part of the store identity, so a resumed scan could not reproduce \
             it — run chaos campaigns in memory instead"
                .to_string(),
        ));
    }
    Ok(())
}

/// Store-backed campaign runs.
///
/// Stores only ever hold the single-flow methodology: an enabled
/// [`CampaignOptions::cross_traffic`] scenario is rejected with
/// [`StoreError::Mismatch`], because the scenario is not part of
/// [`SnapshotMeta`] and a later resume could not reproduce it — half the
/// hosts would be measured under load and half without, silently.  What-if
/// scenarios are ephemeral; run them in memory.
pub trait CampaignStoreExt {
    /// Run one snapshot, streaming every measurement into a store at `dir`
    /// instead of materialising the result set.  Peak memory is one segment
    /// buffer plus the executor's bounded in-flight window.
    fn run_snapshot_to_store(
        &self,
        vantage: &VantagePoint,
        options: &CampaignOptions,
        ipv6: bool,
        dir: &Path,
    ) -> Result<StoredSnapshot, StoreError>;

    /// Complete an interrupted [`CampaignStoreExt::run_snapshot_to_store`]:
    /// hosts already persisted are skipped, the rest are measured with the
    /// stored options (`workers` only changes scheduling, so it is supplied
    /// fresh).  The result is bit-identical to an uninterrupted run.
    fn resume_snapshot_to_store(
        &self,
        dir: &Path,
        workers: usize,
    ) -> Result<ResumeOutcome, StoreError>;

    /// Run the longitudinal series (one IPv4 snapshot per date), streaming
    /// each date into a delta-encoded store: dates after the first persist
    /// only hosts whose measurement changed.
    fn run_longitudinal_to_store(
        &self,
        dates: &[SnapshotDate],
        options: &CampaignOptions,
        dir: &Path,
    ) -> Result<LongitudinalStore, StoreError>;
}

impl CampaignStoreExt for Campaign<'_> {
    fn run_snapshot_to_store(
        &self,
        vantage: &VantagePoint,
        options: &CampaignOptions,
        ipv6: bool,
        dir: &Path,
    ) -> Result<StoredSnapshot, StoreError> {
        reject_cross_traffic(options)?;
        let universe = self.universe();
        let meta = SnapshotMeta::for_campaign(options, vantage, ipv6);
        let mut writer = CampaignWriter::create(dir, &meta)?;
        let scanner = self.scanner(vantage, options, ipv6);
        let population = universe.scan_population(ipv6);
        scan_into(&scanner, &population, |m| writer.append(m))?;
        let (store, stats) = writer.finish_with_stats()?;
        write_run_telemetry(dir, &meta, &scanner, stats)?;
        Ok(store)
    }

    fn resume_snapshot_to_store(
        &self,
        dir: &Path,
        workers: usize,
    ) -> Result<ResumeOutcome, StoreError> {
        let universe = self.universe();
        let (mut writer, meta, persisted) = CampaignWriter::resume(dir)?;
        let population = universe.scan_population(meta.ipv6);

        // The persisted prefix must be a prefix of this universe's scan
        // population — otherwise the store belongs to a different universe
        // and "resuming" would splice two incompatible campaigns.
        let expected: BTreeSet<usize> = population.iter().copied().collect();
        if let Some(alien) = persisted.iter().find(|id| !expected.contains(id)) {
            return Err(StoreError::Mismatch(format!(
                "store holds host {alien}, which this universe would not scan — \
                 wrong universe or options?"
            )));
        }

        let persisted_set: BTreeSet<usize> = persisted.iter().copied().collect();
        let remaining: Vec<usize> = population
            .iter()
            .copied()
            .filter(|id| !persisted_set.contains(id))
            .collect();
        let scanner = self.scanner(&meta.vantage, &meta.campaign_options(workers), meta.ipv6);
        scan_into(&scanner, &remaining, |m| writer.append(m))?;
        let (store, stats) = writer.finish_with_stats()?;
        write_run_telemetry(dir, &meta, &scanner, stats)?;
        Ok(ResumeOutcome {
            store,
            skipped_hosts: persisted.len(),
            scanned_hosts: remaining.len(),
        })
    }

    fn run_longitudinal_to_store(
        &self,
        dates: &[SnapshotDate],
        options: &CampaignOptions,
        dir: &Path,
    ) -> Result<LongitudinalStore, StoreError> {
        reject_cross_traffic(options)?;
        let universe = self.universe();
        let vantage = VantagePoint::main();
        let mut writer = LongitudinalWriter::create(dir, &vantage, options, dates)?;
        let population = universe.scan_population(false);
        for _ in dates {
            let date = writer.begin_date()?;
            let dated = CampaignOptions { date, ..*options };
            let scanner = self.scanner(&vantage, &dated, false);
            scan_into(&scanner, &population, |m| writer.append(m))?;
            writer.end_date()?;
        }
        writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;
    use qem_core::source::SnapshotSource;
    use qem_netsim::Probability;
    use qem_web::{Universe, UniverseConfig};
    use std::fs;

    fn universe() -> Universe {
        Universe::generate(&UniverseConfig::tiny())
    }

    #[test]
    fn cross_traffic_campaigns_cannot_be_persisted() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let vantage = VantagePoint::main();
        let loaded =
            CampaignOptions::ce_probing().with_cross_traffic(qem_core::CrossTraffic::congested());

        let dir = temp_dir("cross-traffic-reject");
        let snapshot = campaign.run_snapshot_to_store(&vantage, &loaded, false, &dir);
        assert!(
            matches!(snapshot, Err(StoreError::Mismatch(_))),
            "cross-traffic snapshots must be rejected, got {snapshot:?}"
        );
        let series =
            campaign.run_longitudinal_to_store(&[qem_web::SnapshotDate::APR_2023], &loaded, &dir);
        assert!(matches!(series, Err(StoreError::Mismatch(_))));

        // And a stored snapshot hands back exactly the single-flow options
        // it was written with.
        let options = CampaignOptions::paper_default();
        let stored = campaign
            .run_snapshot_to_store(&vantage, &options, false, &dir)
            .unwrap();
        assert_eq!(stored.meta().campaign_options(options.workers), options);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_nan_trace_probability_is_stored_and_scans_as_zero_does() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let vantage = VantagePoint::main();
        let zero = CampaignOptions {
            trace_sample_probability: Probability::new(0.0),
            ..CampaignOptions::paper_default()
        };
        let nan = CampaignOptions {
            trace_sample_probability: Probability::new(f64::NAN),
            ..zero
        };
        let dir = temp_dir("nan-trace-p");
        let stored = campaign
            .run_snapshot_to_store(&vantage, &nan, false, &dir)
            .unwrap();
        let reference = campaign.run_snapshot(&vantage, &zero, false);
        assert_eq!(stored.to_snapshot().unwrap().hosts, reference.hosts);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backed_snapshot_equals_in_memory_snapshot() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let options = CampaignOptions::paper_default();
        let vantage = VantagePoint::main();
        let in_memory = campaign.run_snapshot(&vantage, &options, false);

        let dir = temp_dir("equality");
        let stored = campaign
            .run_snapshot_to_store(&vantage, &options, false, &dir)
            .unwrap();
        assert_eq!(stored.to_snapshot().unwrap().hosts, in_memory.hosts);
        assert_eq!(stored.date(), in_memory.date);
        assert_eq!(stored.vantage(), &in_memory.vantage);
        let telemetry = fs::read_to_string(dir.join(TELEMETRY_FILE))
            .expect("store-backed runs persist their telemetry");
        assert!(telemetry.contains("\"scan.hosts\""));
        assert!(telemetry.contains("\"store.segments_written\""));
        // The persisted identity is exactly this campaign's, at any worker
        // count: scheduling is not identity.
        let meta = stored.meta();
        for workers in [0, 7] {
            let options = meta.campaign_options(workers);
            assert_eq!(options.workers, workers);
            assert_eq!(
                SnapshotMeta::for_campaign(&options, &meta.vantage, meta.ipv6),
                *meta
            );
        }
        assert_eq!(SnapshotMeta::for_campaign(&options, &vantage, false), *meta);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_killed_campaign_resumes_without_rescanning() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let options = CampaignOptions::paper_default();
        let vantage = VantagePoint::main();
        let reference = campaign.run_snapshot(&vantage, &options, false);

        // Simulate the kill: persist only the first 40% of the population,
        // then drop the writer without finishing.
        let dir = temp_dir("resume");
        let population = universe.scan_population(false);
        let cut = population.len() * 2 / 5;
        {
            let meta = SnapshotMeta::for_campaign(&options, &vantage, false);
            let mut writer = CampaignWriter::create(&dir, &meta)
                .unwrap()
                .with_segment_capacity(16);
            let scanner = Scanner::new(&universe, vantage.clone(), options.scan_options(false));
            scan_into(&scanner, &population[..cut], |m| writer.append(m)).unwrap();
            // Writer dropped here: partial segments stay, no COMPLETE marker.
        }

        let outcome = campaign.resume_snapshot_to_store(&dir, 4).unwrap();
        // The persisted prefix is segment-aligned: everything the writer
        // flushed survives, the buffered tail is re-scanned.
        assert!(
            outcome.skipped_hosts > 0,
            "resume must reuse persisted hosts"
        );
        assert!(outcome.skipped_hosts <= cut);
        assert_eq!(
            outcome.skipped_hosts + outcome.scanned_hosts,
            population.len(),
            "every host is either reused or scanned exactly once"
        );
        assert_eq!(outcome.store.to_snapshot().unwrap().hosts, reference.hosts);
        // The resume's telemetry records how much work the store saved.
        let telemetry = fs::read_to_string(dir.join(TELEMETRY_FILE)).unwrap();
        let needle = format!(
            "\"store.resume_skipped\": {{\"type\": \"counter\", \"value\": {}}}",
            outcome.skipped_hosts
        );
        assert!(
            telemetry.contains(&needle),
            "telemetry must record the skipped prefix:\n{telemetry}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn longitudinal_store_replays_the_run_and_stores_deltas_only() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let options = CampaignOptions::paper_default();
        let dates = [
            SnapshotDate::JUN_2022,
            SnapshotDate::FEB_2023,
            SnapshotDate::APR_2023,
        ];
        let reference = campaign.run_longitudinal(&dates, &options);

        let dir = temp_dir("longitudinal");
        let store = campaign
            .run_longitudinal_to_store(&dates, &options, &dir)
            .unwrap();
        let replayed = store.snapshots().unwrap();
        assert_eq!(replayed.len(), reference.len());
        for (a, b) in replayed.iter().zip(&reference) {
            assert_eq!(a.date, b.date);
            assert_eq!(a.hosts, b.hosts);
        }
        // The first date stores the full population; later dates store
        // strictly fewer records (only changed hosts).
        let stored = |idx| {
            StoredSnapshot::open(&dir.join(crate::longitudinal::date_dir_name(idx)))
                .unwrap()
                .recorded_host_count()
                .unwrap()
        };
        let full = stored(0);
        for idx in 1..dates.len() {
            let delta = stored(idx);
            assert!(
                delta < full,
                "date {idx} stored {delta} records, expected fewer than {full}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
