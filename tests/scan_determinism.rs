//! Regression tests for the scanner's central determinism promise: a scan is
//! a pure function of `(universe, vantage, options minus workers)` — the
//! worker count only changes how the work is scheduled, never what is
//! measured.  The sharded executor relies on this to fan campaigns out
//! across every core without perturbing the paper's numbers.

use qem_core::reports::{
    figure3, figure4, figure5, figure6, figure7, table1, table2, table3, table4, table5, table6,
    table7,
};
use qem_core::vantage::VantagePoint;
use qem_core::{Campaign, CampaignOptions, HostMeasurement, ScanOptions, Scanner};
use qem_store::{scan_into, CampaignStoreExt, CampaignWriter, SnapshotMeta};
use qem_web::{SnapshotDate, Universe, UniverseConfig};
use std::path::PathBuf;

fn universe() -> Universe {
    Universe::generate(&UniverseConfig::tiny())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qem-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scan_with_workers(universe: &Universe, workers: usize) -> Vec<HostMeasurement> {
    let options = ScanOptions {
        workers,
        ..ScanOptions::paper_default(SnapshotDate::APR_2023)
    };
    Scanner::new(universe, VantagePoint::main(), options).scan_all()
}

#[test]
fn scan_results_are_identical_across_worker_counts() {
    let universe = universe();
    let baseline = scan_with_workers(&universe, 1);
    assert!(!baseline.is_empty());
    for workers in [4, 8] {
        let scan = scan_with_workers(&universe, workers);
        // `HostMeasurement` compares every field of every report, so this is
        // the full byte-for-byte equivalence of the measurement sets.
        assert_eq!(baseline, scan, "scan diverged at workers={workers}");
    }
}

#[test]
fn auto_worker_scan_matches_single_threaded_scan() {
    let universe = universe();
    // workers == 0 resolves to one worker per core — whatever this machine
    // has, the results must not move.
    assert_eq!(
        scan_with_workers(&universe, 1),
        scan_with_workers(&universe, 0)
    );
}

/// The observability layer inherits the purity promise: the deterministic
/// metrics snapshot (scan counters, ECN-class tallies, merged engine
/// telemetry) is byte-identical at `--workers 1` and `--workers 0`: each
/// worker's tally is merged commutatively, and nothing that depends on the
/// worker count is counted at all.
#[test]
fn scan_metrics_are_identical_across_worker_counts() {
    let universe = universe();
    let run = |workers: usize| {
        let options = ScanOptions {
            workers,
            ..ScanOptions::paper_default(SnapshotDate::APR_2023)
        };
        let scanner = Scanner::new(&universe, VantagePoint::main(), options);
        let measurements = scanner.scan_all();
        (measurements, scanner.metrics_snapshot())
    };
    let (baseline, single) = run(1);
    let (_, auto) = run(0);

    assert_eq!(single, auto, "metrics snapshot diverged across schedules");
    // The JSON rendering is what the determinism gate byte-diffs; pin it too.
    assert_eq!(single.to_json(), auto.to_json());

    // The snapshot actually observed the scan — every host counted, engine
    // telemetry merged in.
    assert_eq!(single.counter("scan.hosts"), Some(baseline.len() as u64));
    assert!(single.counter("engine.events_processed").unwrap_or(0) > 0);
}

#[test]
fn campaigns_are_identical_across_worker_counts() {
    let universe = universe();
    let run = |workers: usize| {
        let options = CampaignOptions {
            workers,
            ..CampaignOptions::paper_default()
        };
        Campaign::new(&universe).run_main(&options, true)
    };
    let baseline = run(1);
    for workers in [4, 8] {
        let result = run(workers);
        assert_eq!(
            baseline.v4.hosts, result.v4.hosts,
            "IPv4 campaign diverged at workers={workers}"
        );
        assert_eq!(
            baseline.v6.as_ref().map(|s| &s.hosts),
            result.v6.as_ref().map(|s| &s.hosts),
            "IPv6 campaign diverged at workers={workers}"
        );
    }
}

/// The store acceptance bar: a census streamed to disk renders every table
/// and figure byte-identically to the in-memory path, at any worker count.
#[test]
fn store_backed_census_reports_are_byte_identical() {
    let universe = universe();
    let campaign = Campaign::new(&universe);
    let vantage = VantagePoint::main();
    let reference = campaign.run_main(
        &CampaignOptions {
            workers: 1,
            ..CampaignOptions::paper_default()
        },
        true,
    );
    let reference_v6 = reference.v6.as_ref().expect("IPv6 snapshot requested");

    for workers in [1, 4] {
        let options = CampaignOptions {
            workers,
            ..CampaignOptions::paper_default()
        };
        let dir_v4 = temp_dir(&format!("census-v4-w{workers}"));
        let dir_v6 = temp_dir(&format!("census-v6-w{workers}"));
        let stored_v4 = campaign
            .run_snapshot_to_store(&vantage, &options, false, &dir_v4)
            .expect("store v4 snapshot");
        let stored_v6 = campaign
            .run_snapshot_to_store(&vantage, &options, true, &dir_v6)
            .expect("store v6 snapshot");

        // Tables 1–7 and Figure 5, rendered once from the store and once
        // from memory: the Display output must match byte for byte.
        assert_eq!(
            table1(&universe, &stored_v4).to_string(),
            table1(&universe, &reference.v4).to_string(),
            "table1 diverged at workers={workers}"
        );
        assert_eq!(
            table2(&universe, &stored_v4).to_string(),
            table2(&universe, &reference.v4).to_string(),
            "table2 diverged at workers={workers}"
        );
        assert_eq!(
            table3(&universe, &stored_v4).to_string(),
            table3(&universe, &reference.v4).to_string(),
            "table3 diverged at workers={workers}"
        );
        assert_eq!(
            table4(&universe, &stored_v4).to_string(),
            table4(&universe, &reference.v4).to_string(),
            "table4 diverged at workers={workers}"
        );
        assert_eq!(
            table5(&universe, &stored_v4, Some(&stored_v6)).to_string(),
            table5(&universe, &reference.v4, reference.v6.as_ref()).to_string(),
            "table5 diverged at workers={workers}"
        );
        assert_eq!(
            table6(&universe, &stored_v4).to_string(),
            table6(&universe, &reference.v4).to_string(),
            "table6 diverged at workers={workers}"
        );
        assert_eq!(
            table7(&universe, &stored_v4).to_string(),
            table7(&universe, &reference.v4).to_string(),
            "table7 diverged at workers={workers}"
        );
        assert_eq!(
            figure5(&universe, &stored_v4, &stored_v6).to_string(),
            figure5(&universe, &reference.v4, reference_v6).to_string(),
            "figure5 diverged at workers={workers}"
        );

        let _ = std::fs::remove_dir_all(&dir_v4);
        let _ = std::fs::remove_dir_all(&dir_v6);
    }
}

/// Figures 3/4/8 from the delta-encoded longitudinal store equal the
/// in-memory longitudinal run, and the deltas really are deltas.
#[test]
fn store_backed_longitudinal_reports_are_byte_identical() {
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
        .expect("store longitudinal series");
    let replayed = store.snapshots().expect("replay series");

    assert_eq!(
        figure3(&universe, &replayed).to_string(),
        figure3(&universe, &reference).to_string(),
        "figure3 diverged"
    );
    assert_eq!(
        figure4(&universe, &replayed).to_string(),
        figure4(&universe, &reference).to_string(),
        "figure4/8 diverged"
    );

    // Delta encoding: every date after the first persists strictly fewer
    // records than the full population.
    let full = store.stored_record_count(0).expect("first date count");
    for idx in 1..dates.len() {
        let delta = store.stored_record_count(idx).expect("delta count");
        assert!(
            delta < full,
            "date {idx}: delta {delta} not smaller than {full}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Figure 6 (CE probing) and Figure 7 (cloud fleet, mixed store/memory
/// sources) from the store equal the in-memory path.
#[test]
fn store_backed_ce_and_cloud_reports_are_byte_identical() {
    let universe = universe();
    let campaign = Campaign::new(&universe);
    let vantage = VantagePoint::main();

    let ce_options = CampaignOptions::ce_probing();
    let ce_reference = campaign.run_main(&ce_options, false);
    let ce_dir = temp_dir("ce");
    let ce_stored = campaign
        .run_snapshot_to_store(&vantage, &ce_options, false, &ce_dir)
        .expect("store CE snapshot");
    assert_eq!(
        figure6(&universe, &ce_stored).to_string(),
        figure6(&universe, &ce_reference.v4).to_string(),
        "figure6 diverged"
    );
    let _ = std::fs::remove_dir_all(&ce_dir);

    let options = CampaignOptions::paper_default();
    let main = campaign.run_main(&options, false);
    let cloud = campaign.run_cloud(&main.v4, None, &options);
    let main_dir = temp_dir("cloud-main");
    let stored_main = campaign
        .run_snapshot_to_store(&vantage, &options, false, &main_dir)
        .expect("store main snapshot");
    assert_eq!(
        figure7(&universe, &stored_main, &cloud).to_string(),
        figure7(&universe, &main.v4, &cloud).to_string(),
        "figure7 diverged"
    );
    let _ = std::fs::remove_dir_all(&main_dir);
}

/// A campaign killed mid-scan and resumed at a different worker count still
/// renders byte-identical reports, without re-scanning persisted hosts.
#[test]
fn resumed_campaign_reports_are_byte_identical() {
    let universe = universe();
    let campaign = Campaign::new(&universe);
    let options = CampaignOptions {
        workers: 1,
        ..CampaignOptions::paper_default()
    };
    let vantage = VantagePoint::main();
    let reference = campaign.run_snapshot(&vantage, &options, false);

    // Persist roughly half the population, then "die" (drop without finish).
    let population = universe.scan_population(false);
    let cut = population.len() / 2;
    let dir = temp_dir("resume");
    {
        let meta = SnapshotMeta::for_campaign(&options, &vantage, false);
        let mut writer = CampaignWriter::create(&dir, &meta)
            .expect("create store")
            .with_segment_capacity(32);
        let scanner = Scanner::new(
            &universe,
            vantage.clone(),
            ScanOptions {
                date: options.date,
                ipv6: false,
                probe: options.probe,
                trace_sample_probability: options.trace_sample_probability,
                workers: options.workers,
                seed: options.seed,
                cross_traffic: options.cross_traffic,
                retry: qem_core::RetryPolicy::none(),
            },
        );
        scan_into(&scanner, &population[..cut], |m| writer.append(m)).expect("stream scan");
    }

    // Resume with a different worker count: scheduling must not matter.
    let outcome = campaign
        .resume_snapshot_to_store(&dir, 4)
        .expect("resume campaign");
    assert!(
        outcome.skipped_hosts > 0,
        "resume must reuse persisted hosts"
    );
    assert_eq!(
        outcome.skipped_hosts + outcome.scanned_hosts,
        population.len()
    );
    assert_eq!(
        table1(&universe, &outcome.store).to_string(),
        table1(&universe, &reference).to_string(),
        "resumed table1 diverged"
    );
    assert_eq!(
        table5(&universe, &outcome.store, None).to_string(),
        table5(&universe, &reference, None).to_string(),
        "resumed table5 diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine-refactor acceptance bar: with `cross_traffic` off the scan is
/// byte-identical to the legacy single-flow drivers (also pinned against the
/// committed golden snapshot in `tests/golden_reports.rs`), while an enabled
/// scenario produces CE marks no single-flow run ever sees — and stays
/// deterministic across worker counts and repeated runs.
#[test]
fn cross_traffic_is_off_by_default_and_deterministic_when_on() {
    use qem_core::CrossTraffic;
    let universe = universe();

    // `paper_default` has the scenario disabled; spelling it out must not
    // change a single bit.
    let baseline = scan_with_workers(&universe, 1);
    let explicit_off = Scanner::new(
        &universe,
        VantagePoint::main(),
        ScanOptions {
            workers: 1,
            cross_traffic: CrossTraffic::none(),
            ..ScanOptions::paper_default(SnapshotDate::APR_2023)
        },
    )
    .scan_all();
    assert_eq!(baseline, explicit_off);

    // With a congested bottleneck the measured flows pick up CE marks that
    // the baseline (Ect0 probing, no shared queues) cannot produce outside
    // the pathological MarkAllCe paths.
    let loaded = |workers: usize| {
        Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                workers,
                cross_traffic: CrossTraffic::congested(),
                ..ScanOptions::paper_default(SnapshotDate::APR_2023)
            },
        )
        .scan_all()
    };
    let under_load = loaded(1);
    let mut hosts_gaining_ce = 0usize;
    for (solo, shared) in baseline.iter().zip(&under_load) {
        assert_eq!(solo.host_id, shared.host_id);
        let solo_ce = solo.quic.as_ref().map_or(0, |q| q.mirrored_counts.ce);
        let shared_ce = shared.quic.as_ref().map_or(0, |q| q.mirrored_counts.ce);
        if solo_ce == 0 && shared_ce > 0 {
            hosts_gaining_ce += 1;
        }
    }
    assert!(
        hosts_gaining_ce > 0,
        "shared bottlenecks must create CE marks single-flow runs do not"
    );

    // The scenario is still a pure function of its inputs: same results at
    // any worker count and on repeated runs (the engine's FIFO event order).
    assert_eq!(under_load, loaded(1), "repeated runs diverged");
    assert_eq!(under_load, loaded(4), "worker count changed loaded results");
}

#[test]
fn cloud_fleet_results_are_identical_across_worker_counts() {
    let universe = universe();
    let campaign = Campaign::new(&universe);
    let run = |workers: usize| {
        let options = CampaignOptions {
            workers,
            ..CampaignOptions::paper_default()
        };
        let main = campaign.run_main(&options, false);
        campaign.run_cloud(&main.v4, None, &options)
    };
    let baseline = run(1);
    let sharded = run(8);
    assert_eq!(baseline.len(), sharded.len());
    for ((v_a, snap_a, _), (v_b, snap_b, _)) in baseline.iter().zip(&sharded) {
        assert_eq!(v_a.name, v_b.name, "fleet order must be stable");
        assert_eq!(snap_a.hosts, snap_b.hosts, "vantage {} diverged", v_a.name);
    }
}
