//! The resilience acceptance bar: a census over a store with a corrupt
//! segment must complete — quarantining the damage, counting it in the run
//! telemetry — instead of panicking half-way through a report.

use qem_core::reports::{table1, table2};
use qem_core::vantage::VantagePoint;
use qem_core::{Campaign, CampaignOptions};
use qem_obs::RunTelemetry;
use qem_store::{CampaignStoreExt, StoreError, StoredSnapshot};
use qem_web::{Universe, UniverseConfig};
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qem-quarantined-census-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_census_over_a_corrupt_store_completes_with_quarantine_telemetry() {
    let universe = Universe::generate(&UniverseConfig::tiny());
    let campaign = Campaign::new(&universe);
    let dir = temp_dir("v4");
    let options = CampaignOptions {
        workers: 1,
        ..CampaignOptions::paper_default()
    };
    campaign
        .run_snapshot_to_store(&VantagePoint::main(), &options, false, &dir)
        .expect("store v4 snapshot");

    // Rot one segment on disk.
    let victim = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "qseg"))
        .min()
        .expect("campaign wrote at least one segment");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&victim, &bytes).unwrap();

    // The strict open refuses the store outright …
    assert!(matches!(
        StoredSnapshot::open(&dir),
        Err(StoreError::Corrupt(_))
    ));

    // … while the quarantining open degrades: the census runs to the end
    // over whatever survived, and the damage shows up as a counter.
    let (snapshot, report) = StoredSnapshot::open_quarantining(&dir).expect("degraded open");
    assert_eq!(report.quarantined_segments(), 1);

    let t1 = table1(&universe, &snapshot).to_string();
    let t2 = table2(&universe, &snapshot).to_string();
    assert!(!t1.is_empty() && !t2.is_empty());

    let mut telemetry = RunTelemetry::new();
    telemetry.insert_section("store", snapshot.quarantine_telemetry());
    let json = telemetry.to_json();
    assert!(
        json.contains("store.quarantine.segments"),
        "quarantine counter missing from run telemetry:\n{json}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
