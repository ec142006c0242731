//! Byte-identity gate for the report pipeline.
//!
//! Every table and figure of the paper, rendered from a tiny-universe
//! campaign, must match the committed golden snapshot byte for byte.  This is
//! what lets refactors of the connection drivers (e.g. moving them onto the
//! discrete-event engine) prove that the default measurement path is
//! untouched: any behavioural drift — an extra RNG draw, a reordered transit,
//! a changed timer — shows up here as a diff.
//!
//! To regenerate after an *intentional* change to the universe or the report
//! formats, run:
//!
//! ```text
//! QEM_UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and commit the updated `tests/data/golden_reports_tiny.txt` together with
//! the change that motivated it.

use qem_core::reports::{
    figure3, figure4, figure5, figure6, figure7, table1, table2, table3, table4, table5, table6,
    table7,
};
use qem_core::{Campaign, CampaignOptions};
use qem_netsim::{build_transit_path, Asn, DuplexPath, TransitProfile};
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, ServerBehavior};
use qem_web::{SnapshotDate, Universe, UniverseConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_reports_tiny.txt")
}

fn golden_engine_metrics_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_engine_metrics.txt")
}

fn golden_workload_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_workload_report.txt")
}

fn golden_chaos_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_chaos_report.txt")
}

fn golden_scan_metrics_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_scan_metrics_tiny.txt")
}

/// Render every table and figure the acceptance criteria name (Tables 1–7,
/// Figures 3–8; Figure 8 shares its builder with Figure 4) into one string.
fn render_all_reports() -> String {
    let universe = Universe::generate(&UniverseConfig::tiny());
    let campaign = Campaign::new(&universe);
    let options = CampaignOptions {
        workers: 1,
        ..CampaignOptions::paper_default()
    };

    let main = campaign.run_main(&options, true);
    let v6 = main.v6.as_ref().expect("IPv6 snapshot requested");

    let longitudinal = campaign.run_longitudinal(
        &[
            SnapshotDate::JUN_2022,
            SnapshotDate::FEB_2023,
            SnapshotDate::APR_2023,
        ],
        &options,
    );

    let ce_options = CampaignOptions {
        workers: 1,
        ..CampaignOptions::ce_probing()
    };
    let ce = campaign.run_main(&ce_options, false);

    let cloud = campaign.run_cloud(&main.v4, None, &options);

    let mut out = String::new();
    writeln!(out, "{}", table1(&universe, &main.v4)).unwrap();
    writeln!(out, "{}", table2(&universe, &main.v4)).unwrap();
    writeln!(out, "{}", table3(&universe, &main.v4)).unwrap();
    writeln!(out, "{}", table4(&universe, &main.v4)).unwrap();
    writeln!(out, "{}", table5(&universe, &main.v4, main.v6.as_ref())).unwrap();
    writeln!(out, "{}", table6(&universe, &main.v4)).unwrap();
    writeln!(out, "{}", table7(&universe, &main.v4)).unwrap();
    writeln!(out, "{}", figure3(&universe, &longitudinal)).unwrap();
    writeln!(out, "{}", figure4(&universe, &longitudinal)).unwrap();
    writeln!(out, "{}", figure5(&universe, &main.v4, v6)).unwrap();
    writeln!(out, "{}", figure6(&universe, &ce.v4)).unwrap();
    writeln!(out, "{}", figure7(&universe, &main.v4, &cloud)).unwrap();
    out
}

/// One clean-path single-flow engine run (the driver's canonical "capable"
/// scenario), rendered as its metrics JSON plus the virtual-time wake trace.
fn render_engine_metrics() -> String {
    let path = DuplexPath::symmetric_clean_reverse(build_transit_path(
        Asn::DFN,
        Asn(16509),
        TransitProfile::Clean,
        false,
    ));
    let client_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10));
    let server_addr = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 80));
    let mut rng = StdRng::seed_from_u64(1);
    let run = ConnectionRun::new(
        ClientConfig::paper_default("www.example.org"),
        ServerBehavior::accurate(),
        &path,
        DriverConfig::new(client_addr, server_addr),
    )
    .telemetry(true)
    .execute(&mut rng);
    let telemetry = run.telemetry.expect("telemetry was requested");
    assert!(
        run.connection.report.connected,
        "the golden scenario must connect"
    );

    let mut out = String::new();
    writeln!(out, "{}", telemetry.metrics.to_json()).unwrap();
    for wake in &telemetry.trace {
        writeln!(out, "wake flow={} at_us={}", wake.flow, wake.at.as_micros()).unwrap();
    }
    out
}

fn check_golden(path: PathBuf, rendered: &str) {
    if std::env::var_os("QEM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("data dir")).expect("create data dir");
        std::fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden snapshot missing — run with QEM_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        golden, rendered,
        "output drifted from the golden snapshot; if the change is \
         intentional, regenerate with QEM_UPDATE_GOLDEN=1"
    );
}

/// The cross-variant workload comparison of the default netbench scenario
/// at the example's default seed — exactly what `examples/netbench.rs`
/// prints, so the snapshot also pins the example's output.
fn render_workload_comparison() -> String {
    qem_workload::Scenario::netbench_default(7)
        .run_all()
        .to_string()
}

#[test]
fn reports_match_golden_snapshot() {
    check_golden(golden_path(), &render_all_reports());
}

#[test]
fn workload_comparison_matches_golden_snapshot() {
    check_golden(golden_workload_path(), &render_workload_comparison());
}

/// The two fault scenarios at the chaos example's default seed — exactly
/// what `examples/chaos.rs` prints, so the snapshot pins the example's
/// output (fault-injection counter section included) across refactors of
/// the fault plans, the engine, and the schedulers.
fn render_chaos_report() -> String {
    let mut out = String::new();
    for scenario in [
        qem_workload::Scenario::lossy_bottleneck(7),
        qem_workload::Scenario::flapping_link(7),
    ] {
        writeln!(out, "{}", scenario.run_all()).unwrap();
    }
    out
}

#[test]
fn chaos_report_matches_golden_snapshot() {
    check_golden(golden_chaos_path(), &render_chaos_report());
}

/// The telemetry document of the main campaign (IPv4 + IPv6) on the tiny
/// universe: every metric name, kind and value of the scan — zero-count
/// rows and empty histograms included.
fn render_scan_metrics(workers: usize) -> String {
    let universe = Universe::generate(&UniverseConfig::tiny());
    let options = CampaignOptions {
        workers,
        ..CampaignOptions::paper_default()
    };
    let (_, telemetry) = Campaign::new(&universe).run_main_with_telemetry(&options, true);
    telemetry.to_json()
}

#[test]
fn scan_metrics_match_golden_snapshot_at_one_worker_and_every_core() {
    for workers in [1, 0] {
        check_golden(golden_scan_metrics_path(), &render_scan_metrics(workers));
    }
}

#[test]
fn engine_metrics_match_golden_snapshot() {
    check_golden(golden_engine_metrics_path(), &render_engine_metrics());
}
