//! The main-vantage-point census (paper §5 and §7): scans the synthetic
//! com/net/org and toplist populations via IPv4 and IPv6 and regenerates
//! Tables 1, 2, 3, 5 and 6 plus Figure 5 and the §5.1 parking check.
//!
//! Run with: `cargo run --release --example census`
//!
//! Options:
//!
//! * `--workers <n>` — worker-thread budget (`0` = one per core; the
//!   default).  The output is byte-identical for every value — CI's
//!   `determinism-gate` job diffs a `--workers 1` run against `--workers 0`.
//! * `--tiny` — use the tiny test universe instead of the default 1:1000 scale
//!   (what CI runs to keep the gate fast).
//! * `--metrics` — print the run's telemetry (deterministic scan metrics as
//!   JSON on stdout; wall-clock throughput on stderr, where it cannot
//!   perturb the determinism gate's byte diff).

use qem_core::reports::{figure5, table1, table2, table3, table5, table6};
use qem_core::{Campaign, CampaignOptions};
use qem_obs::{RateMeter, WallClock};
use qem_web::{parking, Universe, UniverseConfig};

fn parse_args() -> (usize, bool, bool) {
    let mut workers = 0usize;
    let mut tiny = false;
    let mut metrics = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--workers requires a number");
                    std::process::exit(2);
                });
                workers = value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid worker count: {value}");
                    std::process::exit(2);
                });
            }
            "--tiny" => tiny = true,
            "--metrics" => metrics = true,
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --workers <n>, --tiny or --metrics)"
                );
                std::process::exit(2);
            }
        }
    }
    (workers, tiny, metrics)
}

fn main() {
    let (workers, tiny, metrics) = parse_args();
    let config = if tiny {
        UniverseConfig::tiny()
    } else {
        UniverseConfig::default()
    };
    println!(
        "generating universe (scale 1:{}) ...",
        (1.0 / config.scale).round() as u64
    );
    let universe = Universe::generate(&config);
    println!(
        "  {} domains, {} hosts, {} providers\n",
        universe.domains.len(),
        universe.hosts.len(),
        universe.providers.len()
    );

    let campaign = Campaign::new(&universe);
    println!("running main vantage point campaign (IPv4 + IPv6, week 15/13 2023) ...\n");
    let options = CampaignOptions {
        workers,
        ..CampaignOptions::paper_default()
    };
    let clock = WallClock::new();
    let meter = RateMeter::start(&clock);
    let (result, telemetry) = campaign.run_main_with_telemetry(&options, true);
    let elapsed = meter.elapsed_micros(&clock);

    println!("{}", table1(&universe, &result.v4));
    println!("{}", table2(&universe, &result.v4));
    println!("{}", table3(&universe, &result.v4));
    println!("{}", table5(&universe, &result.v4, result.v6.as_ref()));
    println!("{}", table6(&universe, &result.v4));
    if let Some(v6) = &result.v6 {
        println!("{}", figure5(&universe, &result.v4, v6));
    }

    let (parked, share) = parking::parked_quic_share(&universe);
    println!(
        "Parking check (§5.1): {parked} QUIC com/net/org domains parked ({:.2} % — paper: 0.6 %)",
        share * 100.0
    );

    if metrics {
        // Deterministic telemetry → stdout (part of the byte-diffed output);
        // wall-clock throughput → stderr (varies run to run, by design).
        print!("{}", telemetry.to_json());
        let hosts = telemetry
            .section("scan.v4")
            .and_then(|s| s.counter("scan.hosts"))
            .unwrap_or(0)
            + telemetry
                .section("scan.v6")
                .and_then(|s| s.counter("scan.hosts"))
                .unwrap_or(0);
        eprintln!(
            "scanned {hosts} hosts in {:.2}s ({:.0} hosts/sec wall clock)",
            elapsed as f64 / 1e6,
            meter.per_second(&clock, hosts)
        );
    }
}
