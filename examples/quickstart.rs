//! Quickstart: one ECN-validating QUIC connection over a clean path and over
//! an Arelion-style re-marking path.
//!
//! Run with: `cargo run --example quickstart`

use qem_netsim::{build_transit_path, Asn, DuplexPath, TransitProfile};
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, ServerBehavior};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;

fn probe(label: &str, profile: TransitProfile, behavior: ServerBehavior) {
    let client: IpAddr = "192.0.2.10".parse().unwrap();
    let server: IpAddr = "198.51.100.80".parse().unwrap();
    let path = DuplexPath::symmetric_clean_reverse(build_transit_path(
        Asn::DFN,
        Asn(16509),
        profile,
        false,
    ));
    let mut rng = StdRng::seed_from_u64(1);
    let outcome = ConnectionRun::new(
        ClientConfig::paper_default("www.example.org"),
        behavior,
        &path,
        DriverConfig::new(client, server),
    )
    .execute(&mut rng)
    .connection;
    let report = outcome.report;
    println!("--- {label} ---");
    println!("  connected:        {}", report.connected);
    println!(
        "  server header:    {}",
        report
            .response
            .as_ref()
            .and_then(|r| r.server.as_deref())
            .unwrap_or("<none>")
    );
    println!("  sent codepoints:  {}", report.sent_counts);
    println!("  mirrored counts:  {}", report.mirrored_counts);
    println!("  ECN validation:   {:?}", report.ecn_state);
    println!(
        "  forward arrivals: {} (ground truth at the server)",
        outcome.forward_arrival_ecn
    );
    println!();
}

fn main() {
    println!("ECN with QUIC — quickstart\n");
    probe(
        "clean path, correctly mirroring server (validation succeeds)",
        TransitProfile::Clean,
        ServerBehavior::accurate().with_server_header("Caddy/2.7"),
    );
    probe(
        "clean path, server without ECN support (no mirroring)",
        TransitProfile::Clean,
        ServerBehavior::no_mirroring().with_server_header("cloudflare"),
    );
    probe(
        "AS1299-style ECT(0)->ECT(1) re-marking path (validation fails)",
        TransitProfile::Remarking { asn: Asn::ARELION },
        ServerBehavior::accurate().with_server_header("LiteSpeed"),
    );
    probe(
        "AS1299-style ToS bleaching path (marks never arrive)",
        TransitProfile::Clearing { asn: Asn::ARELION },
        ServerBehavior::accurate().with_server_header("LiteSpeed"),
    );
}
