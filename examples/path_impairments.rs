//! Network-layer analysis (paper §6.1 and §7.3): tracebox the hosts that show
//! abnormal ECN behaviour and regenerate Table 4 (codepoint clearing per AS)
//! and Table 7 (validation failures vs. visible path impact), plus one fully
//! printed trace for illustration.
//!
//! Run with: `cargo run --release --example path_impairments`

use qem_core::reports::{table4, table7};
use qem_core::{Campaign, CampaignOptions};
use qem_netsim::{build_duplex_path, Asn, TransitProfile};
use qem_tracebox::{analyze_trace, trace_path, TraceConfig};
use qem_web::{Universe, UniverseConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;

fn main() {
    let universe = Universe::generate(&UniverseConfig::default());
    let campaign = Campaign::new(&universe);
    println!("running main vantage point campaign (IPv4) ...\n");
    let result = campaign.run_main(&CampaignOptions::paper_default(), false);

    println!("{}", table4(&universe, &result.v4));
    println!("{}", table7(&universe, &result.v4));

    // Illustrative single trace towards a host behind a re-marking path.
    if let Some(host) = universe
        .hosts
        .iter()
        .find(|h| matches!(h.transit_v4, TransitProfile::Remarking { .. }))
    {
        let path = build_duplex_path(
            Asn::DFN,
            host.asn,
            host.transit_v4,
            TransitProfile::Clean,
            false,
        );
        let source: IpAddr = "192.0.2.10".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let trace = trace_path(
            &path.forward,
            source,
            IpAddr::V4(host.ipv4),
            &TraceConfig::default(),
            &mut rng,
        );
        println!(
            "Sample trace towards {} ({}):",
            host.ipv4, universe.providers[host.provider].name
        );
        for hop in &trace.hops {
            match (hop.router, hop.observed_ecn) {
                (Some(router), Some(ecn)) => println!(
                    "  ttl {:>2}  {:<18} {:<24} quoted ECN: {}",
                    hop.ttl,
                    router,
                    universe.as_org.org_of_ip(router),
                    ecn
                ),
                _ => println!("  ttl {:>2}  *  (timeout)", hop.ttl),
            }
        }
        let analysis = analyze_trace(&trace, &|ip| universe.as_org.asn_of_ip(ip));
        println!("  verdict: {:?}", analysis.verdict);
        for change in &analysis.changes {
            println!(
                "  change {} -> {} first visible at ttl {} (attributed to {})",
                change.from,
                change.to,
                change.visible_at_ttl,
                change
                    .attributed_asn()
                    .map(|asn| universe.as_org.org_name_or_asn(asn))
                    .unwrap_or_else(|| "<unknown>".to_string())
            );
        }
    }
}
