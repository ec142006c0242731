//! Cross-crate tests for the network-layer analysis: Table 4 / Table 7 style
//! attribution of clearing and re-marking to the responsible transit AS.

use qem_core::reports::{table4, table7};
use qem_core::{Campaign, CampaignOptions, CloudProvider, VantagePoint};
use qem_netsim::{Asn, TransitProfile};
use qem_tracebox::{analyze_trace, trace_path, PathTrace, PathVerdict, TraceConfig};
use qem_web::{Host, Universe, UniverseConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

/// The unnamed network of the pathological device behind Table 5's four
/// "All CE" domains.
const ALL_CE_DEVICE: Asn = Asn(64699);

#[test]
fn clearing_is_concentrated_on_the_expected_providers() {
    let universe = Universe::generate(&UniverseConfig::default());
    let campaign = Campaign::new(&universe);
    let result = campaign.run_main(&CampaignOptions::paper_default(), false);
    let t4 = table4(&universe, &result.v4);

    // Paper §6.1: Server Central and A2 Hosting are (almost) fully behind
    // cleared paths, Cloudflare and Google are not affected at all.
    let a2 = t4.row("A2 Hosting").expect("A2 Hosting row");
    assert!(a2.cleared > 0);
    let cloudflare = t4.row("Cloudflare").expect("Cloudflare row");
    assert_eq!(cloudflare.cleared, 0);
    assert!(cloudflare.not_cleared > 0);
    let google = t4.row("Google").expect("Google row");
    assert_eq!(google.cleared, 0);

    // Overall, cleared domains are a small fraction (~2 %) of the
    // non-mirroring population.
    let (cleared, not_tested, not_cleared) = t4.totals;
    let total = cleared + not_tested + not_cleared;
    assert!(cleared > 0);
    assert!((cleared as f64) < 0.05 * total as f64);
    // With per-domain sampling, heavy-hitter IPs are almost always tested, so
    // the untested share stays small (paper: 72 k of 16.3 M).
    assert!((not_tested as f64) < 0.2 * total as f64);
}

#[test]
fn validation_failures_split_into_path_and_stack_causes() {
    let universe = Universe::generate(&UniverseConfig::default());
    let campaign = Campaign::new(&universe);
    let result = campaign.run_main(&CampaignOptions::paper_default(), false);
    let t7 = table7(&universe, &result.v4);

    // Re-marking failures are dominated by paths that visibly re-mark
    // ECT(0) → ECT(1); undercount failures show no path change at all
    // (they are a stack bug) — the core claim of §7.3.
    let remark_traced = t7.remarking.remarked_to_ect1.domains
        + t7.remarking.cleared_to_not_ect.domains
        + t7.remarking.unchanged_ect0.domains;
    assert!(remark_traced > 0);
    assert!(
        t7.remarking.remarked_to_ect1.domains * 2 > remark_traced,
        "most traced re-marking domains must show the path rewrite"
    );
    let undercount_traced = t7.undercount.remarked_to_ect1.domains
        + t7.undercount.cleared_to_not_ect.domains
        + t7.undercount.unchanged_ect0.domains;
    assert!(undercount_traced > 0);
    assert!(
        t7.undercount.unchanged_ect0.domains * 2 > undercount_traced,
        "undercounting must not be attributable to the network"
    );
}

/// The IPv4 trace from `vantage` to `host`.
fn trace_from(vantage: Asn, host: &Host, rng: &mut StdRng) -> PathTrace {
    let path = host.duplex_path_from(vantage, false);
    let source: IpAddr = "192.0.2.10".parse().unwrap();
    let destination = IpAddr::V4(host.ipv4);
    trace_path(
        &path.forward,
        source,
        destination,
        &TraceConfig::default(),
        rng,
    )
}

#[test]
fn every_observed_impairment_points_at_arelion() {
    let universe = Universe::generate(&UniverseConfig::default());
    let mut rng = StdRng::seed_from_u64(99);
    let (mut attributed, mut ce_marked) = (0, 0);
    // One QUIC host per route: every transit the landscape has, once.
    let mut routes = HashSet::new();
    for host in universe
        .hosts
        .iter()
        .filter(|h| h.stack.is_some() && routes.insert((h.asn, h.transit_v4)))
    {
        let trace = trace_from(Asn::DFN, host, &mut rng);
        let analysis = analyze_trace(&trace, &|ip| universe.as_org.asn_of_ip(ip));
        let involved = analysis.involved_asns();
        match analysis.verdict {
            PathVerdict::Cleared | PathVerdict::RemarkedToEct1 => {
                attributed += 1;
                assert!(
                    involved.contains(&Asn::ARELION),
                    "impairment on {} not attributed to AS1299",
                    host.ipv4
                );
            }
            PathVerdict::CeMarked => {
                ce_marked += 1;
                assert!(
                    involved.contains(&ALL_CE_DEVICE) && !involved.contains(&Asn::ARELION),
                    "CE marking on {} attributed to {involved:?}",
                    host.ipv4
                );
            }
            PathVerdict::NoChange | PathVerdict::Untested | PathVerdict::RemarkedToEct0 => {}
        }
    }
    assert!(attributed > 0, "the sample must contain impaired paths");
    assert!(ce_marked > 0, "the sample must contain the all-CE device");
}

#[test]
fn the_all_ce_device_is_attributed_to_its_own_as() {
    let universe = Universe::generate(&UniverseConfig::default());
    let host = universe
        .hosts
        .iter()
        .find(|h| matches!(h.transit_v4, TransitProfile::MarkAllCe { .. }))
        .expect("the landscape has an all-CE host");
    let trace = trace_from(
        VantagePoint::main().asn,
        host,
        &mut StdRng::seed_from_u64(5),
    );
    let analysis = analyze_trace(&trace, &|ip| universe.as_org.asn_of_ip(ip));
    assert_eq!(analysis.verdict, PathVerdict::CeMarked);
    assert_eq!(analysis.changes[0].attributed_asn(), Some(ALL_CE_DEVICE));
}

#[test]
fn a_trace_from_vultr_starts_in_vultr() {
    let universe = Universe::generate(&UniverseConfig::default());
    let vultr = VantagePoint::cloud_fleet()
        .into_iter()
        .find(|v| v.provider == CloudProvider::Vultr)
        .expect("the fleet has Vultr vantage points");
    let host = universe.hosts.iter().find(|h| h.stack.is_some()).unwrap();
    let trace = trace_from(vultr.asn, host, &mut StdRng::seed_from_u64(5));
    let first_two: Vec<_> = trace.hops[..2]
        .iter()
        .map(|hop| hop.router.and_then(|ip| universe.as_org.asn_of_ip(ip)))
        .collect();
    assert_eq!(first_two, [Some(Asn::VULTR); 2]);
}

/// Every router on every path a census can build — from the main vantage
/// point and the whole cloud fleet, to every host, both directions, both
/// families — resolves to the AS it belongs to.  (Host addresses:
/// `universe::tests::prefixes_resolve_back_to_their_org`.)
#[test]
fn every_router_resolves_to_its_own_as() {
    let vantages: Vec<_> = std::iter::once(VantagePoint::main())
        .chain(VantagePoint::cloud_fleet())
        .collect();
    assert_eq!(vantages.len(), 17);
    for config in [UniverseConfig::default(), UniverseConfig::tiny()] {
        let universe = Universe::generate(&config);
        let as_org = &universe.as_org;
        // One host per (host AS, transit, family): the key a path depends on.
        let mut routes = HashMap::new();
        for host in &universe.hosts {
            routes
                .entry((host.asn, host.transit_v4, false))
                .or_insert(host);
            if host.ipv6.is_some() {
                routes
                    .entry((host.asn, host.transit_v6, true))
                    .or_insert(host);
            }
        }
        let mut routers = 0;
        for vantage in &vantages {
            for (&(_, transit, v6), host) in &routes {
                let path = host.duplex_path_from(vantage.asn, v6);
                for router in path.forward.hops.iter().chain(&path.reverse.hops) {
                    let router = &router.router;
                    assert_eq!(
                        as_org.asn_of_ip(router.address),
                        Some(router.asn),
                        "{} on the {transit:?} path from {} to {}",
                        router.address,
                        vantage.name,
                        host.asn
                    );
                    routers += 1;
                }
            }
        }
        assert!(routers > 17 * 2 * routes.len());
    }
}
