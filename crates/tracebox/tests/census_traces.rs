//! What lets a scan worker replay a trace instead of running it: over every
//! route a census builds, a trace draws nothing from its RNG — every router
//! answers for certain — and its analysis depends neither on the RNG nor on
//! the destination within a family.

use qem_netsim::{build_transit_path, Asn, Path, TransitProfile};
use qem_tracebox::{analyze_trace, trace_path, PathVerdict, TraceAnalysis, TraceConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::net::IpAddr;

/// Every forward transit a census route is built with, one per variant.
const TRANSITS: [TransitProfile; 5] = [
    TransitProfile::Clean,
    TransitProfile::Clearing { asn: Asn::ARELION },
    TransitProfile::Remarking { asn: Asn::ARELION },
    TransitProfile::RemarkThenClear {
        first: Asn::ARELION,
        second: Asn::COGENT,
    },
    TransitProfile::MarkAllCe { asn: Asn::ARELION },
];

/// The index of `transit`'s variant in [`TRANSITS`].  A new variant does
/// not compile here until it is given the next index and listed.
fn transit_index(transit: TransitProfile) -> usize {
    match transit {
        TransitProfile::Clean => 0,
        TransitProfile::Clearing { .. } => 1,
        TransitProfile::Remarking { .. } => 2,
        TransitProfile::RemarkThenClear { .. } => 3,
        TransitProfile::MarkAllCe { .. } => 4,
    }
}

/// The ASes the main vantage point (DFN) and the 16 cloud vantage points
/// (AWS, Vultr) send from.
const VANTAGE_ASNS: [Asn; 3] = [Asn::DFN, Asn(16509), Asn::VULTR];

/// The scanner's client address and two servers, in one family.
fn addrs(v6: bool) -> (IpAddr, [IpAddr; 2]) {
    let parse = |s: &str| s.parse().unwrap();
    if v6 {
        (
            parse("2001:db8:ffff::10"),
            [parse("2001:db8:2::9"), parse("2001:db8:7::44")],
        )
    } else {
        (
            parse("192.0.2.10"),
            [parse("198.51.100.80"), parse("203.0.113.7")],
        )
    }
}

/// An RNG counting what is drawn from it: `StdRng` draws everything
/// through `next_u64`, as `RngCore`'s other methods do.
struct Counting {
    rng: StdRng,
    draws: usize,
}

impl RngCore for Counting {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// Trace `path` from `source` to `destination` over an RNG seeded with
/// `seed`: the analysis, with routers resolved to the AS the path gives
/// them, and the draws the trace took.
fn traced(path: &Path, source: IpAddr, destination: IpAddr, seed: u64) -> (TraceAnalysis, usize) {
    let mut rng = Counting {
        rng: StdRng::seed_from_u64(seed),
        draws: 0,
    };
    let trace = trace_path(path, source, destination, &TraceConfig::default(), &mut rng);
    let asn_of = |ip| {
        let hop = path.hops.iter().find(|hop| hop.router.address == ip)?;
        Some(hop.router.asn)
    };
    (analyze_trace(&trace, &asn_of), rng.draws)
}

#[test]
fn a_trace_draws_nothing_and_ignores_the_destination_on_every_census_route() {
    assert_eq!(TRANSITS.map(transit_index), [0, 1, 2, 3, 4]);
    for vantage in VANTAGE_ASNS {
        for transit in TRANSITS {
            for v6 in [false, true] {
                let path = build_transit_path(vantage, Asn(13335), transit, v6);
                let (source, destinations) = addrs(v6);
                let (first, _) = traced(&path, source, destinations[0], 1);
                for destination in destinations {
                    for seed in [1, 2] {
                        let (analysis, draws) = traced(&path, source, destination, seed);
                        let at = format!("{vantage:?} {transit:?} v6={v6} to {destination}");
                        assert_eq!(draws, 0, "{at}: a trace drew");
                        assert_eq!(analysis, first, "{at}: the analysis moved");
                    }
                }
                // Each trace sees its transit: an impaired one is seen as
                // impaired, and a clean one as unchanged.
                match transit {
                    TransitProfile::Clean => assert_eq!(first.verdict, PathVerdict::NoChange),
                    _ => assert!(first.is_impaired(), "{transit:?} v6={v6}: {first:?}"),
                }
            }
        }
    }
}
