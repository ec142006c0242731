//! What lets a scan worker replay a QUIC run instead of running it: over
//! every route a census builds, against every server behaviour the web
//! model produces, a run draws from its RNG only its endpoints'
//! connection-ID seeds ([`ConnectionRun::SEED_DRAWS`]), and what it returns
//! depends neither on those seeds, nor on the host's SNI, nor on the
//! addresses within a family.

use proptest::prelude::*;
use qem_netsim::TransitProfile;
use qem_netsim::{
    build_duplex_path, Asn, CrossTraffic, DuplexPath, FaultKind, FaultPlan, Hop, Path, Probability,
    Router,
};
use qem_quic::behavior::{EcnMirroringBehavior, ServerBehavior};
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, RunOutcome};
use qem_web::{SnapshotDate, StackProfile};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::net::IpAddr;

/// Every QUIC stack a host runs, one per variant.
const STACKS: [StackProfile; 11] = [
    StackProfile::CloudflareQuiche,
    StackProfile::FastlyQuicly,
    StackProfile::GoogleFrontend,
    StackProfile::GooglePepyakaProxy,
    StackProfile::GoogleEct1Remark,
    StackProfile::LiteSpeedEcnFlagOff,
    StackProfile::LiteSpeedEcnFlagOn,
    StackProfile::LiteSpeedNoEcn,
    StackProfile::S2nQuic,
    StackProfile::NginxNoEcn,
    StackProfile::GenericAccurate,
];

/// The index of `stack`'s variant in [`STACKS`].  A new variant does not
/// compile here until it is given the next index and listed.
fn stack_index(stack: StackProfile) -> usize {
    match stack {
        StackProfile::CloudflareQuiche => 0,
        StackProfile::FastlyQuicly => 1,
        StackProfile::GoogleFrontend => 2,
        StackProfile::GooglePepyakaProxy => 3,
        StackProfile::GoogleEct1Remark => 4,
        StackProfile::LiteSpeedEcnFlagOff => 5,
        StackProfile::LiteSpeedEcnFlagOn => 6,
        StackProfile::LiteSpeedNoEcn => 7,
        StackProfile::S2nQuic => 8,
        StackProfile::NginxNoEcn => 9,
        StackProfile::GenericAccurate => 10,
    }
}

/// Every distinct behaviour a stack shows on any snapshot date, for any
/// upgrade quantile (one that upgrades first, one midway, one that never
/// does), with and without ECN use and a `server` header; and each with the
/// mirroring the AWS Mumbai vantage point rewrites Google's hosts to.
fn behaviors() -> Vec<ServerBehavior> {
    let mut out: Vec<ServerBehavior> = Vec::new();
    for stack in STACKS {
        for date in SnapshotDate::longitudinal_range() {
            for quantile in [0.0, 0.5, 0.99] {
                for (uses_ecn, suppress_server_header) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let behavior =
                        stack.behavior_at(date, quantile, uses_ecn, suppress_server_header);
                    let rewrites = [
                        EcnMirroringBehavior::AlwaysCe,
                        EcnMirroringBehavior::MirrorOnlyHandshake,
                    ]
                    .map(|mirroring| ServerBehavior {
                        mirroring,
                        ..behavior.clone()
                    });
                    for behavior in [behavior].into_iter().chain(rewrites) {
                        if !out.contains(&behavior) {
                            out.push(behavior);
                        }
                    }
                }
            }
        }
    }
    out
}

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

/// The index of `transit`'s variant in [`TRANSITS`].
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

/// A census route: `transit` forward, a clean reverse, as a scan builds it.
fn census_route(vantage: Asn, transit: TransitProfile, v6: bool) -> DuplexPath {
    build_duplex_path(vantage, Asn(13335), transit, TransitProfile::Clean, v6)
}

/// Every route a census builds: each vantage AS, each transit, each family.
fn census_routes() -> Vec<(DuplexPath, bool)> {
    let mut out = Vec::new();
    for vantage in VANTAGE_ASNS {
        for transit in TRANSITS {
            for v6 in [false, true] {
                out.push((census_route(vantage, transit, v6), v6));
            }
        }
    }
    out
}

/// Both probe modes' client configurations for `sni`.
fn configs(sni: &str) -> [ClientConfig; 2] {
    [
        ClientConfig::paper_default(sni),
        ClientConfig::force_ce(sni),
    ]
}

fn addrs(v6: bool) -> (IpAddr, IpAddr) {
    if v6 {
        (
            "2001:db8:ffff::10".parse().unwrap(),
            "2001:db8:2::9".parse().unwrap(),
        )
    } else {
        (
            "192.0.2.10".parse().unwrap(),
            "198.51.100.80".parse().unwrap(),
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

/// How many draws one run of `config` against `behavior` over `path`
/// takes, under `cross` traffic.
fn draws(
    config: &ClientConfig,
    behavior: &ServerBehavior,
    path: &DuplexPath,
    v6: bool,
    cross: CrossTraffic,
) -> usize {
    let (client, server) = addrs(v6);
    let mut rng = Counting {
        rng: StdRng::seed_from_u64(42),
        draws: 0,
    };
    ConnectionRun::lent(
        config,
        behavior.clone(),
        path,
        DriverConfig::new(client, server),
    )
    .cross_traffic(cross)
    .execute(&mut rng);
    rng.draws
}

#[test]
fn a_run_draws_its_seeds_and_nothing_else_on_every_census_route() {
    assert_eq!(STACKS.map(stack_index), std::array::from_fn(|i| i));
    assert_eq!(TRANSITS.map(transit_index), [0, 1, 2, 3, 4]);
    let behaviors = behaviors();
    let routes = census_routes();
    for config in configs("www.host-0.example") {
        for behavior in &behaviors {
            for (path, v6) in &routes {
                assert_eq!(
                    draws(&config, behavior, path, *v6, CrossTraffic::none()),
                    ConnectionRun::SEED_DRAWS,
                    "{config:?} {behavior:?} {path:?}"
                );
            }
        }
    }
    // Controls: a lossy path and a loaded bottleneck each draw more.
    let [config, _] = configs("www.host-0.example");
    let accurate = ServerBehavior::accurate();
    let lossy = Path::new(vec![Hop::new(Router::transparent(1, Asn::DFN))]).with_fault(
        FaultPlan::new().always(FaultKind::Loss {
            rate: Probability::new(0.5),
        }),
    );
    let lossy = DuplexPath::new(lossy, Path::new(Vec::new()));
    assert!(
        draws(&config, &accurate, &lossy, false, CrossTraffic::none()) > ConnectionRun::SEED_DRAWS
    );
    let clean = census_route(Asn::DFN, TransitProfile::Clean, false);
    assert!(
        draws(&config, &accurate, &clean, false, CrossTraffic::congested())
            > ConnectionRun::SEED_DRAWS
    );
}

/// An RNG that yields `seeds` and nothing more: a run that draws beyond
/// them panics.
struct Seeds(std::vec::IntoIter<u64>);

impl RngCore for Seeds {
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("the run drew beyond its seeds")
    }
}

/// The outcome and engine tally of one run drawing `seeds`.
fn run(
    config: &ClientConfig,
    behavior: &ServerBehavior,
    path: &DuplexPath,
    (client, server): (IpAddr, IpAddr),
    seeds: Vec<u64>,
) -> RunOutcome {
    ConnectionRun::lent(
        config,
        behavior.clone(),
        path,
        DriverConfig::new(client, server),
    )
    .execute(&mut Seeds(seeds.into_iter()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// What lets a scan's QUIC memo leave the seeds, the SNI and the server
    /// address out of its key.
    #[test]
    fn the_outcome_does_not_depend_on_seeds_sni_or_addresses(
        seeds in proptest::collection::vec(any::<u64>(), ConnectionRun::SEED_DRAWS),
        host_id in prop_oneof![0..100_000usize, any::<usize>()],
        c4 in any::<u32>(),
        s4 in any::<u32>(),
        c6 in any::<u128>(),
        s6 in any::<u128>(),
        behavior in any::<usize>(),
        route in any::<usize>(),
        force_ce in any::<bool>(),
    ) {
        let behaviors = behaviors();
        let behavior = &behaviors[behavior % behaviors.len()];
        let routes = census_routes();
        let (path, v6) = &routes[route % routes.len()];
        let addrs_within = if *v6 {
            (IpAddr::V6(c6.into()), IpAddr::V6(s6.into()))
        } else {
            (IpAddr::V4(c4.into()), IpAddr::V4(s4.into()))
        };
        let config = |sni: &str| {
            let [ect0, ce] = configs(sni);
            if force_ce { ce } else { ect0 }
        };
        let sni = format!("www.host-{host_id}.example");
        let run_of = run(&config(&sni), behavior, path, addrs_within, seeds);
        let reference = run(&config("www.host-0.example"), behavior, path, addrs(*v6), vec![42, 7]);
        prop_assert_eq!(run_of.connection, reference.connection);
        prop_assert_eq!(run_of.engine, reference.engine);
    }
}
