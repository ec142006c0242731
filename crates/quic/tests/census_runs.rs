//! What lets a scan worker replay a QUIC run instead of running it: over
//! every route a census builds, against every server behaviour the web
//! model produces, a run draws from its RNG only its endpoints'
//! connection-ID seeds ([`ConnectionRun::SEED_DRAWS`]), and what it returns
//! depends on the route only through what the route does to a packet
//! ([`DuplexPath::effect`]) — not on its ASes, hop count or delays — and
//! neither on those seeds, nor on the host's SNI, nor on the addresses
//! within a family.

use proptest::prelude::*;
use qem_netsim::TransitProfile;
use qem_netsim::{
    build_duplex_path, Asn, CrossTraffic, DuplexPath, EcnPolicy, FaultKind, FaultPlan, Hop, Path,
    PathEffect, Probability, Router, SimDuration,
};
use qem_packet::ecn::EcnCodepoint;
use qem_quic::behavior::{EcnMirroringBehavior, ServerBehavior};
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, RunOutcome};
use qem_web::{SnapshotDate, StackProfile};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::net::IpAddr;
use std::sync::OnceLock;

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
/// Listed once per test binary: every proptest case reads it.
fn behaviors() -> &'static [ServerBehavior] {
    static BEHAVIORS: OnceLock<Vec<ServerBehavior>> = OnceLock::new();
    BEHAVIORS.get_or_init(distinct_behaviors)
}

fn distinct_behaviors() -> Vec<ServerBehavior> {
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
fn census_route(vantage: Asn, destination: Asn, transit: TransitProfile, v6: bool) -> DuplexPath {
    build_duplex_path(vantage, destination, transit, TransitProfile::Clean, v6)
}

/// Every route a census builds to one destination AS: each vantage AS,
/// each transit, each family.
fn census_routes() -> Vec<(DuplexPath, bool)> {
    routes_to(&[Asn(13335)])
}

/// Every route from each vantage AS to each of `destinations`, over each
/// transit, in each family.
fn routes_to(destinations: &[Asn]) -> Vec<(DuplexPath, bool)> {
    let mut out = Vec::new();
    for vantage in VANTAGE_ASNS {
        for &destination in destinations {
            for transit in TRANSITS {
                for v6 in [false, true] {
                    out.push((census_route(vantage, destination, transit, v6), v6));
                }
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

/// What the keep rule refuses: a run over a lossy path, or through a loaded
/// bottleneck, draws beyond its seeds.  (That every census route draws only
/// the seeds is checked by `routes_with_one_effect_give_one_run`.)
#[test]
fn a_lossy_path_or_a_loaded_bottleneck_draws_beyond_the_seeds() {
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
    let clean = census_route(Asn::DFN, Asn(13335), TransitProfile::Clean, false);
    assert!(
        draws(&config, &accurate, &clean, false, CrossTraffic::congested())
            > ConnectionRun::SEED_DRAWS
    );
}

/// The runs of both probe modes against each of `behaviors` over `path`,
/// each of which draws its seeds and nothing else and returns no telemetry.
fn runs(behaviors: &[ServerBehavior], path: &DuplexPath, v6: bool) -> Vec<RunOutcome> {
    let (client, server) = addrs(v6);
    let mut out = Vec::new();
    for config in configs("www.host-0.example") {
        for behavior in behaviors {
            let mut rng = Counting {
                rng: StdRng::seed_from_u64(42),
                draws: 0,
            };
            let run = ConnectionRun::lent(
                &config,
                behavior.clone(),
                path,
                DriverConfig::new(client, server),
            )
            .execute(&mut rng);
            assert_eq!(
                rng.draws,
                ConnectionRun::SEED_DRAWS,
                "{config:?} {behavior:?} {path:?}"
            );
            assert!(run.telemetry.is_none(), "{config:?} {behavior:?}");
            out.push(run);
        }
    }
    out
}

/// What lets a scan's QUIC memo key a run by the effect of its route: the
/// routes from every vantage AS to four ASes the web model's providers
/// announce, over every transit, in both families, and one more with the
/// effect of a census route but hops and delays of its own, fall into
/// groups of one effect each, and within a group every behaviour gives one
/// outcome and one engine tally under both probe modes.
#[test]
fn routes_with_one_effect_give_one_run() {
    // Every stack and every transit is listed.
    assert_eq!(STACKS.map(stack_index), std::array::from_fn(|i| i));
    assert_eq!(TRANSITS.map(transit_index), [0, 1, 2, 3, 4]);
    let landscape = qem_web::default_landscape();
    let destinations: Vec<Asn> = landscape.providers.iter().map(|p| p.asn).take(4).collect();
    assert_eq!(destinations.len(), 4);
    let mut routes = routes_to(&destinations);
    // The five transits are five effects in each family.
    for v6 in [false, true] {
        let effects: Vec<PathEffect> = TRANSITS
            .map(|transit| census_route(Asn::DFN, destinations[0], transit, v6).effect())
            .to_vec();
        for (i, effect) in effects.iter().enumerate() {
            assert!(!effects[..i].contains(effect), "{:?}", TRANSITS[i]);
        }
    }
    // Four hops of uneven delays that re-mark ECT(0), and a clean reverse
    // of two: the effect of a re-marking census route, and a run that read
    // the path's length or its delays would show it.
    let ms = SimDuration::from_millis;
    let remarking = census_route(
        Asn::DFN,
        destinations[0],
        TransitProfile::Remarking { asn: Asn::ARELION },
        false,
    );
    let uneven = DuplexPath::new(
        Path::new(vec![
            Hop::new(Router::transparent(1, Asn::DFN)).with_delay(ms(1)),
            Hop::new(Router::transparent(2, Asn::COGENT)).with_delay(ms(40)),
            Hop::new(
                Router::transparent(3, Asn::COGENT).with_ecn_policy(EcnPolicy::RemarkEct0ToEct1),
            )
            .with_delay(ms(17)),
            Hop::new(Router::transparent(4, destinations[1])).with_delay(ms(2)),
        ]),
        Path::new(vec![
            Hop::new(Router::transparent(5, destinations[1])).with_delay(ms(9)),
            Hop::new(Router::transparent(6, Asn::DFN)).with_delay(ms(30)),
        ]),
    );
    assert_eq!(uneven.effect(), remarking.effect());
    assert_ne!(uneven.forward.len(), remarking.forward.len());
    assert_ne!(uneven.rtt(), remarking.rtt());
    routes.push((uneven, false));

    let behaviors = behaviors();
    // Each route's runs, the two halves of the routes on two threads.
    let route_runs: Vec<Vec<RunOutcome>> = std::thread::scope(|scope| {
        let halves: Vec<_> = routes
            .chunks(routes.len().div_ceil(2))
            .map(|half| {
                scope.spawn(move || {
                    let runs = |(path, v6): &(DuplexPath, bool)| runs(behaviors, path, *v6);
                    half.iter().map(runs).collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|half| half.join().expect("a route's runs panicked"))
            .collect()
    });
    let mut groups: Vec<(PathEffect, Vec<RunOutcome>)> = Vec::new();
    for ((path, _), runs) in routes.iter().zip(route_runs) {
        // A flow sends at TTL 64: the effect holds where nothing expires.
        assert!(path.forward.len() < 64 && path.reverse.len() < 64);
        let effect = path.effect();
        match groups.iter().find(|(kept, _)| *kept == effect) {
            None => groups.push((effect, runs)),
            Some((_, first)) => {
                for (i, (run, first)) in runs.iter().zip(first).enumerate() {
                    let behavior = &behaviors[i % behaviors.len()];
                    assert_eq!(run.connection, first.connection, "{behavior:?} {path:?}");
                    assert_eq!(run.engine, first.engine, "{behavior:?} {path:?}");
                }
            }
        }
    }
    assert_eq!(groups.len(), TRANSITS.len());

    // Control: the reverse half of the effect is needed.  A reverse that
    // clears ECN under the same forward direction is another effect, and a
    // server that sets ECT on what it sends is seen otherwise.
    let clean = census_route(Asn::DFN, destinations[0], TransitProfile::Clean, false);
    let clearing_reverse = DuplexPath::new(
        clean.forward.clone(),
        Path::new(vec![Hop::new(
            Router::transparent(9, Asn::DFN).with_ecn_policy(EcnPolicy::ClearEcn),
        )]),
    );
    assert_ne!(clearing_reverse.effect(), clean.effect());
    let ecn_user = behaviors
        .iter()
        .find(|behavior| behavior.egress_ecn != EcnCodepoint::NotEct)
        .unwrap();
    let run = |path| runs(std::slice::from_ref(ecn_user), path, false).remove(0);
    assert_ne!(run(&clearing_reverse).connection, run(&clean).connection);
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
