//! Cross-crate property tests: invariants that must hold for *any* path,
//! server behaviour and loss pattern.

use proptest::prelude::*;
use qem_netsim::{
    build_transit_path, Asn, DuplexPath, EcnPolicy, Hop, Path, Probability, Router, TransitProfile,
};
use qem_packet::ecn::EcnCodepoint;
use qem_quic::ecn::EcnValidationState;
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, EcnMirroringBehavior, ServerBehavior};
use qem_tracebox::{analyze_trace, trace_path, TraceConfig};
use qem_web::AsOrgDb;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;

fn arb_transit() -> impl Strategy<Value = TransitProfile> {
    prop_oneof![
        Just(TransitProfile::Clean),
        Just(TransitProfile::Clearing { asn: Asn::ARELION }),
        Just(TransitProfile::Remarking { asn: Asn::ARELION }),
        Just(TransitProfile::RemarkThenClear {
            first: Asn::ARELION,
            second: Asn::COGENT
        }),
        Just(TransitProfile::MarkAllCe { asn: Asn(64500) }),
    ]
}

fn arb_mirroring() -> impl Strategy<Value = EcnMirroringBehavior> {
    prop_oneof![
        Just(EcnMirroringBehavior::None),
        Just(EcnMirroringBehavior::Accurate),
        Just(EcnMirroringBehavior::MirrorOnlyHandshake),
        Just(EcnMirroringBehavior::MirrorAsEct1),
        Just(EcnMirroringBehavior::AlwaysCe),
    ]
}

fn endpoints() -> (IpAddr, IpAddr) {
    (
        "192.0.2.10".parse().unwrap(),
        "198.51.100.99".parse().unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ECN validation must never succeed when the forward path impairs the
    /// codepoints or the server misreports them — the central guarantee the
    /// study relies on when interpreting "Capable".
    #[test]
    fn validation_never_passes_on_an_impaired_connection(
        transit in arb_transit(),
        mirroring in arb_mirroring(),
        seed in 0u64..1_000,
    ) {
        let (client_addr, server_addr) = endpoints();
        let path = DuplexPath::symmetric_clean_reverse(
            build_transit_path(Asn::DFN, Asn(16509), transit, false),
        );
        let behavior = ServerBehavior {
            mirroring,
            ..ServerBehavior::accurate()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("prop.example"),
            behavior,
            &path,
            DriverConfig::new(client_addr, server_addr),
        )
        .execute(&mut rng)
        .connection;
        let clean = matches!(transit, TransitProfile::Clean);
        let honest = matches!(mirroring, EcnMirroringBehavior::Accurate);
        if outcome.report.ecn_state == EcnValidationState::Capable {
            prop_assert!(clean && honest,
                "capable despite transit {transit:?} / mirroring {mirroring:?}");
        }
        // And the converse: a clean path with an honest server always validates.
        if clean && honest {
            prop_assert_eq!(outcome.report.ecn_state, EcnValidationState::Capable);
        }
    }

    /// The tracer never reports an impairment on a path whose routers all
    /// forward ECN untouched, regardless of ICMP behaviour and loss.
    #[test]
    fn tracebox_never_invents_impairments(
        hops in 1usize..12,
        silent_mask in any::<u16>(),
        seed in 0u64..1_000,
    ) {
        let (src, dst) = endpoints();
        let mut path_hops = Vec::new();
        for i in 0..hops {
            let mut router = Router::transparent(i as u32 + 1, Asn(100 + i as u32));
            if silent_mask & (1 << i) != 0 {
                router.icmp = qem_netsim::IcmpBehavior {
                    response_probability: Probability::new(0.0),
                    quote_bytes: 0,
                };
            }
            path_hops.push(Hop::new(router));
        }
        let path = Path::new(path_hops);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        let analysis = analyze_trace(&trace, &|_| None);
        prop_assert!(!analysis.is_impaired());
    }

    /// Whatever the per-hop policies are, the codepoint observed at the end
    /// of a path equals the composition of the policies — and the QUIC
    /// driver's ground-truth counter agrees with it.
    #[test]
    fn path_composition_matches_driver_ground_truth(
        policies in proptest::collection::vec(
            prop_oneof![
                Just(EcnPolicy::Pass),
                Just(EcnPolicy::ClearEcn),
                Just(EcnPolicy::RemarkEct0ToEct1),
                Just(EcnPolicy::RemarkEctToNotEct),
            ],
            1..8,
        ),
        seed in 0u64..1_000,
    ) {
        let (client_addr, server_addr) = endpoints();
        let hops: Vec<Hop> = policies
            .iter()
            .enumerate()
            .map(|(i, policy)| {
                Hop::new(Router::transparent(i as u32 + 1, Asn(200 + i as u32)).with_ecn_policy(*policy))
            })
            .collect();
        let forward = Path::new(hops);
        let expected = policies
            .iter()
            .fold(EcnCodepoint::Ect0, |ecn, policy| policy.apply(ecn));
        let path = DuplexPath::new(forward, Path::empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("compose.example"),
            ServerBehavior::accurate(),
            &path,
            DriverConfig::new(client_addr, server_addr),
        )
        .execute(&mut rng)
        .connection;
        let ground_truth = outcome.forward_arrival_ecn;
        match expected {
            EcnCodepoint::Ect0 => prop_assert!(ground_truth.ect0 > 0 && ground_truth.ect1 == 0),
            EcnCodepoint::Ect1 => prop_assert!(ground_truth.ect1 > 0 && ground_truth.ect0 == 0),
            EcnCodepoint::NotEct => prop_assert_eq!(ground_truth.total(), 0),
            EcnCodepoint::Ce => prop_assert!(ground_truth.ce > 0),
        }
    }
}

/// An address that agrees with one fixed anchor on a random number of
/// leading bits, so that announced prefixes nest and often hold the
/// addresses looked up.
fn arb_clustered_ip() -> impl Strategy<Value = IpAddr> {
    const ANCHOR: u128 = 0x2001_0db8_0a0b_0c0d_1122_3344_5566_7788;
    (any::<bool>(), any::<u128>(), 0u32..=128).prop_map(|(v6, noise, agree)| {
        if v6 {
            IpAddr::V6((ANCHOR ^ noise.checked_shr(agree).unwrap_or(0)).into())
        } else {
            let bits = (ANCHOR >> 96) as u32 ^ (noise as u32).checked_shr(agree / 4).unwrap_or(0);
            IpAddr::V4(bits.into())
        }
    })
}

/// The oracle's containment test: same family, and the first `len` bits of
/// `prefix` and `addr` agree, compared one bit at a time.
fn holds(prefix: IpAddr, len: u8, addr: IpAddr) -> bool {
    let (prefix, addr, width) = match (prefix, addr) {
        (IpAddr::V4(p), IpAddr::V4(a)) => (u32::from(p).into(), u32::from(a).into(), 32),
        (IpAddr::V6(p), IpAddr::V6(a)) => (u128::from(p), u128::from(a), 128),
        _ => return false,
    };
    let bit = |bits: u128, i: u8| (bits >> (width - 1 - i)) & 1;
    (0..len.min(width)).all(|i| bit(prefix, i) == bit(addr, i))
}

proptest! {
    /// `AsOrgDb`'s longest-prefix lookup answers what a linear scan over the
    /// kept announcements does, for nested prefixes of every length in both
    /// families; an identical prefix announced again keeps its first owner.
    #[test]
    fn longest_prefix_lookup_matches_a_linear_scan(
        announced in proptest::collection::vec((arb_clustered_ip(), 0u8..=128), 0..24),
        probes in proptest::collection::vec(arb_clustered_ip(), 0..24),
    ) {
        let mut db = AsOrgDb::new();
        // Every announcement the table kept: prefix, capped length, owner.
        let mut kept: Vec<(IpAddr, u8, Asn)> = Vec::new();
        for (i, &(prefix, len)) in announced.iter().enumerate() {
            let capped = len.min(if prefix.is_ipv4() { 32 } else { 128 });
            let first = kept
                .iter()
                .find(|&&(p, l, _)| l == capped && holds(p, l, prefix))
                .map(|&(_, _, owner)| owner);
            prop_assert_eq!(db.announce(prefix, len, Asn(i as u32)), first);
            if first.is_none() {
                kept.push((prefix, capped, Asn(i as u32)));
            }
        }
        for &(prefix, len, owner) in &kept {
            prop_assert_eq!(db.announce(prefix, len, Asn(u32::MAX)), Some(owner));
        }
        let oracle = |addr| {
            kept.iter()
                .filter(|&&(p, l, _)| holds(p, l, addr))
                .max_by_key(|&&(_, l, _)| l)
                .map(|&(_, _, owner)| owner)
        };
        for addr in probes.iter().copied().chain(announced.iter().map(|&(p, _)| p)) {
            prop_assert_eq!(db.asn_of_ip(addr), oracle(addr));
        }
    }
}
