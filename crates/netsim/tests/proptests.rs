//! Property-based tests for the path simulator.

use proptest::prelude::*;
use qem_netsim::aqm::AqmDecision;
use qem_netsim::{
    Asn, DscpPolicy, EcnPolicy, FaultKind, FaultPlan, Hop, IcmpBehavior, OccupancyAqm, Path,
    Router, SharedQueues, SimDuration, SimInstant, TransitOutcome,
};
use qem_packet::ecn::EcnCodepoint;
use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol, Ipv4Header};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

fn arb_policy() -> impl Strategy<Value = EcnPolicy> {
    prop_oneof![
        Just(EcnPolicy::Pass),
        Just(EcnPolicy::ClearEcn),
        Just(EcnPolicy::RemarkEct0ToEct1),
        Just(EcnPolicy::RemarkEctToNotEct),
        Just(EcnPolicy::MarkAllCe),
        Just(EcnPolicy::BleachTos),
    ]
}

fn arb_ecn() -> impl Strategy<Value = EcnCodepoint> {
    prop_oneof![
        Just(EcnCodepoint::NotEct),
        Just(EcnCodepoint::Ect0),
        Just(EcnCodepoint::Ect1),
        Just(EcnCodepoint::Ce),
    ]
}

fn datagram(ttl: u8, ecn: EcnCodepoint) -> IpDatagram {
    IpDatagram::new(
        IpHeader::V4(
            Ipv4Header::new(
                Ipv4Addr::new(192, 0, 2, 1),
                Ipv4Addr::new(203, 0, 113, 9),
                IpProtocol::Udp,
                ttl,
            )
            .with_ecn(ecn),
        ),
        vec![0xaa; 64],
    )
}

fn build_path(policies: &[EcnPolicy], loss: f64, silent: bool) -> Path {
    Path::new(
        policies
            .iter()
            .enumerate()
            .map(|(i, policy)| {
                let mut router =
                    Router::transparent(i as u32 + 1, Asn(100 + i as u32)).with_ecn_policy(*policy);
                if silent {
                    router = router.with_icmp(IcmpBehavior::silent());
                }
                Hop::new(router)
                    .with_delay(SimDuration::from_millis(1 + i as u64))
                    .with_loss(loss)
            })
            .collect(),
    )
}

proptest! {
    /// Policy application is a pure function: a lossless path always delivers
    /// and the arrival codepoint equals the composition of the policies.
    #[test]
    fn lossless_transit_matches_policy_composition(
        policies in proptest::collection::vec(arb_policy(), 0..10),
        sent in arb_ecn(),
        seed in any::<u64>(),
    ) {
        let path = build_path(&policies, 0.0, false);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = path.transit(&datagram(64, sent), &mut rng);
        let expected = path.expected_arrival_ecn(sent);
        match outcome {
            TransitOutcome::Delivered { datagram, delay } => {
                prop_assert_eq!(datagram.header.ecn(), expected);
                prop_assert_eq!(delay, path.one_way_delay());
                prop_assert_eq!(datagram.header.ttl(), 64 - path.len() as u8);
            }
            other => prop_assert!(false, "lossless path must deliver, got {other:?}"),
        }
    }

    /// Sending a datagram by value is sending a copy of it by reference:
    /// same outcome (delivered header and payload, ICMP response, drop hop),
    /// same RNG draws consumed — on clean, re-marking, lossy,
    /// faulted-with-corruption and TTL-expiring paths — and a delivered
    /// datagram still owns the body it was sent with.
    #[test]
    fn owned_transit_equals_borrowed_transit(
        policies in proptest::collection::vec(arb_policy(), 0..10),
        loss in prop_oneof![Just(0.0), Just(0.3)],
        faulted in any::<bool>(),
        ttl in prop_oneof![1u8..12, Just(64u8)],
        sent in arb_ecn(),
        seed in any::<u64>(),
    ) {
        let mut path = build_path(&policies, loss, false);
        if faulted {
            path = path.with_fault(
                FaultPlan::new()
                    .always(FaultKind::Corrupt { rate: 0.5 })
                    .always(FaultKind::Loss { rate: 0.1 }),
            );
        }
        let sent = datagram(ttl, sent);
        let mut borrowed_rng = StdRng::seed_from_u64(seed);
        let borrowed = path.transit(&sent, &mut borrowed_rng);

        let mut owned_rng = StdRng::seed_from_u64(seed);
        let body = sent.payload.as_ptr();
        let owned = path.transit_shared(
            sent,
            SimInstant::EPOCH,
            &mut owned_rng,
            &mut SharedQueues::new(),
        );
        if let TransitOutcome::Delivered { datagram, .. } = &owned {
            prop_assert_eq!(datagram.payload.as_ptr(), body);
        }
        prop_assert_eq!(owned, borrowed);
        prop_assert_eq!(owned_rng.gen::<u64>(), borrowed_rng.gen::<u64>());
    }

    /// A policy can never resurrect an ECN mark: once a packet is not-ECT it
    /// can only stay not-ECT on standards-following and bleaching routers.
    #[test]
    fn not_ect_never_becomes_ect(policies in proptest::collection::vec(arb_policy(), 0..10)) {
        let path = build_path(&policies, 0.0, false);
        prop_assert_eq!(path.expected_arrival_ecn(EcnCodepoint::NotEct), EcnCodepoint::NotEct);
    }

    /// TTL expiry happens at exactly the hop the TTL allows, and the ICMP
    /// response (when the router answers) travels back to the original sender.
    #[test]
    fn ttl_expiry_is_positional(
        hops in 1usize..10,
        ttl in 1u8..10,
        seed in any::<u64>(),
    ) {
        let policies = vec![EcnPolicy::Pass; hops];
        let path = build_path(&policies, 0.0, false);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = path.transit(&datagram(ttl, EcnCodepoint::Ect0), &mut rng);
        if (ttl as usize) <= hops {
            match outcome {
                TransitOutcome::TimeExceeded { at_hop, response, .. } => {
                    prop_assert_eq!(at_hop, ttl as usize - 1);
                    prop_assert_eq!(response.header.dst(), "192.0.2.1".parse::<std::net::IpAddr>().unwrap());
                    prop_assert_eq!(response.header.protocol(), IpProtocol::Icmp);
                }
                other => prop_assert!(false, "expected TimeExceeded, got {other:?}"),
            }
        } else {
            prop_assert!(outcome.is_delivered());
        }
    }

    /// Fully lossy paths never deliver; fully silent routers never answer.
    #[test]
    fn total_loss_and_silence(
        hops in 1usize..8,
        ttl in 1u8..6,
        seed in any::<u64>(),
    ) {
        let policies = vec![EcnPolicy::Pass; hops];
        let lossy = build_path(&policies, 1.0, false);
        let mut rng = StdRng::seed_from_u64(seed);
        let dropped_at_first_hop = matches!(
            lossy.transit(&datagram(64, EcnCodepoint::Ect0), &mut rng),
            TransitOutcome::Dropped { at_hop: 0 }
        );
        prop_assert!(dropped_at_first_hop);
        let silent = build_path(&policies, 0.0, true);
        if (ttl as usize) <= hops {
            let expired_silently = matches!(
                silent.transit(&datagram(ttl, EcnCodepoint::Ect0), &mut rng),
                TransitOutcome::Expired { .. }
            );
            prop_assert!(expired_silently);
        }
    }

    /// AQM decisions never invent an ECT mark out of not-ECT traffic and never
    /// turn marked traffic into not-ECT (they either forward, mark CE or drop),
    /// at any thresholds and any occupancy.
    #[test]
    fn aqm_preserves_mark_semantics(
        ecn in arb_ecn(),
        min_thresh in 0usize..32,
        span in 0usize..32,
        occupancy in 0usize..96,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let aqm = OccupancyAqm { min_thresh, max_thresh: min_thresh + span };
        match aqm.apply(ecn, occupancy, &mut rng) {
            AqmDecision::Forward(out) => {
                if ecn == EcnCodepoint::NotEct {
                    prop_assert_eq!(out, EcnCodepoint::NotEct);
                } else {
                    prop_assert!(out != EcnCodepoint::NotEct);
                }
            }
            AqmDecision::Drop => {
                prop_assert_eq!(ecn, EcnCodepoint::NotEct);
            }
        }
    }

    /// DSCP rewrites never touch the ECN bits.
    #[test]
    fn dscp_policies_do_not_affect_ecn(sent in arb_ecn(), dscp in 0u8..64) {
        let path = Path::new(vec![Hop::new(
            Router::transparent(1, Asn(1))
                .with_dscp_policy(DscpPolicy::Rewrite(qem_packet::ecn::Dscp::new(dscp))),
        )]);
        prop_assert_eq!(path.expected_arrival_ecn(sent), sent);
    }
}
