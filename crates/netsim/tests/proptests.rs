//! Property-based tests for the path simulator.

mod support;

use proptest::prelude::*;
use qem_netsim::aqm::AqmDecision;
use qem_netsim::{
    Asn, DscpPolicy, EcnPolicy, FaultKind, FaultPlan, Hop, IcmpBehavior, OccupancyAqm, Path,
    Probability, QueueConfig, Router, SharedQueues, SimDuration, SimInstant, TransitOutcome,
};
use qem_packet::ecn::{Dscp, EcnCodepoint};
use qem_packet::icmp::write_time_exceeded;
use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol, Ipv4Header, Ipv6Header};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use support::oracle::{expected_arrival_ecn, has_ecn_impairment};

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

/// Remaining TTL / hop limit.
fn ttl(header: &IpHeader) -> u8 {
    match header {
        IpHeader::V4(h) => h.ttl,
        IpHeader::V6(h) => h.hop_limit,
    }
}

/// Destination address.
fn dst(header: &IpHeader) -> IpAddr {
    match header {
        IpHeader::V4(h) => h.dst.into(),
        IpHeader::V6(h) => h.dst.into(),
    }
}

/// A path through `policies`, losing each packet at its entry with
/// probability `loss`.
fn build_path(policies: &[EcnPolicy], loss: f64, silent: bool) -> Path {
    let path = Path::new(
        policies
            .iter()
            .enumerate()
            .map(|(i, policy)| {
                let mut router =
                    Router::transparent(i as u32 + 1, Asn(100 + i as u32)).with_ecn_policy(*policy);
                if silent {
                    router.icmp = IcmpBehavior {
                        response_probability: Probability::new(0.0),
                        quote_bytes: 0,
                    };
                }
                Hop::new(router).with_delay(SimDuration::from_millis(1 + i as u64))
            })
            .collect(),
    );
    if loss == 0.0 {
        return path;
    }
    path.with_fault(FaultPlan::new().always(FaultKind::Loss {
        rate: Probability::new(loss),
    }))
}

/// The hop loop as it was before it ran on three scalars: the header is read
/// and rewritten at every hop.  `Path::transit_shared` is held to it.
fn oracle_transit(
    path: &Path,
    datagram: IpDatagram,
    now: SimInstant,
    rng: &mut StdRng,
    queues: &mut SharedQueues,
) -> TransitOutcome {
    let mut current = datagram;
    let mut elapsed = SimDuration::ZERO;
    if !path.fault.is_empty() {
        let verdict = path.fault.apply(now, current.payload.len(), rng);
        queues.record_fault(&verdict);
        if verdict.drop.is_some() {
            return TransitOutcome::Dropped {
                at_hop: 0,
                body: current.payload,
            };
        }
        elapsed += verdict.extra_delay;
        if let Some(index) = verdict.corrupt_byte {
            current.payload[index] ^= 0x01;
        }
    }
    for (index, hop) in path.hops.iter().enumerate() {
        elapsed += hop.delay;
        let ttl_after = ttl(&current.header).saturating_sub(1);
        if ttl_after == 0 {
            let respond = hop.router.icmp.response_probability.get() > 0.0
                && rng.gen_bool(hop.router.icmp.response_probability.get());
            let response = respond
                .then(|| oracle_time_exceeded(&hop.router, &current))
                .flatten();
            let Some(response) = response else {
                return TransitOutcome::Expired {
                    at_hop: index,
                    body: current.payload,
                };
            };
            let return_delay: SimDuration = path.hops[..=index]
                .iter()
                .fold(SimDuration::ZERO, |acc, h| acc + h.delay);
            return TransitOutcome::TimeExceeded {
                at_hop: index,
                response,
                delay: elapsed + return_delay,
                body: current.payload,
            };
        }
        match &mut current.header {
            IpHeader::V4(h) => h.ttl = ttl_after,
            IpHeader::V6(h) => h.hop_limit = ttl_after,
        }
        let ecn_in = current.header.ecn();
        current.header.set_ecn(hop.router.ecn_policy.apply(ecn_in));
        let dscp_in = current.header.dscp();
        current
            .header
            .set_dscp(hop.router.dscp_policy.apply(dscp_in));
        if hop.router.ecn_policy == EcnPolicy::BleachTos {
            current.header.set_dscp(Dscp::BEST_EFFORT);
        }
        let (decision, wait) = queues.admit(hop.router.id, now, current.header.ecn(), rng);
        match decision {
            AqmDecision::Forward(ecn) => current.header.set_ecn(ecn),
            AqmDecision::Drop => {
                return TransitOutcome::Dropped {
                    at_hop: index,
                    body: current.payload,
                }
            }
        }
        elapsed += wait;
    }
    TransitOutcome::Delivered {
        datagram: current,
        delay: elapsed,
    }
}

/// The oracle's ICMP time-exceeded answer: the expired datagram's header as
/// it stands, then as much of its body as the router quotes.
fn oracle_time_exceeded(router: &Router, expired: &IpDatagram) -> Option<IpDatagram> {
    let v6 = expired.header.is_v6();
    let mut quote = Vec::new();
    expired.header.write(expired.payload.len(), &mut quote);
    let body = router.icmp.quote_bytes.saturating_sub(quote.len());
    quote.truncate(router.icmp.quote_bytes);
    quote.extend_from_slice(&expired.payload[..body.min(expired.payload.len())]);
    let protocol = if v6 {
        IpProtocol::Icmpv6
    } else {
        IpProtocol::Icmp
    };
    let mut message = Vec::new();
    write_time_exceeded(&mut message, v6, |buf| buf.extend_from_slice(&quote));
    IpDatagram::assemble(
        router.address,
        expired.header.src(),
        protocol,
        64,
        EcnCodepoint::NotEct,
        message,
    )
    .ok()
}

const ECN_POLICIES: [EcnPolicy; 7] = [
    EcnPolicy::Pass,
    EcnPolicy::ClearEcn,
    EcnPolicy::RemarkEct0ToEct1,
    EcnPolicy::RemarkEctToNotEct,
    EcnPolicy::MarkAllCe,
    EcnPolicy::BleachTos,
    EcnPolicy::EraseCe,
];

/// A path of `hops` hops laid out by `layout`: any ECN and DSCP policy, one
/// of four ICMP behaviours, a v4 or v6 router address (a v6 router cannot
/// answer a v4 sender), and a plan that loses at rate `loss` over a stretch
/// of the run and — when `faulted` — also loses, corrupts, jitters and
/// reorders throughout: empty when `loss` is 0 and `faulted` is not.
fn layout_path(layout: &mut StdRng, hops: usize, loss: f64, faulted: bool) -> Path {
    let hops = (1..=hops as u32)
        .map(|id| {
            let router = if layout.gen_bool(0.5) {
                Router::transparent(id, Asn(100 + id))
            } else {
                Router::transparent_v6(id, Asn(100 + id))
            };
            let dscp_policy = match layout.gen_range(0..3) {
                0 => DscpPolicy::Pass,
                1 => DscpPolicy::ResetToBestEffort,
                _ => DscpPolicy::Rewrite(Dscp::new(layout.gen_range(0..64u8))),
            };
            let icmp = match layout.gen_range(0..4) {
                0 => IcmpBehavior::responsive(),
                1 => IcmpBehavior {
                    response_probability: Probability::new(0.0),
                    quote_bytes: 0,
                },
                2 => IcmpBehavior {
                    response_probability: Probability::new(0.5),
                    ..IcmpBehavior::responsive()
                },
                _ => IcmpBehavior {
                    quote_bytes: 28,
                    ..IcmpBehavior::responsive()
                },
            };
            let router = Router {
                dscp_policy,
                icmp,
                ..router.with_ecn_policy(ECN_POLICIES[layout.gen_range(0..ECN_POLICIES.len())])
            };
            Hop::new(router).with_delay(SimDuration::from_micros(layout.gen_range(0..5_000u64)))
        })
        .collect();
    let mut plan = FaultPlan::new();
    if loss > 0.0 {
        // The run sends 512 datagrams about 200 µs apart: a stretch of up
        // to 60 ms from anywhere in its first 60 ms.
        let from = SimInstant::from_micros(layout.gen_range(0..60_000u64));
        let until = from + SimDuration::from_micros(layout.gen_range(0..60_000u64));
        let rate = Probability::new(loss);
        plan = plan.window(from, until, FaultKind::Loss { rate });
    }
    if faulted {
        plan = plan
            .always(FaultKind::Loss {
                rate: Probability::new(0.1),
            })
            .always(FaultKind::Corrupt {
                rate: Probability::new(0.3),
            })
            .always(FaultKind::Jitter {
                max: SimDuration::from_millis(1),
            })
            .always(FaultKind::Reorder {
                rate: Probability::new(0.2),
                extra: SimDuration::from_millis(3),
            });
    }
    Path::new(hops).with_fault(plan)
}

/// Shared queues at about a third of `path`'s hops, each pre-filled to a
/// random occupancy; the same `seed` builds the same queues.
fn seeded_queues(seed: u64, path: &Path) -> SharedQueues {
    let mut layout = StdRng::seed_from_u64(seed);
    let mut queues = SharedQueues::new();
    for hop in &path.hops {
        if layout.gen_bool(0.35) {
            let capacity = layout.gen_range(1..=24usize);
            let min = layout.gen_range(0..=8usize);
            let max = min + layout.gen_range(0..=16usize);
            let id = hop.router.id;
            queues.register(id, QueueConfig::bottleneck(capacity, min, max));
            for _ in 0..layout.gen_range(0..=capacity) {
                queues.admit(id, SimInstant::EPOCH, EcnCodepoint::Ect0, &mut layout);
            }
        }
    }
    queues
}

/// A UDP datagram of `len` body bytes with the given family and header
/// fields.
fn datagram_with(v6: bool, ttl: u8, ecn: EcnCodepoint, dscp: Dscp, len: usize) -> IpDatagram {
    let header = if v6 {
        let mut header = Ipv6Header::new(
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            Ipv6Addr::new(0x2001, 0xdb8, 2, 0, 0, 0, 0, 9),
            IpProtocol::Udp,
            ttl,
        )
        .with_ecn(ecn);
        header.dscp = dscp;
        IpHeader::V6(header)
    } else {
        let header = Ipv4Header::new(
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            IpProtocol::Udp,
            ttl,
        );
        IpHeader::V4(Ipv4Header {
            dscp,
            ..header.with_ecn(ecn)
        })
    };
    IpDatagram::new(header, (0..len).map(|i| i as u8).collect())
}

proptest! {
    /// The hop loop that carries TTL, ECN and DSCP as scalars is the
    /// per-hop header rewrite: over 0..=12 hops of every policy, ICMP
    /// behaviour and loss, pre-filled shared queues and faulted paths, v4
    /// and v6 datagrams of every codepoint and DSCP at TTL 1..=16 end the
    /// same — delivered header and body, drop hop, ICMP quote and delay —
    /// leave the RNG at the same draw, and leave the queues' counters equal.
    #[test]
    fn hop_loop_matches_the_per_hop_oracle(
        layout_seed in any::<u64>(),
        hops in 0usize..=12,
        loss in prop_oneof![Just(0.0), Just(0.3), Just(1.0)],
        faulted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut layout = StdRng::seed_from_u64(layout_seed);
        let path = layout_path(&mut layout, hops, loss, faulted);
        let queue_seed = layout.gen();
        let mut queues = seeded_queues(queue_seed, &path);
        let mut oracle_queues = seeded_queues(queue_seed, &path);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let mut now = SimInstant::EPOCH;
        for v6 in [false, true] {
            for ecn in EcnCodepoint::ALL {
                for dscp in (0..64).map(Dscp::new) {
                    let ttl = layout.gen_range(1..=16u8);
                    let sent = datagram_with(v6, ttl, ecn, dscp, layout.gen_range(0..160usize));
                    let expected =
                        oracle_transit(&path, sent.clone(), now, &mut oracle_rng, &mut oracle_queues);
                    let outcome = path.transit_shared(sent, now, &mut rng, &mut queues);
                    prop_assert_eq!(outcome, expected);
                    prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
                    now = now + SimDuration::from_micros(layout.gen_range(0..400u64));
                }
            }
        }
        prop_assert_eq!(queues.telemetry(), oracle_queues.telemetry());
    }
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
        let expected = expected_arrival_ecn(&path, sent);
        match outcome {
            TransitOutcome::Delivered { datagram, delay } => {
                prop_assert_eq!(datagram.header.ecn(), expected);
                prop_assert_eq!(delay, path.one_way_delay());
                prop_assert_eq!(ttl(&datagram.header), 64 - path.len() as u8);
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
            path.fault = std::mem::take(&mut path.fault)
                .always(FaultKind::Corrupt { rate: Probability::new(0.5) })
                .always(FaultKind::Loss { rate: Probability::new(0.1) });
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
        prop_assert_eq!(expected_arrival_ecn(&path, EcnCodepoint::NotEct), EcnCodepoint::NotEct);
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
                    prop_assert_eq!(dst(&response.header), "192.0.2.1".parse::<IpAddr>().unwrap());
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
            TransitOutcome::Dropped { at_hop: 0, .. }
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

    /// The ground truth and the simulator agree on which paths are impaired:
    /// a path with an impairing router changes at least one codepoint in
    /// transit, and any other path delivers every codepoint unchanged.
    #[test]
    fn a_path_is_impaired_iff_transit_changes_a_codepoint(
        policies in proptest::collection::vec(arb_policy(), 0..10),
        seed in any::<u64>(),
    ) {
        let path = build_path(&policies, 0.0, false);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut changed = false;
        for sent in EcnCodepoint::ALL {
            let outcome = path.transit(&datagram(64, sent), &mut rng);
            let (arrived, _) = outcome.delivered().expect("a lossless path delivers");
            changed |= arrived.header.ecn() != sent;
        }
        prop_assert_eq!(has_ecn_impairment(&path), changed);
    }

    /// DSCP rewrites never touch the ECN bits.
    #[test]
    fn dscp_policies_do_not_affect_ecn(sent in arb_ecn(), dscp in 0u8..64) {
        let path = Path::new(vec![Hop::new(
            Router {
                dscp_policy: DscpPolicy::Rewrite(qem_packet::ecn::Dscp::new(dscp)),
                ..Router::transparent(1, Asn(1))
            },
        )]);
        prop_assert_eq!(expected_arrival_ecn(&path, sent), sent);
    }
}
