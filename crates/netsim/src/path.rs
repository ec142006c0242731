//! Forwarding paths: ordered router hops that forward, rewrite, drop or
//! answer packets with ICMP.
//!
//! Hops are lossless: a hop drops a packet only when its router's shared
//! egress queue does.  Random loss, like every other scheduled impairment,
//! is a [`FaultPlan`] window applied once, at path entry.
//!
//! A packet is moved down a path, not copied: [`Path::transit_shared`] takes
//! the [`IpDatagram`] by value, carries its TTL, ECN and DSCP down the hops
//! as three scalars, writes them into the header once — when it arrives, or
//! when a router quotes it — and hands the same body back whatever the
//! verdict ([`TransitOutcome::into_body`]), so a sender builds its next
//! packet in it.  A router that answers an expired packet writes its ICMP
//! message — header and quote — into one body, the response's: a new one,
//! or the one a tracer lends ([`Path::transit_answering`]) and takes back
//! from each response, so that a whole trace is answered in one buffer.
//! [`Path::transit`], which borrows, is the one place a packet is cloned
//! (besides `LoadFlow`, which sends copies of a template).

use crate::engine::SharedQueues;
use crate::fault::FaultPlan;
use crate::policy::EcnPolicy;
use crate::router::Router;
use crate::time::{SimDuration, SimInstant};
use qem_packet::ecn::{Dscp, EcnCodepoint};
use qem_packet::icmp::{write_time_exceeded, ICMP_HEADER_LEN};
use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol};
use rand::Rng;

use crate::aqm::AqmDecision;

/// One hop of a forwarding path.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// The router owning this hop.
    pub router: Router,
    /// One-way propagation + processing delay contributed by this hop.
    pub delay: SimDuration,
}

impl Hop {
    /// A hop with the default 5 ms delay.
    pub fn new(router: Router) -> Self {
        Hop {
            router,
            delay: SimDuration::from_millis(5),
        }
    }

    /// Set the hop delay.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }
}

/// What happened to a datagram sent down a [`Path`].  Every verdict hands
/// the datagram's body back: a delivered one in the datagram, the others
/// as `body`.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitOutcome {
    /// The datagram reached the far end, possibly with rewritten ECN / DSCP.
    Delivered {
        /// The datagram as it arrives at the destination.
        datagram: IpDatagram,
        /// Total one-way delay accumulated on the path.
        delay: SimDuration,
    },
    /// The datagram was dropped: by the path's fault plan, at its entry
    /// (reported as hop 0), or by a shared queue's tail or AQM drop.
    Dropped {
        /// Index of the hop at which the packet was lost.
        at_hop: usize,
        /// The dropped datagram's body.
        body: Vec<u8>,
    },
    /// The TTL expired at a router, which answered with an ICMP
    /// *time exceeded* message.
    TimeExceeded {
        /// Index of the hop whose router answered.
        at_hop: usize,
        /// The ICMP datagram travelling back to the sender.
        response: IpDatagram,
        /// Delay until the ICMP response arrives back at the sender.
        delay: SimDuration,
        /// The expired datagram's body.
        body: Vec<u8>,
    },
    /// The TTL expired but the router stayed silent (ICMP rate limiting,
    /// filtering, or blackholing).
    Expired {
        /// Index of the hop at which the TTL ran out.
        at_hop: usize,
        /// The expired datagram's body.
        body: Vec<u8>,
    },
}

impl TransitOutcome {
    /// The delivered datagram, if any.
    pub fn delivered(self) -> Option<(IpDatagram, SimDuration)> {
        match self {
            TransitOutcome::Delivered { datagram, delay } => Some((datagram, delay)),
            _ => None,
        }
    }

    /// The body of the datagram that was sent, whatever became of it.
    pub fn into_body(self) -> Vec<u8> {
        match self {
            TransitOutcome::Delivered { datagram, .. } => datagram.payload,
            TransitOutcome::Dropped { body, .. }
            | TransitOutcome::TimeExceeded { body, .. }
            | TransitOutcome::Expired { body, .. } => body,
        }
    }

    /// Whether the datagram reached the destination.
    pub fn is_delivered(&self) -> bool {
        matches!(self, TransitOutcome::Delivered { .. })
    }
}

/// A unidirectional forwarding path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Path {
    /// The hops, in forwarding order (nearest to the sender first).
    pub hops: Vec<Hop>,
    /// Scheduled impairments applied at path entry.  Empty by default —
    /// and an empty plan consumes no RNG draws, keeping fault-free paths
    /// bit-identical to the pre-fault world.
    pub fault: FaultPlan,
}

impl Path {
    /// Build a path from hops.
    pub fn new(hops: Vec<Hop>) -> Self {
        Path {
            hops,
            fault: FaultPlan::default(),
        }
    }

    /// Attach a fault plan (builder style).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Sum of all hop delays (the one-way latency of the path).
    pub fn one_way_delay(&self) -> SimDuration {
        self.hops
            .iter()
            .fold(SimDuration::ZERO, |acc, hop| acc + hop.delay)
    }

    /// Send `datagram` down the path.
    ///
    /// The datagram's TTL is decremented at every hop; if it reaches zero the
    /// router either answers with an ICMP time-exceeded quotation of the
    /// datagram *as it arrived at that router* (so upstream rewrites are
    /// visible in the quote) or stays silent, according to its
    /// [`IcmpBehavior`](crate::router::IcmpBehavior).
    // lint: allow(unused-pub) benchmark: netsim.path_transit_ns times it
    pub fn transit<R: Rng + ?Sized>(&self, datagram: &IpDatagram, rng: &mut R) -> TransitOutcome {
        // No router is registered in an empty `SharedQueues`, so no hop
        // queues and nothing is drawn for one.
        let mut no_queues = SharedQueues::new();
        self.transit_shared(datagram.clone(), SimInstant::EPOCH, rng, &mut no_queues)
    }

    /// Send `datagram` down the path at virtual time `now`, passing every hop
    /// whose router has a queue registered in `queues` through that **shared**
    /// egress queue: the packet competes for space with every other flow
    /// crossing the same router, picks up the queueing delay, and may be
    /// CE-marked or dropped based on the *combined* occupancy.  A hop whose
    /// router has no registered queue forwards at once and draws nothing.
    ///
    /// The datagram is consumed and its body comes back in the outcome,
    /// whatever the verdict (same allocation).  The hops rewrite TTL, ECN
    /// and DSCP as three locals read out of the header once; the header is
    /// written once, on delivery or just before a router quotes it, so the
    /// quote shows the packet as it reached that hop.  A router's ICMP
    /// response probability, like a [`FaultPlan`]'s rates, is a
    /// [`Probability`](crate::Probability) drawn only when nonzero.
    pub fn transit_shared<R: Rng + ?Sized>(
        &self,
        datagram: IpDatagram,
        now: SimInstant,
        rng: &mut R,
        queues: &mut SharedQueues,
    ) -> TransitOutcome {
        self.transit_answering(datagram, now, rng, queues, &mut Vec::new())
    }

    /// [`Path::transit_shared`], with the router that answers an expired
    /// datagram writing its ICMP message into `answer`'s allocation: the
    /// response takes the buffer, and the caller — a tracer, whose every
    /// probe may be answered — gets it back as the response's payload and
    /// lends it again.  `answer` is left as it was when no router answers,
    /// and empty when the one that would cannot address the sender.
    pub fn transit_answering<R: Rng + ?Sized>(
        &self,
        datagram: IpDatagram,
        now: SimInstant,
        rng: &mut R,
        queues: &mut SharedQueues,
        answer: &mut Vec<u8>,
    ) -> TransitOutcome {
        let mut current = datagram;
        let mut elapsed = SimDuration::ZERO;
        let dropped = |at_hop, body| TransitOutcome::Dropped { at_hop, body };
        let expired = |at_hop, body| TransitOutcome::Expired { at_hop, body };

        // Fault injection happens once, at path entry, before any hop sees
        // the packet.  The guard keeps clean paths draw-free.
        if !self.fault.is_empty() {
            let verdict = self.fault.apply(now, current.payload.len(), rng);
            queues.record_fault(&verdict);
            if verdict.drop.is_some() {
                // Fault drops report hop 0: the plan guards the path entry.
                return dropped(0, current.payload);
            }
            elapsed += verdict.extra_delay;
            if let Some(index) = verdict.corrupt_byte {
                current.payload[index] ^= 0x01;
            }
        }

        let (mut ttl, mut ecn, mut dscp) = match &current.header {
            IpHeader::V4(h) => (h.ttl, h.ecn, h.dscp),
            IpHeader::V6(h) => (h.hop_limit, h.ecn, h.dscp),
        };
        for (index, hop) in self.hops.iter().enumerate() {
            elapsed += hop.delay;

            // TTL handling: the quote shows the packet as received.
            let ttl_after = ttl.saturating_sub(1);
            if ttl_after == 0 {
                let answered = hop.router.icmp.response_probability.draw_unless_zero(rng);
                set_rewritable(&mut current.header, ttl, ecn, dscp);
                // A router that cannot address the sender stays silent.
                let response = answered
                    .then(|| build_time_exceeded(&hop.router, &current, std::mem::take(answer)));
                let Some(Ok(response)) = response else {
                    return expired(index, current.payload);
                };
                // The ICMP message travels back over the hops already crossed.
                let return_delay: SimDuration = self.hops[..=index]
                    .iter()
                    .fold(SimDuration::ZERO, |acc, h| acc + h.delay);
                return TransitOutcome::TimeExceeded {
                    at_hop: index,
                    response,
                    delay: elapsed + return_delay,
                    body: current.payload,
                };
            }
            ttl = ttl_after;

            // Rewrite policies.
            ecn = hop.router.ecn_policy.apply(ecn);
            dscp = if hop.router.ecn_policy == EcnPolicy::BleachTos {
                Dscp::BEST_EFFORT
            } else {
                hop.router.dscp_policy.apply(dscp)
            };

            // Shared egress queue: combined-occupancy marking and tail drop,
            // plus the queueing delay.
            let (decision, wait) = queues.admit(hop.router.id, now, ecn, rng);
            match decision {
                AqmDecision::Forward(marked) => ecn = marked,
                AqmDecision::Drop => return dropped(index, current.payload),
            }
            elapsed += wait;
        }
        set_rewritable(&mut current.header, ttl, ecn, dscp);
        TransitOutcome::Delivered {
            datagram: current,
            delay: elapsed,
        }
    }
}

/// Write back the three header fields a hop may rewrite.
fn set_rewritable(header: &mut IpHeader, ttl: u8, ecn: EcnCodepoint, dscp: Dscp) {
    match header {
        IpHeader::V4(h) => (h.ttl, h.ecn, h.dscp) = (ttl, ecn, dscp),
        IpHeader::V6(h) => (h.hop_limit, h.ecn, h.dscp) = (ttl, ecn, dscp),
    }
}

/// Build the ICMP time-exceeded response a router sends for `expired`:
/// the message is written where it goes, into `message` (cleared first, its
/// capacity kept), the one body the response takes.
fn build_time_exceeded(
    router: &Router,
    expired: &IpDatagram,
    mut message: Vec<u8>,
) -> qem_packet::Result<IpDatagram> {
    let v6 = expired.header.is_v6();
    let quote_bytes = router.icmp.quote_bytes;
    message.clear();
    message.reserve(ICMP_HEADER_LEN + quote_bytes.min(expired.wire_len()));
    // The first `quote_bytes` of the datagram as it would be serialised:
    // the header, then as much of the body as the router quotes.
    write_time_exceeded(&mut message, v6, |buf| {
        expired.header.write(expired.payload.len(), buf);
        let body = quote_bytes.saturating_sub(buf.len() - ICMP_HEADER_LEN);
        buf.extend_from_slice(&expired.payload[..body.min(expired.payload.len())]);
        buf.truncate(quote_bytes.saturating_add(ICMP_HEADER_LEN));
    });
    let protocol = if v6 {
        IpProtocol::Icmpv6
    } else {
        IpProtocol::Icmp
    };
    IpDatagram::assemble(
        router.address,
        expired.header.src(),
        protocol,
        64,
        EcnCodepoint::NotEct,
        message,
    )
}

/// A bidirectional path between a client and a server.
///
/// The reverse direction is modelled separately because the paper repeatedly
/// stresses that tracebox can only observe the forward path (§4.2, §6.3) —
/// reverse-path impairments stay invisible to the tracer but still affect the
/// server's view of client-set codepoints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DuplexPath {
    /// Client → server direction.
    pub forward: Path,
    /// Server → client direction.
    pub reverse: Path,
}

impl DuplexPath {
    /// Build from forward and reverse paths.
    pub fn new(forward: Path, reverse: Path) -> Self {
        DuplexPath { forward, reverse }
    }

    /// A duplex path whose reverse direction mirrors the forward hops with
    /// transparent policies (the common case: impairments sit on one side).
    pub fn symmetric_clean_reverse(forward: Path) -> Self {
        let reverse = Path::new(
            forward
                .hops
                .iter()
                .rev()
                .map(|hop| {
                    let mut router = hop.router.clone();
                    // The reverse egress of a router is a different queue
                    // than its forward egress (see RouterId docs).
                    router.id = router.id.reverse_direction();
                    router.ecn_policy = crate::policy::EcnPolicy::Pass;
                    router.dscp_policy = crate::policy::DscpPolicy::Pass;
                    Hop {
                        router,
                        delay: hop.delay,
                    }
                })
                .collect(),
        );
        DuplexPath { forward, reverse }
    }

    /// Round-trip time of the duplex path.
    pub fn rtt(&self) -> SimDuration {
        self.forward.one_way_delay() + self.reverse.one_way_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueueConfig;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::policy::EcnPolicy;
    use crate::probability::Probability;
    use crate::router::{IcmpBehavior, Router};
    use crate::topology::Asn;
    use qem_packet::ecn::EcnCodepoint;
    use qem_packet::icmp::IcmpMessage;
    use qem_packet::ip::{IpHeader, Ipv4Header};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn dgram(ttl: u8, ecn: EcnCodepoint) -> IpDatagram {
        let header = Ipv4Header::new(
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(198, 51, 100, 99),
            IpProtocol::Udp,
            ttl,
        )
        .with_ecn(ecn);
        IpDatagram::new(IpHeader::V4(header), vec![0xab; 100])
    }

    /// A router that never answers a TTL-expired packet.
    fn silent() -> IcmpBehavior {
        IcmpBehavior {
            response_probability: Probability::new(0.0),
            quote_bytes: 0,
        }
    }

    fn three_hop_path(middle_policy: EcnPolicy) -> Path {
        Path::new(vec![
            Hop::new(Router::transparent(1, Asn(680))),
            Hop::new(Router::transparent(2, Asn(1299)).with_ecn_policy(middle_policy)),
            Hop::new(Router::transparent(3, Asn(13335))),
        ])
    }

    #[test]
    fn clean_path_delivers_unchanged() {
        let path = three_hop_path(EcnPolicy::Pass);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = path.transit(&dgram(64, EcnCodepoint::Ect0), &mut rng);
        let (delivered, delay) = outcome.delivered().unwrap();
        assert_eq!(delivered.header.ecn(), EcnCodepoint::Ect0);
        assert!(matches!(delivered.header, IpHeader::V4(h) if h.ttl == 61));
        assert_eq!(delay, SimDuration::from_millis(15));
    }

    #[test]
    fn clearing_router_zeroes_ecn() {
        let path = three_hop_path(EcnPolicy::ClearEcn);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = path.transit(&dgram(64, EcnCodepoint::Ect0), &mut rng);
        let (delivered, _) = outcome.delivered().unwrap();
        assert_eq!(delivered.header.ecn(), EcnCodepoint::NotEct);
    }

    #[test]
    fn remarking_router_swaps_ect0_to_ect1() {
        let path = three_hop_path(EcnPolicy::RemarkEct0ToEct1);
        let mut rng = StdRng::seed_from_u64(1);
        for (sent, arrived) in [
            (EcnCodepoint::Ect0, EcnCodepoint::Ect1),
            (EcnCodepoint::Ce, EcnCodepoint::Ce),
        ] {
            let outcome = path.transit(&dgram(64, sent), &mut rng);
            assert_eq!(outcome.delivered().unwrap().0.header.ecn(), arrived);
        }
    }

    #[test]
    fn ttl_expiry_generates_icmp_with_quote() {
        let path = three_hop_path(EcnPolicy::RemarkEct0ToEct1);
        let mut rng = StdRng::seed_from_u64(3);
        // TTL 2: expires at the second hop (index 1), after traversing hop 0.
        let outcome = path.transit(&dgram(2, EcnCodepoint::Ect0), &mut rng);
        match outcome {
            TransitOutcome::TimeExceeded {
                at_hop, response, ..
            } => {
                assert_eq!(at_hop, 1);
                assert_eq!(response.header.protocol(), IpProtocol::Icmp);
                assert!(matches!(
                    response.header,
                    IpHeader::V4(h) if h.dst == std::net::Ipv4Addr::new(192, 0, 2, 1)
                ));
                let icmp = IcmpMessage::decode(&response.payload, false).unwrap();
                // The quote shows the packet as received by hop 1: the
                // re-marking happens *at* hop 1, so the quote still says ECT(0).
                let (quoted, _) = IpHeader::decode(icmp.quote()).unwrap();
                assert_eq!(quoted.ecn(), EcnCodepoint::Ect0);
            }
            other => panic!("expected TimeExceeded, got {other:?}"),
        }
    }

    #[test]
    fn quote_reflects_upstream_rewrites() {
        // Clearing at hop 0; TTL expires at hop 2 → quote must show not-ECT.
        let path = Path::new(vec![
            Hop::new(Router::transparent(1, Asn(1299)).with_ecn_policy(EcnPolicy::ClearEcn)),
            Hop::new(Router::transparent(2, Asn(174))),
            Hop::new(Router::transparent(3, Asn(13335))),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = path.transit(&dgram(3, EcnCodepoint::Ect0), &mut rng);
        match outcome {
            TransitOutcome::TimeExceeded { response, .. } => {
                let icmp = IcmpMessage::decode(&response.payload, false).unwrap();
                let (quoted, _) = IpHeader::decode(icmp.quote()).unwrap();
                assert_eq!(quoted.ecn(), EcnCodepoint::NotEct);
            }
            other => panic!("expected TimeExceeded, got {other:?}"),
        }
    }

    #[test]
    fn every_verdict_hands_back_the_body_that_was_sent() {
        let silent = Router {
            icmp: silent(),
            ..Router::transparent(1, Asn(680))
        };
        // A hop whose egress queue holds nothing drops every arrival.
        let mut full = SharedQueues::new();
        full.register(silent.id, QueueConfig::bottleneck(0, 0, 0));
        let cases = [
            // Dropped by a hop, and by the fault plan at the path entry.
            (Path::new(vec![Hop::new(silent.clone())]), 64, full),
            (
                three_hop_path(EcnPolicy::Pass).with_fault(FaultPlan::new().always(
                    FaultKind::Loss {
                        rate: Probability::new(1.0),
                    },
                )),
                64,
                SharedQueues::new(),
            ),
            (Path::new(vec![Hop::new(silent)]), 1, SharedQueues::new()),
            (three_hop_path(EcnPolicy::ClearEcn), 2, SharedQueues::new()),
            (three_hop_path(EcnPolicy::Pass), 64, SharedQueues::new()),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut verdicts = Vec::new();
        for (path, ttl, mut queues) in cases {
            let sent = dgram(ttl, EcnCodepoint::Ect0);
            let (at, bytes) = (sent.payload.as_ptr(), sent.payload.clone());
            let outcome = path.transit_shared(sent, SimInstant::EPOCH, &mut rng, &mut queues);
            verdicts.push(match &outcome {
                TransitOutcome::Delivered { .. } => "delivered",
                TransitOutcome::Dropped { .. } => "dropped",
                TransitOutcome::TimeExceeded { .. } => "time exceeded",
                TransitOutcome::Expired { .. } => "expired",
            });
            let body = outcome.into_body();
            assert_eq!(body.as_ptr(), at, "{verdicts:?}: the same allocation");
            assert_eq!(body, bytes, "{verdicts:?}: the same bytes");
        }
        assert_eq!(
            verdicts,
            [
                "dropped",
                "dropped",
                "expired",
                "time exceeded",
                "delivered"
            ]
        );
    }

    #[test]
    fn silent_router_expires_without_response() {
        let path = Path::new(vec![Hop::new(Router {
            icmp: silent(),
            ..Router::transparent(1, Asn(680))
        })]);
        let mut rng = StdRng::seed_from_u64(1);
        match path.transit(&dgram(1, EcnCodepoint::Ect0), &mut rng) {
            TransitOutcome::Expired { at_hop, .. } => assert_eq!(at_hop, 0),
            other => panic!("expected Expired, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_hop_probabilities_are_clamped() {
        // A path's probabilities — its plan's loss rate, its router's
        // ICMP answer — can be made from any `f64`.
        let path = |loss: f64, respond: f64| {
            let mut hop = Hop::new(Router::transparent(1, Asn(680)));
            hop.router.icmp.response_probability = Probability::new(respond);
            Path::new(vec![hop]).with_fault(FaultPlan::new().always(FaultKind::Loss {
                rate: Probability::new(loss),
            }))
        };
        let run = |path: Path, ttl: u8| {
            let mut rng = StdRng::seed_from_u64(9);
            let outcome = path.transit(&dgram(ttl, EcnCodepoint::Ect0), &mut rng);
            (outcome, rng.gen::<u64>())
        };
        // 1.5 drops as 1.0 does, drawing what 1.0 draws.
        let dropped = run(path(1.5, 1.0), 64);
        assert!(matches!(
            dropped.0,
            TransitOutcome::Dropped { at_hop: 0, .. }
        ));
        assert_eq!(dropped, run(path(1.0, 1.0), 64));
        // 2.0 answers as 1.0 does.
        let answered = run(path(0.0, 2.0), 1);
        assert!(matches!(
            answered.0,
            TransitOutcome::TimeExceeded { at_hop: 0, .. }
        ));
        assert_eq!(answered, run(path(0.0, 1.0), 1));
        // NaN draws nothing, as 0.0 does.
        let untouched = StdRng::seed_from_u64(9).gen::<u64>();
        for ttl in [1, 64] {
            let nan = run(path(f64::NAN, f64::NAN), ttl);
            assert_eq!(nan, run(path(0.0, 0.0), ttl));
            assert_eq!(nan.1, untouched);
        }
    }

    #[test]
    fn truncated_icmp_quote_respects_router_setting() {
        let path = Path::new(vec![Hop::new(Router {
            icmp: IcmpBehavior {
                quote_bytes: 28,
                ..IcmpBehavior::responsive()
            },
            ..Router::transparent(1, Asn(680))
        })]);
        let mut rng = StdRng::seed_from_u64(1);
        match path.transit(&dgram(1, EcnCodepoint::Ect0), &mut rng) {
            TransitOutcome::TimeExceeded { response, .. } => {
                let icmp = IcmpMessage::decode(&response.payload, false).unwrap();
                assert_eq!(icmp.quote().len(), 28);
            }
            other => panic!("expected TimeExceeded, got {other:?}"),
        }
    }

    #[test]
    fn duplex_symmetric_reverse_is_clean() {
        let duplex = DuplexPath::symmetric_clean_reverse(three_hop_path(EcnPolicy::ClearEcn));
        let mut rng = StdRng::seed_from_u64(1);
        for (path, arrived) in [
            (&duplex.forward, EcnCodepoint::NotEct),
            (&duplex.reverse, EcnCodepoint::Ect0),
        ] {
            let outcome = path.transit(&dgram(64, EcnCodepoint::Ect0), &mut rng);
            assert_eq!(outcome.delivered().unwrap().0.header.ecn(), arrived);
        }
        assert_eq!(duplex.rtt(), SimDuration::from_millis(30));
    }

    #[test]
    fn empty_path_delivers_immediately() {
        let path = Path::new(Vec::new());
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = path.transit(&dgram(64, EcnCodepoint::Ect1), &mut rng);
        let (delivered, delay) = outcome.delivered().unwrap();
        assert_eq!(delivered.header.ecn(), EcnCodepoint::Ect1);
        assert_eq!(delay, SimDuration::ZERO);
        assert!(path.is_empty());
        assert_eq!(path.len(), 0);
    }
}
