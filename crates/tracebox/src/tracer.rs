//! The TTL-sweep probe engine.
//!
//! A probe is a client Initial padded to the RFC 9000 minimum, so that it
//! looks like — and is treated like — the first packet of a real QUIC
//! connection.  Each is built in the buffer the IP datagram takes: UDP
//! header room, the Initial behind it, then the UDP length and checksum.
//! Transit hands that body back whatever the verdict, and the next TTL's
//! probe is written over it, so a trace has one probe buffer.  An
//! answering hop writes its ICMP message into a second buffer the tracer
//! lends ([`Path::transit_answering`]); the message is read in place — the
//! quote is a slice of the response — and the buffer taken back for the
//! next hop.  The observations are sized once, for a probe per hop and one
//! for the destination, so a trace allocates three times whatever the
//! path's length — the two buffers and its hops — unless the probes meant
//! for the destination are lost and the trace goes on past it.

use qem_netsim::{Path, SharedQueues, SimDuration, SimInstant, TransitOutcome};
use qem_packet::ecn::{Dscp, EcnCodepoint};
use qem_packet::icmp::IcmpMessage;
use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol};
use qem_packet::quic::{
    ConnectionId, Frame, LongPacketType, PacketHeader, QuicVersion, MIN_INITIAL_SIZE, QUIC_PORT,
};
use qem_packet::udp::UdpHeader;
use qem_packet::PacketError;
use rand::Rng;
use std::net::IpAddr;

/// Largest TTL probed.
const MAX_TTL: u8 = 32;

/// How long a hop is waited for: the paper's tracebox waits 3 s (§4.2).
const PER_HOP_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Consecutive silent hops after which a trace stops: the paper's tracebox
/// gives up after 5 (§4.2).
const MAX_CONSECUTIVE_TIMEOUTS: u32 = 5;

/// ECN codepoint the probes carry: the codepoint whose fate along the path
/// is being traced.
const PROBE_CODEPOINT: EcnCodepoint = EcnCodepoint::Ect0;

/// QUIC version advertised by the probe Initials.
const PROBE_VERSION: QuicVersion = QuicVersion::V1;

/// Configuration of a path trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// DSCP carried by the probes.
    pub probe_dscp: Dscp,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            probe_dscp: Dscp::BEST_EFFORT,
        }
    }
}

/// What the tracer learnt about one hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopObservation {
    /// TTL of the probe that produced this observation.
    pub ttl: u8,
    /// Address of the router that answered, if any.
    pub router: Option<IpAddr>,
    /// ECN codepoint the probe carried when it reached this hop, if the
    /// quotation was long enough to recover it.
    pub observed_ecn: Option<EcnCodepoint>,
    /// DSCP the probe carried when it reached this hop.
    pub observed_dscp: Option<Dscp>,
    /// Whether this hop stayed silent (timeout).
    pub timed_out: bool,
}

/// A complete trace towards one destination.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTrace {
    /// The destination that was probed.
    pub destination: IpAddr,
    /// The codepoint the probes were sent with.
    pub sent_codepoint: EcnCodepoint,
    /// The DSCP the probes were sent with.
    pub sent_dscp: Dscp,
    /// Per-hop observations in TTL order.
    pub hops: Vec<HopObservation>,
    /// Whether a probe eventually reached the destination.
    pub destination_reached: bool,
    /// Total number of probes sent.
    pub probes_sent: u32,
    /// Simulated time spent waiting on timeouts.
    pub time_spent: SimDuration,
}

/// Build one probe in `udp`: a padded QUIC Initial inside UDP inside IP with
/// the given TTL and traffic class.  The Initial is written once, where it
/// goes: into the body the datagram takes.
fn probe_in(
    mut udp: Vec<u8>,
    source: IpAddr,
    destination: IpAddr,
    ttl: u8,
    config: &TraceConfig,
    seq: u32,
) -> Result<IpDatagram, PacketError> {
    UdpHeader::begin(&mut udp, MIN_INITIAL_SIZE);
    let initial = PacketHeader::Long {
        ty: LongPacketType::Initial,
        version: PROBE_VERSION,
        dcid: ConnectionId::from_u64(0x7261_6365_0000_0000 | u64::from(seq)),
        scid: ConnectionId::from_u64(0x7372_6300_0000_0000 | u64::from(seq)),
        token: Vec::new(),
        packet_number: 0,
    }
    .begin(&mut udp);
    Frame::Ping.encode(&mut udp);
    // Pad so that the whole IP datagram clears the 1200-byte Initial minimum
    // (QUIC long header + UDP + IP headers add roughly 50–70 bytes).
    Frame::Padding {
        size: MIN_INITIAL_SIZE - 40,
    }
    .encode(&mut udp);
    initial.finish(&mut udp);
    UdpHeader::new(44_000 + (seq as u16 % 1000), QUIC_PORT).finish(source, destination, &mut udp);
    let mut probe = IpDatagram::assemble(
        source,
        destination,
        IpProtocol::Udp,
        ttl,
        PROBE_CODEPOINT,
        udp,
    )?;
    probe.header.set_dscp(config.probe_dscp);
    Ok(probe)
}

/// Extract the quoted traffic class from an ICMP time-exceeded response,
/// read in place.
fn parse_quote(response: &IpDatagram) -> Option<(EcnCodepoint, Dscp)> {
    let v6 = response.header.is_v6();
    let icmp = IcmpMessage::decode(&response.payload, v6).ok()?;
    if !icmp.is_time_exceeded() {
        return None;
    }
    // The quote starts with the original IP header; a partial quote may still
    // contain the full fixed header (20 / 40 bytes), otherwise give up.
    let (header, _) = IpHeader::decode(icmp.quote()).ok()?;
    Some((header.ecn(), header.dscp()))
}

/// Run a trace over `path` towards `destination`.
pub fn trace_path<R: Rng + ?Sized>(
    path: &Path,
    source: IpAddr,
    destination: IpAddr,
    config: &TraceConfig,
    rng: &mut R,
) -> PathTrace {
    // A probe per hop and one for the destination, unless `MAX_TTL` stops
    // the trace first; only losing that last probe lets the trace go on.
    let hops = (path.len() + 1).min(usize::from(MAX_TTL));
    let mut trace = PathTrace {
        destination,
        sent_codepoint: PROBE_CODEPOINT,
        sent_dscp: config.probe_dscp,
        hops: Vec::with_capacity(hops),
        destination_reached: false,
        probes_sent: 0,
        time_spent: SimDuration::ZERO,
    };
    let mut consecutive_timeouts = 0u32;
    // Each probe is built for one TTL, in the body the last one came back
    // in, and sent by value: what `Path::transit` does — no registered
    // queue, the epoch — minus its clone.  The routers answer in `answer`,
    // which each response hands back.
    let mut no_queues = SharedQueues::new();
    let (mut body, mut answer) = (Vec::new(), Vec::new());
    for ttl in 1..=MAX_TTL {
        // A probe that cannot be assembled is never answered: a timeout.
        let outcome =
            probe_in(body, source, destination, ttl, config, u32::from(ttl)).map(|probe| {
                path.transit_answering(probe, SimInstant::EPOCH, rng, &mut no_queues, &mut answer)
            });
        trace.probes_sent += 1;
        match outcome {
            Ok(TransitOutcome::TimeExceeded {
                response,
                delay,
                body: sent,
                ..
            }) => {
                consecutive_timeouts = 0;
                trace.time_spent += delay;
                let observed = parse_quote(&response);
                trace.hops.push(HopObservation {
                    ttl,
                    router: Some(response.header.src()),
                    observed_ecn: observed.map(|(e, _)| e),
                    observed_dscp: observed.map(|(_, d)| d),
                    timed_out: false,
                });
                (body, answer) = (sent, response.payload);
            }
            Ok(TransitOutcome::Delivered { .. }) => {
                trace.destination_reached = true;
                break;
            }
            outcome @ (Ok(TransitOutcome::Expired { .. } | TransitOutcome::Dropped { .. })
            | Err(_)) => {
                consecutive_timeouts += 1;
                trace.time_spent += PER_HOP_TIMEOUT;
                trace.hops.push(HopObservation {
                    ttl,
                    router: None,
                    observed_ecn: None,
                    observed_dscp: None,
                    timed_out: true,
                });
                if consecutive_timeouts >= MAX_CONSECUTIVE_TIMEOUTS {
                    break;
                }
                body = outcome.map(TransitOutcome::into_body).unwrap_or_default();
            }
        }
    }
    trace
}

/// One probe, in a buffer of its own.
#[cfg(test)]
fn build_probe(
    source: IpAddr,
    destination: IpAddr,
    ttl: u8,
    config: &TraceConfig,
    seq: u32,
) -> Result<IpDatagram, PacketError> {
    probe_in(Vec::new(), source, destination, ttl, config, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_netsim::{
        build_transit_path, Asn, FaultKind, FaultPlan, Hop, IcmpBehavior, Probability, Router,
        TransitProfile,
    };
    use qem_packet::quic::QuicPacket;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    /// A hop in AS 1299 whose router never answers a TTL-expired probe.
    fn silent_hop(id: u32) -> Hop {
        Hop::new(Router {
            icmp: IcmpBehavior {
                response_probability: Probability::new(0.0),
                quote_bytes: 0,
            },
            ..Router::transparent(id, Asn::ARELION)
        })
    }

    fn endpoints() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 99)),
        )
    }

    #[test]
    fn clean_path_shows_sent_codepoint_at_every_hop() {
        let path = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, false);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(1);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        assert!(trace.destination_reached);
        assert!(trace.hops.iter().all(|h| !h.timed_out));
        assert_eq!(trace.hops.len(), path.len());
        assert!(trace
            .hops
            .iter()
            .all(|h| h.observed_ecn == Some(EcnCodepoint::Ect0)));
    }

    #[test]
    fn clearing_path_shows_transition_to_not_ect() {
        let path = build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        );
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(2);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        let observed: Vec<_> = trace.hops.iter().filter_map(|h| h.observed_ecn).collect();
        assert!(observed.contains(&EcnCodepoint::Ect0));
        assert!(observed.contains(&EcnCodepoint::NotEct));
        // Once cleared it never comes back.
        let first_clear = observed
            .iter()
            .position(|e| *e == EcnCodepoint::NotEct)
            .unwrap();
        assert!(observed[first_clear..]
            .iter()
            .all(|e| *e == EcnCodepoint::NotEct));
    }

    #[test]
    fn silent_hops_are_tolerated_up_to_the_limit() {
        let path = Path::new(vec![
            Hop::new(Router::transparent(1, Asn::DFN)),
            silent_hop(10),
            silent_hop(11),
            Hop::new(Router::transparent(2, Asn(13335))),
        ]);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(3);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        assert!(trace.destination_reached);
        assert_eq!(trace.hops.iter().filter(|h| h.timed_out).count(), 2);
    }

    #[test]
    fn too_many_silent_hops_abort_the_trace() {
        let mut hops = vec![Hop::new(Router::transparent(1, Asn::DFN))];
        hops.extend((20..28).map(silent_hop));
        hops.push(Hop::new(Router::transparent(2, Asn(13335))));
        let path = Path::new(hops);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(4);
        let config = TraceConfig::default();
        let trace = trace_path(&path, src, dst, &config, &mut rng);
        assert!(!trace.destination_reached);
        let trailing_timeouts = trace.hops.iter().rev().take_while(|h| h.timed_out).count() as u32;
        assert_eq!(trailing_timeouts, MAX_CONSECUTIVE_TIMEOUTS);
        assert!(trace.time_spent >= PER_HOP_TIMEOUT * 5);
    }

    #[test]
    fn minimal_quotes_still_reveal_the_traffic_class() {
        let path = Path::new(vec![
            Hop::new(Router {
                icmp: IcmpBehavior {
                    quote_bytes: 28,
                    ..IcmpBehavior::responsive()
                },
                ..Router::transparent(1, Asn::DFN)
            }),
            Hop::new(Router::transparent(1, Asn(13335))),
        ]);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(5);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        assert_eq!(trace.hops[0].observed_ecn, Some(EcnCodepoint::Ect0));
    }

    #[test]
    fn probe_is_a_padded_quic_initial() {
        let (src, dst) = endpoints();
        let probe = build_probe(src, dst, 3, &TraceConfig::default(), 3).unwrap();
        assert!(probe.wire_len() >= MIN_INITIAL_SIZE);
        assert!(matches!(probe.header, IpHeader::V4(h) if h.ttl == 3));
        assert_eq!(probe.header.ecn(), EcnCodepoint::Ect0);
        let (_, udp_payload) = UdpHeader::decode(&probe.payload).unwrap();
        let (packet, _) = QuicPacket::decode(udp_payload, 8).unwrap();
        assert!(matches!(
            packet.header,
            qem_packet::quic::PacketHeader::Long {
                ty: qem_packet::quic::LongPacketType::Initial,
                ..
            }
        ));
    }

    /// FNV-1a of every probe's wire bytes at TTL 1..=12, towards a v4 and
    /// a v6 destination: a probe is a 1.2 KB Initial whose bytes routers
    /// quote back, so however it is built, each byte stays where it is.
    #[test]
    fn probe_bytes_are_where_they_were() {
        let v6: (IpAddr, IpAddr) = (
            "2001:db8::10".parse().unwrap(),
            "2001:db8:5::1".parse().unwrap(),
        );
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (source, destination) in [endpoints(), v6] {
            for ttl in 1..=12u8 {
                let probe = build_probe(
                    source,
                    destination,
                    ttl,
                    &TraceConfig::default(),
                    u32::from(ttl),
                )
                .unwrap();
                let mut bytes = Vec::new();
                probe.header.write(probe.payload.len(), &mut bytes);
                bytes.extend_from_slice(&probe.payload);
                for byte in bytes {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x4173_01aa_b63b_88f9, "{digest:#018x}");
    }

    #[test]
    fn lossy_first_hop_counts_as_timeout() {
        let path = qem_netsim::Path::new(vec![Hop::new(Router::transparent(1, Asn::DFN))])
            .with_fault(FaultPlan::new().always(FaultKind::Loss {
                rate: Probability::new(1.0),
            }));
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(6);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        assert!(!trace.destination_reached);
        assert!(trace.hops.iter().all(|h| h.timed_out));
    }

    #[test]
    fn ipv6_trace_works() {
        let path = build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Remarking { asn: Asn::ARELION },
            true,
        );
        let src: IpAddr = "2001:db8::10".parse().unwrap();
        let dst: IpAddr = "2001:db8:5::1".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        assert!(trace.destination_reached);
        assert!(trace
            .hops
            .iter()
            .any(|h| h.observed_ecn == Some(EcnCodepoint::Ect1)));
        assert!(trace
            .hops
            .iter()
            .all(|h| h.router.map_or(true, |r| r.is_ipv6())));
    }
}
