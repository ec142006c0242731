//! The bytes on the wire, pinned: every datagram either endpoint emits
//! over a set of paths and server behaviours, and every packet the stream
//! packetizer builds, folded into FNV-1a digests.  `FaultKind` corruption
//! indexes into the UDP body and every measurement depends on what arrives,
//! so a codec or endpoint rewrite has to leave each of these bytes where it
//! was.

use qem_netsim::{
    build_transit_path, Asn, DuplexPath, FaultKind, FaultPlan, Probability, SharedQueues,
    SimDuration, SimInstant, TransitOutcome, TransitProfile,
};
use qem_packet::ecn::EcnCodepoint;
use qem_packet::ip::{IpDatagram, IpProtocol};
use qem_packet::quic::{PacketHeader, QuicVersion, QUIC_PORT};
use qem_packet::udp::UdpHeader;
use qem_quic::app::{AppChunk, StreamPacketizer};
use qem_quic::client::{ClientConfig, ClientConnection, ClientReport};
use qem_quic::{ConnectionRun, DriverConfig, ServerBehavior, ServerConnection, Versions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *digest ^= u64::from(*byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn addrs() -> (IpAddr, IpAddr) {
    (
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 80)),
    )
}

fn duplex(profile: TransitProfile) -> DuplexPath {
    DuplexPath::symmetric_clean_reverse(build_transit_path(Asn::DFN, Asn(16509), profile, false))
}

struct Scenario {
    name: &'static str,
    client: ClientConfig,
    server: ServerBehavior,
    path: DuplexPath,
}

fn scenarios() -> Vec<Scenario> {
    let paper = || ClientConfig::paper_default("www.example.org");
    let scenario = |name, client, server, path| Scenario {
        name,
        client,
        server,
        path,
    };
    let faulted = |forward: FaultKind, reverse: Option<FaultKind>| {
        let mut path = duplex(TransitProfile::Clean);
        path.forward = path.forward.with_fault(FaultPlan::new().always(forward));
        if let Some(reverse) = reverse {
            path.reverse = path.reverse.with_fault(FaultPlan::new().always(reverse));
        }
        path
    };
    let no_http = ServerBehavior {
        serves_http: false,
        ..ServerBehavior::accurate()
    };
    vec![
        scenario(
            "clean",
            paper(),
            ServerBehavior::accurate(),
            duplex(TransitProfile::Clean),
        ),
        scenario(
            "clearing",
            paper(),
            ServerBehavior::accurate(),
            duplex(TransitProfile::Clearing { asn: Asn::ARELION }),
        ),
        scenario(
            "remarking",
            paper(),
            ServerBehavior {
                egress_ecn: EcnCodepoint::Ect0,
                ..ServerBehavior::accurate()
            },
            duplex(TransitProfile::Remarking { asn: Asn::ARELION }),
        ),
        scenario(
            "forward-loss",
            paper(),
            ServerBehavior::accurate(),
            faulted(
                FaultKind::Loss {
                    rate: Probability::new(0.35),
                },
                None,
            ),
        ),
        scenario(
            "corruption",
            paper(),
            ServerBehavior::accurate(),
            faulted(
                FaultKind::Corrupt {
                    rate: Probability::new(0.5),
                },
                Some(FaultKind::Corrupt {
                    rate: Probability::new(0.5),
                }),
            ),
        ),
        scenario(
            "version-negotiation",
            paper(),
            ServerBehavior {
                supported_versions: Versions::new([QuicVersion::DRAFT_29]),
                ..ServerBehavior::accurate()
            },
            duplex(TransitProfile::Clean),
        ),
        scenario(
            "not-serving",
            paper(),
            no_http,
            duplex(TransitProfile::Clean),
        ),
        scenario(
            "force-ce",
            ClientConfig::force_ce("www.example.org"),
            ServerBehavior::accurate(),
            duplex(TransitProfile::Clean),
        ),
    ]
}

/// What `QuicFlow` does on the engine, spelled out so every datagram can be
/// seen as it leaves its endpoint: the digest of all of them, in order, and
/// the number each endpoint emitted and the client's report.
fn drive(scenario: &Scenario, seed: u64) -> (u64, [u32; 2], ClientReport) {
    let (client_addr, server_addr) = addrs();
    let config = DriverConfig::new(client_addr, server_addr);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = ClientConnection::new(scenario.client.clone(), SimInstant::EPOCH, rng.gen());
    let mut server = ServerConnection::new(scenario.server.clone(), rng.gen());
    let mut net = SharedQueues::new();
    let mut digest = FNV_OFFSET;
    let mut emitted = [0u32; 2];
    let mut now = SimInstant::EPOCH;
    let deadline = now + DriverConfig::MAX_DURATION;
    let mut pending_timer: Option<SimInstant> = None;
    let mut iterations = 0;

    // One datagram through UDP, IP and the path; the UDP payload if it arrives.
    let mut send = |forward: bool,
                    ecn: EcnCodepoint,
                    payload: &[u8],
                    now: SimInstant,
                    digest: &mut u64|
     -> Option<(EcnCodepoint, Vec<u8>)> {
        fnv(digest, &[u8::from(forward), ecn.bits()]);
        fnv(digest, &(payload.len() as u32).to_le_bytes());
        fnv(digest, payload);
        let client = (config.client_addr, DriverConfig::CLIENT_PORT);
        let server = (config.server_addr, QUIC_PORT);
        let (path, (src, src_port), (dst, dst_port)) = if forward {
            (&scenario.path.forward, client, server)
        } else {
            (&scenario.path.reverse, server, client)
        };
        let mut udp = Vec::new();
        UdpHeader::new(src_port, dst_port).encode(src, dst, payload, &mut udp);
        let datagram = IpDatagram::assemble(src, dst, IpProtocol::Udp, 64, ecn, udp).ok()?;
        let TransitOutcome::Delivered {
            datagram: arrived, ..
        } = path.transit_shared(datagram, now, &mut rng, &mut net)
        else {
            return None;
        };
        let (_, body) = UdpHeader::decode(arrived.transport(IpProtocol::Udp)?).ok()?;
        Some((arrived.header.ecn(), body.to_vec()))
    };

    'wakes: loop {
        if let Some(t) = pending_timer.take() {
            now = if t > now {
                t
            } else {
                now + SimDuration::from_millis(1)
            };
            client.handle_timeout(now);
            server.handle_timeout(now);
        }
        loop {
            if iterations >= DriverConfig::MAX_ITERATIONS {
                break 'wakes;
            }
            iterations += 1;
            let mut activity = false;
            while let Some((ecn, bytes)) = client
                .poll_transmit(now)
                .map(|t| (t.ecn, t.payload.to_vec()))
            {
                activity = true;
                emitted[0] += 1;
                if let Some((ecn, body)) = send(true, ecn, &bytes, now, &mut digest) {
                    server.handle_datagram(now, ecn, &body);
                }
            }
            while let Some((ecn, bytes)) = server
                .poll_transmit(now)
                .map(|t| (t.ecn, t.payload.to_vec()))
            {
                activity = true;
                emitted[1] += 1;
                if let Some((ecn, body)) = send(false, ecn, &bytes, now, &mut digest) {
                    client.handle_datagram(now, ecn, &body);
                }
            }
            if client.is_closed() {
                break 'wakes;
            }
            if activity {
                continue;
            }
            // Sleep until the earlier of the two endpoints' timers.
            let next = [client.poll_timeout(), server.poll_timeout()]
                .into_iter()
                .flatten()
                .min();
            match next {
                Some(t) if t <= deadline => {
                    pending_timer = Some(t);
                    break;
                }
                _ => break 'wakes,
            }
        }
    }
    (digest, emitted, client.report())
}

/// `(scenario, digest at seed 42, digest at seed 7)`.
const CONNECTION_DIGESTS: [(&str, u64, u64); 8] = [
    ("clean", 0x8ae0_1b67_4bfc_9d40, 0xef56_23b3_ba19_1cd5),
    ("clearing", 0x9f7d_9eda_82cb_206f, 0x2ff3_45f3_46da_a700),
    ("remarking", 0x5e50_7d68_a86b_bb4a, 0x4571_fb23_3e9a_334b),
    ("forward-loss", 0x14bb_6dbe_41bf_4d11, 0x1a3c_3f30_09d0_b3c5),
    ("corruption", 0x2126_d8bb_72a4_4ec0, 0xb927_2f7f_f41c_7e3d),
    (
        "version-negotiation",
        0xaf56_d5c2_1730_123f,
        0xe2af_75ab_07d3_a4a5,
    ),
    ("not-serving", 0xc277_72a4_f991_ac8b, 0xbc25_3f36_06c9_f028),
    ("force-ce", 0x53c8_e951_ef37_9fbb, 0xd5cd_dbe1_90b0_2c6a),
];

#[test]
fn every_datagram_of_a_connection_is_where_it_was() {
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), CONNECTION_DIGESTS.len());
    for (scenario, (name, at_42, at_7)) in scenarios.iter().zip(CONNECTION_DIGESTS) {
        assert_eq!(scenario.name, name);
        for (seed, expected) in [(42, at_42), (7, at_7)] {
            let (digest, _, report) = drive(scenario, seed);
            // The spelled-out loop above is the real driver's: same report.
            let (client_addr, server_addr) = addrs();
            let real = ConnectionRun::new(
                scenario.client.clone(),
                scenario.server.clone(),
                &scenario.path,
                DriverConfig::new(client_addr, server_addr),
            )
            .execute(&mut StdRng::seed_from_u64(seed))
            .connection;
            assert_eq!(report, real.report, "{name} seed {seed}");
            assert_eq!(
                digest, expected,
                "{name} seed {seed}: (\"{name}\", {digest:#018x})"
            );
        }
    }
}

#[test]
fn the_scenarios_reach_the_paths_they_are_named_for() {
    let scenarios = scenarios();
    let by_name = |name: &str, seed| {
        let scenario = scenarios.iter().find(|s| s.name == name).unwrap();
        let (_, emitted, report) = drive(scenario, seed);
        (emitted, report)
    };
    for seed in [42, 7] {
        let (clean, report) = by_name("clean", seed);
        assert!(report.response.is_some());
        assert_eq!(
            by_name("version-negotiation", seed).1.version,
            QuicVersion::DRAFT_29
        );
        let refused = by_name("not-serving", seed).1;
        assert!(refused.connected && refused.response.is_none());
        assert!(by_name("force-ce", seed).1.mirrored_counts.ce >= 5);
        // Loss makes the client retransmit on a PTO; a corrupted packet is
        // dropped whole by the endpoint that parses it, which the sender
        // repairs the same way.
        assert!(by_name("forward-loss", seed).0[0] > clean[0], "seed {seed}");
        assert!(by_name("corruption", seed).0 != clean, "seed {seed}");
    }
}

/// Digest of the datagrams of the burst below, in the order polled.
const PTO_BURST_DIGEST: u64 = 0x09bf_cefb_5d10_d0dc;

#[test]
fn outbox_order_is_fifo_under_a_pto_burst() {
    // Handshake over a perfect wire; then everything the client sends —
    // Finished, the request, three PINGs, its ACKs — is lost, and the first
    // PTO queues all five ack-eliciting packets again in one go.
    let at = SimInstant::EPOCH;
    let config = ClientConfig::paper_default("www.example.org");
    let mut client = ClientConnection::new(config, at, 0x1000);
    let mut server = ServerConnection::new(ServerBehavior::accurate(), 0x2000);
    let initial = client
        .poll_transmit(at)
        .map(|t| t.payload.to_vec())
        .unwrap();
    server.handle_datagram(at, EcnCodepoint::Ect0, &initial);
    // Newest first, so the ACK of the Initial is in before the ServerHello
    // makes the client send (an ACK that makes progress disarms the PTO).
    let mut replies = Vec::new();
    while let Some(bytes) = server.poll_transmit(at).map(|t| t.payload.to_vec()) {
        replies.push(bytes);
    }
    for bytes in replies.iter().rev() {
        client.handle_datagram(at, EcnCodepoint::NotEct, bytes);
    }
    let mut lost = 0;
    while client.poll_transmit(at).is_some() {
        lost += 1;
    }
    assert!(lost >= 5, "{lost}");

    let pto = client.poll_timeout().unwrap();
    client.handle_timeout(pto);
    let mut digest = FNV_OFFSET;
    let mut burst = Vec::new();
    while let Some((ecn, bytes)) = client
        .poll_transmit(pto)
        .map(|t| (t.ecn, t.payload.to_vec()))
    {
        fnv(&mut digest, &[ecn.bits()]);
        fnv(&mut digest, &(bytes.len() as u32).to_le_bytes());
        fnv(&mut digest, &bytes);
        let (packet, _) = qem_packet::quic::QuicPacket::decode(&bytes, qem_quic::CID_LEN).unwrap();
        let (PacketHeader::Long { packet_number, .. } | PacketHeader::Short { packet_number, .. }) =
            packet.header
        else {
            panic!("a version negotiation packet has no number");
        };
        burst.push((packet.header.version().is_some(), packet_number));
    }
    // Oldest first: the Handshake packet, then the 1-RTT ones by number.
    assert_eq!(burst.len(), 5, "{burst:?}");
    assert!(burst[0].0 && burst[1..].iter().all(|(long, _)| !long));
    assert!(burst[1..].windows(2).all(|w| w[0].1 < w[1].1), "{burst:?}");
    // The budget is spent: a second PTO sends nothing.
    let again = client.poll_timeout().unwrap();
    client.handle_timeout(again);
    assert!(client.poll_transmit(again).is_none());
    assert_eq!(digest, PTO_BURST_DIGEST, "{digest:#018x}");
}

/// Digest of every packet of a chunk sweep: lengths around the varint
/// boundaries of the STREAM length field, offsets around those of the
/// offset field, `fin` on and off.
const PACKETIZER_DIGEST: u64 = 0xa275_0b37_e53b_1fc7;

#[test]
fn every_packet_of_the_stream_packetizer_is_where_it_was() {
    let mut packetizer = StreamPacketizer::new(0xfeed_f00d, 4);
    let mut digest = FNV_OFFSET;
    for len in [0, 1, 37, 63, 64, 100, 1_199, 1_200, 1_201, 16_383, 16_384] {
        for offset in [0, 63, 64, 16_383, 16_384, 1 << 30, (1 << 30) + 7] {
            for fin in [false, true] {
                let chunk = AppChunk { offset, len, fin };
                // Appended behind what the buffer holds — a UDP header, in
                // a workload flow — and not a byte of it touched.
                let mut wire = vec![0xa5; 8];
                packetizer.packetize(&chunk, &mut wire);
                assert_eq!(wire[..8], [0xa5; 8]);
                let wire = &wire[8..];
                fnv(&mut digest, &(wire.len() as u32).to_le_bytes());
                fnv(&mut digest, wire);
                assert_eq!(
                    StreamPacketizer::parse(wire, qem_quic::CID_LEN),
                    Some(chunk)
                );
            }
        }
    }
    assert_eq!(digest, PACKETIZER_DIGEST, "{digest:#018x}");
}
