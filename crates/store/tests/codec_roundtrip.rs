//! Property test: encode→decode identity of the measurement codec over
//! arbitrary `HostMeasurement`s, including the edge cases the campaign
//! produces rarely but the store must never mangle — empty traces,
//! IPv6-only hosts, ForceCe observations, absent sections and exotic
//! strings.
//!
//! The vendored proptest stand-in samples primitives; the measurement
//! itself is grown from a seeded RNG so one failing case prints one
//! reproducible seed.

use proptest::prelude::*;
use qem_core::observation::HostMeasurement;
use qem_netsim::Asn;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::QuicVersion;
use qem_quic::http::HttpResponse;
use qem_quic::{ClientReport, EcnValidationFailure, EcnValidationState, TransportParameters};
use qem_store::codec::{decode_block, decode_block_into, encode_block, Dicts};
use qem_store::segment;
use qem_store::wire::{write_str, write_varint, ByteReader};
use qem_store::StoreError;
use qem_tcp::TcpReport;
use qem_tracebox::{EcnChange, PathVerdict, TraceAnalysis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::IpAddr;

fn arb_counts(rng: &mut StdRng) -> EcnCounts {
    // Mix small realistic counters with u64 extremes.
    let extreme = rng.gen_bool(0.1);
    let sample = |rng: &mut StdRng| {
        if extreme {
            rng.gen::<u64>()
        } else {
            rng.gen_range(0u64..32)
        }
    };
    EcnCounts {
        ect0: sample(rng),
        ect1: sample(rng),
        ce: sample(rng),
    }
}

fn arb_string(rng: &mut StdRng) -> String {
    match rng.gen_range(0u32..6) {
        0 => String::new(),
        1 => "LiteSpeed".to_string(),
        2 => "nginx/1.25.3 (Ubuntu)".to_string(),
        3 => "h3=\":443\"; ma=86400, h3-29=\":443\"".to_string(),
        4 => "päcket löss — ünïcode".to_string(),
        _ => {
            let len = rng.gen_range(1usize..40);
            (0..len)
                .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                .collect()
        }
    }
}

fn arb_opt_string(rng: &mut StdRng) -> Option<String> {
    rng.gen_bool(0.6).then(|| arb_string(rng))
}

fn arb_codepoint(rng: &mut StdRng) -> EcnCodepoint {
    match rng.gen_range(0u32..4) {
        0 => EcnCodepoint::NotEct,
        1 => EcnCodepoint::Ect1,
        2 => EcnCodepoint::Ect0,
        _ => EcnCodepoint::Ce,
    }
}

fn arb_ip(rng: &mut StdRng, force_v6: bool) -> IpAddr {
    if force_v6 || rng.gen_bool(0.5) {
        let mut octets = [0u8; 16];
        for octet in &mut octets {
            *octet = rng.gen_range(0u8..=255);
        }
        IpAddr::from(octets)
    } else {
        let mut octets = [0u8; 4];
        for octet in &mut octets {
            *octet = rng.gen_range(0u8..=255);
        }
        IpAddr::from(octets)
    }
}

fn arb_validation_state(rng: &mut StdRng) -> EcnValidationState {
    match rng.gen_range(0u32..9) {
        0 => EcnValidationState::Testing,
        1 => EcnValidationState::Unknown,
        2 => EcnValidationState::Capable,
        3 => EcnValidationState::Failed(EcnValidationFailure::NoMirroring),
        4 => EcnValidationState::Failed(EcnValidationFailure::NonMonotonic),
        5 => EcnValidationState::Failed(EcnValidationFailure::Undercount),
        6 => EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint),
        7 => EcnValidationState::Failed(EcnValidationFailure::AllCe),
        _ => EcnValidationState::Failed(EcnValidationFailure::AllLost),
    }
}

fn arb_quic_report(rng: &mut StdRng, force_ce: bool) -> ClientReport {
    let sent_counts = if force_ce {
        // The §6.3 run: every probe is CE, never ECT(0).
        EcnCounts {
            ect0: 0,
            ect1: 0,
            ce: rng.gen_range(1u64..20),
        }
    } else {
        arb_counts(rng)
    };
    ClientReport {
        connected: rng.gen_bool(0.8),
        response: rng.gen_bool(0.7).then(|| HttpResponse {
            status: rng.gen_range(100u64..600) as u16,
            server: arb_opt_string(rng),
            via: arb_opt_string(rng),
            alt_svc: arb_opt_string(rng),
            body_len: rng.gen_range(0usize..1 << 20),
        }),
        version: match rng.gen_range(0u32..4) {
            0 => QuicVersion::V1,
            1 => QuicVersion::Draft(rng.gen_range(27u64..35) as u8),
            2 => QuicVersion::Other(rng.gen::<u64>() as u32),
            _ => QuicVersion::DRAFT_27,
        },
        server_transport_params: rng.gen_bool(0.6).then(|| TransportParameters {
            max_idle_timeout_ms: rng.gen::<u64>(),
            max_udp_payload_size: rng.gen_range(1200u64..65535),
            initial_max_data: rng.gen::<u64>(),
            initial_max_stream_data: rng.gen::<u64>(),
            initial_max_streams_bidi: rng.gen_range(0u64..1000),
            ack_delay_exponent: rng.gen_range(0u64..21),
            max_ack_delay_ms: rng.gen_range(0u64..1 << 14),
            active_connection_id_limit: rng.gen_range(2u64..16),
        }),
        transport_fingerprint: rng.gen_bool(0.6).then(|| rng.gen::<u64>()),
        ecn_state: arb_validation_state(rng),
        peer_mirrored: rng.gen_bool(0.5),
        mirrored_counts: arb_counts(rng),
        sent_counts,
        received_ecn: arb_counts(rng),
        server_used_ecn: rng.gen_bool(0.3),
        error: arb_opt_string(rng),
    }
}

fn arb_tcp_report(rng: &mut StdRng, force_ce: bool) -> TcpReport {
    TcpReport {
        connected: rng.gen_bool(0.9),
        negotiated: rng.gen_bool(0.7),
        ce_mirrored: force_ce || rng.gen_bool(0.3),
        cwr_acknowledged: rng.gen_bool(0.3),
        received_ecn: arb_counts(rng),
        server_observed_ecn: if force_ce {
            EcnCounts {
                ect0: 0,
                ect1: 0,
                ce: rng.gen_range(1u64..20),
            }
        } else {
            arb_counts(rng)
        },
        server_used_ecn: rng.gen_bool(0.4),
        response_received: rng.gen_bool(0.8),
        forward_losses: rng.gen_range(0u64..1 << 20) as u32,
    }
}

fn arb_trace(rng: &mut StdRng, ipv6_only: bool) -> TraceAnalysis {
    // Empty traces (no responding hop) are a named edge case.
    let change_count = rng.gen_range(0usize..5);
    let changes = (0..change_count)
        .map(|_| EcnChange {
            from: arb_codepoint(rng),
            to: arb_codepoint(rng),
            visible_at_ttl: rng.gen_range(0u64..64) as u8,
            last_unchanged_router: rng.gen_bool(0.8).then(|| arb_ip(rng, ipv6_only)),
            asn_before: rng.gen_bool(0.7).then(|| Asn(rng.gen::<u64>() as u32)),
            first_changed_router: rng.gen_bool(0.8).then(|| arb_ip(rng, ipv6_only)),
            asn_at_change: rng.gen_bool(0.7).then(|| Asn(rng.gen::<u64>() as u32)),
        })
        .collect();
    TraceAnalysis {
        changes,
        verdict: match rng.gen_range(0u32..6) {
            0 => PathVerdict::NoChange,
            1 => PathVerdict::Cleared,
            2 => PathVerdict::RemarkedToEct1,
            3 => PathVerdict::RemarkedToEct0,
            4 => PathVerdict::CeMarked,
            _ => PathVerdict::Untested,
        },
        final_observed: rng.gen_bool(0.8).then(|| arb_codepoint(rng)),
        dscp_rewritten_only: rng.gen_bool(0.2),
    }
}

fn arb_measurement(rng: &mut StdRng, host_id: usize) -> HostMeasurement {
    let ipv6_only = rng.gen_bool(0.2);
    let force_ce = rng.gen_bool(0.2);
    HostMeasurement {
        host_id,
        quic_reachable: rng.gen_bool(0.5),
        quic: rng.gen_bool(0.7).then(|| arb_quic_report(rng, force_ce)),
        tcp: rng.gen_bool(0.9).then(|| arb_tcp_report(rng, force_ce)),
        trace: rng.gen_bool(0.4).then(|| arb_trace(rng, ipv6_only)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any batch of arbitrary measurements survives encode→decode exactly.
    #[test]
    fn encode_decode_is_identity(
        seed in 0u64..1_000_000,
        count in 0usize..40,
        first_id in 0usize..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts: Vec<HostMeasurement> = (0..count)
            .map(|offset| arb_measurement(&mut rng, first_id + offset * 3))
            .collect();
        let decoded = decode_block(&encode_block(&hosts));
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        prop_assert_eq!(decoded.unwrap(), hosts);
    }

    /// The identity also holds through the segment file framing on disk.
    #[test]
    fn segment_files_round_trip(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts: Vec<HostMeasurement> = (0..rng.gen_range(1usize..20))
            .map(|id| arb_measurement(&mut rng, id))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "qem-codec-prop-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let written = segment::write_segment(&dir, 0, &hosts).unwrap();
        let path = dir.join(segment::segment_file_name(0));
        prop_assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let read_back = std::fs::read(&path)
            .map_err(StoreError::from)
            .and_then(|bytes| segment::check_framing(&bytes).and_then(decode_block));
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert!(read_back.is_ok(), "read failed: {:?}", read_back.err());
        prop_assert_eq!(read_back.unwrap(), hosts);
    }
}

/// The named edge cases, pinned explicitly so they never depend on sampling
/// luck: empty trace, IPv6-only routers, a ForceCe observation, and the
/// all-absent measurement — in ascending host-id order, as in every block.
#[test]
fn pinned_edge_cases_round_trip() {
    let cases = vec![
        // Empty trace: sampled for tracing but no hop produced a quote.
        HostMeasurement {
            host_id: 0,
            quic_reachable: false,
            quic: None,
            tcp: None,
            trace: Some(TraceAnalysis {
                changes: vec![],
                verdict: PathVerdict::Untested,
                final_observed: None,
                dscp_rewritten_only: false,
            }),
        },
        // IPv6-only trace routers.
        HostMeasurement {
            host_id: 1,
            quic_reachable: true,
            quic: None,
            tcp: None,
            trace: Some(TraceAnalysis {
                changes: vec![EcnChange {
                    from: EcnCodepoint::Ect0,
                    to: EcnCodepoint::NotEct,
                    visible_at_ttl: 255,
                    last_unchanged_router: Some("2001:db8::1".parse().unwrap()),
                    asn_before: None,
                    first_changed_router: Some("2001:db8:ffff::2".parse().unwrap()),
                    asn_at_change: Some(Asn(1299)),
                }],
                verdict: PathVerdict::Cleared,
                final_observed: Some(EcnCodepoint::NotEct),
                dscp_rewritten_only: true,
            }),
        },
        // ForceCe: CE-only sent counters on QUIC and TCP.
        HostMeasurement {
            host_id: 2,
            quic_reachable: true,
            quic: Some(ClientReport {
                connected: true,
                response: Some(HttpResponse::ok()),
                version: QuicVersion::V1,
                server_transport_params: None,
                transport_fingerprint: None,
                ecn_state: EcnValidationState::Failed(EcnValidationFailure::AllCe),
                peer_mirrored: true,
                mirrored_counts: EcnCounts {
                    ect0: 0,
                    ect1: 0,
                    ce: 9,
                },
                sent_counts: EcnCounts {
                    ect0: 0,
                    ect1: 0,
                    ce: 9,
                },
                received_ecn: EcnCounts::ZERO,
                server_used_ecn: false,
                error: Some(String::new()),
            }),
            tcp: Some(TcpReport {
                connected: true,
                negotiated: true,
                ce_mirrored: true,
                cwr_acknowledged: true,
                received_ecn: EcnCounts::ZERO,
                server_observed_ecn: EcnCounts {
                    ect0: 0,
                    ect1: 0,
                    ce: 7,
                },
                server_used_ecn: false,
                response_received: true,
                forward_losses: u32::MAX,
            }),
            trace: None,
        },
        // Host that answered nothing at all.
        HostMeasurement {
            host_id: usize::MAX >> 1,
            quic_reachable: false,
            quic: None,
            tcp: None,
            trace: None,
        },
    ];
    let decoded = decode_block(&encode_block(&cases)).expect("edge cases must decode");
    assert_eq!(decoded, cases);
}

/// A block of `count` arbitrary measurements grown from `seed`.
fn arb_block(seed: u64, count: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hosts: Vec<HostMeasurement> = (0..count)
        .map(|id| arb_measurement(&mut rng, id * 7))
        .collect();
    encode_block(&hosts)
}

/// `valid` with the byte at `at` changed by `flip` (never zero), or cut to
/// `cut` bytes when `flip` is zero.
fn damaged(mut valid: Vec<u8>, at: usize, flip: u8, cut: usize) -> Vec<u8> {
    if flip == 0 {
        valid.truncate(cut % (valid.len() + 1));
    } else if !valid.is_empty() {
        let at = at % valid.len();
        valid[at] ^= flip;
    }
    valid
}

/// The segment file `write_segment` writes around `block`.
fn framed(block: &[u8]) -> Vec<u8> {
    let mut bytes = b"QSEG".to_vec();
    bytes.push(qem_store::FORMAT_VERSION);
    bytes.extend_from_slice(block);
    let seal = qem_store::wire::fnv1a(&bytes);
    bytes.extend_from_slice(&seal.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Whatever bytes a damaged disk presents, the block decoder returns a
    /// typed error or measurements that encode back to exactly those bytes.
    #[test]
    fn decode_block_is_total(
        arbitrary in proptest::collection::vec(any::<u8>(), 0..400),
        seed in 0u64..1_000_000,
        count in 0usize..6,
        damage in (any::<usize>(), any::<u8>(), any::<usize>()),
    ) {
        let (at, flip, cut) = damage;
        for bytes in [arbitrary, damaged(arb_block(seed, count), at, flip, cut)] {
            if let Ok(hosts) = decode_block(&bytes) {
                prop_assert_eq!(encode_block(&hosts), bytes);
            }
        }
    }

    /// Decoding onto a held prefix is all or nothing: the prefix stays as it
    /// was, and either exactly the records `decode_block` returns — every
    /// host id above `after` — follow it, or nothing does and the buffer
    /// keeps its allocation.
    #[test]
    fn decode_block_into_appends_all_or_nothing(
        arbitrary in proptest::collection::vec(any::<u8>(), 0..400),
        seed in 0u64..1_000_000,
        count in 0usize..6,
        damage in (any::<usize>(), 1u8..=255),
        prefix in (0usize..4, 0usize..20),
    ) {
        let (at, flip) = damage;
        let (held_count, after) = prefix;
        let after = after.checked_sub(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let held: Vec<HostMeasurement> =
            (0..held_count).map(|id| arb_measurement(&mut rng, id)).collect();
        let valid = arb_block(seed, count);
        for bytes in [arbitrary, damaged(valid.clone(), at, flip, 0), valid] {
            let mut out = Vec::with_capacity(held.len() + 8);
            out.extend(held.iter().cloned());
            let decoded = decode_block(&bytes);
            let capacity = out.capacity();
            match decode_block_into(&bytes, after, &mut out) {
                Ok(()) => {
                    prop_assert_eq!(&out[..held.len()], &held[..]);
                    let records = decoded.expect("decode_block accepts what decode_block_into does");
                    prop_assert_eq!(&out[held.len()..], &records[..]);
                    prop_assert!(records.iter().all(|m| after.map_or(true, |a| m.host_id > a)));
                }
                Err(_) => {
                    prop_assert_eq!(&out, &held);
                    prop_assert!(out.capacity() >= capacity);
                    if after.is_none() {
                        prop_assert!(decoded.is_err());
                    }
                }
            }
        }
    }

    /// The readers under the block decoder — the dictionaries and the wire
    /// primitives — are total too, and what they read writes back to the
    /// bytes they consumed.
    #[test]
    fn dictionary_and_wire_readers_are_total(
        arbitrary in proptest::collection::vec(any::<u8>(), 0..64),
        seed in 0u64..1_000_000,
        damage in (any::<usize>(), any::<u8>(), any::<usize>()),
    ) {
        let (at, flip, cut) = damage;
        for bytes in [arbitrary, damaged(arb_block(seed, 3), at, flip, cut)] {
            let mut r = ByteReader::new(&bytes);
            let _ = Dicts::decode(&mut r);
            prop_assert!(r.position() <= bytes.len());

            let mut r = ByteReader::new(&bytes);
            if let Ok(value) = r.varint() {
                let mut again = Vec::new();
                write_varint(&mut again, value);
                prop_assert_eq!(&again[..], &bytes[..r.position()]);
            }
            let mut r = ByteReader::new(&bytes);
            if let Ok(text) = r.string() {
                let mut again = Vec::new();
                write_str(&mut again, &text);
                prop_assert_eq!(&again[..], &bytes[..r.position()]);
            }
            let mut r = ByteReader::new(&bytes);
            if let Ok(value) = r.u64_le() {
                prop_assert_eq!(&value.to_le_bytes()[..], &bytes[..8]);
            }
        }
    }

    /// A segment file's framing check returns a typed error or the block it
    /// seals, which framed again is the file.
    #[test]
    fn segment_framing_is_total(
        arbitrary in proptest::collection::vec(any::<u8>(), 0..64),
        seed in 0u64..1_000_000,
        count in 0usize..4,
        damage in (any::<usize>(), any::<u8>(), any::<usize>()),
    ) {
        let (at, flip, cut) = damage;
        let valid = framed(&arb_block(seed, count));
        prop_assert!(segment::check_framing(&valid).is_ok());
        for bytes in [arbitrary, damaged(valid, at, flip, cut)] {
            if let Ok(block) = segment::check_framing(&bytes) {
                prop_assert_eq!(framed(block), bytes);
            }
        }
    }
}
