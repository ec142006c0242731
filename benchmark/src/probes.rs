//! The per-layer probes of a traced run: every layer measured from outside,
//! by timing calls into its public functions.
//!
//! Times are the fastest of [`REPETITIONS`] repetitions (operations shorter
//! than a microsecond are timed in batches); allocation counts come from one
//! more, counted repetition.  Which end-to-end metric each probe should
//! move, and on which workload, is tabulated in the README.

use crate::alloc::{self, Counts};
use crate::contract::{per_layer_unit, PER_LAYER};
use crate::workloads::{events_processed, Params};
use crate::Metric;
use qem_core::reports::{
    figure5, figure6, figure7, table1, table2, table3, table4, table5, table6, table7,
};
use qem_core::{
    Campaign, CampaignOptions, HostMeasurement, JoinedSnapshot, ScanOptions, Scanner,
    ShardedExecutor, SnapshotSource, VantagePoint,
};
use qem_netsim::engine::{Engine, Scheduler};
use qem_netsim::{
    build_transit_path, Asn, CrossTraffic, DuplexPath, SimDuration, SimInstant, TimerWheel,
    TransitProfile,
};
use qem_obs::MetricsSnapshot;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol, Ipv4Header};
use qem_packet::quic::{
    AckFrame, ConnectionId, Frame, LongPacketType, PacketHeader, QuicPacket, QuicVersion,
};
use qem_quic::ecn::{EcnConfig, EcnValidator};
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, ServerBehavior};
use qem_store::codec::{decode_block, encode_block};
use qem_store::{
    CampaignStoreExt, CampaignWriter, LongitudinalWriter, SnapshotMeta, StoredSnapshot,
};
use qem_tcp::{TcpClientConfig, TcpConnectionRun, TcpServerBehavior};
use qem_tracebox::{analyze_trace, trace_path, TraceConfig};
use qem_web::{SnapshotDate, Universe, UniverseConfig};
use qem_workload::{EcnVariant, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Display;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

/// Repetitions of every timed probe.
pub const REPETITIONS: usize = 30;
/// Universe scale of the probes (1:4000): per-host and per-domain costs do
/// not depend on it, and the whole set stays within one run's time.
const PROBE_SCALE: f64 = 0.00025;

/// Nanoseconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_nanos() as f64)
}

/// The fastest of `repetitions` samples.
fn fastest(repetitions: usize, mut sample: impl FnMut() -> f64) -> f64 {
    (0..repetitions.max(1))
        .map(|_| sample())
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per call of `f`, timing `batch` calls at a time.
fn ns_per_call<T>(repetitions: usize, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    fastest(repetitions, || {
        timed(|| {
            for _ in 0..batch {
                black_box(f());
            }
        })
        .1 / batch as f64
    })
}

/// What one call of `f` allocates.
fn allocations<T>(f: impl FnOnce() -> T) -> Counts {
    let (out, counts) = alloc::counted(f);
    drop(black_box(out));
    counts
}

struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics
            .push((name.to_string(), value, per_layer_unit(name)));
    }
}

fn client_addr() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
}

fn server_addr() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(198, 51, 100, 80))
}

/// The eight-hop path from the main vantage point to a cloud host.
fn duplex_path(profile: TransitProfile) -> DuplexPath {
    DuplexPath::symmetric_clean_reverse(build_transit_path(Asn::DFN, Asn(16509), profile, false))
}

/// Run every probe and return the per-layer metrics.
pub fn run(params: &Params, repetitions: usize) -> Result<Vec<Metric>, String> {
    let mut report = Report {
        metrics: Vec::new(),
    };
    let config = UniverseConfig {
        scale: params.scale.unwrap_or(PROBE_SCALE),
        seed: params.seed,
        ensure_rare_segments: true,
    };
    let universe = Universe::generate(&config);
    // Connection-level unit costs first: the scanner's self share is what
    // its time leaves after them.
    let unit_costs = transports(&mut report, params, &universe, repetitions);
    web(&mut report, &config, universe.domains.len(), repetitions);
    let scan = core(&mut report, params, &universe, unit_costs, repetitions);
    netsim(&mut report, params, repetitions);
    packet(&mut report, repetitions);
    store(&mut report, params, &universe, &scan, repetitions)?;
    workload(&mut report, params, repetitions);
    obs(&mut report, params, repetitions);
    // Hand the metrics back in the contract's order, each exactly once.
    PER_LAYER
        .iter()
        .map(|&(name, ..)| {
            let mut found = report.metrics.iter().filter(|m| m.0 == name);
            match (found.next(), found.next()) {
                (Some(metric), None) => Ok(metric.clone()),
                _ => Err(format!("the probes did not measure {name} exactly once")),
            }
        })
        .collect()
}

fn web(report: &mut Report, config: &UniverseConfig, domains: usize, repetitions: usize) {
    let domains = domains as f64;
    let ns = fastest(repetitions, || timed(|| Universe::generate(config)).1);
    let (universe, counts) = alloc::counted(|| Universe::generate(config));
    drop(universe);
    report.push("web.generate_ns_per_domain", ns / domains);
    report.push(
        "web.generate_allocs_per_domain",
        counts.allocs as f64 / domains,
    );
    report.push("web.live_bytes_per_domain", counts.live as f64 / domains);
}

/// Nanoseconds of one QUIC connection, one TCP connection and one trace.
struct UnitCosts {
    quic_ns: f64,
    tcp_ns: f64,
    trace_ns: f64,
}

fn transports(
    report: &mut Report,
    params: &Params,
    universe: &Universe,
    repetitions: usize,
) -> UnitCosts {
    let clean = duplex_path(TransitProfile::Clean);
    let impaired = duplex_path(TransitProfile::Remarking { asn: Asn::ARELION });
    let seed = params.seed;
    let quic = |path: &DuplexPath, telemetry: bool| {
        ConnectionRun::new(
            ClientConfig::paper_default("bench.example"),
            ServerBehavior::accurate(),
            path,
            DriverConfig::new(client_addr(), server_addr()),
        )
        .telemetry(telemetry)
        .execute(&mut StdRng::seed_from_u64(seed))
    };
    let quic_ns = ns_per_call(repetitions, 10, || quic(&clean, true));
    let counts = allocations(|| quic(&clean, true));
    report.push("quic.connection_ns", quic_ns);
    report.push(
        "quic.connection_ns_impaired",
        ns_per_call(repetitions, 10, || quic(&impaired, true)),
    );
    report.push("quic.connection_allocs", counts.allocs as f64);
    report.push("quic.connection_alloc_bytes", counts.bytes as f64);
    report.push(
        "quic.validator_ns",
        ns_per_call(repetitions, 1000, || {
            // Five testing packets sent, all five acknowledged as ECT(0).
            let mut validator = EcnValidator::new(black_box(EcnConfig::paper_default()));
            for _ in 0..5 {
                let codepoint = validator.codepoint_for_next_packet();
                validator.on_packet_sent(codepoint);
            }
            let acked = black_box(EcnCounts {
                ect0: 5,
                ect1: 0,
                ce: 0,
            });
            validator.on_ack_received(5, 5, Some(acked));
            validator.state()
        }),
    );

    let tcp = || {
        TcpConnectionRun::new(
            TcpClientConfig::ect0(),
            TcpServerBehavior::full_ecn(),
            client_addr(),
            server_addr(),
            &clean,
        )
        .execute(&mut StdRng::seed_from_u64(seed))
    };
    let tcp_ns = ns_per_call(repetitions, 10, tcp);
    let counts = allocations(tcp);
    report.push("tcp.connection_ns", tcp_ns);
    report.push("tcp.connection_allocs", counts.allocs as f64);
    report.push("tcp.connection_alloc_bytes", counts.bytes as f64);

    let trace = || {
        let trace = trace_path(
            &impaired.forward,
            client_addr(),
            server_addr(),
            &TraceConfig::default(),
            &mut StdRng::seed_from_u64(seed),
        );
        analyze_trace(&trace, &|ip| universe.as_org.asn_of_ip(ip))
    };
    let trace_ns = ns_per_call(repetitions, 10, trace);
    report.push("tracebox.trace_ns", trace_ns);
    report.push("tracebox.trace_allocs", allocations(trace).allocs as f64);

    // What the scanner pays for asking every connection for its telemetry.
    let bare_ns = ns_per_call(repetitions, 10, || quic(&clean, false));
    report.push(
        "obs.telemetry_overhead_share",
        (quic_ns - bare_ns) / bare_ns,
    );
    UnitCosts {
        quic_ns,
        tcp_ns,
        trace_ns,
    }
}

/// The main-vantage IPv4 scan of the probe universe, in host-id order.
struct Scan {
    options: CampaignOptions,
    hosts: Vec<HostMeasurement>,
}

fn core(
    report: &mut Report,
    params: &Params,
    universe: &Universe,
    unit_costs: UnitCosts,
    repetitions: usize,
) -> Scan {
    let options = params.options(1);
    let main = VantagePoint::main();
    let population = universe.scan_population(false);
    let hosts = population.len() as f64;
    let domains = universe.domains.len() as f64;

    // core.scanner
    let scan = |workers: usize| {
        let scan_options = ScanOptions {
            workers,
            seed: params.seed,
            ..ScanOptions::paper_default(options.date)
        };
        let scanner = Scanner::new(universe, main.clone(), scan_options);
        let measurements = scanner.scan_hosts(&population);
        (measurements, scanner.metrics_snapshot())
    };
    let scan_ns = fastest(repetitions, || timed(|| scan(1)).1);
    let ((_, metrics), counts) = alloc::counted(|| scan(1));
    let counter = |name: &str| metrics.counter(name).unwrap_or(0) as f64;
    // Below the scan the split is unit cost x telemetry count: spans
    // inside the crates are out of scope here.
    let split = [
        unit_costs.quic_ns * counter("scan.quic.attempted"),
        unit_costs.tcp_ns * counter("scan.tcp.probed"),
        unit_costs.trace_ns * counter("scan.traced"),
    ];
    println!(
        "  core.scan split: quic {:.3} ms, tcp {:.3} ms, tracebox {:.3} ms of {:.3} ms",
        split[0] / 1e6,
        split[1] / 1e6,
        split[2] / 1e6,
        scan_ns / 1e6
    );
    report.push("core.scan_ns_per_host", scan_ns / hosts);
    report.push("core.scan_allocs_per_host", counts.allocs as f64 / hosts);
    report.push(
        "core.scan_alloc_bytes_per_host",
        counts.bytes as f64 / hosts,
    );
    report.push(
        "core.scan_self_share",
        1.0 - split.iter().sum::<f64>() / scan_ns,
    );

    // core.executor
    let items: Vec<u64> = (0..100_000).collect();
    let executor = ShardedExecutor::new(params.nproc);
    let executor_ns = fastest(repetitions, || {
        timed(|| executor.run(&items, |&i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))).1
    });
    let parallel_ns = fastest(repetitions, || timed(|| scan(params.nproc)).1);
    report.push(
        "core.executor_ns_per_item",
        executor_ns / items.len() as f64,
    );
    report.push("core.executor_speedup", scan_ns / parallel_ns);

    // core.source
    let campaign = Campaign::new(universe);
    let result = campaign.run_main(&options, true);
    let (v4, v6) = (result.v4, result.v6.expect("run_main was asked for IPv6"));
    let join = || JoinedSnapshot::new(universe, &v4);
    report.push(
        "core.join_ns_per_domain",
        fastest(repetitions, || timed(join).1) / domains,
    );
    report.push(
        "core.join_allocs_per_domain",
        allocations(join).allocs as f64 / domains,
    );

    // core.reports
    let joined = join();
    let joined_v6 = JoinedSnapshot::new(universe, &v6);
    let ce_options = CampaignOptions {
        workers: 1,
        seed: params.seed,
        ..CampaignOptions::ce_probing()
    };
    let ce = campaign.run_snapshot(&main, &ce_options, false);
    let joined_ce = JoinedSnapshot::new(universe, &ce);
    let cloud = campaign.run_cloud(&v4, Some(&v6), &options);
    type Builder<'a> = Box<dyn Fn() -> Box<dyn Display> + 'a>;
    let builders: [(&str, Builder); 10] = [
        ("table1", Box::new(|| Box::new(table1(universe, &joined)))),
        ("table2", Box::new(|| Box::new(table2(universe, &joined)))),
        ("table3", Box::new(|| Box::new(table3(universe, &joined)))),
        ("table4", Box::new(|| Box::new(table4(universe, &joined)))),
        (
            "table5",
            Box::new(|| Box::new(table5(universe, &joined, Some(&joined_v6)))),
        ),
        ("table6", Box::new(|| Box::new(table6(universe, &joined)))),
        ("table7", Box::new(|| Box::new(table7(universe, &joined)))),
        (
            "figure5",
            Box::new(|| Box::new(figure5(universe, &joined, &joined_v6))),
        ),
        (
            "figure6",
            Box::new(|| Box::new(figure6(universe, &joined_ce))),
        ),
        (
            "figure7",
            Box::new(|| Box::new(figure7(universe, &joined, &cloud))),
        ),
    ];
    let mut built = Vec::new();
    for (name, build) in &builders {
        let ns = fastest(repetitions, || timed(build).1);
        report.push(&format!("core.report_ns_per_domain.{name}"), ns / domains);
        built.push(build());
    }
    let render = || built.iter().map(|b| b.to_string().len()).sum::<usize>();
    report.push("core.render_ns", fastest(repetitions, || timed(render).1));

    Scan {
        options,
        hosts: v4.hosts.values().cloned().collect(),
    }
}

/// Schedule/pop churn: `flows` timers, each popped and re-armed `rounds`
/// times through the [`Scheduler`] interface.  Returns the events fired.
fn wheel_churn(flows: usize, rounds: usize) -> u64 {
    let interval = |flow: usize| SimDuration::from_micros(97 + (flow as u64 % 64) * 13);
    let mut wheel: TimerWheel<usize> = TimerWheel::default();
    for flow in 0..flows {
        wheel.schedule_at(
            SimInstant::EPOCH + SimDuration::from_micros(flow as u64),
            flow,
        );
    }
    let target = (flows * rounds) as u64;
    let mut fired = 0u64;
    let mut batch = Vec::new();
    while fired < target && wheel.pop_batch(&mut batch) > 0 {
        for event in &batch {
            fired += 1;
            wheel.schedule_at(event.at + interval(event.payload), event.payload);
        }
    }
    fired
}

fn netsim(report: &mut Report, params: &Params, repetitions: usize) {
    report.push(
        "netsim.wheel_new_ns",
        ns_per_call(repetitions, 100, TimerWheel::<usize>::default),
    );
    for (name, flows) in [
        ("netsim.wheel_ns_per_op_1flow", 1),
        ("netsim.wheel_ns_per_op_100flows", 100),
    ] {
        let rounds = 20_000 / flows;
        let fired = wheel_churn(flows, rounds) as f64;
        let ns = fastest(repetitions, || timed(|| wheel_churn(flows, rounds)).1);
        report.push(name, ns / fired);
    }

    // 32 load flows over one registered bottleneck queue: the many-flow
    // engine without any transport on top.
    let forward = build_transit_path(Asn::DFN, Asn(16509), TransitProfile::Clean, false);
    let engine_run = || {
        let (queues, mut flows) = CrossTraffic::congested()
            .instantiate(&forward, params.seed)
            .expect("the congested scenario is enabled and the path has hops");
        let mut engine = Engine::new(queues);
        for flow in &mut flows {
            engine.add_flow(flow);
        }
        let ((), ns) = timed(|| engine.run());
        (engine.events_processed() as f64, ns)
    };
    let (events, _) = engine_run();
    report.push(
        "netsim.engine_ns_per_event_32flows",
        fastest(repetitions, || engine_run().1) / events,
    );
    report.push(
        "netsim.engine_allocs_per_event_32flows",
        allocations(engine_run).allocs as f64 / events,
    );

    let remarking = build_transit_path(
        Asn::DFN,
        Asn(16509),
        TransitProfile::Remarking { asn: Asn::ARELION },
        false,
    );
    let datagram = IpDatagram::new(IpHeader::V4(probe_ip_header()), vec![0u8; 1200]);
    let mut rng = StdRng::seed_from_u64(params.seed);
    report.push(
        "netsim.path_transit_ns",
        ns_per_call(repetitions, 100, || remarking.transit(&datagram, &mut rng)),
    );
    report.push(
        "netsim.path_transit_allocs",
        allocations(|| remarking.transit(&datagram, &mut rng)).allocs as f64,
    );
}

fn probe_ip_header() -> Ipv4Header {
    Ipv4Header::new(
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(198, 51, 100, 2),
        IpProtocol::Udp,
        64,
    )
    .with_ecn(EcnCodepoint::Ect0)
}

fn packet(report: &mut Report, repetitions: usize) {
    // An Initial carrying an ACK with ECN counts, padded to full size.
    let ack = AckFrame::contiguous(
        0,
        9,
        Some(EcnCounts {
            ect0: 10,
            ect1: 0,
            ce: 1,
        }),
    );
    let packet = QuicPacket::new(
        PacketHeader::Long {
            ty: LongPacketType::Initial,
            version: QuicVersion::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            token: Vec::new(),
            packet_number: 3,
        },
        Frame::encode_all(&[Frame::Ack(ack), Frame::Padding { size: 1100 }]),
    );
    let encoded = packet.encode();
    let decode = || QuicPacket::decode(&encoded, 8).expect("the packet was just encoded");
    let header = probe_ip_header();
    let header_bytes = header.encode(1200);
    let quic_encode_ns = ns_per_call(repetitions, 1000, || packet.encode());
    let quic_decode_ns = ns_per_call(repetitions, 1000, decode);
    report.push("packet.quic_encode_ns", quic_encode_ns);
    report.push("packet.quic_decode_ns", quic_decode_ns);
    report.push(
        "packet.ip_encode_ns",
        ns_per_call(repetitions, 1000, || header.encode(1200)),
    );
    report.push(
        "packet.ip_decode_ns",
        ns_per_call(repetitions, 1000, || {
            Ipv4Header::decode(&header_bytes).expect("the header was just encoded")
        }),
    );
    report.push(
        "packet.quic_encode_allocs",
        allocations(|| packet.encode()).allocs as f64,
    );
    report.push(
        "packet.quic_decode_allocs",
        allocations(decode).allocs as f64,
    );
}

fn store(
    report: &mut Report,
    params: &Params,
    universe: &Universe,
    scan: &Scan,
    repetitions: usize,
) -> Result<(), String> {
    let hosts = &scan.hosts;
    let n = hosts.len() as f64;
    let main = VantagePoint::main();
    let dir = params.scratch.join("probes");
    let clear = || {
        let _ = std::fs::remove_dir_all(&dir);
    };
    let text = |e: qem_store::StoreError| e.to_string();

    // The codec alone.
    let block = encode_block(hosts);
    let decoded = decode_block(&block).map_err(text)?;
    if decoded != *hosts {
        return Err("store probe: the block does not decode to its input".to_string());
    }
    let encode_ns = fastest(repetitions, || timed(|| encode_block(hosts)).1);
    let decode_ns = fastest(repetitions, || timed(|| decode_block(&block)).1);
    report.push("store.encode_ns_per_host", encode_ns / n);
    report.push("store.decode_ns_per_host", decode_ns / n);
    report.push("store.decode_encode_ratio", decode_ns / encode_ns);
    report.push("store.bytes_per_host", block.len() as f64 / n);
    report.push(
        "store.encode_allocs_per_host",
        allocations(|| encode_block(hosts)).allocs as f64 / n,
    );
    report.push(
        "store.decode_allocs_per_host",
        allocations(|| decode_block(&block)).allocs as f64 / n,
    );

    // Writer and reader over the sandbox filesystem, fsyncs included.
    let meta = SnapshotMeta::for_campaign(&scan.options, &main, false);
    let write = || {
        clear();
        let input = hosts.clone();
        let (result, ns) = timed(|| {
            let mut writer = CampaignWriter::create(&dir, &meta)?;
            for m in input {
                writer.append(m)?;
            }
            writer.finish()
        });
        result.map(|_| ns)
    };
    write().map_err(text)?;
    let append_ns = fastest(repetitions, || write().unwrap_or(f64::INFINITY));
    report.push("store.append_ns_per_host", append_ns / n);
    let open_ns = fastest(repetitions, || timed(|| StoredSnapshot::open(&dir)).1);
    report.push("store.open_ns_per_host", open_ns / n);
    let stored = StoredSnapshot::open(&dir).map_err(text)?;
    let iterate = || {
        let mut reachable = 0u64;
        stored.for_each_host(&mut |m| reachable += u64::from(m.quic_reachable));
        reachable
    };
    report.push(
        "store.iter_ns_per_host",
        fastest(repetitions, || timed(iterate).1) / n,
    );
    report.push(
        "store.to_snapshot_ns_per_host",
        fastest(repetitions, || timed(|| stored.to_snapshot()).1) / n,
    );
    drop(stored);

    // What streaming a census into a store costs over keeping it in memory.
    let campaign = Campaign::new(universe);
    let memory_ns = fastest(repetitions, || {
        timed(|| campaign.run_snapshot(&main, &scan.options, false)).1
    });
    let stream_ns = fastest(repetitions, || {
        clear();
        timed(|| campaign.run_snapshot_to_store(&main, &scan.options, false, &dir)).1
    });
    report.push(
        "store.stream_overhead_share",
        (stream_ns - memory_ns) / memory_ns,
    );

    // Two dates of a longitudinal series: the second stores only the delta.
    let earlier_options = CampaignOptions {
        date: SnapshotDate::FEB_2023,
        ..scan.options
    };
    let earlier: Vec<HostMeasurement> = campaign
        .run_snapshot(&main, &earlier_options, false)
        .hosts
        .into_values()
        .collect();
    let dates = [SnapshotDate::FEB_2023, scan.options.date];
    let series = || {
        clear();
        let inputs = [earlier.clone(), hosts.clone()];
        let (result, ns) = timed(|| {
            let mut writer = LongitudinalWriter::create(&dir, &main, &scan.options, &dates)?;
            for input in inputs {
                writer.begin_date()?;
                for m in input {
                    writer.append(m)?;
                }
                writer.end_date()?;
            }
            let stored = writer.stored_per_date().to_vec();
            writer.finish()?;
            Ok::<_, qem_store::StoreError>(stored)
        });
        result.map(|stored| (stored, ns))
    };
    let (stored_per_date, _) = series().map_err(text)?;
    report.push(
        "store.delta_ns_per_host",
        fastest(repetitions, || series().map_or(f64::INFINITY, |(_, ns)| ns)) / (2.0 * n),
    );
    report.push("store.delta_stored_share", stored_per_date[1] as f64 / n);
    clear();
    Ok(())
}

fn workload(report: &mut Report, params: &Params, repetitions: usize) {
    let default = Scenario::netbench_default(params.seed);
    let lossy = Scenario::lossy_bottleneck(params.seed);
    let flapping = Scenario::flapping_link(params.seed);
    let ns_per_event = |scenario: &Scenario, variant: EcnVariant| {
        let events = events_processed(&scenario.run(variant)) as f64;
        fastest(repetitions, || timed(|| scenario.run(variant)).1) / events
    };
    for variant in EcnVariant::ALL {
        report.push(
            &format!("workload.ns_per_event.{}", variant.label()),
            ns_per_event(&default, variant),
        );
    }
    report.push(
        "workload.ns_per_event.faulted",
        ns_per_event(&lossy, EcnVariant::EcnOn),
    );

    let (run, counts) = alloc::counted(|| default.run(EcnVariant::EcnOn));
    let events = events_processed(&run) as f64;
    report.push("workload.allocs_per_event", counts.allocs as f64 / events);
    report.push(
        "workload.alloc_bytes_per_event",
        counts.bytes as f64 / events,
    );
    let per_pass: u64 = [&default, &lossy, &flapping]
        .into_iter()
        .flat_map(|scenario| EcnVariant::ALL.map(|variant| scenario.run(variant)))
        .map(|run| events_processed(&run))
        .sum();
    report.push("workload.events_per_pass", per_pass as f64);
    let virtual_ns = run.metrics.gauge("engine.virtual_now_us").unwrap_or(0) as f64 * 1e3;
    let wall_ns = fastest(repetitions, || timed(|| default.run(EcnVariant::EcnOn)).1);
    report.push("workload.sim_s_per_wall_s", virtual_ns / wall_ns);
}

fn obs(report: &mut Report, params: &Params, repetitions: usize) {
    // What the scanner does per host under its mutex: fold one connection's
    // engine snapshot into the scan-wide accumulator.
    let clean = duplex_path(TransitProfile::Clean);
    let snapshot = ConnectionRun::new(
        ClientConfig::paper_default("bench.example"),
        ServerBehavior::accurate(),
        &clean,
        DriverConfig::new(client_addr(), server_addr()),
    )
    .telemetry(true)
    .execute(&mut StdRng::seed_from_u64(params.seed))
    .telemetry
    .expect("telemetry was asked for")
    .metrics;
    let mut accumulator = MetricsSnapshot::new();
    accumulator.merge_from(&snapshot);
    report.push(
        "obs.merge_ns",
        ns_per_call(repetitions, 100, || accumulator.merge_from(&snapshot)),
    );
}
