//! The declarative scenario model: what to run, over which bottleneck,
//! under which ECN variant — and the compiler that lowers a scenario onto
//! [`qem_netsim::EngineCore`].
//!
//! A [`Scenario`] is plain data (netbench-style): a named bottleneck spec
//! plus an ordered list of [`AppSpec`]s.  Registration order
//! on the engine *is* spec order (connections within an app in connection
//! order), which — together with the engine's FIFO tie-breaking — makes a
//! scenario run a pure function of `(scenario, variant)`.  The same scenario
//! runs unmodified on any [`Scheduler`] ([`Scenario::run_with`]): the
//! production [`TimerWheel`], or the oracle the determinism tests hold the
//! wheel to.

use crate::apps::{jitter_us, BulkAppFlow, RtcAppFlow};
use crate::report::{BulkOutcome, LoadOutcome, RtcOutcome, WorkloadReport};
use qem_netsim::{
    Asn, DuplexPath, EcnPolicy, EngineCore, FaultKind, FaultPlan, Hop, LoadFlow, Path, Probability,
    QueueConfig, Router, RouterId, Scheduler, SharedQueues, SimDuration, SimInstant, TimerWheel,
};
use qem_obs::HistogramSnapshot;
use qem_packet::ecn::EcnCodepoint;

/// Fibonacci-hashing constant shared with [`LoadFlow::fleet`]'s per-flow
/// seed derivation, so nested derivations stay well distributed.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

fn derive_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(SEED_MIX).wrapping_add(salt)
}

/// The ECN condition a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcnVariant {
    /// Endpoints send ECT(0); the bottleneck CE-marks and the marks reach
    /// the receiver — the feedback loop closes without loss.
    EcnOn,
    /// Endpoints send not-ECT; the AQM spares them (RFC 3168 §6.1.1), so the
    /// only congestion signal is tail drop when the queue is full.
    EcnOff,
    /// Endpoints send ECT(0) and the bottleneck marks, but a downstream hop
    /// erases CE back to ECT(0) ([`EcnPolicy::EraseCe`]): the path *looks*
    /// ECN-capable while the congestion signal is destroyed in transit —
    /// the paper's broken-path failure mode, and the worst of both worlds
    /// (marks are spent, nobody backs off, the queue pegs at capacity).
    CeBlackhole,
}

impl EcnVariant {
    /// Every variant, in the order reports render them.
    pub const ALL: [EcnVariant; 3] = [
        EcnVariant::EcnOn,
        EcnVariant::EcnOff,
        EcnVariant::CeBlackhole,
    ];

    /// Stable label used in report tables and metric keys.
    pub fn label(self) -> &'static str {
        match self {
            EcnVariant::EcnOn => "ecn-on",
            EcnVariant::EcnOff => "ecn-off",
            EcnVariant::CeBlackhole => "ce-blackhole",
        }
    }

    /// The codepoint application senders use under this variant.
    pub fn codepoint(self) -> EcnCodepoint {
        match self {
            EcnVariant::EcnOff => EcnCodepoint::NotEct,
            EcnVariant::EcnOn | EcnVariant::CeBlackhole => EcnCodepoint::Ect0,
        }
    }
}

/// The shared bottleneck every app of a scenario crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BottleneckSpec {
    /// Queue capacity in packets; arrivals beyond it tail-drop.
    pub capacity: usize,
    /// Occupancy below which the AQM never marks.
    pub min_thresh: usize,
    /// Occupancy at which marking probability reaches 1.
    pub max_thresh: usize,
    /// Per-packet serialization time, µs (the drain rate).
    pub service_time_us: u64,
    /// Propagation delay of each hop, µs.
    pub hop_delay_us: u64,
}

impl BottleneckSpec {
    fn queue_config(&self) -> QueueConfig {
        let mut config = QueueConfig::bottleneck(self.capacity, self.min_thresh, self.max_thresh);
        config.service_time = SimDuration::from_micros(self.service_time_us);
        config
    }
}

/// Which transport a bulk transfer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// QUIC short-header STREAM packets over UDP.
    Quic,
    /// TCP `ACK|PSH` data segments.
    Tcp,
}

/// One application of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// `connections` parallel transfers of an `object_size`-byte object,
    /// measuring goodput and flow completion time.
    BulkTransfer {
        /// Wire format of the transfer.
        transport: Transport,
        /// Bytes per object.
        object_size: u64,
        /// Parallel connections, each transferring its own object.
        connections: u8,
    },
    /// A constant-bitrate RTC stream measuring frame lateness and jitter.
    RtcStream {
        /// Interval between frames, µs (33 000 ≈ 30 fps).
        frame_interval_us: u64,
        /// Stream bitrate in kbit/s.
        bitrate_kbps: u64,
        /// Stream duration, µs.
        duration_us: u64,
    },
    /// Background load: a fleet of paced UDP senders sharing the bottleneck
    /// (the same [`LoadFlow`] machinery `CrossTraffic` uses — one code path).
    Load {
        /// Number of flows in the fleet.
        flows: u32,
        /// Packets each flow sends.
        packets_per_flow: u64,
        /// Pacing interval per flow, µs.
        interval_us: u64,
    },
}

/// A complete declarative workload scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, used in report headers.
    pub name: String,
    /// Master seed; every flow derives its RNG seed from it.
    pub seed: u64,
    /// The shared bottleneck spec.
    pub bottleneck: BottleneckSpec,
    /// The applications, in registration order.
    pub apps: Vec<AppSpec>,
    /// Fault plan attached to the forward path.  The default (empty) plan
    /// consumes no RNG draws, so fault-free scenarios are byte-identical to
    /// the pre-fault world.
    pub fault: FaultPlan,
}

/// Internal registration plan entry: which flow vector the next `count`
/// engine slots come from.
enum AppKind {
    Bulk,
    Rtc,
    Load,
}

impl Scenario {
    /// The router owning the shared bottleneck queue (hop 2 of 3).
    pub const BOTTLENECK_ROUTER: RouterId = RouterId(2);

    /// The default netbench-style scenario the example, golden snapshot and
    /// bench all run: QUIC and TCP bulk transfers, one 30 fps / 3 Mbit/s RTC
    /// stream, and a burst of background load, all over a 4 000 pkt/s
    /// bottleneck.
    pub fn netbench_default(seed: u64) -> Scenario {
        Scenario {
            name: "netbench".into(),
            seed,
            bottleneck: BottleneckSpec {
                capacity: 128,
                min_thresh: 16,
                max_thresh: 48,
                service_time_us: 250,
                hop_delay_us: 2_000,
            },
            apps: vec![
                AppSpec::BulkTransfer {
                    transport: Transport::Quic,
                    object_size: 384 * 1024,
                    connections: 4,
                },
                AppSpec::BulkTransfer {
                    transport: Transport::Tcp,
                    object_size: 384 * 1024,
                    connections: 2,
                },
                AppSpec::RtcStream {
                    frame_interval_us: 33_000,
                    bitrate_kbps: 3_000,
                    duration_us: 3_000_000,
                },
                AppSpec::Load {
                    flows: 8,
                    packets_per_flow: 80,
                    interval_us: 4_000,
                },
            ],
            fault: FaultPlan::default(),
        }
    }

    /// The netbench workload over a chronically lossy bottleneck: steady
    /// random loss and jitter for the whole run, plus a mid-run corruption
    /// window.  The chaos counterpart of [`Scenario::netbench_default`].
    pub fn lossy_bottleneck(seed: u64) -> Scenario {
        let mut scenario = Scenario::netbench_default(seed);
        scenario.name = "lossy-bottleneck".into();
        scenario.fault = FaultPlan::new()
            .always(FaultKind::Loss {
                rate: Probability::new(0.03),
            })
            .always(FaultKind::Jitter {
                max: SimDuration::from_micros(1_500),
            })
            .window(
                SimInstant::EPOCH + SimDuration::from_micros(500_000),
                SimInstant::EPOCH + SimDuration::from_micros(1_500_000),
                FaultKind::Corrupt {
                    rate: Probability::new(0.02),
                },
            );
        scenario
    }

    /// The netbench workload over a flapping link: a square-wave outage
    /// (200 ms down out of every second) through the middle of the run,
    /// with reordering while the link is unstable.  Deterministic — the
    /// flap is a pure function of virtual time.
    pub fn flapping_link(seed: u64) -> Scenario {
        let mut scenario = Scenario::netbench_default(seed);
        scenario.name = "flapping-link".into();
        scenario.fault = FaultPlan::new()
            .window(
                SimInstant::EPOCH + SimDuration::from_micros(300_000),
                SimInstant::EPOCH + SimDuration::from_micros(2_300_000),
                FaultKind::Flap {
                    period: SimDuration::from_micros(1_000_000),
                    down: SimDuration::from_micros(200_000),
                },
            )
            .window(
                SimInstant::EPOCH + SimDuration::from_micros(300_000),
                SimInstant::EPOCH + SimDuration::from_micros(2_300_000),
                FaultKind::Reorder {
                    rate: Probability::new(0.05),
                    extra: SimDuration::from_micros(2_500),
                },
            );
        scenario
    }

    /// The three-hop forward path of the scenario: access router, the shared
    /// bottleneck, and an egress router which under
    /// [`EcnVariant::CeBlackhole`] erases CE marks *after* the bottleneck
    /// applied them.  The reverse direction is clean and unqueued.
    pub fn forward_path(&self, variant: EcnVariant) -> Path {
        let hop_delay = SimDuration::from_micros(self.bottleneck.hop_delay_us);
        let egress = match variant {
            EcnVariant::CeBlackhole => {
                Router::transparent(3, Asn(64502)).with_ecn_policy(EcnPolicy::EraseCe)
            }
            _ => Router::transparent(3, Asn(64502)),
        };
        Path::new(vec![
            Hop::new(Router::transparent(1, Asn(64500))).with_delay(hop_delay),
            Hop::new(Router::transparent(2, Asn(64501))).with_delay(hop_delay),
            Hop::new(egress).with_delay(hop_delay),
        ])
        .with_fault(self.fault.clone())
    }

    /// Run the scenario under `variant` on the production timer wheel.
    pub fn run(&self, variant: EcnVariant) -> WorkloadReport {
        self.run_with::<TimerWheel<usize>>(variant)
    }

    /// Run the scenario under `variant` on scheduler `S`.  Any scheduler
    /// that keeps the [`Scheduler`] contract yields the report
    /// [`Scenario::run`] does; the determinism tests check that with an
    /// oracle of their own.
    pub fn run_with<S: Scheduler<usize> + Default>(&self, variant: EcnVariant) -> WorkloadReport {
        let forward = self.forward_path(variant);
        let duplex = DuplexPath::symmetric_clean_reverse(forward.clone());
        let codepoint = variant.codepoint();

        let mut shared = SharedQueues::new();
        shared.register(Self::BOTTLENECK_ROUTER, self.bottleneck.queue_config());

        // Build the concrete flows, grouped by kind but remembering spec
        // order in `plan` so engine registration order equals spec order.
        let mut bulks: Vec<BulkAppFlow> = Vec::new();
        let mut rtcs: Vec<RtcAppFlow> = Vec::new();
        let mut loads: Vec<LoadFlow> = Vec::new();
        let mut plan: Vec<(AppKind, usize)> = Vec::new();
        let mut conn_counter: u8 = 0;
        for (app_index, spec) in self.apps.iter().enumerate() {
            let app_seed = derive_seed(self.seed, app_index as u64);
            match *spec {
                AppSpec::BulkTransfer {
                    transport,
                    object_size,
                    connections,
                } => {
                    for conn in 0..connections {
                        conn_counter = conn_counter.wrapping_add(1);
                        let seed = derive_seed(app_seed, u64::from(conn));
                        let flow = match transport {
                            Transport::Quic => BulkAppFlow::quic(
                                duplex.clone(),
                                codepoint,
                                object_size,
                                conn_counter,
                                seed,
                            ),
                            Transport::Tcp => BulkAppFlow::tcp(
                                duplex.clone(),
                                codepoint,
                                object_size,
                                conn_counter,
                                seed,
                            ),
                        };
                        bulks.push(flow);
                    }
                    plan.push((AppKind::Bulk, usize::from(connections)));
                }
                AppSpec::RtcStream {
                    frame_interval_us,
                    bitrate_kbps,
                    duration_us,
                } => {
                    conn_counter = conn_counter.wrapping_add(1);
                    let frame_bytes = bitrate_kbps * frame_interval_us / 8_000;
                    let total_frames = duration_us / frame_interval_us.max(1);
                    rtcs.push(RtcAppFlow::new(
                        duplex.clone(),
                        codepoint,
                        frame_bytes,
                        SimDuration::from_micros(frame_interval_us),
                        total_frames,
                        conn_counter,
                        app_seed,
                    ));
                    plan.push((AppKind::Rtc, 1));
                }
                AppSpec::Load {
                    flows,
                    packets_per_flow,
                    interval_us,
                } => {
                    let fleet = LoadFlow::fleet(
                        &forward,
                        flows,
                        packets_per_flow,
                        SimDuration::from_micros(interval_us),
                        codepoint,
                        app_seed,
                    );
                    plan.push((AppKind::Load, fleet.len()));
                    loads.extend(fleet);
                }
            }
        }

        // Register in spec order and run to quiescence.
        let mut engine: EngineCore<'_, S> = EngineCore::new(shared);
        {
            let mut b = bulks.iter_mut();
            let mut r = rtcs.iter_mut();
            let mut l = loads.iter_mut();
            for (kind, count) in &plan {
                for _ in 0..*count {
                    match kind {
                        AppKind::Bulk => {
                            engine.add_flow(b.next().expect("plan matches bulk flows"));
                        }
                        AppKind::Rtc => {
                            engine.add_flow(r.next().expect("plan matches rtc flows"));
                        }
                        AppKind::Load => {
                            engine.add_flow(l.next().expect("plan matches load flows"));
                        }
                    }
                }
            }
            engine.run();
        }
        let queue = engine
            .shared()
            .stats(Self::BOTTLENECK_ROUTER)
            .unwrap_or_default();
        let mut metrics = engine.metrics();
        drop(engine);

        // Collect per-app outcomes in spec order.
        let mut report = WorkloadReport {
            variant,
            bulk: Vec::new(),
            rtc: Vec::new(),
            load: Vec::new(),
            queue,
            metrics: qem_obs::MetricsSnapshot::new(),
        };
        let mut bulk_cursor = bulks.iter();
        let mut rtc_cursor = rtcs.iter();
        let mut load_cursor = loads.iter();
        for spec in &self.apps {
            match *spec {
                AppSpec::BulkTransfer {
                    transport,
                    object_size,
                    connections,
                } => {
                    let mut outcome = BulkOutcome {
                        transport,
                        object_size,
                        goodput_kbps: Vec::new(),
                        fct_us: Vec::new(),
                        retransmits: 0,
                        ce_acks: 0,
                        timeouts: 0,
                    };
                    let mut fct_hist = HistogramSnapshot::default();
                    for _ in 0..connections {
                        let flow = bulk_cursor.next().expect("collected bulk flow");
                        let fct_us = flow
                            .completion_time()
                            .map(|d| d.as_micros())
                            .unwrap_or(u64::MAX);
                        fct_hist.record(fct_us);
                        // kbit/s = bytes * 8 / (µs / 1000).
                        let goodput = object_size * 8_000 / fct_us.max(1);
                        outcome.fct_us.push(fct_us);
                        outcome.goodput_kbps.push(goodput);
                        outcome.retransmits += flow.retransmits();
                        outcome.ce_acks += flow.ce_acks();
                        outcome.timeouts += flow.timeouts();
                    }
                    let index = report.bulk.len();
                    let prefix = format!("workload.{}.bulk{}", variant.label(), index);
                    metrics.set_histogram(format!("{prefix}.fct_us"), fct_hist);
                    metrics.set_counter(format!("{prefix}.retransmits"), outcome.retransmits);
                    metrics.set_counter(format!("{prefix}.ce_acks"), outcome.ce_acks);
                    report.bulk.push(outcome);
                }
                AppSpec::RtcStream { .. } => {
                    let flow = rtc_cursor.next().expect("collected rtc flow");
                    let mut lateness_hist = HistogramSnapshot::default();
                    for &sample in flow.lateness_us() {
                        lateness_hist.record(sample);
                    }
                    let index = report.rtc.len();
                    let prefix = format!("workload.{}.rtc{}", variant.label(), index);
                    metrics.set_histogram(format!("{prefix}.lateness_us"), lateness_hist);
                    metrics.set_counter(
                        format!("{prefix}.frames_delivered"),
                        flow.frames_delivered(),
                    );
                    metrics.set_counter(format!("{prefix}.frames_lost"), flow.frames_lost());
                    metrics
                        .set_counter(format!("{prefix}.jitter_us"), jitter_us(flow.lateness_us()));
                    report.rtc.push(RtcOutcome::from_samples(
                        flow.frames_delivered(),
                        flow.frames_lost(),
                        flow.ce_frames(),
                        flow.lateness_us().to_vec(),
                    ));
                }
                AppSpec::Load { flows, .. } => {
                    let mut outcome = LoadOutcome {
                        sent: 0,
                        delivered: 0,
                    };
                    for _ in 0..flows {
                        let flow = load_cursor.next().expect("collected load flow");
                        outcome.sent += flow.sent();
                        outcome.delivered += flow.delivered();
                    }
                    report.load.push(outcome);
                }
            }
        }
        report.metrics = metrics;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadComparison;

    fn tiny() -> Scenario {
        Scenario {
            name: "tiny".into(),
            seed: 11,
            bottleneck: BottleneckSpec {
                capacity: 64,
                min_thresh: 8,
                max_thresh: 24,
                service_time_us: 250,
                hop_delay_us: 1_000,
            },
            apps: vec![
                AppSpec::BulkTransfer {
                    transport: Transport::Quic,
                    object_size: 96 * 1024,
                    connections: 2,
                },
                AppSpec::RtcStream {
                    frame_interval_us: 33_000,
                    bitrate_kbps: 1_500,
                    duration_us: 500_000,
                },
                AppSpec::Load {
                    flows: 4,
                    packets_per_flow: 30,
                    interval_us: 4_000,
                },
            ],
            fault: FaultPlan::default(),
        }
    }

    #[test]
    fn variants_differ_in_the_expected_directions() {
        let scenario = tiny();
        let on = scenario.run(EcnVariant::EcnOn);
        let off = scenario.run(EcnVariant::EcnOff);
        let broken = scenario.run(EcnVariant::CeBlackhole);

        // ECN-on: marks happen and reach the senders; no loss needed.
        assert!(on.queue.marked > 0);
        assert!(on.bulk.iter().map(|b| b.ce_acks).sum::<u64>() > 0);

        // ECN-off: not-ECT is never marked; tail drop is the only signal.
        assert_eq!(off.queue.marked, 0);

        // Broken path: the bottleneck spends marks but no sender ever sees
        // one — the signal is erased downstream.
        assert!(broken.queue.marked > 0);
        assert_eq!(broken.bulk.iter().map(|b| b.ce_acks).sum::<u64>(), 0);
        assert_eq!(broken.rtc.iter().map(|r| r.ce_frames).sum::<u64>(), 0);
    }

    #[test]
    fn fault_scenarios_impair_the_run() {
        let mut lossy = tiny();
        lossy.fault = Scenario::lossy_bottleneck(7).fault;
        let mut flappy = tiny();
        flappy.fault = Scenario::flapping_link(7).fault;

        let lossy_report = lossy.run(EcnVariant::EcnOn);
        assert!(
            lossy_report
                .metrics
                .counter("fault.drops.loss")
                .unwrap_or(0)
                > 0,
            "steady loss must cost packets"
        );
        assert!(lossy_report.metrics.counter("fault.jittered").unwrap_or(0) > 0);

        let flappy_report = flappy.run(EcnVariant::EcnOn);
        assert!(
            flappy_report
                .metrics
                .counter("fault.drops.flap")
                .unwrap_or(0)
                > 0,
            "the down slices must swallow packets"
        );

        // The fault-free scenario emits no fault keys at all — that silence
        // is what keeps the committed goldens byte-identical.
        let clean = tiny().run(EcnVariant::EcnOn);
        assert_eq!(clean.metrics.counter("fault.drops.loss"), None);
        assert_eq!(clean.metrics.counter("fault.jittered"), None);
    }

    #[test]
    fn the_fault_section_renders_only_for_faulted_runs() {
        let render = |scenario: &Scenario| {
            WorkloadComparison {
                scenario: scenario.name.clone(),
                seed: scenario.seed,
                reports: EcnVariant::ALL.iter().map(|&v| scenario.run(v)).collect(),
            }
            .to_string()
        };
        let mut lossy = tiny();
        lossy.fault = Scenario::lossy_bottleneck(7).fault;
        let faulted = render(&lossy);
        assert!(
            faulted.contains("-- fault injection --"),
            "faulted comparison must render the section:\n{faulted}"
        );
        let clean = render(&tiny());
        assert!(
            !clean.contains("-- fault injection --"),
            "clean comparison must not grow a section"
        );
    }

    #[test]
    fn only_the_blackhole_variant_impairs_the_path() {
        let scenario = Scenario::netbench_default(7);
        let impaired = |path: &Path| {
            path.hops
                .iter()
                .any(|hop| hop.router.ecn_policy != EcnPolicy::Pass)
        };
        assert!(!impaired(&scenario.forward_path(EcnVariant::EcnOn)));
        assert!(!impaired(&scenario.forward_path(EcnVariant::EcnOff)));
        let broken = scenario.forward_path(EcnVariant::CeBlackhole);
        assert!(impaired(&broken));
        // The eraser sits strictly after the bottleneck, so marks are spent
        // before they are destroyed.
        assert_eq!(
            broken.hops.last().map(|h| h.router.ecn_policy),
            Some(EcnPolicy::EraseCe)
        );
        assert_eq!(broken.hops[1].router.id, Scenario::BOTTLENECK_ROUTER);
    }
}
