//! Couples a [`ClientConnection`] and a [`ServerConnection`] through a
//! simulated [`DuplexPath`], producing the observation the measurement
//! pipeline records for one domain.
//!
//! The connection is modelled as a sans-IO [`QuicFlow`] registered with the
//! discrete-event [`Engine`](qem_netsim::Engine): the flow wraps QUIC
//! datagrams into UDP and IP (setting the requested ECN codepoint), pushes
//! them through the forward or reverse path — consulting any **shared**
//! router egress queues the engine carries — and delivers whatever survives
//! to the other endpoint.  Time only advances when neither endpoint has
//! anything to send, in which case the flow sleeps until its next timer —
//! so lossy paths exercise the client's PTO/retransmission logic exactly as
//! real packet loss would.
//!
//! [`ConnectionRun`] is the one entrypoint: a builder selecting cross
//! traffic and telemetry instead of a function per combination —
//!
//! ```ignore
//! let outcome = ConnectionRun::new(client_config, behavior, &path, driver)
//!     .cross_traffic(CrossTraffic::congested())
//!     .telemetry(true)
//!     .execute(&mut rng);
//! ```
//!
//! Without cross traffic it drives a one-flow engine with no shared queues;
//! with it, the same flow runs next to background
//! [`LoadFlow`](qem_netsim::LoadFlow)s through a shared bottleneck, which is
//! where CE marking becomes load-dependent.
//!
//! Both endpoints' packet spaces, outboxes and stream buffers live in a
//! [`QuicScratch`], which [`ConnectionRun::scratch`] lends beside the
//! engine's — whose body the flow's UDP datagrams are encoded into — and
//! every run resets: over used scratches a run allocates what its outcome
//! keeps, the response's header values or an error.  Every run returns
//! the engine's [`EngineTally`](qem_netsim::EngineTally); by-name
//! telemetry is opt-in.

use crate::behavior::ServerBehavior;
use crate::client::{ClientConfig, ClientConnection, ClientReport};
use crate::outbox::Buffers;
use crate::server::ServerConnection;
use qem_netsim::engine::{
    run_measured, CrossTraffic, EngineScratch, EngineTelemetry, Flow, FlowStatus, SharedQueues,
};
use qem_netsim::{DuplexPath, SimDuration, SimInstant, TransitOutcome};
use qem_packet::ecn::EcnCounts;
use qem_packet::ip::{IpDatagram, IpProtocol};
use qem_packet::quic::QUIC_PORT;
use qem_packet::udp::UdpHeader;
use rand::Rng;
use std::borrow::Cow;
use std::net::IpAddr;

/// Driver parameters: the address pair a connection runs between.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Client source address.
    pub client_addr: IpAddr,
    /// Server address.
    pub server_addr: IpAddr,
}

impl DriverConfig {
    /// Client ephemeral UDP port.
    pub const CLIENT_PORT: u16 = 48_000;
    /// Hard cap on the simulated connection, well past the client's own
    /// 10 s deadline.
    pub const MAX_DURATION: SimDuration = SimDuration::from_secs(30);
    /// Safety cap on driver iterations (guards against livelock bugs).
    pub const MAX_ITERATIONS: usize = 10_000;

    /// The driver for the given address pair.
    pub fn new(client_addr: IpAddr, server_addr: IpAddr) -> Self {
        DriverConfig {
            client_addr,
            server_addr,
        }
    }
}

/// Everything observed while driving one connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionOutcome {
    /// The client's measurement report.
    pub report: ClientReport,
    /// ECN codepoints of client packets as they *arrived at the server*
    /// (ground truth about the forward path, unavailable to a real
    /// measurement but useful for validating the pipeline itself).
    pub forward_arrival_ecn: EcnCounts,
    /// Number of client datagrams that never reached the server.
    pub forward_losses: u64,
    /// Number of server datagrams that never reached the client.
    pub reverse_losses: u64,
    /// Virtual time consumed by the connection.
    pub elapsed: SimDuration,
}

/// The QUIC measurement connection as a sans-IO flow for the discrete-event
/// engine: one client, one server, the duplex path between them and the
/// randomness driving that path.
///
/// The flow owns a *local* clock: time only moves at timer boundaries, and
/// a timer that does not advance time nudges the clock forward by one
/// millisecond.
pub struct QuicFlow<'a, R: Rng + ?Sized> {
    client: ClientConnection<&'a ClientConfig>,
    server: ServerConnection,
    path: &'a DuplexPath,
    config: &'a DriverConfig,
    rng: &'a mut R,
    now: SimInstant,
    deadline: SimInstant,
    iterations: usize,
    pending_timer: Option<SimInstant>,
    forward_arrival_ecn: EcnCounts,
    forward_losses: u64,
    reverse_losses: u64,
    /// The UDP body of the last datagram sent, handed back by the path
    /// whatever became of it: the buffer the next one is encoded into.
    body: Vec<u8>,
}

impl<'a, R: Rng + ?Sized> QuicFlow<'a, R> {
    /// Wrap prepared endpoints into a flow.
    pub fn new(
        client: ClientConnection<&'a ClientConfig>,
        server: ServerConnection,
        path: &'a DuplexPath,
        config: &'a DriverConfig,
        rng: &'a mut R,
    ) -> Self {
        QuicFlow {
            client,
            server,
            path,
            config,
            rng,
            now: SimInstant::EPOCH,
            deadline: SimInstant::EPOCH + DriverConfig::MAX_DURATION,
            iterations: 0,
            pending_timer: None,
            forward_arrival_ecn: EcnCounts::ZERO,
            forward_losses: 0,
            reverse_losses: 0,
            body: Vec::new(),
        }
    }

    /// Consume the flow into the connection outcome, handing what the
    /// endpoints ran in back to `scratch`.
    fn into_outcome(self, scratch: &mut QuicScratch) -> ConnectionOutcome {
        let report;
        (report, scratch.client) = self.client.finish();
        scratch.server = self.server.finish();
        ConnectionOutcome {
            report,
            forward_arrival_ecn: self.forward_arrival_ecn,
            forward_losses: self.forward_losses,
            reverse_losses: self.reverse_losses,
            elapsed: self.now - SimInstant::EPOCH,
        }
    }

    /// The next datagram of the client (`forward`) or of the server, inside
    /// UDP inside IP, pushed down the forward or the reverse path.  `None`
    /// when that endpoint has nothing to send; `Some(None)` when what it
    /// sent did not arrive: lost in transit, or never sent because the
    /// address pair cannot be assembled.
    fn send_next(&mut self, forward: bool, net: &mut SharedQueues) -> Option<Option<IpDatagram>> {
        let client = (self.config.client_addr, DriverConfig::CLIENT_PORT);
        let server = (self.config.server_addr, QUIC_PORT);
        let (path, (src, src_port), (dst, dst_port), transmit) = if forward {
            let transmit = self.client.poll_transmit(self.now)?;
            (&self.path.forward, client, server, transmit)
        } else {
            let transmit = self.server.poll_transmit(self.now)?;
            (&self.path.reverse, server, client, transmit)
        };
        // The one copy of a datagram: out of its endpoint's outbox, into
        // the body the last one came back in.
        let mut udp = std::mem::take(&mut self.body);
        UdpHeader::new(src_port, dst_port).encode(src, dst, transmit.payload, &mut udp);
        let outcome = IpDatagram::assemble(src, dst, IpProtocol::Udp, 64, transmit.ecn, udp)
            .map(|datagram| path.transit_shared(datagram, self.now, self.rng, net));
        let Ok(TransitOutcome::Delivered { datagram, .. }) = outcome else {
            self.body = outcome.map(TransitOutcome::into_body).unwrap_or_default();
            return Some(None);
        };
        Some(Some(datagram))
    }

    /// One bidirectional drain pass; returns whether anything moved.
    fn drain(&mut self, net: &mut SharedQueues) -> bool {
        let mut activity = false;

        // Client → server.
        while let Some(arrived) = self.send_next(true, net) {
            activity = true;
            match arrived {
                Some(datagram) => {
                    self.forward_arrival_ecn.record(datagram.header.ecn());
                    if let Some(payload) = quic_payload(&datagram) {
                        self.server
                            .handle_datagram(self.now, datagram.header.ecn(), payload);
                    }
                    self.body = datagram.payload;
                }
                None => self.forward_losses += 1,
            }
        }

        // Server → client.
        while let Some(arrived) = self.send_next(false, net) {
            activity = true;
            match arrived {
                Some(datagram) => {
                    if let Some(payload) = quic_payload(&datagram) {
                        self.client
                            .handle_datagram(self.now, datagram.header.ecn(), payload);
                    }
                    self.body = datagram.payload;
                }
                None => self.reverse_losses += 1,
            }
        }

        activity
    }
}

impl<R: Rng + ?Sized> Flow for QuicFlow<'_, R> {
    fn on_wake(&mut self, _at: SimInstant, net: &mut SharedQueues) -> FlowStatus {
        // A wake with a pending timer services it first, with the
        // clock-nudge semantics above.
        if let Some(t) = self.pending_timer.take() {
            self.now = if t > self.now {
                t
            } else {
                self.now + SimDuration::from_millis(1)
            };
            self.client.handle_timeout(self.now);
            self.server.handle_timeout(self.now);
        }

        loop {
            if self.iterations >= DriverConfig::MAX_ITERATIONS {
                return FlowStatus::Done;
            }
            self.iterations += 1;

            let activity = self.drain(net);

            if self.client.is_closed() {
                return FlowStatus::Done;
            }
            if activity {
                continue;
            }

            // Nothing in flight: sleep until the next timer.
            let next = match (self.client.poll_timeout(), self.server.poll_timeout()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            };
            match next {
                Some(t) if t <= self.deadline => {
                    self.pending_timer = Some(t);
                    // If the timer does not advance the local clock, ask to
                    // be woken "now" — the engine clamps to the present.
                    return FlowStatus::Sleep(t.max(self.now));
                }
                _ => return FlowStatus::Done,
            }
        }
    }
}

/// A complete client↔server run: the measured [`ConnectionOutcome`], the
/// engine's tally and, when requested via [`ConnectionRun::telemetry`], its
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// What the measured connection observed.
    pub connection: ConnectionOutcome,
    /// The engine's counts.
    pub engine: qem_netsim::EngineTally,
    /// Engine telemetry, `Some` iff requested.  Under load it includes the
    /// shared bottleneck's per-router queue metrics (`queue.r<id>.*`: CE
    /// marks, tail drops, occupancy).
    pub telemetry: Option<EngineTelemetry>,
}

/// Builder for one QUIC measurement connection — the single entrypoint.
///
/// Defaults mirror the paper's methodology: no cross traffic (an otherwise
/// idle path) and no telemetry.  Reading telemetry is side-effect free, and
/// a cross-traffic scenario that is disabled — or has no bottleneck to
/// attach to, on a hop-less path — leaves the RNG stream untouched.
#[derive(Debug)]
pub struct ConnectionRun<'a> {
    client_config: Cow<'a, ClientConfig>,
    behavior: ServerBehavior,
    path: &'a DuplexPath,
    driver: DriverConfig,
    cross: CrossTraffic,
    telemetry: bool,
    scratch: Option<(&'a mut EngineScratch, &'a mut QuicScratch)>,
}

/// What a QUIC run allocates and the next one can use again: both
/// endpoints' packet number spaces, outboxes and stream buffers (the
/// flow's UDP body is the [`EngineScratch`]'s).  Whoever runs many
/// connections in a row — a scan worker — owns one and lends it to each
/// ([`ConnectionRun::scratch`]); a run resets what it takes, so it is
/// observably a fresh one.
#[derive(Debug, Default)]
pub struct QuicScratch {
    client: Buffers,
    server: Buffers,
}

impl<'a> ConnectionRun<'a> {
    /// A run of `client_config` against a `behavior` server over `path`,
    /// with no cross traffic and no telemetry.
    pub fn new(
        client_config: ClientConfig,
        behavior: ServerBehavior,
        path: &'a DuplexPath,
        driver: DriverConfig,
    ) -> Self {
        ConnectionRun::of(Cow::Owned(client_config), behavior, path, driver)
    }

    /// [`ConnectionRun::new`] reading a configuration its caller keeps —
    /// a scan worker writes each host's SNI into one — instead of one it is
    /// handed.
    pub fn lent(
        client_config: &'a ClientConfig,
        behavior: ServerBehavior,
        path: &'a DuplexPath,
        driver: DriverConfig,
    ) -> Self {
        ConnectionRun::of(Cow::Borrowed(client_config), behavior, path, driver)
    }

    fn of(
        client_config: Cow<'a, ClientConfig>,
        behavior: ServerBehavior,
        path: &'a DuplexPath,
        driver: DriverConfig,
    ) -> Self {
        ConnectionRun {
            client_config,
            behavior,
            path,
            driver,
            cross: CrossTraffic::none(),
            telemetry: false,
            scratch: None,
        }
    }

    /// Run the engine and the flow over the caller's `engine` scratch and
    /// the endpoints over its `quic` one instead of fresh ones.  Lends
    /// allocations, selects nothing: the outcome is the same bit for bit,
    /// whatever ran over the scratches before.
    pub fn scratch(mut self, engine: &'a mut EngineScratch, quic: &'a mut QuicScratch) -> Self {
        self.scratch = Some((engine, quic));
        self
    }

    /// Race `cross` background flows through the forward path's bottleneck
    /// router (its last hop), which gets a shared egress queue.  The
    /// measured connection's packets then compete with the background load,
    /// and AQM CE marking emerges from the combined queue occupancy — the
    /// load-dependent regime of the paper's §6.2/§6.3 findings.
    /// [`CrossTraffic::none`] (the default) is the single-flow methodology,
    /// bit for bit.
    pub fn cross_traffic(mut self, cross: CrossTraffic) -> Self {
        self.cross = cross;
        self
    }

    /// Whether to capture the engine's telemetry (event counts, queue
    /// metrics, the virtual-time wake trace).  Purely observational: the
    /// connection outcome is bit-identical either way.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// How many `u64`s every run draws from its RNG before anything else,
    /// whatever the path: one connection-ID seed per endpoint.  Connection
    /// IDs have a fixed length and nothing observed carries them, so over a
    /// path that draws nothing — lossless, unloaded — these are all a run
    /// draws, and its outcome does not depend on their values.
    pub const SEED_DRAWS: usize = 2;

    /// Drive the connection to completion.
    pub fn execute<R: Rng + ?Sized>(self, rng: &mut R) -> RunOutcome {
        let (mut engine, quic) = self.scratch.unzip();
        let mut fresh = QuicScratch::default();
        let quic = quic.unwrap_or(&mut fresh);
        // One pattern per seed: a draw added here must be counted above.
        let [client_seed, server_seed]: [u64; ConnectionRun::<'static>::SEED_DRAWS] =
            std::array::from_fn(|_| rng.gen());
        let buffers = std::mem::take(&mut quic.client);
        let client = ClientConnection::over(
            &*self.client_config,
            SimInstant::EPOCH,
            client_seed,
            buffers,
        );
        let server =
            ServerConnection::over(self.behavior, server_seed, std::mem::take(&mut quic.server));
        // The scenario's seed comes after the endpoints' and only when there
        // is a scenario to build — the draw order the golden reports pin.
        let load = self
            .cross
            .instantiate_with(&self.path.forward, || rng.gen());
        let mut flow = QuicFlow::new(client, server, self.path, &self.driver, rng);
        if let Some(engine) = engine.as_deref_mut() {
            flow.body = std::mem::take(&mut engine.body);
        }
        let (tally, telemetry) =
            run_measured(&mut flow, load, self.telemetry, engine.as_deref_mut());
        if let Some(engine) = engine {
            engine.body = std::mem::take(&mut flow.body);
        }
        let connection = flow.into_outcome(quic);
        RunOutcome {
            connection,
            engine: tally,
            telemetry,
        }
    }
}

/// The QUIC bytes of a delivered datagram.
fn quic_payload(datagram: &IpDatagram) -> Option<&[u8]> {
    let (_, payload) = UdpHeader::decode(datagram.transport(IpProtocol::Udp)?).ok()?;
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{EcnMirroringBehavior, ServerBehavior, Versions};
    use crate::ecn::{EcnValidationFailure, EcnValidationState};
    use qem_netsim::{build_transit_path, Asn, DuplexPath, Hop, Path, Router, TransitProfile};
    use qem_netsim::{FaultKind, FaultPlan, IcmpBehavior, Probability};
    use qem_packet::ecn::EcnCodepoint;
    use qem_packet::quic::QuicVersion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 80)),
        )
    }

    fn clean_path() -> DuplexPath {
        DuplexPath::symmetric_clean_reverse(build_transit_path(
            Asn::DFN,
            Asn(16509),
            TransitProfile::Clean,
            false,
        ))
    }

    fn run(behavior: ServerBehavior, path: &DuplexPath, seed: u64) -> ConnectionOutcome {
        let (client_addr, server_addr) = addrs();
        let mut rng = StdRng::seed_from_u64(seed);
        ConnectionRun::new(
            ClientConfig::paper_default("www.example.org"),
            behavior,
            path,
            DriverConfig::new(client_addr, server_addr),
        )
        .execute(&mut rng)
        .connection
    }

    #[test]
    fn clean_path_accurate_server_is_capable() {
        let outcome = run(ServerBehavior::accurate(), &clean_path(), 1);
        assert!(outcome.report.connected);
        assert!(outcome.report.response.is_some());
        assert_eq!(outcome.report.ecn_state, EcnValidationState::Capable);
        assert!(outcome.report.peer_mirrored);
        assert_eq!(outcome.forward_losses, 0);
        assert!(outcome.forward_arrival_ecn.ect0 >= 5);
    }

    #[test]
    fn no_mirroring_server_fails_validation_but_answers_http() {
        let outcome = run(ServerBehavior::no_mirroring(), &clean_path(), 2);
        assert!(outcome.report.connected);
        assert!(outcome.report.response.is_some());
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::NoMirroring)
        );
        assert!(!outcome.report.peer_mirrored);
    }

    #[test]
    fn lsquic_style_undercount_is_detected() {
        let outcome = run(
            ServerBehavior {
                mirroring: EcnMirroringBehavior::MirrorOnlyHandshake,
                ..ServerBehavior::accurate()
            },
            &clean_path(),
            3,
        );
        assert!(outcome.report.connected);
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::Undercount)
        );
        // It still counts as mirroring in the paper's terminology.
        assert!(outcome.report.peer_mirrored);
    }

    #[test]
    fn ect1_mixup_is_detected_as_wrong_codepoint() {
        let outcome = run(
            ServerBehavior {
                mirroring: EcnMirroringBehavior::MirrorAsEct1,
                ..ServerBehavior::accurate()
            },
            &clean_path(),
            4,
        );
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint)
        );
        assert!(outcome.report.peer_mirrored);
    }

    #[test]
    fn path_clearing_looks_like_no_mirroring() {
        // The server is perfectly well behaved, but an AS 1299-style router
        // clears the codepoints: the server never sees ECT, so its accurate
        // ACKs carry no ECN section and the client diagnoses "no mirroring".
        let forward = build_transit_path(
            Asn::DFN,
            Asn(16509),
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        );
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let outcome = run(ServerBehavior::accurate(), &path, 5);
        assert!(outcome.report.connected);
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::NoMirroring)
        );
        assert_eq!(outcome.forward_arrival_ecn.ect0, 0);
    }

    #[test]
    fn path_remarking_fails_validation_with_wrong_codepoint() {
        let forward = build_transit_path(
            Asn::DFN,
            Asn(16509),
            TransitProfile::Remarking { asn: Asn::ARELION },
            false,
        );
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let outcome = run(ServerBehavior::accurate(), &path, 6);
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint)
        );
        // The codepoints really did arrive as ECT(1).
        assert!(outcome.forward_arrival_ecn.ect1 >= 5);
        assert_eq!(outcome.forward_arrival_ecn.ect0, 0);
    }

    #[test]
    fn mark_all_ce_path_fails_validation_as_all_ce() {
        let forward = build_transit_path(
            Asn::DFN,
            Asn(16509),
            TransitProfile::MarkAllCe { asn: Asn(64500) },
            false,
        );
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let outcome = run(ServerBehavior::accurate(), &path, 7);
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::AllCe)
        );
    }

    #[test]
    fn server_ecn_use_is_visible_to_the_client() {
        let outcome = run(
            ServerBehavior {
                egress_ecn: EcnCodepoint::Ect0,
                ..ServerBehavior::accurate()
            },
            &clean_path(),
            8,
        );
        assert!(outcome.report.server_used_ecn);
        assert!(outcome.report.received_ecn.ect0 > 0);
        let outcome = run(ServerBehavior::accurate(), &clean_path(), 9);
        assert!(!outcome.report.server_used_ecn);
    }

    #[test]
    fn draft_only_server_is_reached_via_version_negotiation() {
        let behavior = ServerBehavior {
            supported_versions: Versions::new([QuicVersion::DRAFT_27]),
            ..ServerBehavior::accurate()
        }
        .with_server_header("LiteSpeed");
        let outcome = run(behavior, &clean_path(), 10);
        assert!(outcome.report.connected);
        assert_eq!(outcome.report.version, QuicVersion::DRAFT_27);
        assert_eq!(
            outcome.report.response.unwrap().server.as_deref(),
            Some("LiteSpeed")
        );
    }

    #[test]
    fn total_forward_loss_times_out() {
        let lossy = Path::new(vec![Hop::new(Router::transparent(1, Asn::DFN))]).with_fault(
            FaultPlan::new().always(FaultKind::Loss {
                rate: Probability::new(1.0),
            }),
        );
        // Only the forward direction black-holes.
        let path = DuplexPath::new(lossy, Path::new(Vec::new()));
        let outcome = run(ServerBehavior::accurate(), &path, 11);
        assert!(!outcome.report.connected);
        assert!(outcome.report.error.is_some());
        assert_eq!(
            outcome.report.ecn_state,
            EcnValidationState::Failed(EcnValidationFailure::AllLost)
        );
        assert!(outcome.forward_losses >= 2);
    }

    #[test]
    fn partial_loss_recovers_via_retransmission() {
        // 40 % forward loss: with one allowed retransmission most seeds
        // still complete; pick one that does to exercise the recovery path.
        let lossy = Path::new(vec![
            Hop::new(Router::transparent(1, Asn::DFN)),
            Hop::new(Router::transparent(2, Asn(16509))),
        ])
        .with_fault(FaultPlan::new().always(FaultKind::Loss {
            rate: Probability::new(0.4),
        }));
        let path = DuplexPath::new(lossy, Path::new(Vec::new()));
        let outcome = run(ServerBehavior::accurate(), &path, 21);
        assert!(outcome.forward_losses > 0 || outcome.report.connected);
    }

    #[test]
    fn silent_icmp_routers_do_not_affect_regular_traffic() {
        let forward = Path::new(vec![Hop::new(Router {
            icmp: IcmpBehavior {
                response_probability: Probability::new(0.0),
                quote_bytes: 0,
            },
            ..Router::transparent(1, Asn::DFN)
        })]);
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let outcome = run(ServerBehavior::accurate(), &path, 12);
        assert!(outcome.report.connected);
    }

    #[test]
    fn ipv6_connection_works_end_to_end() {
        let forward = build_transit_path(Asn::DFN, Asn(16509), TransitProfile::Clean, true);
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let mut rng = StdRng::seed_from_u64(13);
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("v6.example.org"),
            ServerBehavior::accurate(),
            &path,
            DriverConfig::new(
                "2001:db8::10".parse().unwrap(),
                "2001:db8:1::443".parse().unwrap(),
            ),
        )
        .execute(&mut rng)
        .connection;
        assert!(outcome.report.connected);
        assert_eq!(outcome.report.ecn_state, EcnValidationState::Capable);
    }

    #[test]
    fn mixed_address_families_finish_unconnected_with_losses_counted() {
        // A v4 client towards a v6 server cannot put a datagram on the wire:
        // every transmit counts as lost and the client times out.
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("mixed.example.org"),
            ServerBehavior::accurate(),
            &clean_path(),
            DriverConfig::new(addrs().0, "2001:db8:1::443".parse().unwrap()),
        )
        .execute(&mut StdRng::seed_from_u64(13))
        .connection;
        assert!(!outcome.report.connected);
        assert!(outcome.forward_losses >= 2);
        assert_eq!(outcome.forward_arrival_ecn, EcnCounts::ZERO);
    }

    #[test]
    fn reverse_path_clearing_hides_server_ecn_use() {
        // Server uses ECN but the reverse path clears it: the client must not
        // report "Use".
        let forward = build_transit_path(Asn::DFN, Asn(16509), TransitProfile::Clean, false);
        let reverse = build_transit_path(
            Asn(16509),
            Asn::DFN,
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        );
        let path = DuplexPath::new(forward, reverse);
        let outcome = run(
            ServerBehavior {
                egress_ecn: EcnCodepoint::Ect0,
                ..ServerBehavior::accurate()
            },
            &path,
            14,
        );
        assert!(outcome.report.connected);
        assert!(!outcome.report.server_used_ecn);
    }

    /// The paper-default connection over `path` from a fresh `seed`ed RNG,
    /// plus that RNG's next draw (how far the run advanced the stream).
    fn run_under(
        path: &DuplexPath,
        cross: CrossTraffic,
        telemetry: bool,
        seed: u64,
    ) -> (RunOutcome, u64) {
        let (client_addr, server_addr) = addrs();
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("www.example.org"),
            ServerBehavior::accurate(),
            path,
            DriverConfig::new(client_addr, server_addr),
        )
        .cross_traffic(cross)
        .telemetry(telemetry)
        .execute(&mut rng);
        (outcome, rng.gen())
    }

    #[test]
    fn cross_traffic_marks_what_a_lone_flow_never_sees() {
        let path = clean_path();

        // Alone on a clean path: no CE, ever.
        let (solo, solo_next) = run_under(&path, CrossTraffic::none(), false, 77);
        assert!(solo.connection.report.connected);
        assert_eq!(solo.connection.report.mirrored_counts.ce, 0);
        assert_eq!(solo.connection.forward_arrival_ecn.ce, 0);
        assert!(solo.telemetry.is_none(), "telemetry is strictly opt-in");

        // Same connection, same seed, but behind a congested shared
        // bottleneck: the combined occupancy pushes the AQM into marking.
        let (loaded, loaded_next) = run_under(&path, CrossTraffic::congested(), false, 77);
        assert!(
            loaded.connection.forward_arrival_ecn.ce > 0,
            "shared-queue occupancy must CE-mark the measured flow"
        );
        assert!(
            loaded.connection.report.mirrored_counts.ce > 0,
            "the server must mirror the congestion marks"
        );
        assert_ne!(loaded_next, solo_next, "a built scenario draws its seed");

        // An enabled scenario with nothing to attach to — a hop-less forward
        // path has no bottleneck — is the single-flow run, bit for bit, and
        // leaves the caller's RNG where the plain run leaves it.
        let hopless = DuplexPath::new(Path::new(vec![]), Path::new(Vec::new()));
        assert_eq!(
            run_under(&hopless, CrossTraffic::congested(), false, 77),
            run_under(&hopless, CrossTraffic::none(), false, 77)
        );
    }

    #[test]
    fn telemetry_variant_is_outcome_identical_and_observes_the_run() {
        let path = clean_path();

        let (plain, _) = run_under(&path, CrossTraffic::none(), false, 55);
        let (observed, _) = run_under(&path, CrossTraffic::none(), true, 55);
        assert_eq!(
            observed.connection, plain.connection,
            "telemetry reads must not perturb the run"
        );
        let telemetry = observed.telemetry.expect("telemetry was requested");
        let events = telemetry
            .metrics
            .counter("engine.events_processed")
            .expect("engine counter");
        assert!(events > 0);
        assert_eq!(telemetry.trace.len() as u64, events, "one wake per event");
        assert!(telemetry.trace.windows(2).all(|w| w[0].at <= w[1].at));
        // No shared queues without cross traffic: no queue metrics.
        assert!(telemetry.metrics.counter("queue.r1.enqueued").is_none());

        // Under congestion the same API surfaces the bottleneck's counters,
        // again without perturbing the connection.
        let (bare, _) = run_under(&path, CrossTraffic::congested(), false, 55);
        let (loaded, _) = run_under(&path, CrossTraffic::congested(), true, 55);
        assert_eq!(loaded.connection, bare.connection);
        let loaded = loaded.telemetry.expect("telemetry was requested");
        let marked: u64 = loaded
            .metrics
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("queue.") && name.ends_with(".marked"))
            .filter_map(|(name, _)| loaded.metrics.counter(name))
            .sum();
        assert!(marked > 0, "congested bottleneck must report CE marks");
    }

    #[test]
    fn a_dirty_scratch_is_a_fresh_scratch() {
        use qem_netsim::{FaultKind, FaultPlan};
        // The busiest run there is — 32 background flows, a lossy forward
        // path, retransmission timers left pending when the client gives
        // up — dirties both scratches: the engine's and the endpoints'
        // (every packet space, both outboxes and stream buffers, the UDP
        // body).  Every later run over them must equal the run over fresh
        // ones: report, tally, telemetry and wake trace.
        let mut path = clean_path();
        path.forward = path
            .forward
            .with_fault(FaultPlan::new().always(FaultKind::Loss {
                rate: Probability::new(0.3),
            }));
        let run = |path: &DuplexPath,
                   behavior: &ServerBehavior,
                   cross,
                   scratch: Option<(&mut EngineScratch, &mut QuicScratch)>,
                   seed| {
            let (client_addr, server_addr) = addrs();
            let mut run = ConnectionRun::new(
                ClientConfig::paper_default("www.example.org"),
                behavior.clone(),
                path,
                DriverConfig::new(client_addr, server_addr),
            )
            .cross_traffic(cross)
            .telemetry(true);
            if let Some((engine, quic)) = scratch {
                run = run.scratch(engine, quic);
            }
            run.execute(&mut StdRng::seed_from_u64(seed))
        };
        let (mut engine, mut quic) = (EngineScratch::default(), QuicScratch::default());
        let accurate = ServerBehavior::accurate().with_server_header("LiteSpeed");
        let congested = CrossTraffic::congested();
        let dirtying = run(
            &path,
            &accurate,
            congested,
            Some((&mut engine, &mut quic)),
            0,
        );
        assert!(dirtying.connection.forward_losses > 0);
        assert!(
            quic.client.spaces.iter().any(|s| s.has_unacked()),
            "PTO pending"
        );
        assert!(!quic.server.stream.is_empty() && !quic.client.stream.is_empty());
        assert!(!engine.body.is_empty());
        let negotiating = ServerBehavior {
            supported_versions: Versions::new([QuicVersion::DRAFT_29]),
            ..ServerBehavior::accurate()
        };
        let not_serving = ServerBehavior {
            serves_http: false,
            ..accurate.clone()
        };
        for (path, behavior, cross, seed) in [
            (&path, &accurate, congested, 4),
            (&clean_path(), &accurate, CrossTraffic::none(), 5),
            (&path, &accurate, CrossTraffic::none(), 6),
            (&clean_path(), &negotiating, CrossTraffic::none(), 7),
            (&clean_path(), &not_serving, CrossTraffic::none(), 8),
        ] {
            let reused = run(path, behavior, cross, Some((&mut engine, &mut quic)), seed);
            assert_eq!(
                reused,
                run(path, behavior, cross, None, seed),
                "seed {seed}"
            );
            assert!(!reused.telemetry.expect("requested").trace.is_empty());
        }
    }

    #[test]
    fn ce_probing_mode_reports_mirrored_ce() {
        let (client_addr, server_addr) = addrs();
        let mut rng = StdRng::seed_from_u64(15);
        let outcome = ConnectionRun::new(
            ClientConfig::force_ce("www.example.org"),
            ServerBehavior::accurate(),
            &clean_path(),
            DriverConfig::new(client_addr, server_addr),
        )
        .execute(&mut rng)
        .connection;
        assert!(outcome.report.connected);
        assert!(outcome.report.mirrored_counts.ce >= 5);
        assert_eq!(outcome.report.mirrored_counts.ect0, 0);
    }
}
