//! A deterministic TCP connection simulation over a [`DuplexPath`].
//!
//! The exchange mirrors what the study's zgrab-based scanner produces for
//! each domain: an ECN-setup handshake, an HTTP request, a handful of probe
//! segments carrying the configured codepoint (`ECT(0)` normally, `CE` in the
//! §6.3 experiment), the server's response, and a FIN.  Every segment is a
//! real [`TcpHeader`]-encoded packet pushed through the path simulator, so
//! path-level ECN impairments act on TCP exactly as they do on QUIC.
//!
//! The exchange is modelled as a sans-IO [`TcpFlow`] state machine for the
//! discrete-event engine, driven through the [`TcpConnectionRun`] builder —
//! the mirror of `qem_quic`'s `ConnectionRun`.  Without cross traffic it is
//! a one-flow engine with no shared queues; with
//! [`TcpConnectionRun::cross_traffic`] the flow runs next to background load
//! through a shared bottleneck queue, where CE marks — and therefore ECE
//! echoes — emerge from combined occupancy.
//!
//! A flow sends its 15-odd segments in one buffer, sized once for its
//! largest segment (a header and the longest of the request, the response
//! and a probe payload): each segment is encoded into the body the path
//! handed back with the previous one, delivered or not.  Probe payloads
//! are written digit by digit into a stack array.
//! [`TcpConnectionRun::scratch`] lends that buffer — the
//! [`EngineScratch`]'s body — and the engine underneath it the same way,
//! so a probe over a used scratch allocates nothing.

use crate::behavior::TcpServerBehavior;
use qem_netsim::engine::{
    run_measured, CrossTraffic, EngineScratch, Flow, FlowStatus, SharedQueues,
};
use qem_netsim::{DuplexPath, SimDuration, SimInstant, TransitOutcome};
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::ip::{IpDatagram, IpProtocol};
use qem_packet::tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
use rand::Rng;
use std::net::IpAddr;

/// Client-side configuration.  The client always requests ECN with an
/// ECN-setup SYN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpClientConfig {
    /// The codepoint set on data segments once ECN is negotiated.  The
    /// paper's §6.3 run replaces `ECT(0)` with `CE` to force the ECE echo.
    pub probe_codepoint: EcnCodepoint,
}

impl TcpClientConfig {
    /// Standard ECN probing with ECT(0).
    pub fn ect0() -> Self {
        TcpClientConfig {
            probe_codepoint: EcnCodepoint::Ect0,
        }
    }

    /// The §6.3 configuration: probe with CE to trigger the ECE echo.
    pub fn force_ce() -> Self {
        TcpClientConfig {
            probe_codepoint: EcnCodepoint::Ce,
        }
    }
}

/// The observations the scanner records for one TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpReport {
    /// Whether the handshake completed (SYN-ACK received and acknowledged).
    pub connected: bool,
    /// Whether ECN was negotiated (tcpinfo's view).
    pub negotiated: bool,
    /// Whether the server echoed a CE mark via the ECE flag.
    pub ce_mirrored: bool,
    /// Whether the client's CWR was answered (the echo stopped afterwards).
    pub cwr_acknowledged: bool,
    /// Codepoints observed on segments arriving at the client
    /// (the eBPF counter; reveals whether the server *uses* ECN).
    pub received_ecn: EcnCounts,
    /// Codepoints observed on segments arriving at the server (ground truth
    /// about the forward path; a real scan cannot see this).
    pub server_observed_ecn: EcnCounts,
    /// Whether any segment from the server carried ECT or CE.
    pub server_used_ecn: bool,
    /// Whether an HTTP response arrived.
    pub response_received: bool,
    /// Client segments lost on the forward path.
    pub forward_losses: u32,
}

/// The HTTP request of data segment 0 and the response it is answered with.
const REQUEST: &[u8] = b"GET / HTTP/1.1\r\nhost: probe\r\n\r\n";
const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";

/// What every probe payload starts with; the probe's index follows.
const PROBE_PREFIX: &[u8] = b"probe-";
/// The longest probe payload: the prefix and the digits of `usize::MAX`.
const PROBE_PAYLOAD_MAX: usize = PROBE_PREFIX.len() + usize::MAX.ilog10() as usize + 1;
/// The largest segment a flow sends: a header and the longest payload.
const SEGMENT_CAPACITY: usize =
    TCP_HEADER_LEN + longest(longest(REQUEST.len(), RESPONSE.len()), PROBE_PAYLOAD_MAX);

const fn longest(a: usize, b: usize) -> usize {
    if a > b {
        a
    } else {
        b
    }
}

/// `probe-{i}`, the payload of probe segment `i`, written into the end of
/// `buf`: the digits from the back, then the prefix in front of them.
fn probe_payload(i: usize, buf: &mut [u8; PROBE_PAYLOAD_MAX]) -> &[u8] {
    let mut start = buf.len();
    let mut rest = i;
    loop {
        start -= 1;
        buf[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    start -= PROBE_PREFIX.len();
    buf[start..start + PROBE_PREFIX.len()].copy_from_slice(PROBE_PREFIX);
    &buf[start..]
}

/// Probe data segments sent after the request, each carrying the probe
/// codepoint once ECN is negotiated.
const PROBE_SEGMENTS: usize = 5;

const CLIENT_PORT: u16 = 52_000;
const SERVER_PORT: u16 = 443;

/// Where the sans-IO TCP exchange currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpFlowState {
    /// SYN / SYN-ACK not yet exchanged.
    Handshake,
    /// Request / probe segment `index` is next.
    Data { index: usize },
    /// The exchange is over (successfully or not).
    Finished,
}

/// One TCP measurement connection as a sans-IO flow for the discrete-event
/// engine.
///
/// Without pacing the whole exchange happens at the flow's first wake —
/// exactly the historical straight-line script, transit for transit and RNG
/// draw for RNG draw.  With [`TcpFlow::with_pacing`] the client spreads its
/// data segments over virtual time, which lets background-flow scenarios
/// shape the bottleneck occupancy each segment encounters.
pub struct TcpFlow<'a, R: Rng + ?Sized> {
    config: TcpClientConfig,
    behavior: TcpServerBehavior,
    client: IpAddr,
    server: IpAddr,
    path: &'a DuplexPath,
    /// The flow's segment buffer, between two sends: a new one, or the
    /// [`EngineScratch`]'s body.
    body: Vec<u8>,
    rng: &'a mut R,
    report: TcpReport,
    state: TcpFlowState,
    pacing: SimDuration,
    server_ecn: bool,
    server_saw_ce: bool,
    client_seq: u32,
    client_data_ecn: EcnCodepoint,
    server_data_ecn: EcnCodepoint,
}

impl<'a, R: Rng + ?Sized> TcpFlow<'a, R> {
    /// Wrap a client configuration and a server behaviour into a flow over
    /// `path`.
    pub fn new(
        config: TcpClientConfig,
        behavior: TcpServerBehavior,
        client_addr: IpAddr,
        server_addr: IpAddr,
        path: &'a DuplexPath,
        rng: &'a mut R,
    ) -> Self {
        TcpFlow {
            config,
            behavior,
            client: client_addr,
            server: server_addr,
            path,
            body: Vec::new(),
            rng,
            report: TcpReport::default(),
            state: TcpFlowState::Handshake,
            pacing: SimDuration::ZERO,
            server_ecn: false,
            server_saw_ce: false,
            client_seq: 1_001,
            client_data_ecn: EcnCodepoint::NotEct,
            server_data_ecn: EcnCodepoint::NotEct,
        }
    }

    /// Space the data segments `interval` apart in virtual time instead of
    /// sending them back to back at the first wake.
    pub fn with_pacing(mut self, interval: SimDuration) -> Self {
        self.pacing = interval;
        self
    }

    /// Consume the flow and return the scanner's observations.
    pub fn into_report(self) -> TcpReport {
        self.report
    }

    /// One segment down the forward (client → server) or the reverse path.
    /// `None` if it never arrived; otherwise the codepoint it arrived with
    /// and its TCP header as the receiver decodes it (`None` after
    /// corruption).  The body the path hands back becomes the next send's
    /// buffer.
    fn send(
        &mut self,
        forward: bool,
        now: SimInstant,
        net: &mut SharedQueues,
        ecn: EcnCodepoint,
        header: TcpHeader,
        payload: &[u8],
    ) -> Option<(EcnCodepoint, Option<TcpHeader>)> {
        let (path, src, dst) = if forward {
            (&self.path.forward, self.client, self.server)
        } else {
            (&self.path.reverse, self.server, self.client)
        };
        let mut segment = std::mem::take(&mut self.body);
        // Sized for the largest segment once, at the first send.
        segment.clear();
        segment.reserve(SEGMENT_CAPACITY);
        header.encode(src, dst, payload, &mut segment);
        // A segment that cannot be assembled was never sent: a loss.
        let datagram = IpDatagram::assemble(src, dst, IpProtocol::Tcp, 64, ecn, segment).ok()?;
        let outcome = path.transit_shared(datagram, now, self.rng, net);
        let TransitOutcome::Delivered { datagram, .. } = outcome else {
            self.body = outcome.into_body();
            return None;
        };
        let seen = datagram
            .transport(IpProtocol::Tcp)
            .and_then(|segment| TcpHeader::decode(segment).ok())
            .map(|(header, _)| header);
        let ecn = datagram.header.ecn();
        self.body = datagram.payload;
        Some((ecn, seen))
    }

    /// SYN / SYN-ACK exchange; returns whether the data phase should run.
    fn handshake(&mut self, now: SimInstant, net: &mut SharedQueues) -> bool {
        // The SYN itself is never ECT-marked (RFC 3168 §6.1.1).
        let syn = TcpHeader::new(CLIENT_PORT, SERVER_PORT, 1_000, 0, TcpFlags::ECN_SETUP_SYN);
        let Some((arrived_ecn, syn_seen)) =
            self.send(true, now, net, EcnCodepoint::NotEct, syn, &[])
        else {
            self.report.forward_losses += 1;
            return false;
        };
        let Some(syn_seen) = syn_seen else {
            return false;
        };
        self.report.server_observed_ecn.record(arrived_ecn);

        // The server accepts ECN only if the SYN still looks like an ECN setup
        // (middleboxes clearing TCP flags are out of scope — the paper found
        // the relevant impairments on the IP layer).
        self.server_ecn = self.behavior.negotiate_ecn && syn_seen.flags.is_ecn_setup_syn();
        let syn_ack_flags = TcpFlags {
            syn: true,
            ack: true,
            ece: self.server_ecn,
            ..TcpFlags::default()
        };
        let syn_ack = TcpHeader::new(SERVER_PORT, CLIENT_PORT, 5_000, 1_001, syn_ack_flags);
        let Some((arrived_ecn, Some(syn_ack_seen))) =
            self.send(false, now, net, EcnCodepoint::NotEct, syn_ack, &[])
        else {
            return false;
        };
        self.report.received_ecn.record(arrived_ecn);
        self.report.connected = true;
        self.report.negotiated = syn_ack_seen.flags.is_ecn_setup_syn_ack();

        // Client data codepoint: only marked if ECN was negotiated.
        self.client_data_ecn = if self.report.negotiated {
            self.config.probe_codepoint
        } else {
            EcnCodepoint::NotEct
        };
        self.server_data_ecn = if self.server_ecn {
            self.behavior.egress_ecn
        } else {
            EcnCodepoint::NotEct
        };
        true
    }

    /// Data segments of the exchange: the request, then the probes.
    fn data_segments(&self) -> usize {
        1 + PROBE_SEGMENTS
    }

    /// One data segment plus the server's ACK (and, for the request, the
    /// HTTP response).
    fn exchange_segment(&mut self, index: usize, now: SimInstant, net: &mut SharedQueues) {
        let mut probe = [0u8; PROBE_PAYLOAD_MAX];
        let payload = match index.checked_sub(1) {
            None => REQUEST,
            Some(i) => probe_payload(i, &mut probe),
        };
        let flags = TcpFlags {
            ack: true,
            psh: true,
            // Acknowledge a previously echoed CE with CWR exactly once.
            cwr: self.report.ce_mirrored && !self.report.cwr_acknowledged,
            ..TcpFlags::default()
        };
        if flags.cwr {
            self.report.cwr_acknowledged = true;
        }
        let header = TcpHeader::new(CLIENT_PORT, SERVER_PORT, self.client_seq, 5_001, flags);
        self.client_seq = self.client_seq.wrapping_add(payload.len() as u32);
        let Some((arrived_ecn, _)) =
            self.send(true, now, net, self.client_data_ecn, header, payload)
        else {
            self.report.forward_losses += 1;
            return;
        };
        self.report.server_observed_ecn.record(arrived_ecn);
        if arrived_ecn == EcnCodepoint::Ce {
            self.server_saw_ce = true;
        }

        // The server acknowledges each segment; it echoes ECE while it has an
        // unacknowledged CE (RFC 3168 §6.1.3) if it mirrors at all.
        let echo = self.server_ecn
            && self.behavior.mirror_ce
            && self.server_saw_ce
            && !self.report.cwr_acknowledged;
        let ack_flags = TcpFlags {
            ack: true,
            ece: echo,
            ..TcpFlags::default()
        };
        let ack = TcpHeader::new(SERVER_PORT, CLIENT_PORT, 5_001, self.client_seq, ack_flags);
        if let Some((arrived_ecn, ack_seen)) =
            self.send(false, now, net, self.server_data_ecn, ack, &[])
        {
            self.report.received_ecn.record(arrived_ecn);
            if ack_seen.is_some_and(|ack| ack.flags.ece) {
                self.report.ce_mirrored = true;
            }
        }

        // Serve the HTTP response right after the request segment.
        if index == 0 && self.behavior.serves_http {
            let resp_flags = TcpFlags {
                ack: true,
                psh: true,
                ..TcpFlags::default()
            };
            let resp = TcpHeader::new(SERVER_PORT, CLIENT_PORT, 5_001, self.client_seq, resp_flags);
            if let Some((arrived_ecn, _)) =
                self.send(false, now, net, self.server_data_ecn, resp, RESPONSE)
            {
                self.report.received_ecn.record(arrived_ecn);
                self.report.response_received = true;
            }
        }
    }

    fn finish(&mut self) -> FlowStatus {
        self.report.server_used_ecn = self.report.received_ecn.total() > 0;
        self.state = TcpFlowState::Finished;
        FlowStatus::Done
    }
}

impl<R: Rng + ?Sized> Flow for TcpFlow<'_, R> {
    fn on_wake(&mut self, now: SimInstant, net: &mut SharedQueues) -> FlowStatus {
        loop {
            match self.state {
                TcpFlowState::Handshake => {
                    if !self.handshake(now, net) {
                        // Early abort: the legacy script returns the report
                        // as-is, without deriving `server_used_ecn`.
                        self.state = TcpFlowState::Finished;
                        return FlowStatus::Done;
                    }
                    self.state = TcpFlowState::Data { index: 0 };
                }
                TcpFlowState::Data { index } => {
                    if index >= self.data_segments() {
                        return self.finish();
                    }
                    self.exchange_segment(index, now, net);
                    self.state = TcpFlowState::Data { index: index + 1 };
                    if self.pacing > SimDuration::ZERO && index + 1 < self.data_segments() {
                        return FlowStatus::Sleep(now + self.pacing);
                    }
                }
                TcpFlowState::Finished => return FlowStatus::Done,
            }
        }
    }
}

/// Builder for one TCP measurement connection — the mirror of `qem_quic`'s
/// `ConnectionRun`.
///
/// Defaults mirror the paper's methodology: no cross traffic.
#[derive(Debug)]
pub struct TcpConnectionRun<'a> {
    config: TcpClientConfig,
    behavior: TcpServerBehavior,
    client_addr: IpAddr,
    server_addr: IpAddr,
    path: &'a DuplexPath,
    cross: CrossTraffic,
    scratch: Option<&'a mut EngineScratch>,
}

impl<'a> TcpConnectionRun<'a> {
    /// A run of `config` against a `behavior` server between the given
    /// addresses over `path`, with no cross traffic.
    pub fn new(
        config: TcpClientConfig,
        behavior: TcpServerBehavior,
        client_addr: IpAddr,
        server_addr: IpAddr,
        path: &'a DuplexPath,
    ) -> Self {
        TcpConnectionRun {
            config,
            behavior,
            client_addr,
            server_addr,
            path,
            cross: CrossTraffic::none(),
            scratch: None,
        }
    }

    /// Run the engine over the caller's `scratch` instead of a fresh one,
    /// and send every segment in its body.  Lends allocations, selects
    /// nothing: the outcome is the same bit for bit, whatever ran over the
    /// scratch before.
    pub fn scratch(mut self, scratch: &'a mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Race `cross` background flows through the forward path's bottleneck
    /// router (its last hop).  CE marks on the probe segments — and
    /// therefore the server's ECE echo — then depend on the combined queue
    /// occupancy rather than the probe codepoint alone.
    /// [`CrossTraffic::none`] (the default) is the single-flow exchange,
    /// bit for bit.
    pub fn cross_traffic(mut self, cross: CrossTraffic) -> Self {
        self.cross = cross;
        self
    }

    /// Drive the exchange to completion and report what the client saw.
    pub fn execute<R: Rng + ?Sized>(self, rng: &mut R) -> TcpReport {
        let mut scratch = self.scratch;
        // The scenario's seed is drawn only when there is a scenario to
        // build, so a disabled one leaves the RNG stream untouched.
        let load = self
            .cross
            .instantiate_with(&self.path.forward, || rng.gen());
        let mut flow = TcpFlow::new(
            self.config,
            self.behavior,
            self.client_addr,
            self.server_addr,
            self.path,
            rng,
        );
        if load.is_some() {
            // Pace the probes across the background burst so each segment
            // samples the queue, rather than the whole exchange landing on
            // one instant.
            flow = flow.with_pacing(SimDuration::from_millis(1));
        }
        if let Some(scratch) = scratch.as_deref_mut() {
            flow.body = std::mem::take(&mut scratch.body);
        }
        run_measured(&mut flow, load, false, scratch.as_deref_mut());
        if let Some(scratch) = scratch {
            scratch.body = std::mem::take(&mut flow.body);
        }
        flow.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qem_netsim::{
        build_duplex_path, build_transit_path, Asn, EcnPolicy, Hop, Path, PathEffect, Router,
        SimDuration, TransitProfile,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 20)),
        )
    }

    fn clean() -> DuplexPath {
        DuplexPath::symmetric_clean_reverse(build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clean,
            false,
        ))
    }

    fn run(config: TcpClientConfig, behavior: TcpServerBehavior, path: &DuplexPath) -> TcpReport {
        let (c, s) = addrs();
        let mut rng = StdRng::seed_from_u64(42);
        TcpConnectionRun::new(config, behavior, c, s, path).execute(&mut rng)
    }

    #[test]
    fn probe_payload_is_the_formatted_index() {
        let mut buf = [0u8; PROBE_PAYLOAD_MAX];
        for i in (0..=100_000).chain([usize::MAX / 10, usize::MAX - 1, usize::MAX]) {
            assert_eq!(probe_payload(i, &mut buf), format!("probe-{i}").as_bytes());
        }
        assert_eq!(PROBE_PAYLOAD_MAX, format!("probe-{}", usize::MAX).len());
        assert_eq!(SEGMENT_CAPACITY, TCP_HEADER_LEN + RESPONSE.len());
    }

    #[test]
    fn a_used_scratch_measures_what_a_fresh_one_does() {
        // The scratch arrives dirty — a stale body longer than any segment,
        // a used engine — as it does from a scan worker's QUIC probe.
        let mut scratch = EngineScratch::default();
        scratch.body = vec![0xa5; 1500];
        let (c, s) = addrs();
        let clearing = DuplexPath::symmetric_clean_reverse(build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        ));
        let runs = [
            (TcpClientConfig::ect0(), CrossTraffic::congested(), clean()),
            (TcpClientConfig::force_ce(), CrossTraffic::none(), clean()),
            (TcpClientConfig::ect0(), CrossTraffic::none(), clearing),
        ];
        for (seed, (config, cross, path)) in runs.into_iter().enumerate() {
            let run = |scratch: Option<&mut EngineScratch>| {
                let mut run =
                    TcpConnectionRun::new(config, TcpServerBehavior::full_ecn(), c, s, &path)
                        .cross_traffic(cross);
                if let Some(scratch) = scratch {
                    run = run.scratch(scratch);
                }
                run.execute(&mut StdRng::seed_from_u64(seed as u64))
            };
            assert_eq!(run(Some(&mut scratch)), run(None));
            assert!(scratch.body.capacity() >= SEGMENT_CAPACITY);
        }
    }

    #[test]
    fn ce_probe_against_full_ecn_server_is_mirrored() {
        let report = run(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::full_ecn(),
            &clean(),
        );
        assert!(report.connected);
        assert!(report.negotiated);
        assert!(report.ce_mirrored);
        assert!(report.cwr_acknowledged);
        assert!(report.response_received);
        assert!(report.server_used_ecn);
        assert!(report.server_observed_ecn.ce >= 1);
    }

    #[test]
    fn ect0_probe_is_not_echoed_as_ece() {
        let report = run(
            TcpClientConfig::ect0(),
            TcpServerBehavior::full_ecn(),
            &clean(),
        );
        assert!(report.negotiated);
        assert!(!report.ce_mirrored);
        assert!(report.server_observed_ecn.ect0 >= 5);
    }

    #[test]
    fn non_ecn_server_refuses_negotiation() {
        let report = run(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::no_ecn(),
            &clean(),
        );
        assert!(report.connected);
        assert!(!report.negotiated);
        assert!(!report.ce_mirrored);
        // Without negotiation the client never marks its segments.
        assert_eq!(report.server_observed_ecn.ce, 0);
    }

    #[test]
    fn negotiating_server_without_mirroring_shows_no_echo() {
        let report = run(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::negotiate_without_mirroring(),
            &clean(),
        );
        assert!(report.negotiated);
        assert!(!report.ce_mirrored);
    }

    #[test]
    fn mirror_only_server_does_not_use_ecn() {
        let report = run(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::mirror_only(),
            &clean(),
        );
        assert!(report.ce_mirrored);
        assert!(!report.server_used_ecn);
    }

    #[test]
    fn clearing_path_defeats_ce_mirroring_for_tcp_too() {
        let forward = build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        );
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let report = run(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::full_ecn(),
            &path,
        );
        assert!(report.negotiated, "negotiation is flag-based and survives");
        assert!(!report.ce_mirrored, "the CE mark never reaches the server");
        assert_eq!(report.server_observed_ecn.ce, 0);
    }

    #[test]
    fn remarking_path_does_not_disturb_tcp() {
        // The paper's §9 point: ECT(0)→ECT(1) re-marking is invisible to
        // classic TCP; CE still gets through and is echoed.
        let forward = build_transit_path(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Remarking { asn: Asn::ARELION },
            false,
        );
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let report = run(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::full_ecn(),
            &path,
        );
        assert!(report.negotiated);
        assert!(report.ce_mirrored);
    }

    #[test]
    fn total_loss_reports_unconnected() {
        let path = DuplexPath::new(lossy(1.0), qem_netsim::Path::new(Vec::new()));
        let report = run(
            TcpClientConfig::ect0(),
            TcpServerBehavior::full_ecn(),
            &path,
        );
        assert!(!report.connected);
        assert!(report.forward_losses >= 1);
    }

    #[test]
    fn mixed_address_families_report_unconnected_with_the_loss_counted() {
        let path = clean();
        let report = TcpConnectionRun::new(
            TcpClientConfig::ect0(),
            TcpServerBehavior::full_ecn(),
            addrs().0,
            "2001:db8:2::9".parse().unwrap(),
            &path,
        )
        .execute(&mut StdRng::seed_from_u64(42));
        assert!(!report.connected);
        assert_eq!(report.forward_losses, 1);
        assert_eq!(report.server_observed_ecn, EcnCounts::ZERO);
    }

    /// A one-hop path losing each packet at its entry with probability
    /// `rate`.
    fn lossy(rate: f64) -> qem_netsim::Path {
        use qem_netsim::{FaultKind, FaultPlan, Hop, Path, Probability, Router};
        Path::new(vec![Hop::new(Router::transparent(1, Asn::DFN))]).with_fault(
            FaultPlan::new().always(FaultKind::Loss {
                rate: Probability::new(rate),
            }),
        )
    }

    /// The ECT(0) exchange over `path` from a fresh `seed`ed RNG, plus that
    /// RNG's next draw (how far the run advanced the stream).
    fn run_under(path: &DuplexPath, cross: CrossTraffic, seed: u64) -> (TcpReport, u64) {
        let (c, s) = addrs();
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = TcpConnectionRun::new(
            TcpClientConfig::ect0(),
            TcpServerBehavior::full_ecn(),
            c,
            s,
            path,
        )
        .cross_traffic(cross)
        .execute(&mut rng);
        (outcome, rng.gen())
    }

    #[test]
    fn cross_traffic_triggers_ece_echo_for_ect0_probes() {
        use qem_netsim::Path;
        let path = clean();

        // ECT(0) probing alone never produces an ECE echo on a clean path…
        let (solo, solo_next) = run_under(&path, CrossTraffic::none(), 99);
        assert!(solo.negotiated);
        assert!(!solo.ce_mirrored);
        assert_eq!(solo.server_observed_ecn.ce, 0);

        // …but behind a congested shared bottleneck the probes arrive CE and
        // the server echoes ECE.
        let (loaded, loaded_next) = run_under(&path, CrossTraffic::congested(), 99);
        assert!(loaded.negotiated);
        assert!(
            loaded.server_observed_ecn.ce > 0,
            "combined occupancy must CE-mark TCP probes"
        );
        assert!(loaded.ce_mirrored, "the server must echo the marks via ECE");
        assert_ne!(loaded_next, solo_next, "a built scenario draws its seed");

        // An enabled scenario with nothing to attach to — a hop-less forward
        // path has no bottleneck — is the single-flow run, bit for bit, and
        // leaves the caller's RNG where the plain run leaves it.
        let hopless = DuplexPath::new(Path::new(vec![]), Path::new(Vec::new()));
        assert_eq!(
            run_under(&hopless, CrossTraffic::congested(), 99),
            run_under(&hopless, CrossTraffic::none(), 99)
        );
    }

    #[test]
    fn ipv6_tcp_connection_works() {
        let forward = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, true);
        let path = DuplexPath::symmetric_clean_reverse(forward);
        let (c, s) = addrs_v6();
        let mut rng = StdRng::seed_from_u64(7);
        let report = TcpConnectionRun::new(
            TcpClientConfig::force_ce(),
            TcpServerBehavior::full_ecn(),
            c,
            s,
            &path,
        )
        .execute(&mut rng);
        assert!(report.connected);
        assert!(report.ce_mirrored);
    }

    fn addrs_v6() -> (IpAddr, IpAddr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8:2::9".parse().unwrap(),
        )
    }

    /// Every forward transit a census route is built with, one per variant.
    const TRANSITS: [TransitProfile; 5] = [
        TransitProfile::Clean,
        TransitProfile::Clearing { asn: Asn::ARELION },
        TransitProfile::Remarking { asn: Asn::ARELION },
        TransitProfile::RemarkThenClear {
            first: Asn::ARELION,
            second: Asn::COGENT,
        },
        TransitProfile::MarkAllCe { asn: Asn::ARELION },
    ];

    /// The index of `transit`'s variant in [`TRANSITS`].  A new variant
    /// does not compile here until it is given the next index and listed.
    fn variant(transit: TransitProfile) -> usize {
        match transit {
            TransitProfile::Clean => 0,
            TransitProfile::Clearing { .. } => 1,
            TransitProfile::Remarking { .. } => 2,
            TransitProfile::RemarkThenClear { .. } => 3,
            TransitProfile::MarkAllCe { .. } => 4,
        }
    }

    /// A census route: `transit` forward, a clean reverse.
    fn census_route(transit: TransitProfile, v6: bool) -> DuplexPath {
        build_duplex_path(Asn::DFN, Asn(13335), transit, TransitProfile::Clean, v6)
    }

    /// Every exchange a census runs over one route: both probe modes
    /// against the four server presets.
    fn exchanges() -> impl Iterator<Item = (TcpClientConfig, TcpServerBehavior)> {
        let presets = [
            TcpServerBehavior::full_ecn(),
            TcpServerBehavior::mirror_only(),
            TcpServerBehavior::no_ecn(),
            TcpServerBehavior::negotiate_without_mirroring(),
        ];
        [TcpClientConfig::ect0(), TcpClientConfig::force_ce()]
            .into_iter()
            .flat_map(move |config| presets.map(|behavior| (config, behavior)))
    }

    /// Every exchange a census runs: [`exchanges`] over every transit.
    fn census_exchanges(
    ) -> impl Iterator<Item = (TcpClientConfig, TcpServerBehavior, TransitProfile)> {
        exchanges().flat_map(|(config, behavior)| {
            TRANSITS
                .into_iter()
                .map(move |transit| (config, behavior, transit))
        })
    }

    /// The next draw of an RNG seeded 42 that nothing drew from.
    fn untouched() -> u64 {
        StdRng::seed_from_u64(42).gen()
    }

    #[test]
    fn the_exchange_is_draw_free_on_every_census_route() {
        // What lets a scan reuse a report: over a lossless, unloaded route
        // the run reads nothing from the host's RNG.
        assert_eq!(TRANSITS.map(variant), [0, 1, 2, 3, 4]);
        for v6 in [false, true] {
            let (c, s) = if v6 { addrs_v6() } else { addrs() };
            for (config, behavior, transit) in census_exchanges() {
                let path = census_route(transit, v6);
                let mut rng = StdRng::seed_from_u64(42);
                TcpConnectionRun::new(config, behavior, c, s, &path).execute(&mut rng);
                assert_eq!(
                    rng.gen::<u64>(),
                    untouched(),
                    "{config:?} {behavior:?} {transit:?} v6={v6}"
                );
            }
        }
        // Controls: a lossy path and a loaded bottleneck each draw.
        let lossy = DuplexPath::new(lossy(0.5), qem_netsim::Path::new(Vec::new()));
        assert_ne!(run_under(&lossy, CrossTraffic::none(), 42).1, untouched());
        let clean = census_route(TransitProfile::Clean, false);
        assert_ne!(
            run_under(&clean, CrossTraffic::congested(), 42).1,
            untouched()
        );
    }

    /// The reports of every exchange in [`exchanges`] over `path`, each
    /// with the RNG it ran on.
    fn reports(path: &DuplexPath, v6: bool) -> Vec<(TcpReport, StdRng)> {
        let (c, s) = if v6 { addrs_v6() } else { addrs() };
        exchanges()
            .map(|(config, behavior)| {
                let mut rng = StdRng::seed_from_u64(42);
                let report = TcpConnectionRun::new(config, behavior, c, s, path).execute(&mut rng);
                (report, rng)
            })
            .collect()
    }

    #[test]
    fn routes_with_one_effect_give_one_report() {
        // What lets a scan's TCP memo key a report by the effect of its
        // route: the routes from the main and cloud vantage ASes (DFN, AWS,
        // Vultr) to the first four ASes of the web model's providers
        // (Cloudflare, Google, Hostinger, Fastly), over every transit, in
        // both families, and one with the effect of a census route but hops
        // and delays of its own, fall into one group per transit, and every
        // exchange gives one report within a group and draws nothing.
        const VANTAGES: [Asn; 3] = [Asn::DFN, Asn(16509), Asn::VULTR];
        const DESTINATIONS: [Asn; 4] = [Asn(13335), Asn(15169), Asn(47583), Asn(54113)];
        let route = |vantage, destination, transit, v6| {
            build_duplex_path(vantage, destination, transit, TransitProfile::Clean, v6)
        };
        let mut routes = Vec::new();
        for vantage in VANTAGES {
            for destination in DESTINATIONS {
                for transit in TRANSITS {
                    for v6 in [false, true] {
                        routes.push((route(vantage, destination, transit, v6), v6));
                    }
                }
            }
        }
        for v6 in [false, true] {
            let effects = TRANSITS.map(|transit| route(Asn::DFN, Asn(13335), transit, v6).effect());
            for (i, effect) in effects.iter().enumerate() {
                assert!(!effects[..i].contains(effect), "{:?}", TRANSITS[i]);
            }
        }
        // Three hops of uneven delays that clear ECN, and a clean reverse
        // of one: the effect of a clearing census route.
        let ms = SimDuration::from_millis;
        let clearing = route(
            Asn::DFN,
            Asn(13335),
            TransitProfile::Clearing { asn: Asn::ARELION },
            false,
        );
        let hop = |id, asn, delay| Hop::new(Router::transparent(id, asn)).with_delay(ms(delay));
        let uneven = DuplexPath::new(
            Path::new(vec![
                hop(1, Asn::DFN, 23),
                Hop::new(Router::transparent(2, Asn::ARELION).with_ecn_policy(EcnPolicy::ClearEcn))
                    .with_delay(ms(2)),
                hop(3, Asn(15169), 11),
            ]),
            Path::new(vec![hop(4, Asn(15169), 31)]),
        );
        assert_eq!(uneven.effect(), clearing.effect());
        assert_ne!(uneven.forward.len(), clearing.forward.len());
        assert_ne!(uneven.rtt(), clearing.rtt());
        routes.push((uneven, false));

        let untouched = StdRng::seed_from_u64(42);
        let mut groups: Vec<(PathEffect, Vec<(TcpReport, StdRng)>)> = Vec::new();
        for (path, v6) in &routes {
            // Segments are sent at TTL 64: the effect holds where nothing
            // expires.
            assert!(path.forward.len() < 64 && path.reverse.len() < 64);
            let reports = reports(path, *v6);
            assert!(reports.iter().all(|(_, rng)| *rng == untouched), "{path:?}");
            let effect = path.effect();
            match groups.iter().find(|(kept, _)| *kept == effect) {
                None => groups.push((effect, reports)),
                Some((_, first)) => assert_eq!(reports, *first, "{path:?}"),
            }
        }
        assert_eq!(groups.len(), TRANSITS.len());

        // Control: the reverse half of the effect is needed.  A reverse
        // that clears ECN under the same forward direction is another
        // effect, and a server that sets ECT on its data is seen otherwise.
        let clean = census_route(TransitProfile::Clean, false);
        let clearing_reverse = DuplexPath::new(
            clean.forward.clone(),
            Path::new(vec![Hop::new(
                Router::transparent(9, Asn::DFN).with_ecn_policy(EcnPolicy::ClearEcn),
            )]),
        );
        assert_ne!(clearing_reverse.effect(), clean.effect());
        let full_ecn = TcpServerBehavior::full_ecn();
        assert_ne!(full_ecn.egress_ecn, EcnCodepoint::NotEct);
        let run = |path| run(TcpClientConfig::ect0(), full_ecn, path);
        assert_ne!(run(&clearing_reverse), run(&clean));
    }

    proptest! {
        /// What lets a scan's memo leave the server address out of its key.
        #[test]
        fn the_outcome_does_not_depend_on_the_addresses_within_a_family(
            c4 in any::<u32>(),
            s4 in any::<u32>(),
            c6 in any::<u128>(),
            s6 in any::<u128>(),
        ) {
            let v4 = (IpAddr::V4(c4.into()), IpAddr::V4(s4.into()));
            let v6 = (IpAddr::V6(c6.into()), IpAddr::V6(s6.into()));
            for ((c, s), (ref_c, ref_s), v6) in [(v4, addrs(), false), (v6, addrs_v6(), true)] {
                for (config, behavior, transit) in census_exchanges() {
                    let path = census_route(transit, v6);
                    let run = |c, s| {
                        TcpConnectionRun::new(config, behavior, c, s, &path)
                            .execute(&mut StdRng::seed_from_u64(42))
                    };
                    prop_assert_eq!(run(c, s), run(ref_c, ref_s));
                }
            }
        }
    }
}
