//! The sans-IO application flows a [`Scenario`](crate::scenario::Scenario)
//! compiles onto the engine: bulk object transfers with an AIMD congestion
//! response and constant-bitrate RTC frame streaming.
//!
//! Both flows implement [`qem_netsim::Flow`] and drive *real wire formats*
//! through the simulated network — QUIC short-header STREAM packets built by
//! [`qem_quic::app::StreamPacketizer`] or TCP `ACK|PSH` segments built by
//! [`qem_tcp::app::SegmentPacketizer`], encapsulated in IPv4 datagrams
//! carrying the scenario variant's ECN codepoint.
//!
//! ## The congestion model, honestly
//!
//! Full congestion-controller/loss-recovery state machines on the endpoints
//! are parked (ROADMAP *Parked*, "Real congestion control"), so the bulk
//! flow carries a deliberately small, self-contained AIMD model: slow start,
//! congestion avoidance, multiplicative decrease once per round trip on a
//! CE-marked ACK or a retransmission timeout.  It is enough for the property
//! the workload layer measures — *whether the congestion feedback loop
//! closes* — which is exactly what the ECN-on / ECN-off / CE-blackholed
//! variants differ in.
//! When real controllers land, these flows are the call sites to rewire.

use qem_netsim::{DuplexPath, Flow, FlowStatus, SharedQueues, SimDuration, SimInstant};
use qem_packet::ecn::EcnCodepoint;
use qem_packet::ip::{IpDatagram, IpProtocol};
use qem_packet::udp::UdpHeader;
use qem_quic::app::{BulkObject, FrameSource, StreamPacketizer};
use qem_tcp::app::SegmentPacketizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

/// Maximum application bytes per packet (a QUIC-ish 1200-byte segment).
pub const MSS: usize = 1_200;

/// Initial congestion window, in packets (RFC 6928's IW10).
const INITIAL_CWND: usize = 10;

/// Floor the window never drops below, in packets.
const MIN_CWND: usize = 2;

/// Which wire format a bulk transfer puts on the path.
#[derive(Debug)]
enum Packetizer {
    /// QUIC short-header packets carrying STREAM frames, over UDP.
    Quic(StreamPacketizer),
    /// TCP `ACK|PSH` data segments.
    Tcp(SegmentPacketizer),
}

/// Benchmarking-range endpoint addresses (RFC 2544), one source address per
/// connection so traces stay tellable apart.
fn endpoint_addrs(conn: u8) -> (IpAddr, IpAddr) {
    (
        IpAddr::V4(Ipv4Addr::new(198, 18, 1, conn)),
        IpAddr::V4(Ipv4Addr::new(198, 19, 1, 1)),
    )
}

/// What the bulk sender learns about one packet, delivered as a timed event.
#[derive(Debug, Clone, Copy)]
enum Feedback {
    /// The packet arrived and its ACK came back; `ce` is whether the packet
    /// was CE-marked *on arrival at the receiver* (the only place a mark is
    /// visible — an erased mark never reaches here).
    Ack { offset: u64, len: usize, ce: bool },
    /// The retransmission timeout fired for a packet the network dropped.
    Timeout { offset: u64, len: usize },
}

/// A bulk object transfer: send `object_size` bytes over the scenario path
/// as fast as the AIMD window allows, recording completion time and the
/// congestion signals consumed along the way.
#[derive(Debug)]
pub struct BulkAppFlow {
    path: DuplexPath,
    ecn: EcnCodepoint,
    conn: u8,
    source: BulkObject,
    packetizer: Packetizer,
    rng: StdRng,
    /// Congestion state.
    cwnd: usize,
    ssthresh: usize,
    ack_credit: usize,
    recovery_until: SimInstant,
    rto: SimDuration,
    /// Offset → length of packets in flight.
    in_flight: BTreeMap<u64, usize>,
    /// Offset → length of dropped packets awaiting retransmission.
    retransmit: BTreeMap<u64, usize>,
    /// Timed feedback, ordered by delivery instant (FIFO within an instant).
    feedback: BTreeMap<SimInstant, Vec<Feedback>>,
    acked_bytes: u64,
    /// Results.
    completed_at: Option<SimInstant>,
    packets_sent: u64,
    retransmits: u64,
    ce_acks: u64,
    timeouts: u64,
}

impl BulkAppFlow {
    /// A QUIC bulk transfer of `object_size` bytes for connection `conn`.
    pub fn quic(
        path: DuplexPath,
        ecn: EcnCodepoint,
        object_size: u64,
        conn: u8,
        seed: u64,
    ) -> Self {
        let packetizer = Packetizer::Quic(StreamPacketizer::new(seed, u64::from(conn) * 4));
        Self::new(path, ecn, object_size, conn, seed, packetizer)
    }

    /// A TCP bulk transfer of `object_size` bytes for connection `conn`.
    pub fn tcp(path: DuplexPath, ecn: EcnCodepoint, object_size: u64, conn: u8, seed: u64) -> Self {
        let packetizer = Packetizer::Tcp(SegmentPacketizer::new(
            443,
            50_000 + u16::from(conn),
            seed as u32,
        ));
        Self::new(path, ecn, object_size, conn, seed, packetizer)
    }

    fn new(
        path: DuplexPath,
        ecn: EcnCodepoint,
        object_size: u64,
        conn: u8,
        seed: u64,
        packetizer: Packetizer,
    ) -> Self {
        // A fixed, deterministic timeout: the un-congested RTT plus the worst
        // case the bottleneck queue can add, plus slack.  Deliberately not an
        // adaptive estimator — see the module docs.
        let rto = path.rtt() + SimDuration::from_millis(50);
        BulkAppFlow {
            path,
            ecn,
            conn,
            source: BulkObject::new(object_size),
            packetizer,
            rng: StdRng::seed_from_u64(seed),
            cwnd: INITIAL_CWND,
            ssthresh: usize::MAX / 2,
            ack_credit: 0,
            recovery_until: SimInstant::EPOCH,
            rto,
            in_flight: BTreeMap::new(),
            retransmit: BTreeMap::new(),
            feedback: BTreeMap::new(),
            acked_bytes: 0,
            completed_at: None,
            packets_sent: 0,
            retransmits: 0,
            ce_acks: 0,
            timeouts: 0,
        }
    }

    /// Flow-completion time, once the whole object is acknowledged.
    pub fn completion_time(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|at| at.duration_since(SimInstant::EPOCH))
    }

    /// Packets retransmitted after a timeout.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// ACKs that reported a CE mark (congestion the sender acted on).
    pub fn ce_acks(&self) -> u64 {
        self.ce_acks
    }

    /// Retransmission timeouts that fired.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Multiplicative decrease, at most once per recovery period (one RTT).
    fn on_congestion(&mut self, now: SimInstant) {
        if now < self.recovery_until {
            return;
        }
        self.cwnd = (self.cwnd / 2).max(MIN_CWND);
        self.ssthresh = self.cwnd;
        self.ack_credit = 0;
        self.recovery_until = now + self.path.rtt();
    }

    /// Additive increase: slow start below `ssthresh`, one packet per window
    /// above it.
    fn on_ack_growth(&mut self) {
        if self.cwnd < self.ssthresh {
            self.cwnd += 1;
        } else {
            self.ack_credit += 1;
            if self.ack_credit >= self.cwnd {
                self.cwnd += 1;
                self.ack_credit = 0;
            }
        }
    }

    /// Send one packet, encoded into `body` — the buffer the previous
    /// packet of this wake was delivered in, handed back for the next.  A
    /// burst shares one body; nothing is kept between wakes, so a thousand
    /// idle flows hold no packet buffers.
    fn transmit(
        &mut self,
        offset: u64,
        len: usize,
        fin: bool,
        now: SimInstant,
        net: &mut SharedQueues,
        body: &mut Vec<u8>,
    ) {
        let (src, dst) = endpoint_addrs(self.conn);
        let chunk = qem_quic::app::AppChunk { offset, len, fin };
        let mut transport_bytes = std::mem::take(body);
        let protocol = match &mut self.packetizer {
            Packetizer::Quic(p) => {
                UdpHeader::begin(
                    &mut transport_bytes,
                    StreamPacketizer::PACKET_OVERHEAD + len,
                );
                p.packetize(&chunk, &mut transport_bytes);
                let udp = UdpHeader::new(50_000 + u16::from(self.conn), 443);
                udp.finish(src, dst, &mut transport_bytes);
                IpProtocol::Udp
            }
            Packetizer::Tcp(p) => {
                p.packetize(src, dst, len, &mut transport_bytes);
                IpProtocol::Tcp
            }
        };
        self.packets_sent += 1;
        self.in_flight.insert(offset, len);
        let arrived = IpDatagram::assemble(src, dst, protocol, 64, self.ecn, transport_bytes)
            .ok()
            .and_then(|datagram| {
                self.path
                    .forward
                    .transit_shared(datagram, now, &mut self.rng, net)
                    .delivered()
            });
        match arrived {
            Some((datagram, delay)) => {
                let ce = datagram.header.ecn() == EcnCodepoint::Ce;
                *body = datagram.payload;
                let ack_at = now + delay + self.path.reverse.one_way_delay();
                self.feedback
                    .entry(ack_at)
                    .or_default()
                    .push(Feedback::Ack { offset, len, ce });
            }
            None => {
                self.feedback
                    .entry(now + self.rto)
                    .or_default()
                    .push(Feedback::Timeout { offset, len });
            }
        }
    }
}

impl Flow for BulkAppFlow {
    fn on_wake(&mut self, now: SimInstant, net: &mut SharedQueues) -> FlowStatus {
        // 1. Consume all feedback that has arrived by now, in time order.
        while let Some((&at, _)) = self.feedback.iter().next() {
            if at > now {
                break;
            }
            let batch = self.feedback.remove(&at).unwrap_or_default();
            for event in batch {
                match event {
                    Feedback::Ack { offset, len, ce } => {
                        if self.in_flight.remove(&offset).is_some() {
                            self.acked_bytes += len as u64;
                            if ce {
                                self.ce_acks += 1;
                                self.on_congestion(at);
                            } else {
                                self.on_ack_growth();
                            }
                        }
                    }
                    Feedback::Timeout { offset, len } => {
                        if self.in_flight.remove(&offset).is_some() {
                            self.retransmit.insert(offset, len);
                            self.timeouts += 1;
                            self.on_congestion(at);
                        }
                    }
                }
            }
        }

        // 2. Done once every byte of the object is acknowledged.
        if self.acked_bytes >= self.source.size() {
            if self.completed_at.is_none() {
                self.completed_at = Some(now);
            }
            return FlowStatus::Done;
        }

        // 3. Fill the window: retransmissions first, then fresh data.
        let mut body = Vec::new();
        while self.in_flight.len() < self.cwnd {
            if let Some((&offset, &len)) = self.retransmit.iter().next() {
                self.retransmit.remove(&offset);
                self.retransmits += 1;
                let fin = offset + len as u64 >= self.source.size();
                self.transmit(offset, len, fin, now, net, &mut body);
            } else if let Some(chunk) = self.source.next_chunk(MSS) {
                self.transmit(chunk.offset, chunk.len, chunk.fin, now, net, &mut body);
            } else {
                break;
            }
        }

        // 4. Sleep until the next feedback event.  Every in-flight packet has
        // one pending, so an empty map here means the transfer stalled with
        // nothing outstanding — impossible by construction, but sleeping one
        // RTO is a safe recovery rather than a panic.
        match self.feedback.keys().next() {
            Some(&at) => FlowStatus::Sleep(at),
            None => FlowStatus::Sleep(now + self.rto),
        }
    }
}

/// Per-frame bookkeeping for the RTC flow.
#[derive(Debug, Clone, Copy)]
struct FrameState {
    generated: SimInstant,
    /// Packets of this frame still in the network.
    outstanding: usize,
    /// Whether any packet of the frame was dropped.
    lost: bool,
    /// Whether any packet of the frame arrived CE-marked.
    ce: bool,
    /// Arrival instant of the latest packet so far.
    completed_at: SimInstant,
}

/// A constant-bitrate RTC stream: one frame every `frame_interval`, each
/// split into MSS-sized packets sent back-to-back, measuring per-frame
/// delivery lateness and jitter at the receiver.
///
/// The source does *not* adapt its rate — real-time media keeps its schedule
/// and eats the queueing delay, which is exactly why its frame lateness is
/// the cleanest probe of how deep the bottleneck queue sits under each ECN
/// variant.
#[derive(Debug)]
pub struct RtcAppFlow {
    path: DuplexPath,
    ecn: EcnCodepoint,
    conn: u8,
    source: FrameSource,
    packetizer: StreamPacketizer,
    rng: StdRng,
    frame_interval: SimDuration,
    total_frames: u64,
    frames_generated: u64,
    /// Frame index → in-network state.
    pending: BTreeMap<u64, FrameState>,
    /// Arrival instant → frame indices receiving a packet then.
    arrivals: BTreeMap<SimInstant, Vec<u64>>,
    /// Lateness (generation → last packet arrival) of delivered frames, µs.
    lateness_us: Vec<u64>,
    frames_delivered: u64,
    frames_lost: u64,
    ce_frames: u64,
}

impl RtcAppFlow {
    /// An RTC stream of `total_frames` frames of `frame_bytes` bytes, one
    /// every `frame_interval`.
    pub fn new(
        path: DuplexPath,
        ecn: EcnCodepoint,
        frame_bytes: u64,
        frame_interval: SimDuration,
        total_frames: u64,
        conn: u8,
        seed: u64,
    ) -> Self {
        RtcAppFlow {
            path,
            ecn,
            conn,
            source: FrameSource::new(frame_bytes),
            packetizer: StreamPacketizer::new(seed, 2),
            rng: StdRng::seed_from_u64(seed),
            frame_interval,
            total_frames,
            frames_generated: 0,
            pending: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            lateness_us: Vec::new(),
            frames_delivered: 0,
            frames_lost: 0,
            ce_frames: 0,
        }
    }

    /// Lateness of each delivered frame in µs, in delivery-completion order.
    pub fn lateness_us(&self) -> &[u64] {
        &self.lateness_us
    }

    /// Frames whose every packet arrived.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// Frames that lost at least one packet.
    pub fn frames_lost(&self) -> u64 {
        self.frames_lost
    }

    /// Delivered frames that carried at least one CE mark on arrival.
    pub fn ce_frames(&self) -> u64 {
        self.ce_frames
    }

    fn finalize(&mut self, index: u64) {
        let Some(state) = self.pending.remove(&index) else {
            return;
        };
        if state.lost {
            self.frames_lost += 1;
        } else {
            self.frames_delivered += 1;
            if state.ce {
                self.ce_frames += 1;
            }
            self.lateness_us.push(
                state
                    .completed_at
                    .duration_since(state.generated)
                    .as_micros(),
            );
        }
    }

    fn generate_frame(&mut self, now: SimInstant, net: &mut SharedQueues) {
        let index = self.frames_generated;
        self.frames_generated += 1;
        let (src, dst) = endpoint_addrs(self.conn);
        let mut state = FrameState {
            generated: now,
            outstanding: 0,
            lost: false,
            ce: false,
            completed_at: now,
        };
        // The packets of a frame share one body: each is encoded into the
        // buffer the previous one was delivered in.
        let mut body = Vec::new();
        for chunk in self.source.next_frame(MSS) {
            let mut transport_bytes = std::mem::take(&mut body);
            UdpHeader::begin(
                &mut transport_bytes,
                StreamPacketizer::PACKET_OVERHEAD + chunk.len,
            );
            self.packetizer.packetize(&chunk, &mut transport_bytes);
            let udp = UdpHeader::new(51_000 + u16::from(self.conn), 443);
            udp.finish(src, dst, &mut transport_bytes);
            let arrived =
                IpDatagram::assemble(src, dst, IpProtocol::Udp, 64, self.ecn, transport_bytes)
                    .ok()
                    .and_then(|datagram| {
                        self.path
                            .forward
                            .transit_shared(datagram, now, &mut self.rng, net)
                            .delivered()
                    });
            match arrived {
                Some((datagram, delay)) => {
                    state.outstanding += 1;
                    state.ce |= datagram.header.ecn() == EcnCodepoint::Ce;
                    body = datagram.payload;
                    self.arrivals.entry(now + delay).or_default().push(index);
                }
                None => {
                    state.lost = true;
                }
            }
        }
        self.pending.insert(index, state);
        if state.outstanding == 0 {
            // Every packet dropped: nothing will ever arrive.
            self.finalize(index);
        }
    }

    fn next_generation_at(&self) -> Option<SimInstant> {
        (self.frames_generated < self.total_frames)
            .then(|| SimInstant::EPOCH + self.frame_interval * self.frames_generated)
    }
}

impl Flow for RtcAppFlow {
    fn on_wake(&mut self, now: SimInstant, net: &mut SharedQueues) -> FlowStatus {
        // 1. Book all packet arrivals up to now, in arrival order.
        while let Some((&at, _)) = self.arrivals.iter().next() {
            if at > now {
                break;
            }
            let batch = self.arrivals.remove(&at).unwrap_or_default();
            for index in batch {
                let finished = match self.pending.get_mut(&index) {
                    Some(state) => {
                        state.outstanding -= 1;
                        state.completed_at = at;
                        state.outstanding == 0
                    }
                    None => false,
                };
                if finished {
                    self.finalize(index);
                }
            }
        }
        // 2. Generate every frame whose schedule slot has arrived.
        while let Some(at) = self.next_generation_at() {
            if at > now {
                break;
            }
            self.generate_frame(at, net);
        }

        // 3. Sleep until the earlier of the next arrival and the next frame.
        let next_arrival = self.arrivals.keys().next().copied();
        let next_generation = self.next_generation_at();
        match (next_arrival, next_generation) {
            (Some(a), Some(g)) => FlowStatus::Sleep(a.min(g)),
            (Some(a), None) => FlowStatus::Sleep(a),
            (None, Some(g)) => FlowStatus::Sleep(g),
            (None, None) => FlowStatus::Done,
        }
    }
}

/// Mean absolute difference between consecutive frame lateness samples, µs —
/// the inter-frame jitter the receiver's dejitter buffer has to absorb.
pub fn jitter_us(lateness_us: &[u64]) -> u64 {
    if lateness_us.len() < 2 {
        return 0;
    }
    let total: u64 = lateness_us.windows(2).map(|w| w[0].abs_diff(w[1])).sum();
    total / (lateness_us.len() as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qem_netsim::{Asn, EngineCore, Hop, Path, QueueConfig, Router, TimerWheel};

    fn clean_duplex() -> (DuplexPath, qem_netsim::RouterId) {
        let bottleneck = Router::transparent(2, Asn(64500));
        let id = bottleneck.id;
        let forward = Path::new(vec![
            Hop::new(Router::transparent(1, Asn(64500))).with_delay(SimDuration::from_millis(2)),
            Hop::new(bottleneck).with_delay(SimDuration::from_millis(2)),
        ]);
        (DuplexPath::symmetric_clean_reverse(forward), id)
    }

    #[test]
    fn bulk_flow_completes_the_object_on_an_uncongested_path() {
        let (duplex, id) = clean_duplex();
        let mut shared = SharedQueues::new();
        shared.register(id, QueueConfig::bottleneck(256, 64, 128));
        let mut flow = BulkAppFlow::quic(duplex, EcnCodepoint::Ect0, 60_000, 1, 7);
        let mut engine: EngineCore<TimerWheel<usize>> = EngineCore::new(shared);
        engine.add_flow(&mut flow);
        engine.run();
        let fct = flow.completion_time().expect("transfer completes");
        assert!(fct > SimDuration::ZERO);
        assert_eq!(flow.retransmits(), 0);
        assert_eq!(flow.ce_acks(), 0);
        assert_eq!(flow.packets_sent, 50); // 60_000 / 1_200
    }

    #[test]
    fn bulk_flow_backs_off_on_ce_and_recovers_without_loss() {
        // Mark aggressively: min_thresh 0 ramps straight into certain marking.
        let (duplex, id) = clean_duplex();
        let mut shared = SharedQueues::new();
        shared.register(id, QueueConfig::bottleneck(512, 0, 1));
        let mut flow = BulkAppFlow::quic(duplex, EcnCodepoint::Ect0, 120_000, 1, 7);
        let mut engine: EngineCore<TimerWheel<usize>> = EngineCore::new(shared);
        engine.add_flow(&mut flow);
        engine.run();
        assert!(flow.completion_time().is_some());
        assert!(flow.ce_acks() > 0, "AQM marks must reach the sender");
        assert_eq!(
            flow.retransmits(),
            0,
            "ECN resolves congestion without loss"
        );
    }

    #[test]
    fn bulk_flow_retransmits_through_a_tiny_tail_drop_queue() {
        let (duplex, id) = clean_duplex();
        let mut shared = SharedQueues::new();
        shared.register(id, QueueConfig::bottleneck(4, 1, 2));
        // not-ECT: the AQM spares it, so the only signal is tail drop + RTO.
        let mut flow = BulkAppFlow::tcp(duplex, EcnCodepoint::NotEct, 120_000, 1, 7);
        let mut engine: EngineCore<TimerWheel<usize>> = EngineCore::new(shared);
        engine.add_flow(&mut flow);
        engine.run();
        assert!(flow.completion_time().is_some(), "transfer still completes");
        assert!(
            flow.retransmits() > 0,
            "tail drops must force retransmission"
        );
        assert_eq!(flow.ce_acks(), 0, "not-ECT traffic is never marked");
    }

    #[test]
    fn rtc_flow_delivers_every_frame_and_measures_base_lateness() {
        let (duplex, id) = clean_duplex();
        let mut shared = SharedQueues::new();
        shared.register(id, QueueConfig::bottleneck(256, 64, 128));
        let mut flow = RtcAppFlow::new(
            duplex,
            EcnCodepoint::Ect0,
            6_000,
            SimDuration::from_millis(33),
            10,
            1,
            7,
        );
        let mut engine: EngineCore<TimerWheel<usize>> = EngineCore::new(shared);
        engine.add_flow(&mut flow);
        engine.run();
        assert_eq!(flow.frames_delivered(), 10);
        assert_eq!(flow.frames_lost(), 0);
        // One-way delay is 4 ms; queueing adds service time on top.
        assert!(flow.lateness_us().iter().all(|&l| l >= 4_000));
    }

    #[test]
    fn jitter_is_mean_absolute_consecutive_difference() {
        assert_eq!(jitter_us(&[]), 0);
        assert_eq!(jitter_us(&[5_000]), 0);
        assert_eq!(jitter_us(&[4_000, 6_000, 5_000]), 1_500);
    }
}
