//! A discrete-event simulation engine driving many concurrent flows over a
//! shared topology.
//!
//! The per-connection drivers (`qem_quic::driver`, `qem_tcp`) each step a
//! private path: no two flows ever share a queue, so AQM marking probability
//! is a per-flow constant rather than an emergent property of congestion.
//! This module adds the missing piece, in three layers:
//!
//! * [`Scheduler`] — the event-scheduling boundary: virtual time, FIFO
//!   tie-breaking (two events scheduled for the same instant fire in the
//!   order they were scheduled, on every run, on every machine) and
//!   same-instant batch draining.  Flows only ever re-arm, so there is no
//!   cancellation.  [`TimerWheel`], a hierarchical timer wheel, is the one
//!   implementation; the differential tests put a sorted-`Vec` oracle of
//!   their own behind the same trait.
//! * [`SharedQueues`] — real egress queues attached to routers by
//!   [`RouterId`].  Packets from *all* flows crossing a registered router
//!   occupy the same queue; [`OccupancyAqm`] marks CE based on the combined
//!   occupancy, so congestion experienced by one flow is caused by the
//!   others — the load-dependent regime of the paper's §6.2/§6.3 findings.
//! * [`Engine`] — the scheduler that owns virtual time and wakes sans-IO
//!   [`Flow`]s.  A flow does whatever work it can at the current instant
//!   (transmit, receive, time out) and either asks to sleep until its next
//!   timer or declares itself done.
//!
//! [`run_measured`] is the one place a measured connection meets the engine:
//! the QUIC and TCP run builders hand it their flow plus whatever
//! [`CrossTraffic::instantiate_with`] produced.  Without cross traffic that is
//! a one-flow engine with **no** registered queues; in that configuration the
//! shared-queue hooks consume no randomness and add no delay, so an unloaded
//! run is bit-identical to stepping the flow over a private path.
//!
//! An engine's allocations — the wheel's slot table above all — live in an
//! [`EngineScratch`].  [`Engine::new`] owns a fresh one; `run_measured`
//! borrows the caller's and resets it first, so a census worker builds one
//! wheel for its whole scan instead of one per probe.  A reset scratch is
//! observably a new one: results never depend on what ran over it before.
//!
//! An engine counts in the fixed slots of a `Copy` [`EngineTally`], which
//! every measured run returns and a scan worker sums; the counts get their
//! names in one place, [`EngineTally::name_into`], when someone asks for
//! [`EngineCore::telemetry`] or a scan's metrics.  Queue and fault metrics,
//! named per router and per fault, stay with [`SharedQueues::telemetry`].

use crate::aqm::{AqmDecision, OccupancyAqm};
use crate::fault::{FaultStats, FaultVerdict};
use crate::path::Path;
use crate::router::RouterId;
use crate::time::{SimDuration, SimInstant};
use crate::wheel::TimerWheel;
use qem_obs::{HistogramSnapshot, MetricsSnapshot, TraceRing};
use qem_packet::ecn::EcnCodepoint;
use qem_packet::ip::{IpDatagram, IpProtocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::BorrowMut;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::marker::PhantomData;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

// ---------------------------------------------------------------------------
// The scheduler boundary
// ---------------------------------------------------------------------------

/// The event-scheduling contract of the engine: virtual time with FIFO
/// tie-breaking and same-instant batch draining.
///
/// [`TimerWheel`] is the implementation the engine runs on;
/// `tests/scheduler_differential.rs` holds it to a sorted-`Vec` oracle
/// event for event, batch for batch.
pub trait Scheduler<T> {
    /// The current virtual time: the fire time of the last batch handed
    /// out.
    fn now(&self) -> SimInstant;

    /// Schedule `payload` at `at` (clamped to the present: events cannot
    /// fire in the past).
    fn schedule_at(&mut self, at: SimInstant, payload: T);

    /// Drain every event firing at the next occupied instant into `out`
    /// (cleared first), in FIFO order, advancing virtual time to that
    /// instant; returns the batch size, `0` once nothing is pending.  The
    /// engine uses it to amortise dispatch across same-instant wakes.
    fn pop_batch(&mut self, out: &mut Vec<Event<T>>) -> usize;
}

/// A popped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<T> {
    /// When the event fires.
    pub at: SimInstant,
    /// The caller-supplied payload.
    pub payload: T,
}

// ---------------------------------------------------------------------------
// Shared router egress queues
// ---------------------------------------------------------------------------

/// Configuration of one shared router egress queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Maximum number of queued packets; arrivals beyond it are dropped.
    pub capacity: usize,
    /// Occupancy-driven CE marking law.
    pub aqm: OccupancyAqm,
    /// Serialization time per packet (the drain rate of the queue).
    pub service_time: SimDuration,
}

impl QueueConfig {
    /// A bottleneck queue with RED-style thresholds at `min`/`max` packets.
    pub fn bottleneck(capacity: usize, min: usize, max: usize) -> Self {
        QueueConfig {
            capacity,
            aqm: OccupancyAqm {
                min_thresh: min,
                max_thresh: max,
            },
            service_time: SimDuration::from_micros(500),
        }
    }
}

/// Running counters of one shared queue, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Packets admitted to the queue.
    pub enqueued: u64,
    /// Packets that left with a CE mark applied by this queue.
    pub marked: u64,
    /// Packets dropped (tail drop or AQM drop of not-ECT traffic).
    pub dropped: u64,
    /// Highest occupancy observed at any admission.
    pub peak_occupancy: usize,
}

#[derive(Debug)]
struct QueueState {
    config: QueueConfig,
    /// Departure times of the packets currently in the queue.
    departures: BinaryHeap<Reverse<SimInstant>>,
    /// Departure time of the most recently admitted packet.
    last_departure: SimInstant,
    stats: QueueStats,
    /// Occupancy observed at each arrival (drained, pre-admission), as a
    /// log-linear distribution — `peak_occupancy` tells the worst case,
    /// this tells where the queue actually sat.
    occupancy_hist: HistogramSnapshot,
}

impl QueueState {
    fn drain(&mut self, now: SimInstant) {
        while let Some(Reverse(at)) = self.departures.peek() {
            if *at <= now {
                self.departures.pop();
            } else {
                break;
            }
        }
    }
}

/// The shared egress queues of a topology, keyed by router.
///
/// Only routers explicitly registered here queue packets; every other hop
/// forwards at once, drawing nothing — so over an empty `SharedQueues` a
/// path is a lone flow's idle network.
#[derive(Debug, Default)]
pub struct SharedQueues {
    queues: BTreeMap<RouterId, QueueState>,
    faults: FaultStats,
}

impl SharedQueues {
    /// No shared queues: every hop forwards exactly as the plain path
    /// simulator does, with zero extra randomness.
    pub fn new() -> Self {
        SharedQueues::default()
    }

    /// Attach a shared egress queue to `router`.
    pub fn register(&mut self, router: RouterId, config: QueueConfig) {
        self.queues.insert(
            router,
            QueueState {
                config,
                departures: BinaryHeap::new(),
                last_departure: SimInstant::EPOCH,
                stats: QueueStats::default(),
                occupancy_hist: HistogramSnapshot::default(),
            },
        );
    }

    /// Whether no queue is registered.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Counters of `router`'s queue.
    pub fn stats(&self, router: RouterId) -> Option<QueueStats> {
        self.queues.get(&router).map(|s| s.stats)
    }

    /// Pass a packet carrying `ecn` through `router`'s egress queue at `now`.
    ///
    /// Returns the AQM decision plus the queueing delay the packet picks up
    /// waiting for service.  Routers without a registered queue forward
    /// unchanged, instantly, consuming no randomness.
    pub fn admit<R: Rng + ?Sized>(
        &mut self,
        router: RouterId,
        now: SimInstant,
        ecn: EcnCodepoint,
        rng: &mut R,
    ) -> (AqmDecision, SimDuration) {
        let Some(state) = self.queues.get_mut(&router) else {
            return (AqmDecision::Forward(ecn), SimDuration::ZERO);
        };
        state.drain(now);
        let occupancy = state.departures.len();
        state.stats.peak_occupancy = state.stats.peak_occupancy.max(occupancy);
        state.occupancy_hist.record(occupancy as u64);
        if occupancy >= state.config.capacity {
            state.stats.dropped += 1;
            return (AqmDecision::Drop, SimDuration::ZERO);
        }
        let decision = state.config.aqm.apply(ecn, occupancy, rng);
        if decision == AqmDecision::Drop {
            state.stats.dropped += 1;
            return (AqmDecision::Drop, SimDuration::ZERO);
        }
        let start = state.last_departure.max(now);
        let departure = start + state.config.service_time;
        state.departures.push(Reverse(departure));
        state.last_departure = departure;
        state.stats.enqueued += 1;
        if decision == AqmDecision::Forward(EcnCodepoint::Ce) && ecn != EcnCodepoint::Ce {
            state.stats.marked += 1;
        }
        (decision, departure - now)
    }

    /// Fold one fault-plan verdict into the run's fault counters.  Called
    /// by [`Path::transit_shared`](crate::path::Path::transit_shared) for
    /// every packet crossing a path with a non-empty plan.
    pub fn record_fault(&mut self, verdict: &FaultVerdict) {
        self.faults.record(verdict);
    }

    /// Per-router metrics of every registered queue, in router-id order:
    /// `queue.r<id>.{enqueued,marked,dropped}` counters, the
    /// `queue.r<id>.peak_occupancy` gauge and the `queue.r<id>.occupancy`
    /// arrival-occupancy histogram.  This is the read side of
    /// [`QueueStats`], which was previously write-only outside of tests.
    pub fn telemetry(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (router, state) in &self.queues {
            let prefix = format!("queue.r{}.", router.0);
            snap.set_counter(format!("{prefix}enqueued"), state.stats.enqueued);
            snap.set_counter(format!("{prefix}marked"), state.stats.marked);
            snap.set_counter(format!("{prefix}dropped"), state.stats.dropped);
            snap.set_gauge(
                format!("{prefix}peak_occupancy"),
                state.stats.peak_occupancy as u64,
            );
            snap.set_histogram(format!("{prefix}occupancy"), state.occupancy_hist.clone());
        }
        // Fault counters are emitted only when nonzero: fault-free runs —
        // every golden-pinned scenario — keep byte-identical telemetry.
        for (key, value) in [
            ("fault.drops.loss", self.faults.loss_drops),
            ("fault.drops.flap", self.faults.flap_drops),
            ("fault.corrupted", self.faults.corrupted),
            ("fault.reordered", self.faults.reordered),
            ("fault.jittered", self.faults.jittered),
        ] {
            if value > 0 {
                snap.set_counter(key, value);
            }
        }
        snap
    }
}

// ---------------------------------------------------------------------------
// The engine tally
// ---------------------------------------------------------------------------

/// The slot of the virtual clock in an [`EngineTally`]: a peak.
const CLOCK: usize = 4;

/// An engine's own counts — events, flows, wake-log accounting, the
/// virtual clock — of one run or summed over many, as plain `Copy` slots:
/// what a measured run returns and a scan worker adds up without a name in
/// sight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTally([u64; 5]);

impl EngineTally {
    /// Fold `other` in: counters add, the virtual clock keeps its peak.
    pub fn merge_from(&mut self, other: &EngineTally) {
        let clock = self.0[CLOCK].max(other.0[CLOCK]);
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
        self.0[CLOCK] = clock;
    }

    /// Set every slot in `snap` under its name — the one place an engine
    /// count gets one.
    pub fn name_into(&self, snap: &mut MetricsSnapshot) {
        let [events, flows, recorded, dropped, clock] = self.0;
        snap.set_counter("engine.events_processed", events);
        snap.set_counter("engine.flows", flows);
        snap.set_counter("engine.trace.recorded", recorded);
        snap.set_counter("engine.trace.dropped", dropped);
        snap.set_gauge("engine.virtual_now_us", clock);
    }
}

// ---------------------------------------------------------------------------
// Flows and the engine
// ---------------------------------------------------------------------------

/// What a [`Flow`] wants after being woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// Wake the flow again at (or after) the given instant.
    Sleep(SimInstant),
    /// The flow has finished; never wake it again.
    Done,
}

/// A sans-IO participant of the simulation.
///
/// A flow owns its endpoints and its randomness; the engine owns time.  On
/// each wake the flow performs all work possible at the current instant —
/// transmitting through (shared-queue aware) paths, delivering, handling
/// timeouts — and returns when it next needs the clock.
pub trait Flow {
    /// Wake the flow at `now` with access to the shared queues.
    fn on_wake(&mut self, now: SimInstant, net: &mut SharedQueues) -> FlowStatus;
}

/// One entry of the engine's event-order log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowWake {
    /// Virtual time of the wake.
    pub at: SimInstant,
    /// Index of the woken flow (in registration order).
    pub flow: usize,
}

/// Capacity of the engine's wake log: large enough to retain every
/// wake of any probe-scale scenario in the workspace, small enough to bound
/// memory over arbitrarily long runs.
pub const DEFAULT_EVENT_LOG_CAPACITY: usize = 65_536;

/// Livelock guard: an engine run stops after this many events.
const MAX_EVENTS: usize = 10_000_000;

/// Post-run observability bundle of one engine: deterministic metrics plus
/// the (ring-bounded) virtual-time wake trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineTelemetry {
    /// The engine's [`EngineTally`], named, with [`SharedQueues::telemetry`].
    pub metrics: MetricsSnapshot,
    /// The order in which flows were woken, oldest first — identical across
    /// runs for identical inputs.  Bounded: only the newest
    /// [`DEFAULT_EVENT_LOG_CAPACITY`] wakes are retained, and evictions are
    /// counted as `engine.trace.dropped`.
    pub trace: Vec<FlowWake>,
}

/// The engine: an [`EngineCore`] scheduling through the hierarchical
/// [`TimerWheel`].
pub type Engine<'a> = EngineCore<'a, TimerWheel<usize>>;

/// What an engine allocates and the next run can use again: the scheduler,
/// the same-instant dispatch batch, the wake log and the flow table — and
/// the packet body the measured flow sends in.
///
/// Whoever runs many connections in a row — a scanner worker, through the
/// run builders' `.scratch()` — owns one and lends it to each
/// [`run_measured`]; it dies with its owner, never in ambient state.
#[derive(Debug)]
pub struct EngineScratch<S = TimerWheel<usize>> {
    queue: S,
    /// Reusable same-instant dispatch batch (see [`EngineCore::run`]).
    batch: Vec<Event<usize>>,
    log: TraceRing<FlowWake>,
    flows: FlowTable,
    /// The body the last run's flow sent its packets in, for the next
    /// run's flow to encode into: a run builder takes it before the run
    /// and puts it back after.  Its bytes are the last run's leftovers;
    /// every sender clears the buffer it writes a packet into.
    pub body: Vec<u8>,
}

impl<S: Default> Default for EngineScratch<S> {
    fn default() -> Self {
        EngineScratch {
            queue: S::default(),
            batch: Vec::new(),
            log: TraceRing::new(DEFAULT_EVENT_LOG_CAPACITY),
            flows: FlowTable::default(),
            body: Vec::new(),
        }
    }
}

/// An engine's flow table between two runs: no flows, only the allocation.
#[derive(Default)]
struct FlowTable(Vec<&'static mut (dyn Flow + Send + Sync)>);

impl std::fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlowTable {{ capacity: {} }}", self.0.capacity())
    }
}

impl FlowTable {
    /// The table, for a run whose flows live for `'a`.
    fn lend<'a>(&mut self) -> Vec<&'a mut dyn Flow> {
        empty(std::mem::take(&mut self.0))
    }

    /// Take the table back from a run.
    fn restore(&mut self, flows: Vec<&mut dyn Flow>) {
        self.0 = empty(flows);
    }
}

/// `flows` emptied, as a table of another lifetime: an empty `Vec` holds
/// no borrow, and collecting a `vec::IntoIter` into a `Vec` whose elements
/// have the same layout reuses its allocation.
fn empty<'a, T: ?Sized, U: ?Sized>(flows: Vec<&mut T>) -> Vec<&'a mut U> {
    flows.into_iter().filter_map(|_| None).collect()
}

/// The discrete-event scheduler: owns virtual time, the shared queues and
/// a [`Scheduler`] implementation, and drives registered flows to
/// completion.  Use the [`Engine`] alias (timer wheel); the scheduler is a
/// parameter so that tests can run the same engine over their oracle.
///
/// `H` is how the engine holds its [`EngineScratch`]: owned (the default,
/// what [`EngineCore::new`] builds) or `&mut`, borrowed from a caller that
/// reuses it across runs.
pub struct EngineCore<'a, S: Scheduler<usize>, H: BorrowMut<EngineScratch<S>> = EngineScratch<S>> {
    scratch: H,
    flows: Vec<&'a mut dyn Flow>,
    shared: SharedQueues,
    events_processed: u64,
    scheduler: PhantomData<S>,
}

impl<'a, S: Scheduler<usize> + Default> EngineCore<'a, S> {
    /// An engine over the given shared queues.
    pub fn new(shared: SharedQueues) -> Self {
        EngineCore::over(shared, EngineScratch::default())
    }
}

impl<'a, S: Scheduler<usize>, H: BorrowMut<EngineScratch<S>>> EngineCore<'a, S, H> {
    /// An engine over the given shared queues and a new or reset scratch.
    fn over(shared: SharedQueues, mut scratch: H) -> Self {
        EngineCore {
            flows: scratch.borrow_mut().flows.lend(),
            scratch,
            shared,
            events_processed: 0,
            scheduler: PhantomData,
        }
    }

    /// Register a flow to start at the epoch.  Flows registered earlier wake
    /// first on ties.
    pub fn add_flow(&mut self, flow: &'a mut dyn Flow) -> usize {
        self.add_flow_at(SimInstant::EPOCH, flow)
    }

    /// Register a flow to start at `start`.
    pub fn add_flow_at(&mut self, start: SimInstant, flow: &'a mut dyn Flow) -> usize {
        let index = self.flows.len();
        self.flows.push(flow);
        self.scratch.borrow_mut().queue.schedule_at(start, index);
        index
    }

    /// The shared queues (e.g. to read [`QueueStats`] after a run).
    pub fn shared(&self) -> &SharedQueues {
        &self.shared
    }

    /// Total number of events processed so far (unbounded, unlike the log).
    // lint: allow(unused-pub) benchmark: its engine probe counts events per pass
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The engine's counts so far.
    pub fn tally(&self) -> EngineTally {
        let EngineScratch { queue, log, .. } = self.scratch.borrow();
        EngineTally([
            self.events_processed,
            self.flows.len() as u64,
            log.recorded(),
            log.dropped(),
            queue.now().as_micros(),
        ])
    }

    /// Deterministic metrics and the retained wake trace: the
    /// [`EngineTally`], named, with the per-router queue metrics of
    /// [`SharedQueues::telemetry`].  Purely a read — taking telemetry does
    /// not perturb the simulation, so instrumented and uninstrumented runs
    /// stay bit-identical.
    pub fn telemetry(&self) -> EngineTelemetry {
        let mut metrics = self.shared.telemetry();
        self.tally().name_into(&mut metrics);
        EngineTelemetry {
            metrics,
            trace: self.scratch.borrow().log.to_vec(),
        }
    }

    /// Run until every flow is done (or the event cap is hit).
    ///
    /// Events are drained in same-instant batches ([`Scheduler::pop_batch`])
    /// to amortise scheduler dispatch across flows sharing a tick — wakes
    /// scheduled *during* a batch land at a later sequence number and thus
    /// in a later batch, so the observable wake order is provably the same
    /// as popping one event at a time.
    pub fn run(&mut self) {
        let EngineScratch {
            queue, batch, log, ..
        } = self.scratch.borrow_mut();
        let mut processed = 0usize;
        'run: while queue.pop_batch(batch) > 0 {
            for &event in batch.iter() {
                processed += 1;
                if processed > MAX_EVENTS {
                    break 'run;
                }
                self.events_processed += 1;
                let index = event.payload;
                log.push(FlowWake {
                    at: event.at,
                    flow: index,
                });
                let Some(flow) = self.flows.get_mut(index) else {
                    continue;
                };
                match flow.on_wake(event.at, &mut self.shared) {
                    FlowStatus::Sleep(at) => {
                        queue.schedule_at(at, index);
                    }
                    FlowStatus::Done => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross traffic
// ---------------------------------------------------------------------------

/// An opt-in background-load scenario: `flows` paced flows pushing packets
/// through the measured path's bottleneck router, which gets a shared egress
/// queue.  With enough background load the queue occupancy crosses the AQM
/// thresholds and the *measured* flow starts seeing CE marks — marking
/// becomes a property of congestion instead of a per-flow constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTraffic {
    /// Number of background flows; `0` disables the scenario entirely.
    pub flows: u32,
    /// Packets each background flow sends before stopping.
    pub packets_per_flow: u32,
    /// Pacing interval between packets of one background flow.
    pub interval: SimDuration,
    /// Bottleneck queue capacity in packets.
    pub queue_capacity: u32,
    /// Occupancy at which CE marking begins.
    pub mark_min_thresh: u32,
    /// Occupancy at which every ECT packet is marked.
    pub mark_max_thresh: u32,
    /// Serialization time per packet at the bottleneck.
    pub service_time: SimDuration,
}

impl CrossTraffic {
    /// No cross traffic: the legacy single-flow behaviour, bit for bit.
    pub fn none() -> Self {
        CrossTraffic {
            flows: 0,
            packets_per_flow: 0,
            interval: SimDuration::ZERO,
            queue_capacity: 0,
            mark_min_thresh: 0,
            mark_max_thresh: 0,
            service_time: SimDuration::ZERO,
        }
    }

    /// A congested bottleneck: 32 background flows arriving well above the
    /// service rate, so the queue sits in the certain-marking region while
    /// the measured connection runs.
    pub fn congested() -> Self {
        CrossTraffic {
            flows: 32,
            packets_per_flow: 64,
            interval: SimDuration::from_millis(1),
            queue_capacity: 256,
            mark_min_thresh: 8,
            mark_max_thresh: 24,
            service_time: SimDuration::from_micros(500),
        }
    }

    /// Whether the scenario is active.
    pub fn is_enabled(&self) -> bool {
        self.flows > 0
    }

    /// The queue configuration for the bottleneck router.
    pub fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            capacity: self.queue_capacity as usize,
            aqm: OccupancyAqm {
                min_thresh: self.mark_min_thresh as usize,
                max_thresh: self.mark_max_thresh as usize,
            },
            service_time: self.service_time,
        }
    }

    /// The bottleneck of a forward path: its last hop — the egress into the
    /// destination network, which all traffic towards the measured host
    /// shares.
    pub fn bottleneck_of(path: &Path) -> Option<RouterId> {
        path.hops.last().map(|hop| hop.router.id)
    }

    /// Build the shared queues and background flows for a measured forward
    /// path.  Returns `None` when disabled or when the path has no hops.
    // lint: allow(unused-pub) benchmark: its netsim probe builds a congested path with it
    pub fn instantiate(&self, forward: &Path, seed: u64) -> Option<(SharedQueues, Vec<LoadFlow>)> {
        self.instantiate_with(forward, || seed)
    }

    /// [`instantiate`](CrossTraffic::instantiate) with the seed drawn only
    /// when a scenario is actually built, so a caller seeding from its own
    /// RNG leaves that stream untouched whenever this returns `None`.
    pub fn instantiate_with(
        &self,
        forward: &Path,
        seed: impl FnOnce() -> u64,
    ) -> Option<(SharedQueues, Vec<LoadFlow>)> {
        if !self.is_enabled() {
            return None;
        }
        let bottleneck = Self::bottleneck_of(forward)?;
        let hop = forward.hops.last()?.clone();
        let mut queues = SharedQueues::new();
        queues.register(bottleneck, self.queue_config());
        // Background load shares the impaired link, so the forward path's
        // fault plan rides along onto the derived one-hop load path — an
        // empty plan keeps this draw-free and bit-identical to before.
        let load_path = Path::new(vec![hop]).with_fault(forward.fault.clone());
        let flows = LoadFlow::fleet(
            &load_path,
            self.flows,
            self.packets_per_flow as u64,
            self.interval,
            EcnCodepoint::Ect0,
            seed(),
        );
        Some((queues, flows))
    }
}

/// A background load generator: a flow that pushes ECT(0)-marked UDP
/// datagrams down a (typically one-hop) path on a fixed pacing schedule.
///
/// Load flows are what make shared queues *shared*: their packets occupy the
/// same egress queue as the measured connection's.
#[derive(Debug)]
pub struct LoadFlow {
    path: Path,
    packets: u64,
    interval: SimDuration,
    /// The datagram every send is a copy of, assembled once.
    datagram: Option<IpDatagram>,
    rng: StdRng,
    sent: u64,
    delivered: u64,
}

impl LoadFlow {
    /// A load flow sending `packets` ECT(0) datagrams, one every `interval`.
    pub fn new(path: Path, packets: u64, interval: SimDuration, seed: u64) -> Self {
        // Benchmarking address ranges (RFC 2544; 2001:db8:bbbb::/48 for
        // IPv6): never collide with simulated vantage points or servers.
        let (src, dst) = match path.hops.first().map(|h| h.router.address) {
            Some(IpAddr::V6(_)) => (
                IpAddr::V6(Ipv6Addr::new(0x2001, 0x0db8, 0xbbbb, 0, 0, 0, 0, 1)),
                IpAddr::V6(Ipv6Addr::new(0x2001, 0x0db8, 0xbbbb, 0, 0, 0, 0, 2)),
            ),
            _ => (
                IpAddr::V4(Ipv4Addr::new(198, 18, 0, 1)),
                IpAddr::V4(Ipv4Addr::new(198, 19, 0, 1)),
            ),
        };
        let datagram = IpDatagram::assemble(
            src,
            dst,
            IpProtocol::Udp,
            64,
            EcnCodepoint::Ect0,
            vec![0u8; 64],
        );
        LoadFlow {
            path,
            packets,
            interval,
            datagram: datagram.ok(),
            rng: StdRng::seed_from_u64(seed),
            sent: 0,
            delivered: 0,
        }
    }

    /// Override the codepoint the generated datagrams carry (default ECT(0)).
    /// Workload scenarios use this so background load follows the same ECN
    /// variant as the measured applications.
    pub fn with_ecn(mut self, ecn: EcnCodepoint) -> Self {
        if let Some(datagram) = &mut self.datagram {
            datagram.header.set_ecn(ecn);
        }
        self
    }

    /// The single code path deriving a fleet of load flows from one seed —
    /// used both by [`CrossTraffic::instantiate`] and by workload scenarios
    /// expressing background load as a regular app, so the two never drift.
    pub fn fleet(
        path: &Path,
        flows: u32,
        packets_per_flow: u64,
        interval: SimDuration,
        ecn: EcnCodepoint,
        seed: u64,
    ) -> Vec<LoadFlow> {
        (0..flows)
            .map(|i| {
                LoadFlow::new(
                    path.clone(),
                    packets_per_flow,
                    interval,
                    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(u64::from(i)),
                )
                .with_ecn(ecn)
            })
            .collect()
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets that made it through the path (not dropped by the queue).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl Flow for LoadFlow {
    fn on_wake(&mut self, now: SimInstant, net: &mut SharedQueues) -> FlowStatus {
        if self.sent >= self.packets {
            return FlowStatus::Done;
        }
        let delivered = self.datagram.as_ref().is_some_and(|datagram| {
            self.path
                .transit_shared(datagram.clone(), now, &mut self.rng, net)
                .is_delivered()
        });
        if delivered {
            self.delivered += 1;
        }
        self.sent += 1;
        if self.sent >= self.packets {
            FlowStatus::Done
        } else {
            FlowStatus::Sleep(now + self.interval)
        }
    }
}

/// Drive one measured flow to completion next to the background `load` a
/// [`CrossTraffic`] scenario instantiated (`None`: alone, over no shared
/// queues), returning the engine's tally and, iff `want_telemetry`, its
/// telemetry.
///
/// The engine runs over the caller's `scratch`, reset first — whatever ran
/// over it before, this run is the run of a fresh [`Engine`] — or, given
/// `None`, over a scratch of its own.
///
/// Background flows register first so their first packets occupy the
/// bottleneck before the measured flow's initial burst (FIFO tie-break at
/// the epoch).
pub fn run_measured(
    flow: &mut dyn Flow,
    load: Option<(SharedQueues, Vec<LoadFlow>)>,
    want_telemetry: bool,
    scratch: Option<&mut EngineScratch>,
) -> (EngineTally, Option<EngineTelemetry>) {
    let (queues, mut loads) = load.unwrap_or_default();
    let mut fresh = None;
    let scratch = match scratch {
        Some(scratch) => scratch,
        None => fresh.insert(EngineScratch::default()),
    };
    scratch.queue.reset();
    scratch.batch.clear();
    scratch.log.clear();
    let mut engine = EngineCore::<TimerWheel<usize>, _>::over(queues, scratch);
    for load in loads.iter_mut() {
        engine.add_flow(load);
    }
    engine.add_flow(flow);
    engine.run();
    let measured = (engine.tally(), want_telemetry.then(|| engine.telemetry()));
    let EngineCore { scratch, flows, .. } = engine;
    scratch.flows.restore(flows);
    measured
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use crate::topology::Asn;
    use qem_obs::MetricValue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_lent_scratch_keeps_its_flow_table() {
        struct Once;
        impl Flow for Once {
            fn on_wake(&mut self, _: SimInstant, _: &mut SharedQueues) -> FlowStatus {
                FlowStatus::Done
            }
        }
        let mut scratch = EngineScratch::default();
        let fresh = run_measured(&mut Once, None, true, None);
        assert_eq!(
            run_measured(&mut Once, None, true, Some(&mut scratch)),
            fresh
        );
        let table = (scratch.flows.0.as_ptr(), scratch.flows.0.capacity());
        assert!(table.1 >= 1 && scratch.flows.0.is_empty());
        for _ in 0..3 {
            assert_eq!(
                run_measured(&mut Once, None, true, Some(&mut scratch)),
                fresh
            );
            assert_eq!(
                (scratch.flows.0.as_ptr(), scratch.flows.0.capacity()),
                table
            );
        }
    }

    #[test]
    fn unregistered_router_forwards_without_randomness() {
        let mut queues = SharedQueues::new();
        let mut rng = StdRng::seed_from_u64(1);
        let before: u64 = rng.gen();
        let mut rng = StdRng::seed_from_u64(1);
        let (decision, wait) =
            queues.admit(RouterId(9), SimInstant::EPOCH, EcnCodepoint::Ect0, &mut rng);
        assert_eq!(decision, AqmDecision::Forward(EcnCodepoint::Ect0));
        assert_eq!(wait, SimDuration::ZERO);
        assert_eq!(rng.gen::<u64>(), before, "no rng draw on unshared hops");
    }

    #[test]
    fn queue_occupancy_drains_over_time() {
        let mut queues = SharedQueues::new();
        queues.register(RouterId(1), QueueConfig::bottleneck(8, 4, 6));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..3 {
            queues.admit(RouterId(1), SimInstant::EPOCH, EcnCodepoint::Ect0, &mut rng);
        }
        // The queue's occupancy at `now`, after draining departed packets.
        let state = queues.queues.get_mut(&RouterId(1)).unwrap();
        let mut occupancy = |now| {
            state.drain(now);
            state.departures.len()
        };
        assert_eq!(occupancy(SimInstant::EPOCH), 3);
        // Service time is 500 µs per packet; after 2 ms all three are gone.
        let later = SimInstant::EPOCH + SimDuration::from_millis(2);
        assert_eq!(occupancy(later), 0);
    }

    #[test]
    fn full_queue_tail_drops() {
        let mut queues = SharedQueues::new();
        queues.register(RouterId(1), QueueConfig::bottleneck(2, 100, 200));
        let mut rng = StdRng::seed_from_u64(1);
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            let (d, _) = queues.admit(RouterId(1), SimInstant::EPOCH, EcnCodepoint::Ect0, &mut rng);
            outcomes.push(d);
        }
        assert_eq!(outcomes[0], AqmDecision::Forward(EcnCodepoint::Ect0));
        assert_eq!(outcomes[1], AqmDecision::Forward(EcnCodepoint::Ect0));
        assert_eq!(outcomes[2], AqmDecision::Drop);
        assert_eq!(queues.stats(RouterId(1)).unwrap().dropped, 1);
    }

    #[test]
    fn occupancy_above_max_thresh_marks_every_ect_packet() {
        let mut queues = SharedQueues::new();
        queues.register(RouterId(1), QueueConfig::bottleneck(32, 2, 4));
        let mut rng = StdRng::seed_from_u64(1);
        // Fill past the max threshold…
        for _ in 0..4 {
            queues.admit(RouterId(1), SimInstant::EPOCH, EcnCodepoint::Ect0, &mut rng);
        }
        // …then every further ECT packet is deterministically marked.
        let (decision, _) =
            queues.admit(RouterId(1), SimInstant::EPOCH, EcnCodepoint::Ect0, &mut rng);
        assert_eq!(decision, AqmDecision::Forward(EcnCodepoint::Ce));
        assert!(queues.stats(RouterId(1)).unwrap().marked >= 1);
    }

    #[test]
    fn load_flows_share_a_bottleneck_and_mark_each_other() {
        let hop = crate::path::Hop::new(Router::transparent(1, Asn(680)));
        let path = Path::new(vec![hop]);
        let cross = CrossTraffic {
            flows: 2,
            packets_per_flow: 16,
            interval: SimDuration::from_micros(100),
            queue_capacity: 64,
            mark_min_thresh: 1,
            mark_max_thresh: 2,
            service_time: SimDuration::from_millis(1),
        };
        let (queues, mut flows) = cross.instantiate(&path, 7).expect("enabled scenario");
        let mut engine = Engine::new(queues);
        for flow in flows.iter_mut() {
            engine.add_flow(flow);
        }
        engine.run();
        let stats = engine
            .shared()
            .stats(RouterId(1))
            .expect("registered queue");
        assert!(stats.marked > 0, "combined occupancy must trigger CE marks");

        // A single flow paced slower than the drain rate never crosses the
        // marking threshold: congestion needs company.
        let mut queues = SharedQueues::new();
        queues.register(RouterId(1), cross.queue_config());
        let mut solo = LoadFlow::new(path.clone(), 16, SimDuration::from_millis(2), 7);
        let mut engine = Engine::new(queues);
        engine.add_flow(&mut solo);
        engine.run();
        let stats = engine
            .shared()
            .stats(RouterId(1))
            .expect("registered queue");
        assert_eq!(stats.marked, 0, "a lone slow flow must not be marked");
    }

    #[test]
    fn not_ect_load_fleet_is_marked_never_and_tail_dropped_only() {
        // `LoadFlow::fleet` with a NotEct override models ECN-off background
        // load: RFC 3168 §6.1.1 forbids marking it, so the only congestion
        // signal left is tail drop at capacity.
        let hop = crate::path::Hop::new(Router::transparent(1, Asn(680)));
        let path = Path::new(vec![hop]);
        let mut queues = SharedQueues::new();
        queues.register(RouterId(1), QueueConfig::bottleneck(4, 1, 2));
        let mut flows = LoadFlow::fleet(
            &path,
            8,
            16,
            SimDuration::from_micros(100),
            EcnCodepoint::NotEct,
            11,
        );
        let mut engine = Engine::new(queues);
        for flow in flows.iter_mut() {
            engine.add_flow(flow);
        }
        engine.run();
        let stats = engine.shared().stats(RouterId(1)).expect("registered");
        assert_eq!(stats.marked, 0, "not-ECT load must never be CE-marked");
        assert!(stats.dropped > 0, "overload must surface as tail drops");
    }

    #[test]
    fn reverse_direction_hops_do_not_share_the_forward_queue() {
        use crate::path::DuplexPath;
        use crate::topology::{build_duplex_path, TransitProfile};

        // Both directions of a duplex path are numbered from 1 by their
        // builders; the reverse-direction bit must keep them out of each
        // other's queues.
        let duplex = build_duplex_path(
            Asn(680),
            Asn(16509),
            TransitProfile::Clean,
            TransitProfile::Clean,
            false,
        );
        let forward_bottleneck = CrossTraffic::bottleneck_of(&duplex.forward).unwrap();
        for hop in &duplex.reverse.hops {
            assert_ne!(
                hop.router.id, forward_bottleneck,
                "reverse hop collides with the forward bottleneck id"
            );
        }

        // Same for the mirrored-reverse constructor.
        let hop = crate::path::Hop::new(Router::transparent(1, Asn(680)));
        let mirrored = DuplexPath::symmetric_clean_reverse(Path::new(vec![hop]));
        let mut queues = SharedQueues::new();
        queues.register(
            CrossTraffic::bottleneck_of(&mirrored.forward).unwrap(),
            QueueConfig::bottleneck(8, 1, 2),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let dgram = LoadFlow::new(mirrored.forward.clone(), 1, SimDuration::ZERO, 1)
            .datagram
            .unwrap();
        // Forward transits occupy the queue…
        mirrored
            .forward
            .transit_shared(dgram.clone(), SimInstant::EPOCH, &mut rng, &mut queues);
        assert_eq!(queues.stats(RouterId(1)).unwrap().enqueued, 1);
        // …reverse transits of the "same" router do not.
        mirrored
            .reverse
            .transit_shared(dgram, SimInstant::EPOCH, &mut rng, &mut queues);
        assert_eq!(
            queues.stats(RouterId(1)).unwrap().enqueued,
            1,
            "reverse direction must use its own egress queue"
        );
    }

    #[test]
    fn engine_event_order_is_reproducible() {
        let run = || {
            let hop = crate::path::Hop::new(Router::transparent(3, Asn(1299)));
            let path = Path::new(vec![hop]);
            let cross = CrossTraffic::congested();
            let (queues, mut flows) = cross.instantiate(&path, 42).expect("enabled");
            let mut engine = Engine::new(queues);
            for flow in flows.iter_mut() {
                engine.add_flow(flow);
            }
            engine.run();
            engine.telemetry().trace
        };
        let first = run();
        let second = run();
        assert!(!first.is_empty());
        assert_eq!(first, second, "event order must be identical across runs");
    }

    #[test]
    fn event_log_ring_keeps_the_newest_wakes_and_counts_evictions() {
        let run = |capacity: Option<usize>| {
            let hop = crate::path::Hop::new(Router::transparent(3, Asn(1299)));
            let path = Path::new(vec![hop]);
            let cross = CrossTraffic::congested();
            let (queues, mut flows) = cross.instantiate(&path, 42).expect("enabled");
            let mut engine = Engine::new(queues);
            if let Some(capacity) = capacity {
                engine.scratch.borrow_mut().log = TraceRing::new(capacity);
            }
            for flow in flows.iter_mut() {
                engine.add_flow(flow);
            }
            engine.run();
            engine.telemetry()
        };
        let full_telemetry = run(None);
        let bounded_telemetry = run(Some(16));
        let (full, bounded) = (&full_telemetry.trace, &bounded_telemetry.trace);
        assert_eq!(bounded.len(), 16);
        assert_eq!(
            bounded[..],
            full[full.len() - 16..],
            "the ring must retain exactly the newest wakes"
        );
        // Bounding the trace must not perturb the simulation itself…
        assert_eq!(
            full_telemetry.metrics.counter("engine.events_processed"),
            bounded_telemetry.metrics.counter("engine.events_processed"),
        );
        // …and the telemetry must account for every wake, retained or not.
        assert_eq!(
            bounded_telemetry.metrics.counter("engine.trace.recorded"),
            Some(full.len() as u64)
        );
        assert_eq!(
            bounded_telemetry.metrics.counter("engine.trace.dropped"),
            Some(full.len() as u64 - 16)
        );
        assert_eq!(
            full_telemetry.metrics.counter("engine.trace.dropped"),
            Some(0)
        );
    }

    #[test]
    fn queue_telemetry_mirrors_queue_stats() {
        let hop = crate::path::Hop::new(Router::transparent(1, Asn(680)));
        let path = Path::new(vec![hop]);
        let (queues, mut flows) = CrossTraffic::congested()
            .instantiate(&path, 7)
            .expect("enabled");
        let mut engine = Engine::new(queues);
        for flow in flows.iter_mut() {
            engine.add_flow(flow);
        }
        engine.run();
        let stats = engine.shared().stats(RouterId(1)).expect("registered");
        let telemetry = engine.telemetry();
        assert_eq!(
            telemetry.metrics.counter("queue.r1.enqueued"),
            Some(stats.enqueued)
        );
        assert_eq!(
            telemetry.metrics.counter("queue.r1.marked"),
            Some(stats.marked)
        );
        assert_eq!(
            telemetry.metrics.counter("queue.r1.dropped"),
            Some(stats.dropped)
        );
        assert_eq!(
            telemetry.metrics.gauge("queue.r1.peak_occupancy"),
            Some(stats.peak_occupancy as u64)
        );
        let Some(MetricValue::Histogram(occupancy)) =
            telemetry.metrics.metrics.get("queue.r1.occupancy")
        else {
            panic!("queue.r1.occupancy is a histogram");
        };
        assert_eq!(
            occupancy.count,
            stats.enqueued + stats.dropped,
            "every arrival must be sampled, admitted or not"
        );
    }
}
