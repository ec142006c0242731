//! Differential tests: the timer wheel against the binary-heap oracle.
//!
//! The engine's [`Scheduler`] boundary has two implementations —
//! [`EventQueue`] (binary heap, the reference oracle) and [`TimerWheel`]
//! (the production scheduler).  Their contract is bit-identical observable
//! behaviour: the same `(fire time, payload)` sequence, the same FIFO
//! tie-breaking, the same batch boundaries, the same cancellation
//! accounting.  These tests drive both through identical workloads — a
//! full shared-bottleneck engine run, explicit cancellation, and
//! proptest-generated random schedule/cancel/pop interleavings — and
//! assert exact agreement.
//!
//! The same machinery pins [`TimerWheel::reset`]: a wheel that ran any
//! workload, was cut short anywhere and then reset is indistinguishable —
//! [`EventId`]s included — from a new wheel, and therefore from the oracle.

use proptest::prelude::*;
use qem_netsim::engine::{
    CrossTraffic, EngineCore, EventId, EventQueue, Flow, FlowStatus, FlowWake, Scheduler,
    SharedQueues,
};
use qem_netsim::{
    build_transit_path, Asn, EngineTelemetry, SimDuration, SimInstant, TimerWheel, TransitProfile,
};

/// Run the congested shared-bottleneck scenario — 32 background load flows
/// racing through one queue — on the given scheduler, returning the wake
/// log and the telemetry document.
fn run_congested<S: Scheduler<usize> + Default>(seed: u64) -> (Vec<FlowWake>, EngineTelemetry) {
    let forward = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, false);
    let (queues, mut loads) = CrossTraffic::congested()
        .instantiate(&forward, seed)
        .expect("transit path has a bottleneck hop");
    let mut engine: EngineCore<'_, S> = EngineCore::new(queues);
    for load in loads.iter_mut() {
        engine.add_flow(load);
    }
    engine.run();
    let log = engine.event_log();
    let telemetry = engine.telemetry();
    (log, telemetry)
}

/// The tentpole's acceptance test: a multi-flow engine run produces a
/// bit-identical event log — and therefore bit-identical telemetry — on
/// the heap oracle and the timer wheel.
#[test]
fn wheel_and_heap_agree_on_multi_flow_event_order() {
    for seed in [1u64, 7, 42, 1299] {
        let (heap_log, heap_tel) = run_congested::<EventQueue<usize>>(seed);
        let (wheel_log, wheel_tel) = run_congested::<TimerWheel<usize>>(seed);
        assert!(!heap_log.is_empty(), "scenario must produce wakes");
        assert_eq!(heap_log, wheel_log, "event order diverged (seed {seed})");
        assert_eq!(heap_tel, wheel_tel, "telemetry diverged (seed {seed})");
    }
}

/// A flow that re-arms a fixed number of times at a fixed period.
struct PeriodicFlow {
    period: SimDuration,
    remaining: u32,
}

impl Flow for PeriodicFlow {
    fn on_wake(&mut self, now: SimInstant, _net: &mut SharedQueues) -> FlowStatus {
        if self.remaining == 0 {
            FlowStatus::Done
        } else {
            self.remaining -= 1;
            FlowStatus::Sleep(now + self.period)
        }
    }
}

/// Cancelled wakes really are cancelled (the flow never fires), and the
/// engine accounts for them: `cancelled` counts the cancel call, `stale`
/// counts the skipped wheel/heap entry, and both surface in the telemetry
/// document — but only when nonzero, so cancel-free runs keep byte-stable
/// golden telemetry.
#[test]
fn cancelled_wakes_are_skipped_and_counted() {
    fn run<S: Scheduler<usize> + Default>() -> (Vec<FlowWake>, EngineTelemetry) {
        let mut ticker = PeriodicFlow {
            period: SimDuration::from_millis(1),
            remaining: 3,
        };
        let mut engine: EngineCore<'_, S> = EngineCore::new(SharedQueues::new());
        let index = engine.add_flow(&mut ticker);
        // An extra wake far in the future, cancelled before it fires: the
        // run must end at the ticker's natural end, not at +10 s.
        let id = engine.schedule_wake_at(SimInstant::EPOCH + SimDuration::from_secs(10), index);
        assert!(engine.cancel_wake(id));
        // Cancelling again is a no-op: the id is already dead.
        assert!(!engine.cancel_wake(id));
        engine.run();
        let stats = engine.scheduler_stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.stale, 1);
        (engine.event_log(), engine.telemetry())
    }

    let (heap_log, heap_tel) = run::<EventQueue<usize>>();
    let (wheel_log, wheel_tel) = run::<TimerWheel<usize>>();
    assert_eq!(heap_log, wheel_log);
    assert_eq!(heap_tel, wheel_tel);

    // 4 wakes fired (the initial one plus 3 re-arms); the cancelled fifth
    // never did, and the telemetry document says so.
    assert_eq!(heap_log.len(), 4);
    assert_eq!(heap_tel.metrics.counter("engine.sched.cancelled"), Some(1));
    assert_eq!(heap_tel.metrics.counter("engine.sched.stale_pops"), Some(1));

    // A cancel-free run emits neither counter: the golden telemetry
    // documents pinned before the scheduler swap stay byte-identical.
    let (_, clean_tel) = run_congested::<TimerWheel<usize>>(1);
    assert_eq!(clean_tel.metrics.counter("engine.sched.cancelled"), None);
    assert_eq!(clean_tel.metrics.counter("engine.sched.stale_pops"), None);
}

/// One step of the random scheduler workload.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a payload `delay_us` after the latest schedule so far.
    /// Schedule times are monotone — the engine's usage pattern: flows
    /// re-arm relative to their wake instant, never behind it.
    Schedule { delay_us: u64, payload: u32 },
    /// Cancel the `i`-th id handed out so far (mod the count), if any.
    Cancel { i: usize },
    /// Pop the next live event.
    Pop,
    /// Drain the next same-instant batch.
    PopBatch,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Delays span wheel levels: 0 forces same-tick collisions, large
        // values force far-future entries that must cascade down.
        (0u64..3_000_000, any::<u32>())
            .prop_map(|(delay_us, payload)| Op::Schedule { delay_us, payload }),
        (0usize..64).prop_map(|i| Op::Cancel { i }),
        Just(Op::Pop),
        Just(Op::PopBatch),
    ]
}

/// Everything one scheduler interaction lets the caller observe.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Cancelled(bool),
    Popped(Option<(u64, u32)>, usize),
    Batch(Vec<(u64, u32)>, usize),
}

/// Apply the same operation sequence and record every observable: pop
/// results, batch boundaries, cancel return values, pending lengths —
/// and, apart (two implementations number events differently), every
/// [`EventId`] handed out or popped.  `drain` empties the scheduler at the
/// end; without it the run is cut short wherever `ops` left it.
fn observe<S: Scheduler<u32>>(
    sched: &mut S,
    ops: &[Op],
    drain: bool,
) -> (Vec<Observed>, Vec<EventId>) {
    let mut ids = Vec::new();
    let mut horizon = 0u64;
    let mut seen = Vec::new();
    let mut seen_ids = Vec::new();
    let mut batch = Vec::new();
    for op in ops {
        match op {
            Op::Schedule { delay_us, payload } => {
                horizon += delay_us;
                let at = SimInstant::EPOCH + SimDuration::from_micros(horizon);
                let id = sched.schedule_at(at, *payload);
                seen_ids.push(id);
                ids.push(Some(id));
            }
            Op::Cancel { i } => {
                if !ids.is_empty() {
                    let slot = *i % ids.len();
                    if let Some(id) = ids[slot].take() {
                        // Whether the cancel lands (the event may already
                        // have fired) must agree between implementations.
                        seen.push(Observed::Cancelled(sched.cancel(id)));
                    }
                }
            }
            Op::Pop => {
                let popped = sched.pop();
                seen_ids.extend(popped.map(|e| e.id));
                let popped = popped.map(|e| (e.at.as_micros(), e.payload));
                seen.push(Observed::Popped(popped, sched.len()));
            }
            Op::PopBatch => {
                sched.pop_batch(&mut batch);
                seen_ids.extend(batch.iter().map(|e| e.id));
                let items = batch
                    .iter()
                    .map(|e| (e.at.as_micros(), e.payload))
                    .collect();
                seen.push(Observed::Batch(items, sched.len()));
            }
        }
    }
    // Full drain: whatever is left must come out in the same order, and
    // skipping the cancelled entries must leave identical stale totals.
    while let Some(e) = drain.then(|| sched.pop()).flatten() {
        seen_ids.push(e.id);
        seen.push(Observed::Popped(
            Some((e.at.as_micros(), e.payload)),
            sched.len(),
        ));
    }
    (seen, seen_ids)
}

/// Drive workload `a` on a wheel without draining it, reset, and require
/// that workload `b` cannot tell the wheel from a new one (same events,
/// batches, lengths, [`EventId`]s, counters and final clock) nor — ids
/// aside — from the heap oracle.
fn assert_reset_wheel_is_new(a: &[Op], b: &[Op]) -> Result<(), TestCaseError> {
    let mut reused = TimerWheel::<u32>::new();
    observe(&mut reused, a, false);
    reused.reset();
    prop_assert_eq!(reused.len(), 0);
    prop_assert_eq!(reused.now(), SimInstant::EPOCH);
    prop_assert_eq!(reused.stats(), TimerWheel::<u32>::new().stats());

    let mut fresh = TimerWheel::<u32>::new();
    let mut heap = EventQueue::<u32>::new();
    let reused_seen = observe(&mut reused, b, true);
    prop_assert_eq!(&reused_seen, &observe(&mut fresh, b, true));
    prop_assert_eq!(reused_seen.0, observe(&mut heap, b, true).0);
    prop_assert_eq!(reused.stats(), fresh.stats());
    prop_assert_eq!(reused.stats(), Scheduler::<u32>::stats(&heap));
    prop_assert_eq!(reused.len(), 0);
    prop_assert_eq!(reused.now(), fresh.now());
    prop_assert_eq!(reused.now(), Scheduler::<u32>::now(&heap));
    Ok(())
}

/// Everything a reset has to forget, spelled out: a same-tick batch cut
/// short after its first event (two more sit drained in the ready queue),
/// live entries pending in the bottom ring and in two upper levels, and
/// cancelled entries of both kinds that were never drained.
#[test]
fn reset_forgets_ready_pending_and_cancelled_entries() {
    let schedule = |delay_us, payload| Op::Schedule { delay_us, payload };
    let a = [
        schedule(0, 1),
        schedule(0, 2),
        schedule(0, 3),
        Op::Pop,
        schedule(100, 4),               // bottom ring
        schedule(200, 5),               // bottom ring, cancelled below
        schedule(5_000_000, 6),         // upper level
        schedule(5_000_000, 7),         // upper level, cancelled below
        schedule(1_000_000_000_000, 8), // a high upper level
        Op::Cancel { i: 4 },
        Op::Cancel { i: 6 },
    ];
    let b = [
        schedule(200, 10),
        schedule(0, 11),
        schedule(4_000, 12),
        Op::Cancel { i: 0 },
        Op::PopBatch,
        schedule(5_000_000, 13),
        Op::Pop,
    ];
    assert_reset_wheel_is_new(&a, &b).unwrap();
    // …and a second reset of the same wheel is as good as the first.
    assert_reset_wheel_is_new(&b, &a).unwrap();
}

proptest! {
    /// Any interleaving of schedules, cancels and pops observed through the
    /// heap oracle and the timer wheel is indistinguishable: same events at
    /// the same times in the same batches, same cancel outcomes, same
    /// lengths, same final counters.
    #[test]
    fn random_workloads_are_indistinguishable(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut heap = EventQueue::<u32>::new();
        let mut wheel = TimerWheel::<u32>::new();
        let (heap_seen, _) = observe(&mut heap, &ops, true);
        let (wheel_seen, _) = observe(&mut wheel, &ops, true);
        prop_assert_eq!(heap_seen, wheel_seen);
        prop_assert_eq!(
            Scheduler::<u32>::stats(&heap),
            Scheduler::<u32>::stats(&wheel)
        );
    }

    /// A reset wheel is observably a new wheel, whatever ran over it and
    /// wherever that run stopped.
    #[test]
    fn a_reset_wheel_is_a_new_wheel(
        a in proptest::collection::vec(arb_op(), 0..120),
        b in proptest::collection::vec(arb_op(), 1..120),
    ) {
        assert_reset_wheel_is_new(&a, &b)?;
    }
}
