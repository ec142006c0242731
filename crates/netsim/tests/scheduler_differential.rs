//! Differential tests: the timer wheel against the sorted-`Vec` oracle.
//!
//! The engine's [`Scheduler`] boundary has one production implementation,
//! [`TimerWheel`], and one reference, [`Oracle`] (`tests/support/oracle.rs`),
//! whose batches are by construction the earliest pending fire time and
//! every entry tied with it, in schedule order.  Their contract is
//! identical observable behaviour: the same `(fire time, payload)`
//! sequence, the same FIFO tie-breaking, the same batch boundaries, the
//! same clock.  These tests drive both through identical workloads — a full
//! shared-bottleneck engine run and proptest-generated random schedule/pop
//! interleavings — and assert exact agreement.
//!
//! The same machinery pins [`TimerWheel::reset`]: a wheel that ran any
//! workload, was cut short anywhere and then reset is indistinguishable
//! from a new wheel, and therefore from the oracle.

mod support;

use proptest::prelude::*;
use qem_netsim::engine::{CrossTraffic, EngineCore, Scheduler};
use qem_netsim::{
    build_transit_path, Asn, EngineTelemetry, SimInstant, TimerWheel, TransitProfile,
};
use support::oracle::Oracle;

/// Run the congested shared-bottleneck scenario — 32 background load flows
/// racing through one queue — on the given scheduler, returning the
/// telemetry document and its wake trace.
fn run_congested<S: Scheduler<usize> + Default>(seed: u64) -> EngineTelemetry {
    let forward = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, false);
    let (queues, mut loads) = CrossTraffic::congested()
        .instantiate(&forward, seed)
        .expect("transit path has a bottleneck hop");
    let mut engine: EngineCore<'_, S> = EngineCore::new(queues);
    for load in loads.iter_mut() {
        engine.add_flow(load);
    }
    engine.run();
    engine.telemetry()
}

/// A multi-flow engine run produces a bit-identical event log — and
/// therefore bit-identical telemetry — on the oracle and the timer wheel.
#[test]
fn wheel_and_oracle_agree_on_multi_flow_event_order() {
    for seed in [1u64, 7, 42, 1299] {
        let oracle = run_congested::<Oracle<usize>>(seed);
        let wheel = run_congested::<TimerWheel<usize>>(seed);
        assert!(!oracle.trace.is_empty(), "scenario must produce wakes");
        assert_eq!(
            oracle.trace, wheel.trace,
            "event order diverged (seed {seed})"
        );
        assert_eq!(oracle, wheel, "telemetry diverged (seed {seed})");
    }
}

/// One step of the random scheduler workload.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a payload `delay_us` after the scheduler's clock — the
    /// engine's pattern: a flow re-arms relative to its wake instant, an
    /// RTO far out, then a pacing tick just ahead, so a later schedule may
    /// fire earlier.  With `before_now`, `delay_us` *before* the clock
    /// (saturating at the epoch): the event must clamp to the present.
    Schedule {
        delay_us: u64,
        before_now: bool,
        payload: u32,
    },
    /// Drain the next same-instant batch.
    PopBatch,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Delays span wheel levels: 0 forces same-tick collisions, large
        // values force far-future entries that must cascade down.  One
        // schedule in eight lands in the past.
        (0u64..3_000_000, 0u8..8, any::<u32>()).prop_map(|(delay_us, kind, payload)| {
            Op::Schedule {
                delay_us,
                before_now: kind == 0,
                payload,
            }
        }),
        Just(Op::PopBatch),
    ]
}

/// Everything one batch lets the caller observe: its `(fire time,
/// payload)` events in order and the clock after it.
type Observed = (Vec<(u64, u32)>, SimInstant);

/// Apply the same operation sequence and record every batch and the clock
/// after it.  `drain` empties the scheduler at the end; without it the run
/// is cut short wherever `ops` left it.
fn observe<S: Scheduler<u32>>(sched: &mut S, ops: &[Op], drain: bool) -> Vec<Observed> {
    let mut seen = Vec::new();
    let mut batch = Vec::new();
    let mut pop = |sched: &mut S| -> Observed {
        sched.pop_batch(&mut batch);
        let items = batch
            .iter()
            .map(|e| (e.at.as_micros(), e.payload))
            .collect();
        (items, sched.now())
    };
    for op in ops {
        match *op {
            Op::Schedule {
                delay_us,
                before_now,
                payload,
            } => {
                let now = sched.now().as_micros();
                let at = if before_now {
                    now.saturating_sub(delay_us)
                } else {
                    now + delay_us
                };
                sched.schedule_at(SimInstant::from_micros(at), payload);
            }
            Op::PopBatch => seen.push(pop(sched)),
        }
    }
    // Full drain: whatever is left must come out in the same batches.
    if drain {
        loop {
            let observed = pop(sched);
            if observed.0.is_empty() {
                break;
            }
            seen.push(observed);
        }
    }
    seen
}

/// Drive workload `a` on a wheel without draining it, reset, and require
/// that workload `b` cannot tell the wheel from a new one (same events,
/// batches and clock) nor from the oracle.
fn assert_reset_wheel_is_new(a: &[Op], b: &[Op]) -> Result<(), TestCaseError> {
    let mut reused = TimerWheel::<u32>::new();
    observe(&mut reused, a, false);
    reused.reset();
    prop_assert_eq!(reused.now(), SimInstant::EPOCH);

    let mut fresh = TimerWheel::<u32>::new();
    let mut oracle = Oracle::<u32>::default();
    let reused_seen = observe(&mut reused, b, true);
    prop_assert_eq!(&reused_seen, &observe(&mut fresh, b, true));
    prop_assert_eq!(reused_seen, observe(&mut oracle, b, true));
    prop_assert_eq!(reused.pop_batch(&mut Vec::new()), 0);
    prop_assert_eq!(reused.now(), fresh.now());
    prop_assert_eq!(reused.now(), oracle.now());
    Ok(())
}

/// Everything a reset has to forget, spelled out: a run cut short with
/// live entries pending in the bottom ring and in two upper levels, one of
/// them sharing a slot with a second entry.
#[test]
fn reset_forgets_pending_entries_and_a_cut_short_run() {
    let schedule = |delay_us, payload| Op::Schedule {
        delay_us,
        before_now: false,
        payload,
    };
    let a = [
        schedule(0, 1),
        schedule(0, 2),
        schedule(0, 3),
        Op::PopBatch,
        schedule(100, 4),               // bottom ring
        schedule(200, 5),               // bottom ring, still pending below
        schedule(5_000_000, 6),         // upper level
        schedule(5_000_100, 7),         // upper level, the same slot
        schedule(1_000_000_000_000, 8), // a high upper level
        Op::PopBatch,
    ];
    let b = [
        schedule(200, 10),
        schedule(0, 11),
        schedule(4_000, 12),
        Op::PopBatch,
        schedule(5_000_000, 13),
        Op::Schedule {
            delay_us: 1_000,
            before_now: true,
            payload: 14,
        },
        Op::PopBatch,
    ];
    assert_reset_wheel_is_new(&a, &b).unwrap();
    // …and a second reset of the same wheel is as good as the first.
    assert_reset_wheel_is_new(&b, &a).unwrap();
}

proptest! {
    /// Any interleaving of schedules and pops observed through the oracle
    /// and the timer wheel is indistinguishable: same events at the same
    /// times in the same batches, same clock.
    #[test]
    fn random_workloads_are_indistinguishable(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut oracle = Oracle::<u32>::default();
        let mut wheel = TimerWheel::<u32>::new();
        let oracle_seen = observe(&mut oracle, &ops, true);
        let wheel_seen = observe(&mut wheel, &ops, true);
        prop_assert_eq!(oracle_seen, wheel_seen);
        prop_assert_eq!(oracle.now(), wheel.now());
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
