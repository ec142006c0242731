//! Fault plans must not cost determinism: a faulted engine run — loss,
//! burst loss, blackholes, flaps, corruption, jitter, reordering,
//! duplication, in any window layout — produces a byte-identical event log
//! and telemetry document on the sorted-`Vec` oracle
//! (`tests/support/oracle.rs`) and the production timer wheel, run after
//! run.
//!
//! Plans are grown from a proptest-sampled seed via a seeded RNG (the
//! vendored proptest stand-in samples primitives), so one failing case
//! prints one reproducible `(seed, plan_seed)` pair.

mod support;

use proptest::prelude::*;
use qem_netsim::engine::{CrossTraffic, EngineCore, Scheduler};
use qem_netsim::{
    build_transit_path, Asn, EngineTelemetry, FaultKind, FaultPlan, Probability, SimDuration,
    SimInstant, TimerWheel, TransitProfile,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::oracle::Oracle;

fn arb_kind(rng: &mut StdRng) -> FaultKind {
    match rng.gen_range(0u32..8) {
        0 => FaultKind::Loss {
            rate: Probability::new(rng.gen_range(0.0..0.4)),
        },
        1 => {
            let period = rng.gen_range(5_000u64..60_000);
            FaultKind::BurstLoss {
                period: SimDuration::from_micros(period),
                burst: SimDuration::from_micros(rng.gen_range(1..period)),
            }
        }
        2 => FaultKind::Blackhole,
        3 => {
            let period = rng.gen_range(5_000u64..60_000);
            FaultKind::Flap {
                period: SimDuration::from_micros(period),
                down: SimDuration::from_micros(rng.gen_range(1..period)),
            }
        }
        4 => FaultKind::Corrupt {
            rate: Probability::new(rng.gen_range(0.0..0.4)),
        },
        5 => FaultKind::Jitter {
            max: SimDuration::from_micros(rng.gen_range(0u64..5_000)),
        },
        6 => FaultKind::Reorder {
            rate: Probability::new(rng.gen_range(0.0..0.4)),
            extra: SimDuration::from_micros(rng.gen_range(0u64..5_000)),
        },
        _ => FaultKind::Duplicate {
            rate: Probability::new(rng.gen_range(0.0..0.4)),
        },
    }
}

/// A random plan of 1–4 windows somewhere in the first simulated second.
fn arb_plan(plan_seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(plan_seed);
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(1usize..=4) {
        let from = rng.gen_range(0u64..800_000);
        let len = rng.gen_range(1u64..400_000);
        plan = plan.window(
            SimInstant::EPOCH + SimDuration::from_micros(from),
            SimInstant::EPOCH + SimDuration::from_micros(from + len),
            arb_kind(&mut rng),
        );
    }
    plan
}

/// The congested shared-bottleneck scenario with `plan` attached to the
/// forward path, on scheduler `S`: the telemetry document and its wake
/// trace.
fn run_faulted<S: Scheduler<usize> + Default>(seed: u64, plan: &FaultPlan) -> EngineTelemetry {
    let forward = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, false)
        .with_fault(plan.clone());
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

proptest! {
    /// Same seed, same plan ⇒ byte-identical event logs and telemetry on
    /// the oracle and the timer wheel, and across repeated runs.
    #[test]
    fn faulted_runs_are_scheduler_and_rerun_deterministic(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let plan = arb_plan(plan_seed);
        let oracle = run_faulted::<Oracle<usize>>(seed, &plan);
        let wheel = run_faulted::<TimerWheel<usize>>(seed, &plan);
        prop_assert_eq!(&oracle.trace, &wheel.trace);
        prop_assert_eq!(&oracle, &wheel);
        let again = run_faulted::<TimerWheel<usize>>(seed, &plan);
        prop_assert_eq!(&wheel.trace, &again.trace);
        prop_assert_eq!(&wheel, &again);
    }
}

/// A one-second blackhole window over the congested scenario: the
/// blackhole swallows packets and both schedulers agree on the whole
/// observable outcome.
#[test]
fn a_blackhole_window_stays_scheduler_deterministic() {
    let plan = FaultPlan::new().window(
        SimInstant::EPOCH,
        SimInstant::EPOCH + SimDuration::from_secs(1),
        FaultKind::Blackhole,
    );
    let oracle = run_faulted::<Oracle<usize>>(1299, &plan);
    let wheel = run_faulted::<TimerWheel<usize>>(1299, &plan);
    assert_eq!(oracle.trace, wheel.trace);
    assert_eq!(oracle, wheel);
    assert!(
        oracle.metrics.counter("fault.drops.blackhole").unwrap_or(0) > 0,
        "the blackhole window must actually swallow packets"
    );
}
