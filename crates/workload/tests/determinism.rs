//! Determinism gates for the workload layer.
//!
//! A scenario run must be a pure function of `(scenario, variant)`:
//!
//! * the production [`TimerWheel`](qem_netsim::TimerWheel) scheduler and
//!   the sorted-`Vec` oracle of `qem-netsim`'s tests must produce identical
//!   reports, faulted or not;
//! * running the variants through [`ShardedExecutor`] must produce the same
//!   rendered comparison for every worker count, byte for byte — the same
//!   property CI's examples-smoke job checks on `examples/netbench.rs`.

#[path = "../../netsim/tests/support/oracle.rs"]
mod oracle;

use oracle::Oracle;
use qem_core::executor::ShardedExecutor;
use qem_netsim::FaultPlan;
use qem_workload::{AppSpec, BottleneckSpec, EcnVariant, Scenario, Transport, WorkloadComparison};

fn scenario() -> Scenario {
    Scenario::netbench_default(7)
}

/// A small scenario of every app kind: two QUIC bulk transfers, a media
/// stream and four load flows.
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

fn comparison_with_workers(workers: usize) -> String {
    let scenario = scenario();
    let reports = ShardedExecutor::new(workers).run(&EcnVariant::ALL, |v| scenario.run(*v));
    WorkloadComparison {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        reports,
    }
    .to_string()
}

#[test]
fn timer_wheel_and_oracle_agree_on_every_variant() {
    let scenario = scenario();
    for variant in EcnVariant::ALL {
        let wheel = scenario.run(variant);
        let oracle = scenario.run_with::<Oracle<usize>>(variant);
        assert_eq!(
            wheel,
            oracle,
            "scenario diverged between schedulers under {}",
            variant.label()
        );
    }
}

/// The small scenario agrees across schedulers under every variant, and
/// so do its lossy and flapping variants, whose fault plans draw on every
/// packet.
#[test]
fn wheel_and_oracle_schedulers_agree_exactly() {
    let scenario = tiny();
    for variant in EcnVariant::ALL {
        let wheel = scenario.run(variant);
        let oracle = scenario.run_with::<Oracle<usize>>(variant);
        assert_eq!(
            wheel,
            oracle,
            "{} diverged across schedulers",
            variant.label()
        );
    }

    let mut lossy = tiny();
    lossy.fault = Scenario::lossy_bottleneck(7).fault;
    let lossy_report = lossy.run(EcnVariant::EcnOn);
    assert_eq!(
        lossy_report,
        lossy.run_with::<Oracle<usize>>(EcnVariant::EcnOn)
    );

    let mut flappy = tiny();
    flappy.fault = Scenario::flapping_link(7).fault;
    let flappy_report = flappy.run(EcnVariant::EcnOn);
    assert_eq!(
        flappy_report,
        flappy.run_with::<Oracle<usize>>(EcnVariant::EcnOn)
    );
}

#[test]
fn rendered_comparison_is_byte_identical_across_worker_counts() {
    let sequential = comparison_with_workers(1);
    for workers in [2, 4, 0] {
        assert_eq!(
            sequential,
            comparison_with_workers(workers),
            "comparison drifted between 1 and {workers} workers"
        );
    }
}
