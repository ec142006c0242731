//! Declarative netbench-style application workloads over the discrete-event
//! engine: what ECN actually *buys* an application.
//!
//! The paper measures who marks and mirrors ECN in the wild; this crate
//! closes the loop by running the two evaluation applications the PEMI
//! line of work uses — bulk HTTP-style transfers (goodput, flow completion
//! time) and real-time media streaming (frame lateness, jitter) — over the
//! simulated bottleneck, under three conditions of the *same* scenario:
//!
//! * **ecn-on** — ECT(0) traffic, AQM CE marks close the feedback loop;
//! * **ecn-off** — not-ECT traffic, tail drop is the only signal;
//! * **ce-blackhole** — ECT(0) traffic whose CE marks a downstream hop
//!   erases ([`qem_netsim::EcnPolicy::EraseCe`]): the broken-path failure
//!   mode where everyone pays for ECN and nobody receives it.
//!
//! A [`Scenario`] is pure data; [`Scenario::run`] lowers it onto
//! [`qem_netsim::EngineCore`] and returns a deterministic
//! [`WorkloadReport`].  [`Scenario::run_all`] produces the cross-variant
//! [`WorkloadComparison`] the `netbench` example renders — byte-identical
//! across worker counts, pinned by a golden snapshot.
//! [`Scenario::run_with`] runs the same scenario over any
//! [`Scheduler`](qem_netsim::Scheduler), which is how the determinism tests
//! hold the timer wheel to an oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod report;
pub mod scenario;

pub use apps::{jitter_us, BulkAppFlow, RtcAppFlow, MSS};
pub use report::{
    percentile, BulkOutcome, LoadOutcome, RtcOutcome, WorkloadComparison, WorkloadReport,
};
pub use scenario::{AppSpec, BottleneckSpec, EcnVariant, Scenario, Transport};
