//! Deterministic observability for the qem workspace.
//!
//! Everything in this crate is designed around the workspace's central
//! invariant: **a scan is a pure function of (universe, options minus
//! workers)**.  Metrics must therefore never become a side channel that
//! re-introduces nondeterminism into outputs:
//!
//! * metrics are plain values ([`MetricsSnapshot`], [`MetricValue`],
//!   [`HistogramSnapshot`]): whoever counts owns its counts, nothing is
//!   atomic or shared, and parts meet only by being merged;
//! * every metric value is a `u64` and every merge operation is
//!   commutative and associative (counters add, gauges take the max,
//!   histograms add per-bucket counts), so a merged [`MetricsSnapshot`] is
//!   bit-identical no matter how work was split across workers;
//! * a snapshot is a `BTreeMap`, so renderings and JSON exports enumerate
//!   in one deterministic order;
//! * traces ([`TraceRing`]) are bounded rings of events timestamped in
//!   **virtual time** (`SimInstant` microseconds), so engine traces are
//!   golden-testable;
//! * the **only** wall-clock touchpoint is the [`Clock`] seam in
//!   [`clock`], whose real implementation ([`WallClock`]) is confined to
//!   that one module by `lint.toml`'s `no-wall-clock` zone exception.
//!   Wall-clock derived rates (hosts/sec) are operator output and must
//!   never be written into a deterministic snapshot.
//!
//! The crate is dependency-free (std only) so every other workspace crate
//! — including `qem-netsim`, which sits at the bottom of the graph — can
//! depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod json;
pub mod registry;
pub mod telemetry;
pub mod trace;

pub use clock::{Clock, ManualClock, RateMeter, WallClock};
pub use registry::{HistogramSnapshot, MetricValue, MetricsSnapshot};
pub use telemetry::RunTelemetry;
pub use trace::TraceRing;
