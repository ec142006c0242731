//! The measurement pipeline of "ECN with QUIC: Challenges in the Wild".
//!
//! This crate ties everything together: it takes a synthetic web landscape
//! ([`qem_web::Universe`]), probes every host with the ECN-validating QUIC
//! client and the ECN-negotiating TCP client over the simulated paths
//! ([`scanner`]), follows up on abnormal hosts with tracebox ([`campaign`]),
//! repeats the measurements from distributed cloud vantage points
//! ([`vantage`]), and finally aggregates the observations into the exact
//! tables and figures of the paper ([`reports`]).
//!
//! The pipeline never reads the universe's ground-truth labels (stack,
//! transit profile, …); it only sees what a real scanner would see —
//! HTTP responses, ACK counters, ICMP quotes — and has to recover the
//! paper's findings from those observations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod executor;
pub mod host_map;
mod metrics;
pub mod observation;
pub mod reports;
pub mod resilience;
pub mod scanner;
pub mod source;
pub mod vantage;

pub use campaign::{Campaign, CampaignOptions, CampaignResult, SnapshotMeasurement};
pub use executor::ShardedExecutor;
pub use host_map::HostMap;
pub use observation::{EcnClass, HostMeasurement, MirrorUse};
pub use qem_netsim::CrossTraffic;
pub use resilience::{classify_probe, ProbeError, RetryPolicy};
pub use scanner::{ScanOptions, Scanner};
pub use source::{HostTable, JoinedSnapshot, SnapshotSource};
pub use vantage::{CloudProvider, VantagePoint};
