//! A deterministic, packet-level Internet path simulator.
//!
//! The measurement study observes how routers between a vantage point and a
//! web server treat the ECN bits of IP packets: most forward them untouched,
//! some clear them (the paper attributes the bulk of IPv4 clearing to a
//! single transit provider, AS 1299), some re-mark `ECT(0)` to `ECT(1)`, and
//! a few mark every packet `CE`.  This crate models exactly that: a
//! [`Path`] is an ordered list of [`Hop`]s, each owned by a [`Router`] with an
//! [`EcnPolicy`] and a DSCP policy, and a propagation delay; random loss and
//! the other scheduled impairments are a [`FaultPlan`] at the path entry.
//! Routers decrement the TTL and answer with ICMP *time exceeded*
//! quotations, which is what makes the tracebox methodology (paper §4.2)
//! work against the simulator.
//!
//! Design notes:
//!
//! * **Determinism** — all randomness (loss, AQM marking, ICMP rate limiting)
//!   is drawn from an explicit [`rand::Rng`] handed in by the caller, so a
//!   seeded campaign is exactly reproducible; every yes/no draw is a
//!   [`Probability`]'s.
//! * **Sans-IO** — the simulator never spawns tasks or touches sockets; it
//!   transforms [`IpDatagram`](qem_packet::IpDatagram)s and reports what a
//!   real network would have done via [`TransitOutcome`].
//! * **Virtual time** — path delays and endpoint timers (PTO, idle timeout)
//!   share one [`SimInstant`] timeline owned by the [`Engine`], so handshake
//!   timeouts behave like the paper's 10 s budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aqm;
pub mod engine;
pub mod fault;
pub mod path;
pub mod policy;
pub mod probability;
pub mod router;
pub mod time;
pub mod topology;
pub mod wheel;

pub use aqm::OccupancyAqm;
pub use engine::{
    CrossTraffic, Engine, EngineCore, EngineScratch, EngineTally, EngineTelemetry, Flow,
    FlowStatus, FlowWake, LoadFlow, QueueConfig, QueueStats, Scheduler, SharedQueues,
    DEFAULT_EVENT_LOG_CAPACITY,
};
pub use fault::{FaultDrop, FaultKind, FaultPlan, FaultStats, FaultVerdict, FaultWindow};
pub use path::{DuplexPath, Hop, Path, PathEffect, TransitOutcome};
pub use policy::{DscpPolicy, EcnPolicy};
pub use probability::Probability;
pub use router::{IcmpBehavior, Router, RouterId};
pub use time::{SimDuration, SimInstant};
pub use topology::{build_duplex_path, build_transit_path, Asn, PathBuilder, TransitProfile};
pub use wheel::TimerWheel;
