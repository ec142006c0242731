//! A synthetic web landscape calibrated to the paper's findings.
//!
//! The study scans ~183 M `.com/.net/.org` domains and ~2.7 M toplist domains
//! against the live Internet.  This crate replaces that population with a
//! seeded, deterministic generator: hosting providers are modelled with the
//! market shares, QUIC stacks, ECN behaviours, transit paths and IPv6
//! coverage the paper reports (Tables 1–7, Figures 3–8), scaled down by a
//! configurable factor (1:1000 by default).  Hosts are modelled in full;
//! a domain is a count on the host it resolves to (see [`universe`]).
//!
//! The calibration is **input**, not output: the measurement pipeline in
//! `qem-core` never reads these ground-truth labels — it probes the simulated
//! hosts over simulated paths exactly like the real study and must *recover*
//! the numbers from observations.  `tests/end_to_end_census.rs` and its
//! siblings compare the recovered tables against the paper's shape.
//!
//! Main entry point: [`Universe::generate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod as2org;
pub mod parking;
pub mod providers;
pub mod snapshot;
pub mod stacks;
pub mod universe;

pub use as2org::AsOrgDb;
pub use providers::{default_landscape, ProviderSpec, SegmentSpec};
pub use snapshot::SnapshotDate;
pub use stacks::StackProfile;
pub use universe::{Domain, DomainCounts, DomainLists, Host, Universe, UniverseConfig};
