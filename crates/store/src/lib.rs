//! `qem-store` — the columnar, append-only scan-result store.
//!
//! Campaigns at paper scale measure hundreds of millions of domains; holding
//! a snapshot in RAM caps how far the pipeline scales.  This crate gives
//! measurements a persistent home with three properties:
//!
//! * **Streaming ingest** — [`CampaignWriter`] receives measurements from
//!   the sharded scanner *while the scan runs* (in ascending host-id order,
//!   through the executor's claim window) and spills them to checksummed,
//!   atomically-renamed segment files.  Peak memory is one segment, not one
//!   campaign.
//! * **Kill-and-resume** — a campaign killed mid-scan leaves a valid prefix;
//!   [`CampaignStoreExt::resume_snapshot_to_store`] skips the persisted
//!   hosts and measures only the rest.  Per-host RNG derivation makes the
//!   result bit-identical to an uninterrupted run.
//! * **Delta-encoded longitudinal series** — monthly snapshots store only
//!   the hosts whose measurement changed ([`LongitudinalWriter`]), turning
//!   `O(dates × hosts)` storage into `O(hosts + changed)`.
//! * **Verified reads** — [`StoredSnapshot::open`] checks every segment's
//!   seal and the `COMPLETE` marker's record count before a report runs;
//!   [`StoredSnapshot::open_quarantining`] skips and reports damaged
//!   segments ([`QuarantineReport`]) so a census degrades to partial
//!   results instead of dying.
//!
//! Reports never need the data back in memory: [`StoredSnapshot`] implements
//! [`qem_core::source::SnapshotSource`], so every Table 1–7 / Figure 3–8
//! builder consumes a store directory directly — byte-identical to the
//! in-memory path, which `tests/scan_determinism.rs` enforces.
//!
//! The on-disk format is a hand-rolled binary codec (LEB128 varints, packed
//! flag bytes, per-segment string/ASN dictionaries) with zero dependencies —
//! see [`codec`] for the layout and [`segment`] for the framing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod codec;
pub mod longitudinal;
pub mod segment;
pub mod store;
pub mod wire;

pub use campaign::{scan_into, CampaignStoreExt, ResumeOutcome};
pub use codec::FORMAT_VERSION;
pub use longitudinal::{LongitudinalStore, LongitudinalWriter};
pub use store::{
    CampaignWriter, QuarantineReport, SnapshotMeta, StoredSnapshot, WriterStats, TELEMETRY_FILE,
};

use std::fmt;

/// Errors of the store layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file exists but its contents are invalid (bad magic, failed
    /// checksum, malformed records).
    Corrupt(String),
    /// The store contents do not fit the requested operation (wrong
    /// universe, incompatible options).
    Mismatch(String),
    /// The store is in the wrong lifecycle state for the operation
    /// (already complete, still partial, out-of-order writes).
    State(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Mismatch(msg) => write!(f, "store mismatch: {msg}"),
            StoreError::State(msg) => write!(f, "store state error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared test plumbing for the store's filesystem-touching tests.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    // lint: allow(no-ambient-state) test-only counter for unique temp directories
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh, unique, created temp directory for one test.
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qem-store-test-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
