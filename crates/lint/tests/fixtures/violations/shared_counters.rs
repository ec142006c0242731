//! Fixture: true positives for `no-shared-counters`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::atomic::AtomicUsize;

pub struct Metrics {
    hosts: std::sync::Arc<AtomicU64>,
    peak: std::sync::atomic::AtomicU32,
}

impl Metrics {
    pub fn record(&self, depth: u32) {
        self.hosts.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(depth, Ordering::Relaxed);
        // A plain tally the worker owns is the sanctioned form.
        let mut hosts = 0u64;
        hosts += 1;
        let _ = hosts.max(u64::from(depth));
    }
}
