//! The scan tally: what a scan worker counts while it scans.
//!
//! A [`ScanTally`] is plain data — a fixed array of `u64` rows (probe
//! outcomes, the six ECN validation classes, the four probe-error kinds),
//! two histograms and the merged engine/queue metrics of every connection
//! the worker simulated.  Three places, three jobs:
//!
//! * **accumulated** in the worker: each executor worker owns one tally and
//!   `Scanner::measure_host` bumps it through `&mut`, so counting takes no
//!   lock, formats no name and touches no memory another worker writes;
//! * **merged** at worker end: the worker folds its tally into the
//!   scanner's once, when it is dropped ([`ScanTally::merge_from`]);
//! * **named** in [`ScanTally::snapshot`]: the one place a row becomes a
//!   `scan.*` key of a [`MetricsSnapshot`].
//!
//! Every value is a `u64` counted per host and every merge is commutative,
//! so the snapshot is bit-identical for any worker count and any split of
//! the hosts into scans.

use crate::observation::EcnClass;
use crate::resilience::ProbeError;
use qem_obs::{HistogramSnapshot, MetricsSnapshot};

/// One counter row of a [`ScanTally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Row {
    Hosts,
    NoAddress,
    QuicNoStack,
    QuicAttempted,
    QuicConnected,
    QuicReachable,
    QuicForwardLosses,
    QuicReverseLosses,
    QuicRetries,
    QuicRecovered,
    TcpProbed,
    TcpConnected,
    Traced,
    TraceImpaired,
    ClassNoMirroring,
    ClassUndercount,
    ClassRemarkEct1,
    ClassAllCe,
    ClassCapable,
    ClassOther,
    ErrorTimeout,
    ErrorBlackhole,
    ErrorCorruptReply,
    ErrorExhausted,
}

/// Every row with its exported name.  All of them are rendered, so an
/// empty scan still exports the full key set.
const ROWS: [(Row, &str); 24] = [
    (Row::Hosts, "scan.hosts"),
    (Row::NoAddress, "scan.no_address"),
    (Row::QuicNoStack, "scan.quic.no_stack"),
    (Row::QuicAttempted, "scan.quic.attempted"),
    (Row::QuicConnected, "scan.quic.connected"),
    (Row::QuicReachable, "scan.quic.reachable"),
    (Row::QuicForwardLosses, "scan.quic.forward_losses"),
    (Row::QuicReverseLosses, "scan.quic.reverse_losses"),
    (Row::QuicRetries, "scan.quic.retries"),
    (Row::QuicRecovered, "scan.quic.recovered"),
    (Row::TcpProbed, "scan.tcp.probed"),
    (Row::TcpConnected, "scan.tcp.connected"),
    (Row::Traced, "scan.traced"),
    (Row::TraceImpaired, "scan.trace_impaired"),
    (Row::ClassNoMirroring, "scan.class.no_mirroring"),
    (Row::ClassUndercount, "scan.class.undercount"),
    (Row::ClassRemarkEct1, "scan.class.remark_ect1"),
    (Row::ClassAllCe, "scan.class.all_ce"),
    (Row::ClassCapable, "scan.class.capable"),
    (Row::ClassOther, "scan.class.other"),
    (Row::ErrorTimeout, "scan.probe_error.timeout"),
    (Row::ErrorBlackhole, "scan.probe_error.blackhole"),
    (Row::ErrorCorruptReply, "scan.probe_error.corrupt_reply"),
    (Row::ErrorExhausted, "scan.probe_error.exhausted"),
];

impl From<EcnClass> for Row {
    /// The Table 5 row of an ECN validation class.
    fn from(class: EcnClass) -> Row {
        match class {
            EcnClass::NoMirroring => Row::ClassNoMirroring,
            EcnClass::Undercount => Row::ClassUndercount,
            EcnClass::RemarkEct1 => Row::ClassRemarkEct1,
            EcnClass::AllCe => Row::ClassAllCe,
            EcnClass::Capable => Row::ClassCapable,
            EcnClass::Other => Row::ClassOther,
        }
    }
}

impl From<ProbeError> for Row {
    /// The taxonomy row of a probe failure.
    fn from(error: ProbeError) -> Row {
        match error {
            ProbeError::Timeout => Row::ErrorTimeout,
            ProbeError::Blackhole => Row::ErrorBlackhole,
            ProbeError::CorruptReply => Row::ErrorCorruptReply,
            ProbeError::Exhausted { .. } => Row::ErrorExhausted,
        }
    }
}

/// Probe-outcome counts of some set of scanned hosts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ScanTally {
    counts: [u64; ROWS.len()],
    /// Virtual duration of every QUIC attempt.
    pub(crate) quic_elapsed_us: HistogramSnapshot,
    /// Back-off drawn before every QUIC retry.
    pub(crate) quic_backoff_us: HistogramSnapshot,
    /// Engine/queue metrics of every simulated connection, merged.
    pub(crate) engine: MetricsSnapshot,
}

impl ScanTally {
    /// Add one to `row`.
    pub(crate) fn inc(&mut self, row: Row) {
        self.add(row, 1);
    }

    /// Add `n` to `row`.
    pub(crate) fn add(&mut self, row: Row, n: u64) {
        self.counts[row as usize] += n;
    }

    /// Fold `other` into `self`.
    pub(crate) fn merge_from(&mut self, other: &ScanTally) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.quic_elapsed_us.merge_from(&other.quic_elapsed_us);
        self.quic_backoff_us.merge_from(&other.quic_backoff_us);
        self.engine.merge_from(&other.engine);
    }

    /// The tally under its exported names: every `scan.*` row plus the
    /// merged engine/queue metrics.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.clone();
        for (row, name) in ROWS {
            snap.set_counter(name, self.counts[row as usize]);
        }
        snap.set_histogram("scan.quic.elapsed_us", self.quic_elapsed_us.clone());
        snap.set_histogram("scan.quic.backoff_us", self.quic_backoff_us.clone());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_export_a_stable_key_set() {
        let a = ScanTally::default().snapshot();
        assert_eq!(a, ScanTally::default().snapshot());
        assert_eq!(a.metrics.len(), ROWS.len() + 2);
        assert_eq!(a.counter("scan.hosts"), Some(0));
        assert_eq!(a.counter("scan.class.capable"), Some(0));
        assert_eq!(a.counter("scan.class.no_mirroring"), Some(0));
        assert_eq!(
            a.histogram("scan.quic.backoff_us").map(|h| h.count),
            Some(0)
        );
    }

    #[test]
    fn every_row_has_one_slot_and_its_own_name() {
        for (slot, (row, _)) in ROWS.iter().enumerate() {
            assert_eq!(*row as usize, slot, "{row:?}");
        }
        let mut tally = ScanTally::default();
        for (n, (row, _)) in ROWS.iter().enumerate() {
            tally.add(*row, n as u64 + 1);
        }
        let snap = tally.snapshot();
        for (n, (_, name)) in ROWS.iter().enumerate() {
            assert_eq!(snap.counter(name), Some(n as u64 + 1), "{name}");
        }
        for error in [
            ProbeError::Timeout,
            ProbeError::Blackhole,
            ProbeError::CorruptReply,
            ProbeError::Exhausted { attempts: 3 },
        ] {
            let (_, name) = ROWS[Row::from(error) as usize];
            assert_eq!(name, format!("scan.probe_error.{}", error.slug()));
        }
        let (_, name) = ROWS[Row::from(EcnClass::RemarkEct1) as usize];
        assert_eq!(name, "scan.class.remark_ect1");
    }

    #[test]
    fn engine_absorption_is_order_independent() {
        let mut x = MetricsSnapshot::new();
        x.set_counter("engine.events_processed", 10);
        x.set_gauge("engine.virtual_now_us", 5);
        let mut y = MetricsSnapshot::new();
        y.set_counter("engine.events_processed", 7);
        y.set_gauge("engine.virtual_now_us", 9);

        let mut ab = ScanTally::default();
        ab.engine.merge_from(&x);
        ab.engine.merge_from(&y);
        let mut ba = ScanTally::default();
        ba.engine.merge_from(&y);
        ba.engine.merge_from(&x);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.snapshot().counter("engine.events_processed"), Some(17));
        assert_eq!(ab.snapshot().gauge("engine.virtual_now_us"), Some(9));

        // The same through two workers' tallies, merged in either order.
        let worker = |engine: &MetricsSnapshot| {
            let mut tally = ScanTally::default();
            tally.inc(Row::Hosts);
            tally.quic_elapsed_us.record(40);
            tally.engine.merge_from(engine);
            tally
        };
        let (wx, wy) = (worker(&x), worker(&y));
        let mut xy = wx.clone();
        xy.merge_from(&wy);
        let mut yx = wy;
        yx.merge_from(&wx);
        assert_eq!(xy, yx);
        assert_eq!(xy.snapshot().counter("scan.hosts"), Some(2));
        assert_eq!(xy.snapshot().counter("engine.events_processed"), Some(17));
    }
}
