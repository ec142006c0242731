//! The scan tally: what a scan worker counts while it scans.
//!
//! A [`ScanTally`] is plain data — a fixed array of `u64` rows (probe
//! outcomes, the six ECN validation classes, the four probe-error kinds),
//! two histograms and the summed engine tallies of every QUIC connection
//! the worker simulated (by name only for the runs whose queue or fault
//! metrics are named after their router or fault).  A TCP run returns only
//! its report: the `engine.*` keys count QUIC connections only.  Three
//! places, three jobs:
//!
//! * **accumulated** in the worker: each executor worker owns one tally and
//!   `Scanner::measure_host` bumps it through `&mut`, so counting takes no
//!   lock, formats no name and touches no memory another worker writes;
//! * **merged** at worker end: the worker folds its tally into the
//!   scanner's once, when it is dropped ([`ScanTally::merge_from`]);
//! * **named** in [`ScanTally::snapshot`]: the one place a row becomes a
//!   `scan.*` key of a [`MetricsSnapshot`], and the engine tally its
//!   `engine.*` / `fault.*` keys.
//!
//! Every value is a `u64` counted per host and every merge is commutative,
//! so the snapshot is bit-identical for any worker count and any split of
//! the hosts into scans.

use crate::observation::EcnClass;
use crate::resilience::ProbeError;
use qem_netsim::EngineTally;
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
    /// The engine tallies of the connections counted by slot, summed.
    pub(crate) engine: EngineTally,
    /// Engine and queue metrics of the connections counted by name, merged.
    pub(crate) named: MetricsSnapshot,
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
        self.named.merge_from(&other.named);
    }

    /// The tally under its exported names: every `scan.*` row plus the
    /// engine/queue metrics of every QUIC connection.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        // Every run has a flow: a tally that counted none has no names.
        if self.engine != EngineTally::default() {
            self.engine.name_into(&mut snap);
        }
        snap.merge_from(&self.named);
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
    use qem_obs::MetricValue;

    #[test]
    fn empty_metrics_export_a_stable_key_set() {
        let a = ScanTally::default().snapshot();
        assert_eq!(a, ScanTally::default().snapshot());
        assert_eq!(a.metrics.len(), ROWS.len() + 2);
        assert_eq!(a.counter("scan.hosts"), Some(0));
        assert_eq!(a.counter("scan.class.capable"), Some(0));
        assert_eq!(a.counter("scan.class.no_mirroring"), Some(0));
        assert!(matches!(
            a.metrics.get("scan.quic.backoff_us"),
            Some(MetricValue::Histogram(h)) if h.count == 0
        ));
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
        let (_, name) = ROWS[Row::from(EcnClass::RemarkEct1) as usize];
        assert_eq!(name, "scan.class.remark_ect1");
    }

    /// A fleet of `flows` load flows over a one-hop path with no shared
    /// queue and no fault plan, so that its telemetry holds nothing but
    /// `engine.*` keys — what a scan counts by slot: the engine's tally and
    /// its telemetry.
    fn engine_run(flows: u32, seed: u64) -> (EngineTally, MetricsSnapshot) {
        use qem_netsim::{Asn, Engine, Hop, LoadFlow, Path, Router, SharedQueues, SimDuration};
        let path = Path::new(vec![Hop::new(Router::transparent(1, Asn(680)))]);
        let ecn = qem_packet::ecn::EcnCodepoint::Ect0;
        let interval = SimDuration::from_millis(u64::from(flows));
        let mut loads = LoadFlow::fleet(&path, flows, 8, interval, ecn, seed);
        let mut engine = Engine::new(SharedQueues::new());
        for flow in loads.iter_mut() {
            engine.add_flow(flow);
        }
        engine.run();
        (engine.tally(), engine.telemetry().metrics)
    }

    #[test]
    fn engine_absorption_is_order_independent() {
        let runs = [engine_run(2, 1), engine_run(5, 2)];
        // A worker's tally of one host and the runs `(run, by name)`.
        let tally = |counted: &[(usize, bool)]| {
            let mut tally = ScanTally::default();
            tally.inc(Row::Hosts);
            tally.quic_elapsed_us.record(40);
            for &(i, by_name) in counted {
                let (engine, named) = &runs[i];
                if by_name {
                    tally.named.merge_from(named);
                } else {
                    tally.engine.merge_from(engine);
                }
            }
            tally
        };
        let expected = tally(&[(0, true), (1, true)]).snapshot();
        for by_name in [[false, false], [false, true], [true, false]] {
            for order in [[0, 1], [1, 0]] {
                let counted = order.map(|i| (i, by_name[i]));
                assert_eq!(tally(&counted).snapshot(), expected, "{counted:?}");
            }
        }
        // The same through two workers' tallies, merged in either order.
        let (a, b) = (tally(&[(0, false)]), tally(&[(1, true)]));
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b;
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        let mut both = tally(&[(0, true), (1, false)]);
        both.merge_from(&tally(&[]));
        assert_eq!(ab.snapshot(), both.snapshot());
        // Counters add, the clock keeps its peak.
        let count = |name| runs.iter().map(|(_, m)| m.counter(name).unwrap()).sum();
        let events: u64 = count("engine.events_processed");
        assert_eq!(expected.counter("engine.events_processed"), Some(events));
        let peak = runs[1].1.gauge("engine.virtual_now_us");
        assert!(peak > runs[0].1.gauge("engine.virtual_now_us"));
        assert_eq!(expected.gauge("engine.virtual_now_us"), peak);
    }
}
