//! Deterministic workload reports: per-variant outcomes and the
//! cross-variant comparison tables the `netbench` example prints.
//!
//! Everything in here is integer arithmetic over `µs` and `kbit/s` values —
//! no floating-point formatting — so a rendered report is byte-identical
//! across machines, worker counts and scheduler implementations, and can be
//! pinned by a golden snapshot.

use crate::apps::jitter_us;
use crate::scenario::{EcnVariant, Transport};
use qem_netsim::QueueStats;
use qem_obs::MetricsSnapshot;
use std::fmt;

/// Exact nearest-rank percentile over an unsorted sample set (the sample is
/// sorted internally; ties keep their value).  Used for the small per-flow
/// tables; the bucketed [`qem_obs`] histograms serve the metrics snapshot.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Render a µs quantity as fixed-point milliseconds with one decimal.
fn ms1(us: u64) -> String {
    format!("{}.{}", us / 1_000, (us % 1_000) / 100)
}

/// Outcome of one `BulkTransfer` app under one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkOutcome {
    /// Which transport carried the object.
    pub transport: Transport,
    /// Object size in bytes (same for every connection of the app).
    pub object_size: u64,
    /// Per-connection goodput in kbit/s, in registration order.
    pub goodput_kbps: Vec<u64>,
    /// Per-connection flow-completion time in µs, in registration order.
    pub fct_us: Vec<u64>,
    /// Total retransmitted packets across the app's connections.
    pub retransmits: u64,
    /// Total ACKs carrying a CE mark across the app's connections.
    pub ce_acks: u64,
    /// Total retransmission timeouts across the app's connections.
    pub timeouts: u64,
}

/// Outcome of one `RtcStream` app under one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtcOutcome {
    /// Frames fully delivered.
    pub frames_delivered: u64,
    /// Frames that lost at least one packet.
    pub frames_lost: u64,
    /// Delivered frames that arrived with a CE mark.
    pub ce_frames: u64,
    /// Per-frame delivery lateness in µs, in completion order.
    pub lateness_us: Vec<u64>,
    /// Mean absolute consecutive lateness difference, µs.
    pub jitter_us: u64,
}

impl RtcOutcome {
    /// Build an outcome from raw per-frame lateness samples.
    pub fn from_samples(
        frames_delivered: u64,
        frames_lost: u64,
        ce_frames: u64,
        lateness_us: Vec<u64>,
    ) -> Self {
        let jitter = jitter_us(&lateness_us);
        RtcOutcome {
            frames_delivered,
            frames_lost,
            ce_frames,
            lateness_us,
            jitter_us: jitter,
        }
    }
}

/// Outcome of one `Load` app under one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Packets the fleet sent.
    pub sent: u64,
    /// Packets that survived the bottleneck.
    pub delivered: u64,
}

/// Everything one scenario run under one ECN variant produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// The variant this report describes.
    pub variant: EcnVariant,
    /// One outcome per `BulkTransfer` app, in scenario order.
    pub bulk: Vec<BulkOutcome>,
    /// One outcome per `RtcStream` app, in scenario order.
    pub rtc: Vec<RtcOutcome>,
    /// One outcome per `Load` app, in scenario order.
    pub load: Vec<LoadOutcome>,
    /// Counters of the shared bottleneck queue.
    pub queue: QueueStats,
    /// Engine telemetry plus workload histograms (`workload.*` keys).
    pub metrics: MetricsSnapshot,
}

impl WorkloadReport {
    /// All bulk goodput samples of the report (every connection of every
    /// bulk app), for CDF rows.
    pub fn goodput_samples(&self) -> Vec<u64> {
        self.bulk
            .iter()
            .flat_map(|b| b.goodput_kbps.iter().copied())
            .collect()
    }

    /// All flow-completion-time samples of the report, µs.
    pub fn fct_samples(&self) -> Vec<u64> {
        self.bulk
            .iter()
            .flat_map(|b| b.fct_us.iter().copied())
            .collect()
    }

    /// All RTC lateness samples of the report, µs.
    pub fn lateness_samples(&self) -> Vec<u64> {
        self.rtc
            .iter()
            .flat_map(|r| r.lateness_us.iter().copied())
            .collect()
    }
}

/// The cross-variant comparison of one scenario: the deliverable of a
/// workload run, rendered as report sections in the style of the campaign
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadComparison {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// One report per variant, in [`EcnVariant::ALL`] order.
    pub reports: Vec<WorkloadReport>,
}

impl fmt::Display for WorkloadComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== workload: {} (seed {}) ==", self.scenario, self.seed)?;

        writeln!(f)?;
        writeln!(f, "-- bulk goodput CDF (kbit/s across connections) --")?;
        writeln!(
            f,
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "variant", "p10", "p25", "p50", "p75", "p90", "max"
        )?;
        for report in &self.reports {
            let samples = report.goodput_samples();
            writeln!(
                f,
                "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                report.variant.label(),
                percentile(&samples, 0.10),
                percentile(&samples, 0.25),
                percentile(&samples, 0.50),
                percentile(&samples, 0.75),
                percentile(&samples, 0.90),
                samples.iter().max().copied().unwrap_or(0),
            )?;
        }

        writeln!(f)?;
        writeln!(f, "-- bulk flow completion (ms) and congestion signals --")?;
        writeln!(
            f,
            "{:<14} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
            "variant", "fct-p50", "fct-p90", "fct-max", "retx", "ce-acks", "rtos"
        )?;
        for report in &self.reports {
            let fct = report.fct_samples();
            let retx: u64 = report.bulk.iter().map(|b| b.retransmits).sum();
            let ce: u64 = report.bulk.iter().map(|b| b.ce_acks).sum();
            let rtos: u64 = report.bulk.iter().map(|b| b.timeouts).sum();
            writeln!(
                f,
                "{:<14} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
                report.variant.label(),
                ms1(percentile(&fct, 0.50)),
                ms1(percentile(&fct, 0.90)),
                ms1(fct.iter().max().copied().unwrap_or(0)),
                retx,
                ce,
                rtos,
            )?;
        }

        writeln!(f)?;
        writeln!(f, "-- rtc frame lateness (ms) --")?;
        writeln!(
            f,
            "{:<14} {:>9} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8}",
            "variant", "delivered", "lost", "ce", "p50", "p90", "p99", "jitter"
        )?;
        for report in &self.reports {
            let lateness = report.lateness_samples();
            let delivered: u64 = report.rtc.iter().map(|r| r.frames_delivered).sum();
            let lost: u64 = report.rtc.iter().map(|r| r.frames_lost).sum();
            let ce: u64 = report.rtc.iter().map(|r| r.ce_frames).sum();
            let jitter = if report.rtc.len() == 1 {
                report.rtc[0].jitter_us
            } else {
                jitter_us(&lateness)
            };
            writeln!(
                f,
                "{:<14} {:>9} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8}",
                report.variant.label(),
                delivered,
                lost,
                ce,
                ms1(percentile(&lateness, 0.50)),
                ms1(percentile(&lateness, 0.90)),
                ms1(percentile(&lateness, 0.99)),
                ms1(jitter),
            )?;
        }

        // Rendered only when a fault plan actually fired: the engine emits
        // `fault.*` counters nonzero-only, so fault-free scenarios (and the
        // committed netbench golden) keep their exact pre-fault rendering.
        let fault_key =
            |report: &WorkloadReport, key: &str| report.metrics.counter(key).unwrap_or(0);
        let drops = |report: &WorkloadReport| {
            fault_key(report, "fault.drops.loss") + fault_key(report, "fault.drops.flap")
        };
        if self.reports.iter().any(|r| {
            drops(r) > 0
                || ["fault.corrupted", "fault.reordered", "fault.jittered"]
                    .iter()
                    .any(|k| fault_key(r, k) > 0)
        }) {
            writeln!(f)?;
            writeln!(f, "-- fault injection --")?;
            writeln!(
                f,
                "{:<14} {:>8} {:>8} {:>8} {:>8}",
                "variant", "drops", "corrupt", "reorder", "jitter"
            )?;
            for report in &self.reports {
                writeln!(
                    f,
                    "{:<14} {:>8} {:>8} {:>8} {:>8}",
                    report.variant.label(),
                    drops(report),
                    fault_key(report, "fault.corrupted"),
                    fault_key(report, "fault.reordered"),
                    fault_key(report, "fault.jittered"),
                )?;
            }
        }

        writeln!(f)?;
        writeln!(f, "-- bottleneck queue --")?;
        writeln!(
            f,
            "{:<14} {:>9} {:>8} {:>8} {:>6} {:>10} {:>10}",
            "variant", "enqueued", "marked", "dropped", "peak", "load-sent", "load-ok"
        )?;
        for report in &self.reports {
            let load_sent: u64 = report.load.iter().map(|l| l.sent).sum();
            let load_ok: u64 = report.load.iter().map(|l| l.delivered).sum();
            writeln!(
                f,
                "{:<14} {:>9} {:>8} {:>8} {:>6} {:>10} {:>10}",
                report.variant.label(),
                report.queue.enqueued,
                report.queue.marked,
                report.queue.dropped,
                report.queue.peak_occupancy,
                load_sent,
                load_ok,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_the_sorted_sample() {
        let samples = [40, 10, 30, 20];
        assert_eq!(percentile(&samples, 0.0), 10);
        assert_eq!(percentile(&samples, 0.5), 30);
        assert_eq!(percentile(&samples, 1.0), 40);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn ms_rendering_keeps_one_decimal() {
        assert_eq!(ms1(0), "0.0");
        assert_eq!(ms1(1_234), "1.2");
        assert_eq!(ms1(999), "0.9");
        assert_eq!(ms1(33_050), "33.0");
    }
}
