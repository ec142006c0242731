//! Metrics as plain values: built, merged, compared and rendered, never
//! shared.
//!
//! Three metric kinds, all `u64`-valued so merges stay exact:
//!
//! | kind      | [`MetricValue`] | merge op              |
//! |-----------|-----------------|-----------------------|
//! | counter   | `Counter(n)`    | sum                   |
//! | gauge     | `Gauge(peak)`   | max                   |
//! | histogram | `Histogram(h)`  | per-bucket count sums |
//!
//! Whoever counts owns its counts: a scan worker tallies into plain
//! fields, the engine into its own struct, and each renders a
//! [`MetricsSnapshot`] when asked.  Snapshots from different owners meet
//! in [`MetricsSnapshot::merge_from`]; because every merge is commutative
//! and associative, the merged value does not depend on which worker
//! counted what or in which order the parts were folded.  Nothing in here
//! is atomic, locked or reference-counted.

use crate::json;
use std::collections::BTreeMap;
use std::fmt;

/// Lower bound of the log-linear bucket holding `value`.
///
/// Values 0–3 get exact buckets; beyond that each power-of-two octave is
/// split into four equal slices (the leading bit plus two bits of
/// mantissa are kept), giving a worst-case relative error of 25% — plenty
/// for queue depths, packet counts and microsecond latencies.
fn bucket_floor(value: u64) -> u64 {
    if value < 4 {
        return value;
    }
    let shift = 61 - value.leading_zeros();
    value >> shift << shift
}

/// The frozen value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A summed count.
    Counter(u64),
    /// A high-water mark.
    Gauge(u64),
    /// Frozen histogram buckets.
    Histogram(HistogramSnapshot),
}

/// A log-linear histogram of `u64` samples: only non-empty buckets are
/// kept, as `(bucket lower bound, sample count)` pairs in ascending bound
/// order.  Merge = per-bucket count sums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples (exact, unlike the bucketed distribution).
    pub sum: u64,
    /// `(lower bound, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Record one sample (the sum wraps, so a `u64::MAX` "never finished"
    /// sample is recordable).
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        let bound = bucket_floor(value);
        match self.buckets.binary_search_by_key(&bound, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bound, 1)),
        }
    }

    /// Merge `other` into `self` by summing per-bucket counts: one cursor
    /// walks each ascending bucket list, in place.  The sum wraps as in
    /// [`HistogramSnapshot::record`].
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        let mut i = 0;
        for &(bound, n) in &other.buckets {
            while self.buckets.get(i).is_some_and(|&(mine, _)| mine < bound) {
                i += 1;
            }
            match self.buckets.get_mut(i) {
                Some((mine, count)) if *mine == bound => *count += n,
                _ => self.buckets.insert(i, (bound, n)),
            }
        }
    }

    /// Mean sample value, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A deterministic, order-stable snapshot of many metrics.
///
/// Snapshots are built with the `set_*` methods, merged with
/// [`MetricsSnapshot::merge_from`], compared bit-for-bit with `==`, and
/// exported with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Metric name → frozen value, in name order.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Set counter `name` to `v` (overwrites).
    pub fn set_counter(&mut self, name: impl Into<String>, v: u64) {
        self.metrics.insert(name.into(), MetricValue::Counter(v));
    }

    /// Set gauge `name` to `v` (overwrites).
    pub fn set_gauge(&mut self, name: impl Into<String>, v: u64) {
        self.metrics.insert(name.into(), MetricValue::Gauge(v));
    }

    /// Set histogram `name` to `h` (overwrites).
    pub fn set_histogram(&mut self, name: impl Into<String>, h: HistogramSnapshot) {
        self.metrics.insert(name.into(), MetricValue::Histogram(h));
    }

    /// Value of counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Value of gauge `name`, if present and a gauge.
    // lint: allow(unused-pub) benchmark: its netbench probe reads the virtual clock gauge
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Merge `other` into `self`: counters add, gauges take the max,
    /// histograms merge per bucket.  Metrics only present in `other` are
    /// copied over.
    ///
    /// # Panics
    /// If the same name carries different metric kinds in the two
    /// snapshots — that is a naming bug, not a runtime condition.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge_from(b),
                    (mine, theirs) => {
                        panic!("metric {name:?} kind mismatch: {mine:?} vs {theirs:?}")
                    }
                },
            }
        }
    }

    /// Deterministic JSON object: `{"name": {"type": …, …}, …}` with keys
    /// in name order and two-space indentation.  Byte-identical for equal
    /// snapshots; see the private `json` module for the writer.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }

    pub(crate) fn write_json(&self, out: &mut String, indent: usize) {
        json::open_object(out, self.metrics.is_empty());
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            json::key(out, indent + 1, name, i == 0);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\": \"counter\", \"value\": {v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{{\"type\": \"gauge\", \"value\": {v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                        h.count, h.sum
                    ));
                    for (j, (bound, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("[{bound}, {n}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        json::close_object(out, indent, self.metrics.is_empty());
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Plain-text rendering, one `name = value` line per metric.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => writeln!(f, "{name} = {v}")?,
                MetricValue::Gauge(v) => writeln!(f, "{name} = {v} (peak)")?,
                MetricValue::Histogram(h) => writeln!(
                    f,
                    "{name} = {{count: {}, sum: {}, mean: {}}}",
                    h.count,
                    h.sum,
                    h.mean()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn histogram_of(samples: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for v in samples {
            h.record(v);
        }
        h
    }

    /// Everything one event contributes, as a snapshot of its own.
    fn event(i: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("events", 1);
        snap.set_gauge("peak", i);
        snap.set_histogram("size", histogram_of([i * 17 % 1000]));
        snap
    }

    #[test]
    fn bucket_geometry_round_trips() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, u64::MAX] {
            let lo = bucket_floor(v);
            assert!(lo <= v, "lower bound {lo} above sample {v}");
            assert!(v - lo <= lo / 4, "sample {v} too far above bound {lo}");
            assert_eq!(bucket_floor(lo), lo, "a bound opens its own bucket");
        }
        // Walk the bounds upwards: every bucket ends right below the next
        // bound, and there are 4 exact buckets plus 4 for each of the 62
        // octaves above them.
        let mut bound = 0u64;
        let mut buckets = 1;
        loop {
            let width = if bound < 4 {
                1
            } else {
                1u64 << (61 - bound.leading_zeros())
            };
            let Some(next) = bound.checked_add(width) else {
                break;
            };
            assert_eq!(bucket_floor(next - 1), bound);
            assert_eq!(bucket_floor(next), next);
            bound = next;
            buckets += 1;
        }
        assert_eq!(buckets, 252);
    }

    #[test]
    fn registry_snapshot_is_name_ordered_and_stable() {
        let build = || {
            let mut snap = MetricsSnapshot::new();
            snap.set_counter("z.last", 3);
            snap.set_counter("a.first", 1);
            snap.set_gauge("m.peak", 7);
            snap
        };
        let snap = build();
        let names: Vec<&str> = snap.metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "m.peak", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(3));
        assert_eq!(snap.gauge("m.peak"), Some(7));
        assert_eq!(snap.gauge("z.last"), None, "a counter is not a gauge");
        assert_eq!(snap, build());
    }

    #[test]
    fn sharded_merge_is_schedule_independent() {
        // Fold the same multiset of events into four per-worker values
        // under two different assignments; the merged snapshots must be
        // identical.
        let record = |assign: &dyn Fn(u64) -> usize| {
            let mut shards = vec![MetricsSnapshot::new(); 4];
            for i in 0..100u64 {
                shards[assign(i)].merge_from(&event(i));
            }
            let mut merged = MetricsSnapshot::new();
            for shard in &shards {
                merged.merge_from(shard);
            }
            merged
        };
        let round_robin = record(&|i| (i % 4) as usize);
        let skewed = record(&|i| usize::from(i > 90));
        assert_eq!(round_robin, skewed);
        assert_eq!(round_robin.to_json(), skewed.to_json());
        assert_eq!(round_robin.counter("events"), Some(100));
        assert_eq!(round_robin.gauge("peak"), Some(99));
    }

    #[test]
    fn concurrent_recording_merges_deterministically() {
        // Four threads race for the samples, each recording into a value
        // of its own; whatever the split was, the merge is the whole.
        let next = AtomicUsize::new(0);
        let parts: Vec<HistogramSnapshot> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = HistogramSnapshot::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= 1000 {
                                break mine;
                            }
                            mine.record(i as u64);
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("recorder thread"))
                .collect()
        });
        let mut merged = HistogramSnapshot::default();
        for part in &parts {
            merged.merge_from(part);
        }
        assert_eq!(merged, histogram_of(0..1000));
        assert_eq!(merged.count, 1000);
        assert_eq!(merged.sum, 999 * 1000 / 2);
    }

    /// A merge that rebuilds the bucket list through a map: the oracle
    /// for the in-place two-cursor [`HistogramSnapshot::merge_from`].
    fn merge_via_map(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
        let mut merged: BTreeMap<u64, u64> = a.buckets.iter().copied().collect();
        for &(bound, n) in &b.buckets {
            *merged.entry(bound).or_insert(0) += n;
        }
        HistogramSnapshot {
            count: a.count + b.count,
            sum: a.sum + b.sum,
            buckets: merged.into_iter().collect(),
        }
    }

    #[test]
    fn merges_compose() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("x", 1);
        a.set_gauge("g", 10);
        let mut b = MetricsSnapshot::new();
        b.set_counter("x", 2);
        b.set_gauge("g", 4);
        b.set_histogram(
            "d",
            HistogramSnapshot {
                count: 1,
                sum: 5,
                buckets: vec![(5, 1)],
            },
        );
        a.merge_from(&b);
        assert_eq!(a.counter("x"), Some(3));
        assert_eq!(a.gauge("g"), Some(10));
        assert!(matches!(a.metrics.get("d"), Some(MetricValue::Histogram(h)) if h.count == 1));

        // Histogram operands: empty, disjoint (below, above, interleaved),
        // overlapping and identical bucket lists, in both orders.
        let operands = [
            HistogramSnapshot::default(),
            histogram_of([0, 1, 2]),
            histogram_of([100, 200, 400]),
            histogram_of([1, 150, 300, 1000]),
            histogram_of([2, 2, 100, 400, 400, 1 << 60]),
            histogram_of(0..500),
        ];
        for x in &operands {
            for y in &operands {
                let mut xy = x.clone();
                xy.merge_from(y);
                let mut yx = y.clone();
                yx.merge_from(x);
                assert_eq!(xy, merge_via_map(x, y), "{x:?} + {y:?}");
                assert_eq!(xy, yx, "{x:?} + {y:?} does not commute");
                assert!(xy.buckets.windows(2).all(|w| w[0].0 < w[1].0));
                assert_eq!(xy.buckets.iter().map(|&(_, n)| n).sum::<u64>(), xy.count);
            }
        }
    }

    #[test]
    fn merging_a_never_finished_sample_wraps_the_sum() {
        // An unfinished flow records `u64::MAX`; merging it with any other
        // sample must wrap the sum as `record` does, not overflow.
        let mut a = histogram_of([u64::MAX]);
        a.merge_from(&histogram_of([1]));
        assert_eq!(a, histogram_of([u64::MAX, 1]));
        assert_eq!((a.count, a.sum), (2, 0));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("a", 1);
        snap.set_histogram(
            "b",
            HistogramSnapshot {
                count: 2,
                sum: 9,
                buckets: vec![(4, 2)],
            },
        );
        assert_eq!(
            snap.to_json(),
            "{\n  \"a\": {\"type\": \"counter\", \"value\": 1},\n  \"b\": {\"type\": \"histogram\", \"count\": 2, \"sum\": 9, \"buckets\": [[4, 2]]}\n}"
        );
    }
}
