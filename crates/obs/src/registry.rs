//! Metric registries whose snapshots are bit-identical across runs and
//! worker counts.
//!
//! Three metric kinds, all `u64`-valued so merges stay exact:
//!
//! | kind        | record op            | merge op              |
//! |-------------|----------------------|-----------------------|
//! | [`Counter`] | `add(n)`             | sum                   |
//! | [`Gauge`]   | `record_max(v)`      | max                   |
//! | [`Histogram`] | `record(v)`        | per-bucket count sums |
//!
//! Because every merge is commutative and associative, the merged value is
//! independent of scheduling: it does not matter which worker incremented
//! first or how hosts were batched.  Anything that is *not* schedule
//! independent (batch counts, queue depths) must be kept out of
//! deterministic snapshots and reported as scheduling noise instead — see
//! `qem_core::executor::ExecutorStats`.
//!
//! Registration takes a `Mutex` once per metric name; the returned handles
//! record lock-free via relaxed atomics, which is all the ordering needed
//! because snapshots are taken after worker threads have been joined.

use crate::json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Log-linear histogram geometry
// ---------------------------------------------------------------------------

/// Sub-buckets per power-of-two octave (2 bits of mantissa).
const SUB_BUCKETS: u64 = 4;

/// Total bucket count covering the full `u64` range: 4 linear buckets for
/// values 0–3, then 4 sub-buckets for each of the 62 remaining octaves.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Index of the log-linear bucket recording `value`.
///
/// Values 0–3 get exact buckets; beyond that each power-of-two octave is
/// split into `SUB_BUCKETS` equal slices, giving a worst-case relative
/// error of 25% — plenty for queue depths, packet counts and microsecond
/// latencies.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize;
    let top = (value >> (msb - 2)) as usize; // 4..8: leading bit + 2 mantissa bits
    (msb - 2) * SUB_BUCKETS as usize + top
}

/// Smallest value that lands in bucket `index` (the inverse of
/// [`bucket_index`]); used when rendering snapshots.
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let k = (index - SUB_BUCKETS as usize) as u64;
    (SUB_BUCKETS + k % SUB_BUCKETS) << (k / SUB_BUCKETS)
}

// ---------------------------------------------------------------------------
// Slots (shared storage behind the cloneable handles)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ValueSlot(AtomicU64);

#[derive(Debug)]
struct HistogramSlot {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for HistogramSlot {
    fn default() -> Self {
        HistogramSlot {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A monotonically increasing count.  Merge = sum.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    slot: Arc<ValueSlot>,
}

impl Counter {
    /// A counter not attached to any registry (embed it in a struct and
    /// export it by hand with [`MetricsSnapshot::set_counter`]).
    pub fn standalone() -> Counter {
        Counter::default()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.slot.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.slot.0.load(Ordering::Relaxed)
    }
}

/// A high-water mark.  `record_max` keeps the largest observed value, which
/// makes the merge (max) commutative — the deterministic counterpart of a
/// "current value" gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    slot: Arc<ValueSlot>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn standalone() -> Gauge {
        Gauge::default()
    }

    /// Raise the gauge to `v` if `v` is larger than the current value.
    pub fn record_max(&self, v: u64) {
        self.slot.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.slot.0.load(Ordering::Relaxed)
    }
}

/// A log-linear histogram of `u64` samples (see [`bucket_index`] for the
/// geometry).  Merge = per-bucket count sums.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    slot: Arc<HistogramSlot>,
}

impl Histogram {
    /// A histogram not attached to any registry (e.g. the per-router
    /// occupancy histogram embedded in `qem_netsim`'s `QueueState`).
    pub fn standalone() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.slot.count.fetch_add(1, Ordering::Relaxed);
        self.slot.sum.fetch_add(value, Ordering::Relaxed);
        self.slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.slot.count.load(Ordering::Relaxed)
    }

    /// Immutable snapshot of the current bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .slot
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.slot.count.load(Ordering::Relaxed),
            sum: self.slot.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum AnySlot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics.  Handles are registered once under a
/// `Mutex` and then record lock-free; [`MetricsRegistry::snapshot`]
/// enumerates them in `BTreeMap` (i.e. name) order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, AnySlot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, AnySlot>> {
        // A poisoned registration map only means another thread panicked
        // mid-insert; the map itself (name -> Arc handle) is still valid.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.lock();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| AnySlot::Counter(Counter::standalone()))
        {
            AnySlot::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.lock();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| AnySlot::Gauge(Gauge::standalone()))
        {
            AnySlot::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.lock();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| AnySlot::Histogram(Histogram::standalone()))
        {
            AnySlot::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Snapshot every registered metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.lock();
        let metrics = slots
            .iter()
            .map(|(name, slot)| {
                let value = match slot {
                    AnySlot::Counter(c) => MetricValue::Counter(c.get()),
                    AnySlot::Gauge(g) => MetricValue::Gauge(g.get()),
                    AnySlot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

/// One registry per worker, merged in worker-id order.
///
/// Sharding keeps hot-path increments off shared cache lines; because every
/// merge is commutative the merged snapshot is nevertheless independent of
/// which shard recorded what.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<MetricsRegistry>,
}

impl ShardedRegistry {
    /// A registry with `shards` independent shards (at least one).
    pub fn new(shards: usize) -> ShardedRegistry {
        ShardedRegistry {
            shards: (0..shards.max(1)).map(|_| MetricsRegistry::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false — there is at least one shard.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The registry of shard `worker` (indices wrap, so a caller may pass a
    /// raw worker id without bounds bookkeeping).
    pub fn shard(&self, worker: usize) -> &MetricsRegistry {
        &self.shards[worker % self.shards.len()]
    }

    /// Merge every shard's snapshot, in worker-id order.
    pub fn merged(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for shard in &self.shards {
            out.merge_from(&shard.snapshot());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

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

/// Frozen histogram contents: only non-empty buckets are kept, as
/// `(bucket lower bound, sample count)` pairs in ascending bound order.
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
    /// Merge `other` into `self` by summing per-bucket counts.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, n) in &other.buckets {
            *merged.entry(bound).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Mean sample value, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Lower bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`; nearest-rank over the bucketed distribution,
    /// 0 when empty).
    ///
    /// Workload reports use this for frame-lateness percentiles; the
    /// log-linear buckets bound the answer's relative error at 25 % —
    /// see [`bucket_index`] — which is plenty for a latency table.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound;
            }
        }
        self.buckets.last().map(|&(bound, _)| bound).unwrap_or(0)
    }
}

/// A deterministic, order-stable snapshot of many metrics.
///
/// Snapshots can be taken from a [`MetricsRegistry`], built by hand with
/// the `set_*` methods (the single-threaded engine does this), merged with
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
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
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

    /// Prefix every metric name with `prefix` (e.g. `"engine."`).
    pub fn prefixed(self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .into_iter()
                .map(|(name, v)| (format!("{prefix}{name}"), v))
                .collect(),
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn bucket_geometry_round_trips() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, u64::MAX] {
            let idx = bucket_index(v);
            let lo = bucket_lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} above sample {v}");
            if idx + 1 < HISTOGRAM_BUCKETS {
                let hi = bucket_lower_bound(idx + 1);
                assert!(v < hi, "sample {v} not below next bound {hi}");
            }
            assert!(idx < HISTOGRAM_BUCKETS);
        }
        // Bounds are strictly increasing — no bucket is unreachable.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_lower_bound(i) > bucket_lower_bound(i - 1));
        }
    }

    #[test]
    fn registry_snapshot_is_name_ordered_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(3);
        reg.counter("a.first").inc();
        reg.gauge("m.peak").record_max(7);
        reg.gauge("m.peak").record_max(5); // lower: ignored
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "m.peak", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(3));
        assert_eq!(snap.gauge("m.peak"), Some(7));
        assert_eq!(snap, reg.snapshot());
    }

    #[test]
    fn sharded_merge_is_schedule_independent() {
        // Record the same multiset of events under two different
        // shard assignments; the merged snapshots must be identical.
        let record = |assign: &dyn Fn(u64) -> usize| {
            let shards = ShardedRegistry::new(4);
            for i in 0..100u64 {
                let reg = shards.shard(assign(i));
                reg.counter("events").inc();
                reg.gauge("peak").record_max(i);
                reg.histogram("size").record(i * 17 % 1000);
            }
            shards.merged()
        };
        let round_robin = record(&|i| (i % 4) as usize);
        let skewed = record(&|i| usize::from(i > 90));
        assert_eq!(round_robin, skewed);
        assert_eq!(round_robin.to_json(), skewed.to_json());
        assert_eq!(round_robin.counter("events"), Some(100));
    }

    #[test]
    fn concurrent_recording_merges_deterministically() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let h = reg.histogram("v");
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= 1000 {
                        break;
                    }
                    c.inc();
                    h.record(i as u64);
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n"), Some(1000));
        assert_eq!(snap.histogram("v").unwrap().count, 1000);
        assert_eq!(snap.histogram("v").unwrap().sum, 999 * 1000 / 2);
    }

    #[test]
    fn merge_and_prefix_compose() {
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
        assert_eq!(a.histogram("d").unwrap().count, 1);
        let p = a.prefixed("s.");
        assert_eq!(p.counter("s.x"), Some(3));
    }

    #[test]
    fn quantile_walks_the_bucketed_distribution() {
        let h = Histogram::standalone();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), bucket_lower_bound(bucket_index(1)));
        // Bucket bounds are exact only up to the log-linear resolution:
        // the answer must bracket the true percentile within one bucket.
        let p50 = snap.quantile(0.5);
        assert!((32..=64).contains(&p50), "p50 bucket bound was {p50}");
        let p99 = snap.quantile(0.99);
        assert!(p99 >= 80, "p99 bucket bound was {p99}");
        assert!(snap.quantile(1.0) >= p99);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
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
