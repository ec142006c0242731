//! Spans around the calls into each layer, recorded from the benchmark's
//! own files: name, start, end, the span that caused it, the pass it belongs
//! to, and what was allocated meanwhile (zeros unless allocation counting is
//! on).  Kept in memory and written out when the run ends.
//!
//! A recorder that is switched off runs the closure and records nothing, so
//! the timed passes of an untraced run go through the same code.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.scan.v4`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// `0` for set-up, then the number of the pass.
    pub pass: u64,
    /// Allocations between start and end, children included.
    pub allocs: u64,
    /// Bytes requested between start and end, children included.
    pub bytes: u64,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pass: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            pass: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (the warm-up pass of a traced run is not
    /// recorded).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from here on belong to the next pass.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let before = alloc::counts();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
            allocs: 0,
            bytes: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let (end_ns, after) = (self.now_ns(), alloc::counts());
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = after.allocs.saturating_sub(before.allocs);
        span.bytes = after.bytes.saturating_sub(before.bytes);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            // Span names are built from fixed layer names and slugs, so they
            // need no escaping.
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}, \"allocs\": {}, \"bytes\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.pass, span.allocs, span.bytes
            );
        }
        out.push_str("]\n");
        out
    }

    /// Per pass and span name, in order of first appearance: how often the
    /// span ran, its total time, and its self time and self allocations
    /// (the span's own minus what its children cover).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
                child_allocs[parent] += span.allocs;
            }
        }
        let mut order: Vec<(u64, &str)> = Vec::new();
        let mut rows: BTreeMap<(u64, &str), SelfTime> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let key = (span.pass, span.name.as_str());
            let row = rows.entry(key).or_insert_with(|| {
                order.push(key);
                SelfTime {
                    pass: span.pass,
                    name: span.name.clone(),
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    self_allocs: 0,
                }
            });
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(child_ns[index]);
            row.self_allocs += span.allocs.saturating_sub(child_allocs[index]);
        }
        order
            .into_iter()
            .filter_map(|key| rows.remove(&key))
            .collect()
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// `0` for set-up, then the number of the pass.
    pub pass: u64,
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their child spans cover.
    pub self_ns: u64,
    /// Sum of their allocations minus those of their child spans.
    pub self_allocs: u64,
}

/// A span-name component from free text: lower case, runs of anything else
/// than letters and digits become one `-`.
pub fn slug(text: &str) -> String {
    let mut out = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_self_time() {
        let mut tracer = Tracer::new(true);
        tracer.next_pass();
        let out = tracer.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            t.span("inner", |_| ());
            7
        });
        assert_eq!(out, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.pass == 1 && s.end_ns >= s.start_ns));

        let rows = tracer.self_times();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name.as_str(), rows[0].count), ("outer", 1));
        assert_eq!((rows[1].name.as_str(), rows[1].count), ("inner", 2));
        assert_eq!(rows[0].self_ns, rows[0].total_ns - rows[1].total_ns);
        assert_eq!(rows[1].self_ns, rows[1].total_ns);
        assert!(tracer.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.to_json(), "[\n]\n");
    }

    #[test]
    fn slugs_are_metric_name_safe() {
        assert_eq!(slug("AWS N. Virginia"), "aws-n-virginia");
        assert_eq!(slug("Aachen (main)"), "aachen-main");
    }
}
