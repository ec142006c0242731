//! Per-run telemetry summaries.
//!
//! A [`RunTelemetry`] bundles the deterministic metric sections of one
//! campaign run (e.g. `scan.v4`, `scan.v6`, `store`) together with a small
//! string info block (date, probe codepoint, seed).  Its JSON export is
//! byte-identical across worker counts and repeat runs, so it can sit next
//! to census output under CI's determinism byte-diff and be written into a
//! qem-store snapshot directory.

use crate::json;
use crate::registry::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt;

/// Deterministic summary of one campaign run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTelemetry {
    /// Free-form run identification (date, probe, seed …), name-ordered.
    /// Must not contain wall-clock readings.
    pub info: BTreeMap<String, String>,
    /// Named metric sections, name-ordered.
    pub sections: BTreeMap<String, MetricsSnapshot>,
}

impl RunTelemetry {
    /// An empty summary.
    pub fn new() -> RunTelemetry {
        RunTelemetry::default()
    }

    /// Set info entry `key` to `value`.
    pub fn set_info(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.info.insert(key.into(), value.into());
    }

    /// Insert (or replace) metric section `name`.
    pub fn insert_section(&mut self, name: impl Into<String>, snapshot: MetricsSnapshot) {
        self.sections.insert(name.into(), snapshot);
    }

    /// The section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&MetricsSnapshot> {
        self.sections.get(name)
    }

    /// Deterministic JSON document:
    ///
    /// ```json
    /// {
    ///   "info": {"date": "2023-04", …},
    ///   "sections": {"scan.v4": {…}, …}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::open_object(&mut out, false);

        json::key(&mut out, 1, "info", true);
        json::open_object(&mut out, self.info.is_empty());
        for (i, (k, v)) in self.info.iter().enumerate() {
            json::key(&mut out, 2, k, i == 0);
            json::push_string(&mut out, v);
        }
        json::close_object(&mut out, 1, self.info.is_empty());

        json::key(&mut out, 1, "sections", false);
        json::open_object(&mut out, self.sections.is_empty());
        for (i, (name, snapshot)) in self.sections.iter().enumerate() {
            json::key(&mut out, 2, name, i == 0);
            snapshot.write_json(&mut out, 2);
        }
        json::close_object(&mut out, 1, self.sections.is_empty());

        json::close_object(&mut out, 0, false);
        out.push('\n');
        out
    }
}

impl fmt::Display for RunTelemetry {
    /// Plain-text rendering: info lines, then each section's metrics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.info {
            writeln!(f, "# {k}: {v}")?;
        }
        for (name, snapshot) in &self.sections {
            writeln!(f, "[{name}]")?;
            write!(f, "{snapshot}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTelemetry {
        let mut t = RunTelemetry::new();
        t.set_info("date", "2023-04");
        t.set_info("seed", "0x1299");
        let mut scan = MetricsSnapshot::new();
        scan.set_counter("scan.hosts", 12);
        t.insert_section("scan.v4", scan);
        t
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let t = sample();
        assert_eq!(t.to_json(), sample().to_json());
        assert_eq!(
            t.to_json(),
            "{\n  \"info\": {\n    \"date\": \"2023-04\",\n    \"seed\": \"0x1299\"\n  },\n  \"sections\": {\n    \"scan.v4\": {\n      \"scan.hosts\": {\"type\": \"counter\", \"value\": 12}\n    }\n  }\n}\n"
        );
    }

    #[test]
    fn empty_summary_still_renders_both_blocks() {
        let t = RunTelemetry::new();
        assert_eq!(t.to_json(), "{\n  \"info\": {},\n  \"sections\": {}\n}\n");
    }

    #[test]
    fn display_lists_info_then_sections() {
        let text = sample().to_string();
        assert!(text.starts_with("# date: 2023-04\n"));
        assert!(text.contains("[scan.v4]\nscan.hosts = 12\n"));
    }
}
