//! The benchmark's contract: which workloads it runs and why, which
//! end-to-end metrics it reports with which regression bound, and which
//! per-layer metrics a traced run adds.
//!
//! `BENCHMARK.json` at the root of the repository is [`to_json`] of these
//! tables (`--contract` prints it; the smoke test compares the two), so the
//! names the harness prints and the names the contract lists cannot drift.

use std::fmt::Write as _;

/// How long the timed passes of one run take: `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

/// The command of one run, from the root of a checkout; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--locked",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}
use Better::{Higher, Lower};

/// Each workload with the reason it was chosen.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "census-scan",
        "Main-vantage IPv4+IPv6 census in memory, workers=1, 1:1000 universe: scanner, one-flow \
         engine and TCP stack do nearly all the work (97 % of hosts are TCP-only); no store, \
         reports or threads.",
    ),
    (
        "cloud-fleet",
        "16-vantage campaign over the QUIC-reachable hosts only: every probe is QUIC+TCP and \
         mostly traced, so QUIC endpoints, ECN validation, packet codecs and tracebox dominate \
         where census-scan has TCP.",
    ),
    (
        "census-stream",
        "Whole pipeline at 1:250 on every core: scan into a store, open, join, Tables 1-4,6,7 \
         from disk; the only workload with executor threads, back-pressure, store write+read \
         and reports.",
    ),
    (
        "store-write",
        "Pre-scanned 1:250 measurements through CampaignWriter into a fresh directory, fsyncs \
         included: store encode, framing and filesystem only; no scan, no reports.",
    ),
    (
        "store-read",
        "A stored 1:250 snapshot opened with seal verification, iterated and materialised: the \
         decode direction of the store, so a write-side change that taxes reads shows here.",
    ),
    (
        "netbench-mix",
        "Three application scenarios (default, lossy, flapping) under three ECN variants on the \
         timer wheel: many-flow engine, shared queues, AQM, fault plans, packetizers; no \
         scanner, store or reports.",
    ),
];

/// The end-to-end metrics, reported for every workload: name, unit,
/// direction, and the share by which the metric may get worse before a
/// change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Lower, 0.25),
    ("units_per_s", "units/s", Higher, 0.25),
    ("allocs_per_unit", "count", Lower, 0.03),
    ("alloc_kb_per_unit", "KB", Lower, 0.03),
    ("peak_live_mb", "MB", Lower, 0.02),
];

/// The per-layer metrics of a traced run: name, unit, direction.  Layers
/// are the crate and module names.
pub const PER_LAYER: [(&str, &str, Better); 68] = [
    ("web.generate_ns_per_domain", "ns", Lower),
    ("web.generate_allocs_per_domain", "count", Lower),
    ("web.live_bytes_per_domain", "B", Lower),
    ("core.scan_ns_per_host", "ns", Lower),
    ("core.scan_allocs_per_host", "count", Lower),
    ("core.scan_alloc_bytes_per_host", "B", Lower),
    ("core.scan_self_share", "ratio", Lower),
    ("core.executor_ns_per_item", "ns", Lower),
    ("core.executor_speedup", "ratio", Higher),
    ("core.join_ns_per_domain", "ns", Lower),
    ("core.join_allocs_per_domain", "count", Lower),
    ("core.report_ns_per_domain.table1", "ns", Lower),
    ("core.report_ns_per_domain.table2", "ns", Lower),
    ("core.report_ns_per_domain.table3", "ns", Lower),
    ("core.report_ns_per_domain.table4", "ns", Lower),
    ("core.report_ns_per_domain.table5", "ns", Lower),
    ("core.report_ns_per_domain.table6", "ns", Lower),
    ("core.report_ns_per_domain.table7", "ns", Lower),
    ("core.report_ns_per_domain.figure5", "ns", Lower),
    ("core.report_ns_per_domain.figure6", "ns", Lower),
    ("core.report_ns_per_domain.figure7", "ns", Lower),
    ("core.render_ns", "ns", Lower),
    ("quic.connection_ns", "ns", Lower),
    ("quic.connection_ns_impaired", "ns", Lower),
    ("quic.connection_allocs", "count", Lower),
    ("quic.connection_alloc_bytes", "B", Lower),
    ("quic.validator_ns", "ns", Lower),
    ("tcp.connection_ns", "ns", Lower),
    ("tcp.connection_allocs", "count", Lower),
    ("tcp.connection_alloc_bytes", "B", Lower),
    ("tracebox.trace_ns", "ns", Lower),
    ("tracebox.trace_allocs", "count", Lower),
    ("netsim.wheel_new_ns", "ns", Lower),
    ("netsim.wheel_ns_per_op_1flow", "ns", Lower),
    ("netsim.wheel_ns_per_op_100flows", "ns", Lower),
    ("netsim.engine_ns_per_event_32flows", "ns", Lower),
    ("netsim.engine_allocs_per_event_32flows", "count", Lower),
    ("netsim.path_transit_ns", "ns", Lower),
    ("netsim.path_transit_allocs", "count", Lower),
    ("packet.quic_encode_ns", "ns", Lower),
    ("packet.quic_decode_ns", "ns", Lower),
    ("packet.ip_encode_ns", "ns", Lower),
    ("packet.ip_decode_ns", "ns", Lower),
    ("packet.quic_encode_allocs", "count", Lower),
    ("packet.quic_decode_allocs", "count", Lower),
    ("store.encode_ns_per_host", "ns", Lower),
    ("store.decode_ns_per_host", "ns", Lower),
    ("store.decode_encode_ratio", "ratio", Lower),
    ("store.bytes_per_host", "B", Lower),
    ("store.encode_allocs_per_host", "count", Lower),
    ("store.decode_allocs_per_host", "count", Lower),
    ("store.append_ns_per_host", "ns", Lower),
    ("store.open_ns_per_host", "ns", Lower),
    ("store.iter_ns_per_host", "ns", Lower),
    ("store.to_snapshot_ns_per_host", "ns", Lower),
    ("store.stream_overhead_share", "ratio", Lower),
    ("store.delta_ns_per_host", "ns", Lower),
    ("store.delta_stored_share", "ratio", Lower),
    ("workload.ns_per_event.ecn-on", "ns", Lower),
    ("workload.ns_per_event.ecn-off", "ns", Lower),
    ("workload.ns_per_event.ce-blackhole", "ns", Lower),
    ("workload.ns_per_event.faulted", "ns", Lower),
    ("workload.allocs_per_event", "count", Lower),
    ("workload.alloc_bytes_per_event", "B", Lower),
    ("workload.events_per_pass", "count", Lower),
    ("workload.sim_s_per_wall_s", "ratio", Higher),
    ("obs.merge_ns", "ns", Lower),
    ("obs.telemetry_overhead_share", "ratio", Lower),
];

/// The unit of a per-layer metric.  Panics on a name the contract does not
/// list: a probe that reports one is a bug in this package.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(listed, ..)| *listed == name)
        .map(|&(_, unit, _)| unit)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric of the contract"))
}

fn strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|item| format!("\"{item}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn better(direction: Better) -> &'static str {
    match direction {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The contract as the text of `BENCHMARK.json`.  No string of the tables
/// needs escaping.
pub fn to_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": {},", strings(&COMMAND));
    let _ = writeln!(out, "  \"paths\": {},", strings(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(
            out,
            "  \"{key}\": [\n    {}\n  ]{}",
            rows.join(",\n    "),
            if last { "" } else { "," }
        );
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
        false,
    );
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|&(name, unit, direction, bound)| {
                format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \
                     \"bound\": {bound}}}",
                    better(direction)
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|&(name, unit, direction)| {
                format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better(direction)
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(legal)
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn units_bounds_and_reasons_are_within_the_limits() {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal),
                "{unit}"
            );
        }
        for (name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, 0.25)));
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        assert!(to_json().len() <= 64 * 1024);
    }
}
