//! End-to-end tests for qem-lint over the committed `lint.toml`:
//!
//! 1. fixture files under `tests/fixtures/violations/` seed true positives
//!    for every rule and must fire at the exact expected lines;
//! 2. `tests/fixtures/clean/bait.rs` mentions every denied name inside
//!    strings, raw strings, comments and lookalike identifiers and must
//!    produce zero findings;
//! 3. the real workspace itself must be clean — `check` and `vendor`
//!    both return no findings (the CI gate, run as a test);
//! 4. the cross-file `unused-pub` rule, over virtual file sets.
//!
//! Fixtures are checked under *virtual* in-zone paths (e.g.
//! `crates/netsim/src/…`) so zone matching applies; their real on-disk
//! home is excluded via `skip` in lint.toml, which
//! `fixture_directory_is_skipped_at_its_real_path` verifies.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the repo root")
        .to_path_buf()
}

fn engine() -> qem_lint::rules::Engine {
    qem_lint::load_engine(&repo_root()).expect("committed lint.toml parses")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lines on which `rule` fired when `fixture_name` is checked as if it
/// lived at `virtual_path`.
fn fired_lines(virtual_path: &str, fixture_name: &str, rule: &str) -> BTreeSet<u32> {
    let findings = engine().check_file(virtual_path, &fixture(fixture_name));
    for f in &findings {
        assert_eq!(f.rule, rule, "unexpected rule fired on {fixture_name}: {f}");
    }
    findings.into_iter().map(|f| f.line).collect()
}

#[test]
fn wall_clock_fixture_fires_on_every_clock_mention() {
    let lines = fired_lines(
        "crates/netsim/src/fixture.rs",
        "violations/wall_clock.rs",
        "no-wall-clock",
    );
    assert_eq!(lines, BTreeSet::from([3, 4, 7, 8, 9]));
}

#[test]
fn obs_crate_is_a_wall_clock_zone_with_exactly_one_allowed_file() {
    // The rule must still fire anywhere in `crates/obs/src` …
    let lines = fired_lines(
        "crates/obs/src/registry.rs",
        "violations/wall_clock.rs",
        "no-wall-clock",
    );
    assert_eq!(lines, BTreeSet::from([3, 4, 7, 8, 9]));
    // … while the sanctioned seam — and only it — is exempt.
    let findings = engine().check_file(
        "crates/obs/src/clock.rs",
        &fixture("violations/wall_clock.rs"),
    );
    assert!(
        findings.is_empty(),
        "clock.rs is the allow-listed wall-clock seam: {findings:?}"
    );
}

#[test]
fn entropy_fixture_fires_on_every_rng_source() {
    let lines = fired_lines(
        "crates/quic/src/fixture.rs",
        "violations/entropy.rs",
        "no-ambient-entropy",
    );
    assert_eq!(lines, BTreeSet::from([4, 9, 10]));
}

#[test]
fn unordered_fixture_fires_once_per_line_per_pattern() {
    let findings = engine().check_file(
        "crates/store/src/fixture.rs",
        &fixture("violations/unordered.rs"),
    );
    let lines: BTreeSet<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, BTreeSet::from([3, 4, 7, 8]));
    // Two `HashSet` mentions on line 7 (and two `HashMap` on line 8) are
    // deduplicated into one diagnostic each.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn sans_io_fixture_fires_on_sockets_sleep_and_fs() {
    let lines = fired_lines(
        "crates/netsim/src/fixture.rs",
        "violations/sans_io.rs",
        "sans-io",
    );
    assert_eq!(lines, BTreeSet::from([3, 6, 7, 8]));
}

#[test]
fn panic_fixture_fires_on_every_abort_macro_and_method() {
    let lines = fired_lines(
        "crates/core/src/scanner.rs",
        "violations/panics.rs",
        "panic-policy",
    );
    assert_eq!(lines, BTreeSet::from([4, 5, 7, 10, 11, 12]));
}

#[test]
fn scheduler_files_are_panic_policy_zones() {
    // The timer wheel joined the engine's hot path, and the datagram
    // constructor with its tracebox and workload callers sits on every
    // packet's; the panic policy must cover them at their exact paths.
    for path in [
        "crates/netsim/src/wheel.rs",
        "crates/packet/src/ip.rs",
        "crates/tracebox/src/tracer.rs",
        "crates/workload/src/apps.rs",
    ] {
        let lines = fired_lines(path, "violations/panics.rs", "panic-policy");
        assert_eq!(lines, BTreeSet::from([4, 5, 7, 10, 11, 12]), "{path}");
    }
}

#[test]
fn store_read_path_and_resilience_files_are_panic_policy_zones() {
    // The store read path degrades to typed StoreErrors (or quarantine)
    // instead of aborting a census; the fault and retry machinery joined
    // the scan hot path.  The panic policy must fire in all of them.
    for path in [
        "crates/store/src/wire.rs",
        "crates/store/src/codec.rs",
        "crates/store/src/segment.rs",
        "crates/store/src/store.rs",
        "crates/store/src/longitudinal.rs",
        "crates/core/src/resilience.rs",
        "crates/netsim/src/fault.rs",
    ] {
        let lines = fired_lines(path, "violations/panics.rs", "panic-policy");
        assert_eq!(lines, BTreeSet::from([4, 5, 7, 10, 11, 12]), "{path}");
    }
}

#[test]
fn workload_crate_is_a_determinism_and_sans_io_zone() {
    // The workload sources joined every purity zone: ambient clocks,
    // entropy, unordered collections and I/O must all fire there.  The
    // report join and the host summary it is made of — the input of every
    // table and figure — are determinism zones at their exact paths, and so
    // is the universe generator every census starts from.
    let workload = "crates/workload/src/fixture.rs";
    for path in [
        workload,
        "crates/core/src/source.rs",
        "crates/core/src/observation.rs",
        "crates/web/src/universe.rs",
    ] {
        assert_eq!(
            fired_lines(path, "violations/wall_clock.rs", "no-wall-clock"),
            BTreeSet::from([3, 4, 7, 8, 9]),
            "{path}"
        );
        assert_eq!(
            fired_lines(path, "violations/entropy.rs", "no-ambient-entropy"),
            BTreeSet::from([4, 9, 10]),
            "{path}"
        );
        assert_eq!(
            fired_lines(path, "violations/unordered.rs", "no-unordered-collections"),
            BTreeSet::from([3, 4, 7, 8]),
            "{path}"
        );
    }
    assert_eq!(
        fired_lines(workload, "violations/sans_io.rs", "sans-io"),
        BTreeSet::from([3, 6, 7, 8])
    );
}

#[test]
fn ambient_state_fixture_fires_on_every_global_and_never_on_the_static_lifetime() {
    // The rule guards the scan hot path (scanner, executor), the wire and
    // the tracer on top of the deterministic zones.
    for path in [
        "crates/netsim/src/fixture.rs",
        "crates/core/src/scanner.rs",
        "crates/core/src/executor.rs",
        "crates/packet/src/fixture.rs",
        "crates/tracebox/src/fixture.rs",
    ] {
        let lines = fired_lines(path, "violations/ambient_state.rs", "no-ambient-state");
        // Lines 11 and 15 only mention the `'static` lifetime.
        assert_eq!(lines, BTreeSet::from([3, 4, 7, 8, 9, 12, 13, 14]), "{path}");
    }
}

#[test]
fn shared_counter_fixture_fires_on_every_atomic_and_never_in_the_test_clock() {
    // The rule guards the scan tally, the scanner and every crate a probe
    // runs through.
    for path in [
        "crates/core/src/metrics.rs",
        "crates/core/src/scanner.rs",
        "crates/obs/src/registry.rs",
        "crates/netsim/src/fixture.rs",
        "crates/quic/src/fixture.rs",
        "crates/tcp/src/fixture.rs",
        "crates/tracebox/src/fixture.rs",
        "crates/workload/src/fixture.rs",
    ] {
        let lines = fired_lines(path, "violations/shared_counters.rs", "no-shared-counters");
        assert_eq!(lines, BTreeSet::from([3, 4, 7, 8, 13, 14]), "{path}");
    }
    // `ManualClock` keeps its atomic; the executor is outside the zone.
    for path in ["crates/obs/src/clock.rs", "crates/core/src/executor.rs"] {
        let findings = engine().check_file(path, &fixture("violations/shared_counters.rs"));
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn raw_draw_fixture_fires_in_production_but_not_in_the_probability_file() {
    // Every production source of the workspace is a zone; the draws in the
    // fixture's `#[cfg(test)] mod` (line 20) never fire.
    for path in [
        "crates/core/src/scanner.rs",
        "crates/web/src/universe.rs",
        "crates/netsim/src/path.rs",
        "src/lib.rs",
    ] {
        let lines = fired_lines(path, "violations/raw_draws.rs", "raw-gen-bool");
        assert_eq!(lines, BTreeSet::from([6, 10]), "{path}");
    }
    // The type's own file holds the one sanctioned draw.
    let findings = engine().check_file(
        "crates/netsim/src/probability.rs",
        &fixture("violations/raw_draws.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn observation_boundary_fixture_fires_on_ground_truth_reads() {
    // A planted `host.stack` read (line 4) and a transit-profile match
    // (line 8) fire; the observed `uses_ecn` (line 12) and the test
    // module's read (line 20) do not.
    // Every file of `qem-core` is the observer, the scanner included.
    for path in [
        "crates/core/src/reports/tables.rs",
        "crates/core/src/observation.rs",
        "crates/core/src/source.rs",
        "crates/core/src/scanner.rs",
        "crates/core/src/campaign.rs",
        "crates/tracebox/src/analysis.rs",
    ] {
        let lines = fired_lines(
            path,
            "violations/observation_boundary.rs",
            "observation-boundary",
        );
        assert_eq!(lines, BTreeSet::from([4, 8]), "{path}");
    }
    // The world side — the vantage point decides what a probe meets at a
    // host — is exempt.
    let findings = engine().check_file(
        "crates/core/src/vantage.rs",
        &fixture("violations/observation_boundary.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_fixture_fires_only_without_a_safety_comment() {
    let lines = fired_lines(
        "crates/packet/src/fixture.rs",
        "violations/unsafe_no_safety.rs",
        "unsafe-hygiene",
    );
    // Line 5 has no SAFETY comment; line 10 does and must pass.
    assert_eq!(lines, BTreeSet::from([5]));
}

#[test]
fn bait_fixture_is_clean() {
    // Under a determinism zone, and under a panic-policy zone: a directory
    // one (the QUIC codec) and a single-file one (an endpoint).
    for path in [
        "crates/netsim/src/bait.rs",
        "crates/packet/src/quic/bait.rs",
        "crates/quic/src/client.rs",
        "crates/core/src/reports/bait.rs",
    ] {
        let findings = engine().check_file(path, &fixture("clean/bait.rs"));
        assert!(
            findings.is_empty(),
            "false positives on bait at {path}: {findings:?}"
        );
    }
}

#[test]
fn parsers_of_hostile_bytes_and_the_endpoints_are_panic_policy_zones() {
    // Whatever a network can present reaches the packet codecs and the
    // QUIC endpoints first; none of them may abort a campaign over it.
    for path in [
        "crates/packet/src/quic/frame.rs",
        "crates/packet/src/quic/header.rs",
        "crates/packet/src/quic/varint.rs",
        "crates/packet/src/quic/version.rs",
        "crates/packet/src/udp.rs",
        "crates/packet/src/tcp.rs",
        "crates/packet/src/icmp.rs",
        "crates/quic/src/client.rs",
        "crates/quic/src/server.rs",
        "crates/quic/src/spaces.rs",
        "crates/quic/src/outbox.rs",
        "crates/quic/src/handshake.rs",
        "crates/quic/src/http.rs",
        "crates/quic/src/transport_params.rs",
        "crates/quic/src/app.rs",
    ] {
        let lines = fired_lines(path, "violations/panics.rs", "panic-policy");
        assert_eq!(lines, BTreeSet::from([4, 5, 7, 10, 11, 12]), "{path}");
    }
}

#[test]
fn fixture_directory_is_skipped_at_its_real_path() {
    assert!(engine().skips("crates/lint/tests/fixtures/violations/panics.rs"));
}

#[test]
fn diagnostics_render_as_file_line_rule_message() {
    let findings = engine().check_file(
        "crates/netsim/src/fixture.rs",
        &fixture("violations/wall_clock.rs"),
    );
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("crates/netsim/src/fixture.rs:3 no-wall-clock "),
        "unexpected diagnostic shape: {rendered}"
    );
}

#[test]
fn real_workspace_passes_check() {
    let root = repo_root();
    let findings = qem_lint::check_workspace(&root, &engine()).expect("walk the workspace");
    assert!(
        findings.is_empty(),
        "workspace lint regressions:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_workspace_passes_vendor_audit() {
    let findings = qem_lint::vendor::audit(&repo_root()).expect("read manifests");
    assert!(
        findings.is_empty(),
        "vendoring regressions:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A virtual workspace of `(path, source)` files.
fn tree(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|&(path, source)| (path.to_string(), source.to_string()))
        .collect()
}

/// What `unused-pub` reports over a virtual workspace, as `file:line message`.
fn unused_pub_findings(files: &[(&str, &str)]) -> Vec<String> {
    engine()
        .check_unused_pub(&tree(files))
        .into_iter()
        .map(|f| {
            assert_eq!(f.rule, "unused-pub");
            format!("{}:{} {}", f.file, f.line, f.message)
        })
        .collect()
}

/// The names `unused-pub` flags in a virtual workspace, as `file:line name`.
fn unused_pub(files: &[(&str, &str)]) -> Vec<String> {
    unused_pub_findings(files)
        .into_iter()
        .map(|f| {
            let (at, message) = f.split_once(' ').unwrap_or_default();
            format!("{at} {}", message.split('`').nth(1).unwrap_or(""))
        })
        .collect()
}

const ORPHAN: (&str, &str) = ("crates/demo/src/lib.rs", "/// Doc.\npub fn orphan() {}\n");

#[test]
fn unused_pub_flags_an_item_only_tests_and_the_benchmark_name() {
    let flagged = vec!["crates/demo/src/lib.rs:2 orphan".to_string()];
    assert_eq!(unused_pub(&[ORPHAN]), flagged);
    let in_test_mod = "/// Doc.\npub fn orphan() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::orphan(); }\n}\n";
    assert_eq!(
        unused_pub(&[("crates/demo/src/lib.rs", in_test_mod)]),
        flagged
    );
    for caller in [
        "tests/end_to_end.rs",
        "crates/demo/tests/it.rs",
        "crates/other/src/tests/helper.rs",
        "benchmark/src/probes.rs",
        "benchmark/tests/smoke.rs",
    ] {
        let files = [ORPHAN, (caller, "fn call() { qem_demo::orphan(); }")];
        assert_eq!(unused_pub(&files), flagged, "{caller}");
    }
}

#[test]
fn unused_pub_counts_examples_the_facade_and_other_crates_as_callers() {
    for (caller, source) in [
        ("examples/demo.rs", "fn main() { qem_demo::orphan(); }"),
        ("src/lib.rs", "pub use qem_demo::orphan;"),
        (
            "crates/other/src/run.rs",
            "fn run() { qem_demo::orphan(); }",
        ),
        // Name-based on purpose: a same-named item used anywhere counts.
        (
            "crates/other/src/run.rs",
            "fn orphan() {}\nfn run() { orphan(); }",
        ),
    ] {
        assert_eq!(
            unused_pub(&[ORPHAN, (caller, source)]),
            Vec::<String>::new(),
            "{caller}"
        );
    }
}

#[test]
fn unused_pub_reads_definitions_by_keyword_and_uses_by_identifier() {
    let items = "pub const fn a() {}\npub unsafe fn b() {}\npub struct C;\npub enum D {}\n\
                 pub trait E {}\npub type F = u8;\npub const G: u8 = 0;\npub static H: u8 = 0;\n";
    let flagged: Vec<String> = "abCDEFGH"
        .chars()
        .enumerate()
        .map(|(i, name)| format!("crates/demo/src/lib.rs:{} {name}", i + 1))
        .collect();
    assert_eq!(unused_pub(&[("crates/demo/src/lib.rs", items)]), flagged);
    // Restricted visibility, modules, re-exports and fields define nothing.
    let scoped = "pub(crate) fn a() {}\npub(super) struct B;\npub mod c;\npub use d::E;\n\
                  struct S { pub f: u8 }\n";
    assert!(unused_pub(&[("crates/demo/src/lib.rs", scoped)]).is_empty());
    // A name in a string or a comment is not a use.
    let mentions = "// orphan\nfn f() -> &'static str { \"orphan\" }\n";
    assert_eq!(
        unused_pub(&[ORPHAN, ("crates/other/src/lib.rs", mentions)]),
        ["crates/demo/src/lib.rs:2 orphan"]
    );
}

#[test]
fn unused_pub_counts_only_a_dot_or_path_call_as_a_use_of_an_associated_item() {
    let table = (
        "crates/demo/src/lib.rs",
        "pub struct Table;\n\nimpl Table {\n    pub fn row(&self) -> u8 { 0 }\n    \
         pub const ROWS: u8 = 1;\n}\n\npub fn build() -> Table { Table }\n",
    );
    // Production reaches `row` and `ROWS` only through same-named locals.
    let locals = (
        "crates/other/src/lib.rs",
        "fn run() { let row = qem_demo::build(); let ROWS = 2; drop((row, ROWS)); }",
    );
    assert_eq!(
        unused_pub(&[table, locals]),
        [
            "crates/demo/src/lib.rs:4 row",
            "crates/demo/src/lib.rs:5 ROWS"
        ]
    );
    // A method call and a path reach them.
    let calls = (
        "examples/demo.rs",
        "fn main() { let t = qem_demo::build(); t.row(); qem_demo::Table::ROWS; }",
    );
    assert!(unused_pub(&[table, locals, calls]).is_empty());
    // A free function is used by any identifier, and an `impl Trait` in a
    // signature opens no `impl` block: the nested functions stay free.
    let free = (
        "crates/demo/src/lib.rs",
        "pub fn row() -> impl Sized {\n    pub fn inner() {}\n}\n\
         pub fn col(x: impl Sized) {\n    pub fn cell() {}\n}\n",
    );
    let named = (
        "crates/other/src/lib.rs",
        "use qem_demo::{col, row};\nfn f() { inner(); cell(); }\n",
    );
    assert!(unused_pub(&[free, named]).is_empty());
}

#[test]
fn unused_pub_counts_a_name_after_a_dot_only_when_it_is_called() {
    let scanner = (
        "crates/demo/src/lib.rs",
        "pub struct Scanner { options: u8 }\n\nimpl Scanner {\n    \
         pub fn options(&self) -> u8 { self.options }\n    \
         pub fn cast<T>(&self) -> u8 { 0 }\n}\n",
    );
    // Field reads of the same names hide neither method.
    let fields = (
        "crates/other/src/lib.rs",
        "fn run(s: Settings) -> u8 { s.options + s.cast }",
    );
    assert_eq!(
        unused_pub(&[scanner, fields]),
        [
            "crates/demo/src/lib.rs:4 options",
            "crates/demo/src/lib.rs:5 cast"
        ]
    );
    // A call, a turbofish call and a path are uses.
    let calls = (
        "examples/demo.rs",
        "fn main(s: &Scanner) { s.options(); s.cast::<u8>(); }",
    );
    assert!(unused_pub(&[scanner, fields, calls]).is_empty());
    let paths = (
        "examples/demo.rs",
        "fn main(s: &Scanner) { [s].map(Scanner::options); Scanner::cast::<u8>(s); }",
    );
    assert!(unused_pub(&[scanner, fields, paths]).is_empty());
}

#[test]
fn unused_pub_is_suppressed_by_an_annotation_on_or_above_the_item() {
    for source in [
        "// lint: allow(unused-pub) test fixture: built by tests only\npub fn orphan() {}\n",
        "pub fn orphan() {} // lint: allow(unused-pub) test oracle\n",
    ] {
        assert!(unused_pub(&[("crates/demo/src/lib.rs", source)]).is_empty());
    }
    let other_rule = "// lint: allow(panic-policy) unrelated\npub fn orphan() {}\n";
    assert_eq!(
        unused_pub(&[("crates/demo/src/lib.rs", other_rule)]).len(),
        1
    );
}

#[test]
fn rules_catalogue_lists_unused_pub() {
    assert!(engine()
        .catalogue()
        .iter()
        .any(|(id, description)| id == "unused-pub" && description.contains("Name-based")));
}

#[test]
fn unused_pub_masks_names_used_only_in_a_cfg_test_item() {
    // A `#[cfg(test)] fn` outside any test module is test code, and so are
    // the other items the attribute can sit on.
    for tester in [
        "#[cfg(test)]\nfn helper() { crate::orphan(); }\n",
        "#[cfg(test)]\n#[allow(dead_code)]\npub(crate) fn helper() -> u8 { orphan(); 0 }\n",
        "#[cfg(test)]\nconst HELPER: fn() = orphan;\n",
        "#[cfg(test)]\nuse crate::orphan;\n",
    ] {
        let files = [ORPHAN, ("crates/other/src/lib.rs", tester)];
        assert_eq!(
            unused_pub(&files),
            ["crates/demo/src/lib.rs:2 orphan"],
            "{tester}"
        );
    }
    // The mask ends with the item: the next one is production again.
    let after = "#[cfg(test)]\nfn helper() { orphan(); }\nfn run() { orphan(); }\n";
    assert!(unused_pub(&[ORPHAN, ("crates/other/src/lib.rs", after)]).is_empty());
}

#[test]
fn unused_pub_flags_an_annotation_that_covers_no_pub_item() {
    for source in [
        "// lint: allow(unused-pub) test fixture\nfn private() {}\n",
        "// lint: allow(unused-pub) test fixture\npub(crate) fn scoped() {}\n",
        "// lint: allow(unused-pub) test fixture\n\npub fn orphan() {}\n",
    ] {
        let findings = unused_pub_findings(&[("crates/demo/src/lib.rs", source)]);
        assert!(
            findings.contains(
                &"crates/demo/src/lib.rs:1 stale `allow(unused-pub)`: it covers no `pub` item"
                    .to_string()
            ),
            "{source}: {findings:?}"
        );
    }
}

#[test]
fn unused_pub_flags_an_annotation_whose_item_has_a_production_caller() {
    let annotated = (
        "crates/demo/src/lib.rs",
        "// lint: allow(unused-pub) tested feature\npub fn orphan() {}\n",
    );
    assert!(unused_pub_findings(&[annotated]).is_empty());
    let caller = ("examples/demo.rs", "fn main() { qem_demo::orphan(); }");
    assert_eq!(
        unused_pub_findings(&[annotated, caller]),
        ["crates/demo/src/lib.rs:1 stale `allow(unused-pub)`: `orphan` has a caller outside tests and benchmark/"]
    );
}

#[test]
fn unused_pub_flags_a_benchmark_annotation_the_benchmark_no_longer_names() {
    let annotated = (
        "crates/demo/src/lib.rs",
        "pub fn orphan() {} // lint: allow(unused-pub) benchmark: its demo probe calls it\n",
    );
    let stale = ["crates/demo/src/lib.rs:1 stale `allow(unused-pub)`: no file under benchmark/src names `orphan`"];
    assert_eq!(unused_pub_findings(&[annotated]), stale);
    // Only `benchmark/src` counts, and only an identifier there.
    for (path, source) in [
        ("benchmark/tests/smoke.rs", "fn t() { qem_demo::orphan(); }"),
        (
            "benchmark/src/probes.rs",
            "// orphan\nconst NAME: &str = \"orphan\";",
        ),
    ] {
        assert_eq!(
            unused_pub_findings(&[annotated, (path, source)]),
            stale,
            "{path}"
        );
    }
    let probe = (
        "benchmark/src/probes.rs",
        "fn probe() { qem_demo::orphan(); }",
    );
    assert!(unused_pub_findings(&[annotated, probe]).is_empty());
}

#[test]
fn count_reports_non_test_lines_and_pub_items_per_crate() {
    let alpha = "//! Docs and comments are not code.\n\npub fn a() {}\npub(crate) fn b() {}\npub struct C {\n    pub field: u8,\n}\n\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
    let beta =
        "pub const fn d() {}\n#[cfg(test)]\npub fn e() {}\nfn f() {\n    /* block */ d();\n}\n";
    let root = std::env::temp_dir().join(format!("qem-lint-count-{}", std::process::id()));
    for (path, source) in [
        ("crates/alpha/src/lib.rs", alpha),
        ("crates/alpha/src/tests/helper.rs", "pub fn g() {}"),
        ("crates/alpha/tests/it.rs", "pub fn h() {}"),
        ("crates/beta/src/lib.rs", beta),
        ("examples/demo.rs", "pub fn i() {}"),
        ("src/lib.rs", "pub fn j() {}"),
        ("target/release/build/out.rs", "pub fn k() {}"),
    ] {
        let path = root.join(path);
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("create the tree");
        std::fs::write(&path, source).expect("write a source");
    }
    let counts = qem_lint::count_workspace(&root, &engine());
    std::fs::remove_dir_all(&root).expect("remove the tree");
    assert_eq!(
        counts.expect("walk the tree"),
        "crate           lines   pub\n\
         alpha               5     2\n\
         beta                4     1\n\
         total               9     3\n"
    );
}
