//! The six workloads.  Each is a closed loop with one client, the harness
//! thread: a pass is a fixed, deterministic set of calls into the crates'
//! public functions, and the next pass starts when the previous one has
//! returned and its outputs have been checked.
//!
//! * [`Workload::setup`] generates the inputs from the seed (timed as
//!   `setup_s`);
//! * [`Workload::run`] makes the calls into the library and nothing else, so
//!   the harness can time it and count its allocations;
//! * [`Workload::check`] verifies the outputs afterwards, untimed.  The first
//!   checked pass also makes the once-per-run comparisons (other worker
//!   count, in-memory against store-backed, decoded against input) and fixes
//!   the digest every later pass must reproduce.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and the README.

use crate::trace::{slug, Tracer};
use qem_core::reports::{table1, table2, table3, table4, table6, table7};
use qem_core::{
    Campaign, CampaignOptions, HostMeasurement, JoinedSnapshot, ScanOptions, Scanner,
    SnapshotMeasurement, SnapshotSource, VantagePoint,
};
use qem_obs::MetricsSnapshot;
use qem_store::segment::list_segments;
use qem_store::{CampaignStoreExt, CampaignWriter, SnapshotMeta, StoredSnapshot, WriterStats};
use qem_web::{Universe, UniverseConfig};
use qem_workload::{EcnVariant, Scenario, WorkloadComparison, WorkloadReport};
use std::fmt::{self, Debug, Write as _};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Universe scale of the scanner workloads (1:1000 of the paper's web).
const SCAN_SCALE: f64 = 0.001;
/// Universe scale of the pipeline and store workloads (1:250).
const PIPELINE_SCALE: f64 = 0.004;

/// What a run was asked for.
#[derive(Debug, Clone)]
pub struct Params {
    /// Feeds `UniverseConfig.seed`, `CampaignOptions.seed` and
    /// `Scenario.seed`; the crates only ever see the generated inputs.
    pub seed: u64,
    /// Overrides every workload's universe scale (smoke test only).
    pub scale: Option<f64>,
    /// Available cores; only `census-stream` scans with more than one worker.
    pub nproc: usize,
    /// A directory of this process's own for the store workloads.
    pub scratch: PathBuf,
}

impl Params {
    fn universe(&self, default_scale: f64, tracer: &mut Tracer) -> Universe {
        let config = UniverseConfig {
            scale: self.scale.unwrap_or(default_scale),
            seed: self.seed,
            ensure_rare_segments: true,
        };
        tracer.span("web.generate", |_| Universe::generate(&config))
    }

    /// The paper's main campaign at this run's seed.
    pub(crate) fn options(&self, workers: usize) -> CampaignOptions {
        CampaignOptions {
            workers,
            seed: self.seed,
            ..CampaignOptions::paper_default()
        }
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Name, as listed in `BENCHMARK.json`.
    const NAME: &'static str;
    /// What `units_per_s` counts.
    const UNIT: &'static str;
    /// What one pass hands to its check.
    type Output;

    /// Generate the inputs.
    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String>;
    /// Work units one pass processes; valid once a pass has been checked.
    fn units(&self) -> u64;
    /// One pass: the calls into the library, each under its span.
    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String>;
    /// Verify a pass's outputs and tidy up after it.
    fn check(&mut self, output: Self::Output) -> Result<(), String>;
    /// Digest of the outputs, fixed by the first checked pass.
    fn output_digest(&self) -> Option<u64>;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Streaming FNV-1a, so large outputs are digested without being copied.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn debug(&mut self, value: &impl Debug) {
        write!(self, "{value:?}").expect("hashing cannot fail");
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Fix the digest on the first pass; fail any later pass that differs.
fn stable(expected: &mut Option<u64>, digest: u64) -> Result<(), String> {
    match *expected {
        Some(first) if first != digest => Err(format!(
            "output digest {digest:016x} differs from the first pass's {first:016x}"
        )),
        _ => {
            *expected = Some(digest);
            Ok(())
        }
    }
}

fn ensure(condition: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(message())
    }
}

fn quic_reachable(snapshot: &SnapshotMeasurement) -> Vec<usize> {
    snapshot
        .hosts
        .values()
        .filter(|m| m.quic_reachable)
        .map(|m| m.host_id)
        .collect()
}

/// The conservation laws of one scan's counters.
fn check_scan_counters(metrics: &MetricsSnapshot, population: usize) -> Result<(), String> {
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    let hosts = counter("scan.hosts");
    let addressed = hosts - counter("scan.no_address");
    ensure(hosts == population as u64, || {
        format!("scan.hosts = {hosts}, population = {population}")
    })?;
    ensure(counter("scan.tcp.probed") == addressed, || {
        format!("scan.tcp.probed != {addressed}")
    })?;
    ensure(
        counter("scan.quic.attempted") + counter("scan.quic.no_stack") == addressed,
        || format!("scan.quic.attempted + scan.quic.no_stack != {addressed}"),
    )
}

/// Tables 1–4, 6 and 7 of one IPv4 snapshot, joined once and rendered.
/// Shared by the store-backed pass and its in-memory reference, so the two
/// strings can only differ where the sources do.
fn render_tables<S: SnapshotSource>(
    universe: &Universe,
    source: &S,
    tracer: &mut Tracer,
) -> String {
    let joined = tracer.span("core.join", |_| JoinedSnapshot::new(universe, source));
    let t1 = tracer.span("core.report.table1", |_| table1(universe, &joined));
    let t2 = tracer.span("core.report.table2", |_| table2(universe, &joined));
    let t3 = tracer.span("core.report.table3", |_| table3(universe, &joined));
    let t4 = tracer.span("core.report.table4", |_| table4(universe, &joined));
    let t6 = tracer.span("core.report.table6", |_| table6(universe, &joined));
    let t7 = tracer.span("core.report.table7", |_| table7(universe, &joined));
    tracer.span("render", |_| {
        format!("{t1}\n{t2}\n{t3}\n{t4}\n{t6}\n{t7}\n")
    })
}

/// A store directory under the run's scratch space, removed when dropped.
struct StoreDir(PathBuf);

impl StoreDir {
    /// A directory of its own for each workload instance: a repetition of
    /// set-up must not write into the store the timed passes read.
    fn new(params: &Params, workload: &str) -> Result<StoreDir, String> {
        static INSTANCES: AtomicU64 = AtomicU64::new(0);
        let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
        let dir = StoreDir(params.scratch.join(format!("{workload}-{instance}")));
        dir.clear()?;
        Ok(dir)
    }

    /// Remove the directory; the writers create it again.
    fn clear(&self) -> Result<(), String> {
        match fs::remove_dir_all(&self.0) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("cannot remove {}: {e}", self.0.display()))
            }
            _ => Ok(()),
        }
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = self.clear();
    }
}

/// The IPv4 census of the main vantage point at `workers = 1`, in host-id
/// order — the input of both store workloads.
fn prescan(params: &Params, universe: &Universe) -> (CampaignOptions, Vec<HostMeasurement>) {
    let options = params.options(1);
    let snapshot = Campaign::new(universe).run_snapshot(&VantagePoint::main(), &options, false);
    (options, snapshot.hosts.into_values().collect())
}

fn write_store(
    dir: &StoreDir,
    meta: &SnapshotMeta,
    hosts: Vec<HostMeasurement>,
) -> Result<(StoredSnapshot, WriterStats), String> {
    let mut writer = CampaignWriter::create(&dir.0, meta).map_err(|e| e.to_string())?;
    for m in hosts {
        writer.append(m).map_err(|e| e.to_string())?;
    }
    writer.finish_with_stats().map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// census-scan
// ---------------------------------------------------------------------------

/// The main-vantage-point census, IPv4 and IPv6, in memory at `workers = 1`.
pub struct CensusScan {
    universe: Universe,
    options: CampaignOptions,
    nproc: usize,
    /// Scan population per family, IPv4 first.
    populations: [usize; 2],
    digest: Option<u64>,
}

impl CensusScan {
    /// What `Campaign::run_main_with_telemetry` does, family by family so
    /// that each scan gets its own span.
    fn scan(
        &self,
        options: &CampaignOptions,
        tracer: &mut Tracer,
    ) -> [(SnapshotMeasurement, MetricsSnapshot); 2] {
        let campaign = Campaign::new(&self.universe);
        let main = VantagePoint::main();
        [(false, "core.scan.v4"), (true, "core.scan.v6")].map(|(ipv6, span)| {
            tracer.span(span, |_| {
                campaign.run_snapshot_with_telemetry(&main, options, ipv6)
            })
        })
    }
}

impl Workload for CensusScan {
    const NAME: &'static str = "census-scan";
    const UNIT: &'static str = "host probes";
    type Output = [(SnapshotMeasurement, MetricsSnapshot); 2];

    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String> {
        let universe = params.universe(SCAN_SCALE, tracer);
        let populations = [false, true].map(|ipv6| universe.scan_population(ipv6).len());
        Ok(CensusScan {
            universe,
            options: params.options(1),
            nproc: params.nproc,
            populations,
            digest: None,
        })
    }

    fn units(&self) -> u64 {
        self.populations.iter().sum::<usize>() as u64
    }

    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        Ok(self.scan(&self.options, tracer))
    }

    fn check(&mut self, output: Self::Output) -> Result<(), String> {
        let mut fnv = Fnv::new();
        for ((snapshot, metrics), population) in output.iter().zip(self.populations) {
            check_scan_counters(metrics, population)?;
            ensure(snapshot.hosts.len() == population, || {
                format!(
                    "{} hosts measured, population {population}",
                    snapshot.hosts.len()
                )
            })?;
            fnv.bytes(metrics.to_json().as_bytes());
            fnv.debug(&snapshot.hosts);
        }
        if self.digest.is_none() && self.nproc > 1 {
            let options = CampaignOptions {
                workers: self.nproc,
                ..self.options
            };
            let parallel = self.scan(&options, &mut Tracer::new(false));
            for ((snapshot, metrics), (p_snapshot, p_metrics)) in output.iter().zip(&parallel) {
                ensure(
                    snapshot.hosts == p_snapshot.hosts && metrics == p_metrics,
                    || format!("workers = {} changed the scan results", self.nproc),
                )?;
            }
        }
        stable(&mut self.digest, fnv.0)
    }

    fn output_digest(&self) -> Option<u64> {
        self.digest
    }
}

// ---------------------------------------------------------------------------
// cloud-fleet
// ---------------------------------------------------------------------------

type FleetResult = Vec<(
    VantagePoint,
    SnapshotMeasurement,
    Option<SnapshotMeasurement>,
)>;

/// The 16-vantage cloud campaign over the hosts the main run reached via
/// QUIC, at `workers = 1`.
pub struct CloudFleet {
    universe: Universe,
    options: CampaignOptions,
    main_v4: SnapshotMeasurement,
    main_v6: SnapshotMeasurement,
    /// QUIC-reachable hosts per family, IPv4 first.
    targets: [Vec<usize>; 2],
    digest: Option<u64>,
}

impl CloudFleet {
    /// `Campaign::run_cloud` at `workers = 1`, spelled out vantage by
    /// vantage so that each gets its own span.  Only the traced pass runs
    /// this; its check holds it to the digest of the real `run_cloud`.
    fn run_cloud_by_vantage(&self, tracer: &mut Tracer) -> FleetResult {
        let o = &self.options;
        let scan = |vantage: &VantagePoint, ipv6: bool| {
            let scan_options = ScanOptions {
                date: o.date,
                ipv6,
                probe: o.probe,
                trace_sample_probability: o.trace_sample_probability,
                workers: 1,
                seed: o.seed,
                cross_traffic: o.cross_traffic,
                retry: o.retry,
            };
            let scanner = Scanner::new(&self.universe, vantage.clone(), scan_options);
            SnapshotMeasurement {
                date: o.date,
                ipv6,
                vantage: vantage.clone(),
                hosts: scanner
                    .scan_hosts(&self.targets[usize::from(ipv6)])
                    .into_iter()
                    .map(|m| (m.host_id, m))
                    .collect(),
            }
        };
        VantagePoint::cloud_fleet()
            .into_iter()
            .map(|vantage| {
                tracer.span(&format!("core.cloud.{}", slug(&vantage.name)), |_| {
                    let v4 = scan(&vantage, false);
                    let v6 = (!self.targets[1].is_empty()).then(|| scan(&vantage, true));
                    (vantage, v4, v6)
                })
            })
            .collect()
    }
}

impl Workload for CloudFleet {
    const NAME: &'static str = "cloud-fleet";
    const UNIT: &'static str = "host probes";
    type Output = FleetResult;

    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String> {
        let universe = params.universe(SCAN_SCALE, tracer);
        let options = params.options(1);
        let main = tracer.span("core.scan.main", |_| {
            Campaign::new(&universe).run_main(&options, true)
        });
        let main_v6 = main.v6.expect("run_main was asked for IPv6");
        let targets = [quic_reachable(&main.v4), quic_reachable(&main_v6)];
        ensure(!targets[0].is_empty(), || {
            "the main run reached no host via QUIC".to_string()
        })?;
        Ok(CloudFleet {
            universe,
            options,
            main_v4: main.v4,
            main_v6,
            targets,
            digest: None,
        })
    }

    fn units(&self) -> u64 {
        let per_vantage = self.targets[0].len() + self.targets[1].len();
        (VantagePoint::cloud_fleet().len() * per_vantage) as u64
    }

    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        if tracer.enabled() {
            return Ok(self.run_cloud_by_vantage(tracer));
        }
        let campaign = Campaign::new(&self.universe);
        Ok(campaign.run_cloud(&self.main_v4, Some(&self.main_v6), &self.options))
    }

    fn check(&mut self, output: Self::Output) -> Result<(), String> {
        ensure(output.len() == 16, || {
            format!("{} vantage points, expected 16", output.len())
        })?;
        let mut fnv = Fnv::new();
        for (vantage, v4, v6) in &output {
            let measured = [v4.hosts.len(), v6.as_ref().map_or(0, |s| s.hosts.len())];
            ensure(
                measured == [self.targets[0].len(), self.targets[1].len()],
                || format!("{}: {measured:?} hosts measured", vantage.name),
            )?;
            fnv.debug(&(&vantage.name, &v4.hosts, v6.as_ref().map(|s| &s.hosts)));
        }
        stable(&mut self.digest, fnv.0)
    }

    fn output_digest(&self) -> Option<u64> {
        self.digest
    }
}

// ---------------------------------------------------------------------------
// census-stream
// ---------------------------------------------------------------------------

/// The whole pipeline at 1:250: scan into a store with every core, open it,
/// join it, build and render Tables 1–4, 6 and 7 from disk.
pub struct CensusStream {
    universe: Universe,
    options: CampaignOptions,
    population: u64,
    dir: StoreDir,
    /// The same tables from an in-memory snapshot.
    expected: Option<String>,
}

impl Workload for CensusStream {
    const NAME: &'static str = "census-stream";
    const UNIT: &'static str = "hosts";
    type Output = (Option<u64>, String);

    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String> {
        let universe = params.universe(PIPELINE_SCALE, tracer);
        let population = universe.scan_population(false).len() as u64;
        Ok(CensusStream {
            universe,
            options: params.options(params.nproc),
            population,
            dir: StoreDir::new(params, Self::NAME)?,
            expected: None,
        })
    }

    fn units(&self) -> u64 {
        self.population
    }

    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        let campaign = Campaign::new(&self.universe);
        let main = VantagePoint::main();
        tracer
            .span("core.scan_to_store.v4", |_| {
                campaign.run_snapshot_to_store(&main, &self.options, false, &self.dir.0)
            })
            .map_err(|e| e.to_string())?;
        let stored = tracer
            .span("store.open", |_| StoredSnapshot::open(&self.dir.0))
            .map_err(|e| e.to_string())?;
        let rendered = render_tables(&self.universe, &stored, tracer);
        Ok((stored.recorded_host_count(), rendered))
    }

    fn check(&mut self, (recorded, rendered): Self::Output) -> Result<(), String> {
        self.dir.clear()?;
        ensure(recorded == Some(self.population), || {
            format!(
                "store records {recorded:?} hosts, population {}",
                self.population
            )
        })?;
        let universe = &self.universe;
        let options = &self.options;
        let expected = self.expected.get_or_insert_with(|| {
            let in_memory =
                Campaign::new(universe).run_snapshot(&VantagePoint::main(), options, false);
            render_tables(universe, &in_memory, &mut Tracer::new(false))
        });
        ensure(rendered == *expected, || {
            "tables rendered from the store differ from the in-memory tables".to_string()
        })
    }

    fn output_digest(&self) -> Option<u64> {
        self.expected.as_ref().map(|tables| {
            let mut fnv = Fnv::new();
            fnv.bytes(tables.as_bytes());
            fnv.0
        })
    }
}

// ---------------------------------------------------------------------------
// store-write
// ---------------------------------------------------------------------------

/// Pre-scanned 1:250 measurements written into a fresh store directory.
pub struct StoreWrite {
    meta: SnapshotMeta,
    hosts: Vec<HostMeasurement>,
    /// The copy the next pass consumes, made outside the timed region.
    next_input: Vec<HostMeasurement>,
    dir: StoreDir,
    digest: Option<u64>,
}

impl Workload for StoreWrite {
    const NAME: &'static str = "store-write";
    const UNIT: &'static str = "host records";
    type Output = WriterStats;

    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String> {
        let universe = params.universe(PIPELINE_SCALE, tracer);
        let (options, hosts) = tracer.span("core.scan.v4", |_| prescan(params, &universe));
        Ok(StoreWrite {
            meta: SnapshotMeta::for_campaign(&options, &VantagePoint::main(), false),
            next_input: hosts.clone(),
            hosts,
            dir: StoreDir::new(params, Self::NAME)?,
            digest: None,
        })
    }

    fn units(&self) -> u64 {
        self.hosts.len() as u64
    }

    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        let input = std::mem::take(&mut self.next_input);
        let (_, stats) =
            tracer.span("store.write", |_| write_store(&self.dir, &self.meta, input))?;
        Ok(stats)
    }

    fn check(&mut self, stats: Self::Output) -> Result<(), String> {
        ensure(stats.records_written == self.units(), || {
            format!(
                "{} records written of {}",
                stats.records_written,
                self.units()
            )
        })?;
        let reopened = StoredSnapshot::open(&self.dir.0).map_err(|e| e.to_string())?;
        if self.digest.is_none() {
            let decoded = reopened.to_snapshot().map_err(|e| e.to_string())?;
            ensure(decoded.hosts.values().eq(self.hosts.iter()), || {
                "the written store does not decode to its input".to_string()
            })?;
        }
        let mut fnv = Fnv::new();
        for segment in list_segments(&self.dir.0).map_err(|e| e.to_string())? {
            fnv.bytes(&fs::read(&segment).map_err(|e| e.to_string())?);
        }
        self.dir.clear()?;
        self.next_input = self.hosts.clone();
        stable(&mut self.digest, fnv.0)
    }

    fn output_digest(&self) -> Option<u64> {
        self.digest
    }
}

// ---------------------------------------------------------------------------
// store-read
// ---------------------------------------------------------------------------

/// A store written in set-up, opened, iterated and materialised.
pub struct StoreRead {
    hosts: Vec<HostMeasurement>,
    dir: StoreDir,
    digest: Option<u64>,
}

/// A cheap per-host fold, so iterating the store has a result to check.
fn fold_host(acc: u64, m: &HostMeasurement) -> u64 {
    let use_ = m.mirror_use();
    let bits = u64::from(m.quic_reachable)
        | u64::from(use_.mirroring) << 1
        | u64::from(use_.uses_ecn) << 2
        | u64::from(m.tcp.as_ref().is_some_and(|t| t.negotiated)) << 3
        | u64::from(m.trace.as_ref().is_some_and(|t| t.is_impaired())) << 4;
    (acc ^ (m.host_id as u64) << 5 ^ bits).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Workload for StoreRead {
    const NAME: &'static str = "store-read";
    const UNIT: &'static str = "host records";
    type Output = (usize, u64, SnapshotMeasurement);

    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String> {
        let universe = params.universe(PIPELINE_SCALE, tracer);
        let (options, hosts) = tracer.span("core.scan.v4", |_| prescan(params, &universe));
        let meta = SnapshotMeta::for_campaign(&options, &VantagePoint::main(), false);
        let dir = StoreDir::new(params, Self::NAME)?;
        tracer.span("store.write", |_| write_store(&dir, &meta, hosts.clone()))?;
        Ok(StoreRead {
            hosts,
            dir,
            digest: None,
        })
    }

    fn units(&self) -> u64 {
        self.hosts.len() as u64
    }

    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        let stored = tracer
            .span("store.open", |_| StoredSnapshot::open(&self.dir.0))
            .map_err(|e| e.to_string())?;
        let (ids, fold) = tracer.span("store.iter", |_| {
            let ids = stored.host_ids().map_err(|e| e.to_string())?;
            let mut fold = 0u64;
            stored.for_each_host(&mut |m| fold = fold_host(fold, m));
            Ok::<_, String>((ids.len(), fold))
        })?;
        let snapshot = tracer
            .span("store.to_snapshot", |_| stored.to_snapshot())
            .map_err(|e| e.to_string())?;
        Ok((ids, fold, snapshot))
    }

    fn check(&mut self, (ids, fold, snapshot): Self::Output) -> Result<(), String> {
        ensure(ids == self.hosts.len(), || {
            format!("{ids} host ids read of {}", self.hosts.len())
        })?;
        if self.digest.is_none() {
            ensure(snapshot.hosts.values().eq(self.hosts.iter()), || {
                "the store does not decode to the measurements written".to_string()
            })?;
        }
        ensure(snapshot.hosts.len() == ids, || {
            format!("{} hosts materialised of {ids}", snapshot.hosts.len())
        })?;
        stable(&mut self.digest, fold)
    }

    fn output_digest(&self) -> Option<u64> {
        self.digest
    }
}

// ---------------------------------------------------------------------------
// netbench-mix
// ---------------------------------------------------------------------------

/// Three application scenarios, each under all three ECN variants, on the
/// timer wheel.
pub struct NetbenchMix {
    /// Each scenario with the span names of its three runs.
    scenarios: Vec<(Scenario, [String; 3])>,
    events: Option<u64>,
    digest: Option<u64>,
}

/// `engine.events_processed` of one run.
pub fn events_processed(report: &WorkloadReport) -> u64 {
    report
        .metrics
        .counter("engine.events_processed")
        .unwrap_or(0)
}

impl Workload for NetbenchMix {
    const NAME: &'static str = "netbench-mix";
    const UNIT: &'static str = "engine events";
    type Output = Vec<WorkloadComparison>;

    fn setup(params: &Params, tracer: &mut Tracer) -> Result<Self, String> {
        let scenarios = [
            Scenario::netbench_default(params.seed),
            Scenario::lossy_bottleneck(params.seed),
            Scenario::flapping_link(params.seed),
        ]
        .into_iter()
        .map(|scenario| {
            let spans =
                EcnVariant::ALL.map(|v| format!("workload.run.{}.{}", scenario.name, v.label()));
            (scenario, spans)
        })
        .collect();
        let mut workload = NetbenchMix {
            scenarios,
            events: None,
            digest: None,
        };
        // The scenarios are a few struct literals: making the inputs costs
        // microseconds, which would make `setup_s` pure noise.  Set-up
        // therefore includes one complete run of them, the run a user waits
        // for before the first result.
        let first = workload.run(tracer)?;
        workload.check(first)?;
        Ok(workload)
    }

    fn units(&self) -> u64 {
        self.events.unwrap_or(0)
    }

    fn run(&mut self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        Ok(self
            .scenarios
            .iter()
            .map(|(scenario, spans)| WorkloadComparison {
                scenario: scenario.name.clone(),
                seed: scenario.seed,
                reports: EcnVariant::ALL
                    .iter()
                    .zip(spans)
                    .map(|(&variant, span)| tracer.span(span, |_| scenario.run(variant)))
                    .collect(),
            })
            .collect())
    }

    fn check(&mut self, output: Self::Output) -> Result<(), String> {
        let mut fnv = Fnv::new();
        let mut events = 0u64;
        for comparison in &output {
            for report in &comparison.reports {
                events += events_processed(report);
                let unfinished = report
                    .fct_samples()
                    .iter()
                    .filter(|&&t| t == u64::MAX)
                    .count();
                ensure(unfinished == 0, || {
                    format!(
                        "{} / {}: {unfinished} bulk connections did not complete",
                        comparison.scenario,
                        report.variant.label()
                    )
                })?;
            }
            write!(fnv, "{comparison}").expect("hashing cannot fail");
        }
        ensure(self.events.is_none_or(|first| first == events), || {
            format!(
                "{events} engine events, the first pass had {:?}",
                self.events
            )
        })?;
        self.events = Some(events);
        stable(&mut self.digest, fnv.0)
    }

    fn output_digest(&self) -> Option<u64> {
        self.digest
    }
}
