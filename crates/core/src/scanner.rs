//! The zgrab2-style scanner: probes hosts with QUIC (HTTP/3) and TCP
//! (HTTP/2 / HTTP/1.1), records ECN observations and, for abnormal hosts,
//! follows up with a tracebox measurement.
//!
//! The scanner is the observer: what a probe meets at a host — the servers
//! after the vantage point's quirks, and the route to them — is the
//! simulated world's, decided by `VantagePoint::encounter`, and the
//! scanner reads only what comes back from the probes it runs against
//! that.
//!
//! Hosts are scanned in parallel by the sharded batch executor
//! ([`crate::executor::ShardedExecutor`]).  Each host gets its own
//! deterministic RNG derived from the scan seed and the host id, so a scan
//! produces identical results regardless of worker count or scheduling.
//! Each executor worker owns one `ScanWorker` for the scan: an
//! [`EngineScratch`] lent to both probes of every host it measures (one
//! timer wheel, flow table and packet body per worker, not per probe), a
//! [`QuicScratch`] lent to its QUIC probes (the endpoints' packet spaces,
//! outboxes and stream buffers) and the [`ClientConfig`] they read, each
//! host's SNI written into it in place; the `ScanTally` those hosts are
//! counted in — each probe's
//! engine tally by slot — which the worker folds into the scanner's once,
//! when it ends ([`Scanner::metrics_snapshot`] gives the counts their
//! names); its last route: the [`DuplexPath`] to the previous host and the
//! `RouteKey` it was built from; and two memos, each the last run of one
//! protocol that drew nothing from its host's RNG, with the route key and
//! the server behaviour it ran against.  Hosts in id order share a route
//! far more often than not, so a host whose key matches borrows that path,
//! and only a new key builds one.  A host whose key and TCP behaviour match
//! the TCP memo copies its [`TcpReport`] instead of running the exchange; a
//! QUIC attempt whose key and QUIC behaviour match the QUIC memo copies its
//! outcome and merges its engine tally instead of running the engine.
//! The probe mode, cross traffic and fault plan are the scanner's, and
//! neither exchange depends on the server address within a family, nor the
//! QUIC one on the SNI, so a run that drew nothing depends on route key and
//! behaviour alone.
//!
//! "Drew nothing" counts what every run draws whatever the path: a TCP
//! exchange is kept at no draws, a QUIC run at its endpoints' connection-ID
//! seeds ([`ConnectionRun::SEED_DRAWS`]), whose values nothing observed
//! depends on.  A replayed QUIC run takes those seeds from the host's RNG
//! all the same, so the trace-sampling and backoff draws that follow are
//! drawn where they were.  Each run draws through an adapter that counts
//! its draws, so a run that drew more (over a lossy hop, behind cross
//! traffic, through a fault that draws) is never kept, and no list of
//! those conditions has to be kept in step; nor is a QUIC run that
//! returned telemetry: it was observed, and a replay is not.  The oracle
//! is `tests::reused_scratches_measure_what_a_fresh_scratch_per_host_does`:
//! a fresh worker per host, which never replays a run, against one worker
//! reused in orders that change route at nearly every host, and against
//! executor workers in id order over a population where most QUIC attempts
//! replay.

use crate::executor::ShardedExecutor;
use crate::metrics::{Row, ScanTally};
use crate::observation::{EcnClass, HostMeasurement};
use crate::resilience::{classify_probe, RetryPolicy};
use crate::vantage::{Encounter, RouteKey, VantagePoint};
use qem_netsim::{CrossTraffic, DuplexPath, EngineScratch, FaultPlan, Probability};
use qem_obs::MetricsSnapshot;
use qem_quic::{
    ClientConfig, ConnectionRun, DriverConfig, QuicScratch, RunOutcome, ServerBehavior,
};
use qem_tcp::{TcpClientConfig, TcpConnectionRun, TcpReport, TcpServerBehavior};
use qem_tracebox::{analyze_trace, trace_path, TraceConfig};
use qem_web::{SnapshotDate, Universe};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::fmt::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Mutex;

/// What the probes carry on the forward path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// The standard methodology: ECT(0) plus ECN validation (§4.1).
    Ect0,
    /// The §6.3 comparison run: replace ECT(0) with CE on both QUIC and TCP.
    ForceCe,
}

/// Scanner options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanOptions {
    /// Snapshot date (selects the stack behaviour of every host).
    pub date: SnapshotDate,
    /// Probe IPv6 instead of IPv4.
    pub ipv6: bool,
    /// Probe codepoint / mode.
    pub probe: ProbeMode,
    /// Probability that an abnormal host is traced (the paper samples 20 %).
    pub trace_sample_probability: Probability,
    /// Worker threads; `0` means one worker per available core.
    pub workers: usize,
    /// Seed for all per-host randomness.
    pub seed: u64,
    /// Opt-in shared-bottleneck scenario: background flows through each
    /// measured host's bottleneck router.  [`CrossTraffic::none()`] (the
    /// default everywhere) keeps the scan bit-identical to the single-flow
    /// methodology.
    pub cross_traffic: CrossTraffic,
    /// QUIC probe retry policy.  [`RetryPolicy::none()`] (the default)
    /// keeps the scan bit-identical to the single-attempt methodology.
    pub retry: RetryPolicy,
}

impl ScanOptions {
    /// The paper's main-vantage-point configuration for a given date.
    ///
    /// `workers == 0` fans the scan out across every available core; the
    /// per-host RNG derivation keeps the results identical to a
    /// single-threaded run.
    pub fn paper_default(date: SnapshotDate) -> Self {
        ScanOptions {
            date,
            ipv6: false,
            probe: ProbeMode::Ect0,
            trace_sample_probability: Probability::new(0.2),
            workers: 0,
            seed: 0x5eed,
            cross_traffic: CrossTraffic::none(),
            retry: RetryPolicy::none(),
        }
    }
}

/// What one executor worker owns for the length of a scan.
struct ScanWorker<'s> {
    scratch: EngineScratch,
    quic: QuicScratch,
    /// The QUIC probes' configuration, each host's SNI written into it.
    client: ClientConfig,
    tally: ScanTally,
    /// The route to the last host measured.
    route: Option<Route>,
    /// The last TCP exchange that drew nothing from its host's RNG.
    last_tcp: Option<Kept<TcpServerBehavior, TcpReport>>,
    /// The last QUIC run that drew nothing from its host's RNG but its
    /// endpoint seeds, and returned no telemetry.
    last_quic: Option<Kept<ServerBehavior, RunOutcome>>,
    scanner: &'s Scanner<'s>,
}

/// A worker's last route: the path and what it was built from.
struct Route {
    key: RouteKey,
    path: DuplexPath,
}

/// The last draw-free run against a server behaving as `B`, with what it
/// ran over: what a run over an equal route against an equal behaviour
/// returns, whatever host it measures.
struct Kept<B, R> {
    key: RouteKey,
    behavior: B,
    run: R,
}

impl<B: Clone + PartialEq, R: Clone> Kept<B, R> {
    /// The kept run, if it ran over `key` against `behavior`.
    fn replay<'k>(kept: &'k Option<Self>, key: RouteKey, behavior: &B) -> Option<&'k R> {
        kept.as_ref()
            .filter(|kept| kept.key == key && kept.behavior == *behavior)
            .map(|kept| &kept.run)
    }

    /// Keep `run` in `kept`, over what it held: the run's strings reuse
    /// the kept run's.
    fn keep(kept: &mut Option<Self>, key: RouteKey, behavior: &B, run: &R) {
        match kept {
            Some(kept) => {
                kept.key = key;
                kept.behavior.clone_from(behavior);
                kept.run.clone_from(run);
            }
            None => {
                *kept = Some(Kept {
                    key,
                    behavior: behavior.clone(),
                    run: run.clone(),
                })
            }
        }
    }
}

/// The host's RNG, counting what is drawn from it.  `StdRng` draws
/// everything through `next_u64`, as `RngCore`'s other methods do.
struct Drawn<'r> {
    rng: &'r mut StdRng,
    draws: usize,
}

impl<'r> Drawn<'r> {
    fn new(rng: &'r mut StdRng) -> Self {
        Drawn { rng, draws: 0 }
    }
}

impl RngCore for Drawn<'_> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

impl Drop for ScanWorker<'_> {
    /// The worker ends: hand its counts in.
    fn drop(&mut self) {
        self.scanner.lock_tally().merge_from(&self.tally);
    }
}

/// The scanner.
pub struct Scanner<'a> {
    universe: &'a Universe,
    vantage: VantagePoint,
    options: ScanOptions,
    /// The tally of every host scanned so far: each worker counts into a
    /// tally of its own and merges it in here once, when it ends.
    tally: Mutex<ScanTally>,
    /// Impairments injected on every forward path.  Always empty in
    /// production: a test seam, set by this file's tests to scan under
    /// every `FaultKind`.  Not part of [`ScanOptions`] because a plan is a
    /// schedule, not part of a snapshot's identity.
    fault_plan: FaultPlan,
}

impl<'a> Scanner<'a> {
    /// Create a scanner for one vantage point.
    pub fn new(universe: &'a Universe, vantage: VantagePoint, options: ScanOptions) -> Self {
        Scanner {
            universe,
            vantage,
            options,
            tally: Mutex::default(),
            fault_plan: FaultPlan::default(),
        }
    }

    /// The deterministic metrics of everything scanned so far: probe
    /// outcome counters, per-class counts and the aggregated engine/queue
    /// metrics of the QUIC connections — a TCP run returns only its report,
    /// so the `engine.*` keys count QUIC runs only.  Bit-identical across
    /// worker counts.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.lock_tally().snapshot()
    }

    fn lock_tally(&self) -> std::sync::MutexGuard<'_, ScanTally> {
        // Poisoning only means a worker panicked while merging; every step
        // of a merge leaves the tally structurally valid.
        self.tally.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The state of one scan worker, merged into this scanner when dropped.
    fn worker(&self) -> ScanWorker<'_> {
        ScanWorker {
            scratch: EngineScratch::default(),
            quic: QuicScratch::default(),
            client: match self.options.probe {
                ProbeMode::Ect0 => ClientConfig::paper_default(""),
                ProbeMode::ForceCe => ClientConfig::force_ce(""),
            },
            tally: ScanTally::default(),
            route: None,
            last_tcp: None,
            last_quic: None,
            scanner: self,
        }
    }

    /// Scan every host that has an address in the requested family.
    pub fn scan_all(&self) -> Vec<HostMeasurement> {
        self.scan_hosts(&self.universe.scan_population(self.options.ipv6))
    }

    /// Scan a specific set of hosts in parallel.
    ///
    /// Results are sorted by host id (duplicates probed once, as a real
    /// scanner would) and — because every per-host RNG is a pure function of
    /// `seed × host id` — bit-identical for any worker count.
    pub fn scan_hosts(&self, host_ids: &[usize]) -> Vec<HostMeasurement> {
        let mut out = Vec::with_capacity(host_ids.len());
        self.scan_hosts_streaming(host_ids, |m| out.push(m));
        out
    }

    /// Scan a specific set of hosts in parallel, handing each measurement to
    /// `sink` in ascending host-id order **as soon as it is available** —
    /// the whole result set is never materialised in memory.
    ///
    /// This is the entry point store-backed campaigns use: the sink is a
    /// segment writer that spills measurements to disk while the scan is
    /// still running.  Because every per-host RNG is a pure function of
    /// `seed × host id`, the delivered sequence is bit-identical to
    /// [`Scanner::scan_hosts`] for any worker count.
    pub fn scan_hosts_streaming<S: FnMut(HostMeasurement)>(&self, host_ids: &[usize], sink: S) {
        // Input order is delivery order; sort (and dedup) up front so the
        // stream arrives in host-id order, matching `scan_hosts`.  Callers
        // mostly pass ids already in that order, which need no copy.
        let ids = if host_ids.windows(2).all(|w| w[0] < w[1]) {
            Cow::Borrowed(host_ids)
        } else {
            let mut ids = host_ids.to_vec();
            ids.sort_unstable();
            ids.dedup();
            Cow::Owned(ids)
        };
        ShardedExecutor::new(self.options.workers).run_streaming(
            &ids,
            || self.worker(),
            |worker, &id| self.measure_host(id, worker),
            sink,
        );
    }

    /// Measure one host: QUIC, TCP and (sampled) tracebox.  Both probes run
    /// their engine over the worker's scratches and the worker's route, and
    /// are counted in its tally; the measurement does not depend on what the
    /// worker measured before.
    fn measure_host(&self, host_id: usize, worker: &mut ScanWorker<'_>) -> HostMeasurement {
        let ScanWorker {
            scratch,
            quic,
            client,
            tally,
            route,
            last_tcp,
            last_quic,
            ..
        } = worker;
        let host = &self.universe.hosts[host_id];
        let mut rng = StdRng::seed_from_u64(
            self.options
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(host_id as u64),
        );
        tally.inc(Row::Hosts);
        let v6 = self.options.ipv6;
        let Some(Encounter {
            addr: server_addr,
            quic: behavior,
            tcp: tcp_behavior,
            route: key,
        }) = self
            .vantage
            .encounter(host, self.options.date, v6, &mut rng)
        else {
            tally.inc(Row::NoAddress);
            return HostMeasurement {
                host_id,
                quic_reachable: false,
                quic: None,
                tcp: None,
                trace: None,
            };
        };
        let client_addr = self.client_addr(v6);
        let path = &self.route_to(key, route).path;

        // ---- QUIC ---------------------------------------------------------
        if behavior.is_none() {
            tally.inc(Row::QuicNoStack);
        }
        let quic_report = behavior.map(|behavior| {
            client.sni.clear();
            // Writing to a `String` cannot fail.
            let _ = write!(client.sni, "www.host-{host_id}.example");
            tally.inc(Row::QuicAttempted);
            let policy = self.options.retry;
            let max_attempts = policy.attempts.max(1);
            // Queue and fault metrics are named per router and per fault:
            // only a loaded or faulted run is counted by name.
            let named = self.options.cross_traffic.is_enabled() || !self.fault_plan.is_empty();
            let mut attempt = 1u32;
            loop {
                let run = match Kept::replay(last_quic, key, &behavior) {
                    Some(kept) => {
                        // The seeds the run would draw, so that what the
                        // host draws next is drawn where it was.
                        for _ in 0..ConnectionRun::SEED_DRAWS {
                            rng.next_u64();
                        }
                        // A replay is not an observed run: it has no
                        // telemetry.
                        RunOutcome {
                            connection: kept.connection.clone(),
                            engine: kept.engine,
                            telemetry: None,
                        }
                    }
                    None => {
                        let driver = DriverConfig::new(client_addr, server_addr);
                        let mut drawn = Drawn::new(&mut rng);
                        // A disabled scenario is the plain single-flow run
                        // inside the builder.
                        let run = ConnectionRun::lent(client, behavior.clone(), path, driver)
                            .cross_traffic(self.options.cross_traffic)
                            .telemetry(named)
                            .scratch(scratch, quic)
                            .execute(&mut drawn);
                        // A run that drew beyond its seeds depends on the
                        // host's RNG, and one with telemetry was observed:
                        // replay neither.
                        if drawn.draws == ConnectionRun::SEED_DRAWS && run.telemetry.is_none() {
                            Kept::keep(last_quic, key, &behavior, &run);
                        }
                        run
                    }
                };
                let outcome = run.connection;
                tally.quic_elapsed_us.record(outcome.elapsed.as_micros());
                tally.add(Row::QuicForwardLosses, outcome.forward_losses);
                tally.add(Row::QuicReverseLosses, outcome.reverse_losses);
                match &run.telemetry {
                    Some(telemetry) => tally.named.merge_from(&telemetry.metrics),
                    None => tally.engine.merge_from(&run.engine),
                }
                match classify_probe(&outcome) {
                    Ok(()) => {
                        if attempt > 1 {
                            tally.inc(Row::QuicRecovered);
                        }
                        break outcome.report;
                    }
                    Err(error) if attempt < max_attempts => {
                        tally.inc(error.into());
                        let backoff = policy.backoff_before(attempt + 1, &mut rng);
                        tally.quic_backoff_us.record(backoff.as_micros());
                        tally.inc(Row::QuicRetries);
                        attempt += 1;
                    }
                    Err(error) => {
                        // The final verdict: the concrete error, plus the
                        // exhausted row when retries were actually burned.
                        tally.inc(error.into());
                        if attempt > 1 {
                            tally.inc(Row::ErrorExhausted);
                        }
                        break outcome.report;
                    }
                }
            }
        });
        if quic_report.as_ref().is_some_and(|r| r.connected) {
            tally.inc(Row::QuicConnected);
        }
        let quic_reachable = quic_report
            .as_ref()
            .map(|r| r.connected && r.response.is_some())
            .unwrap_or(false);
        if quic_reachable {
            tally.inc(Row::QuicReachable);
        }

        // ---- TCP ----------------------------------------------------------
        let tcp_config = match self.options.probe {
            ProbeMode::Ect0 => TcpClientConfig::ect0(),
            ProbeMode::ForceCe => TcpClientConfig::force_ce(),
        };
        let tcp_report = Some(match Kept::replay(last_tcp, key, &tcp_behavior) {
            Some(&report) => report,
            None => {
                let mut drawn = Drawn::new(&mut rng);
                let report =
                    TcpConnectionRun::new(tcp_config, tcp_behavior, client_addr, server_addr, path)
                        .cross_traffic(self.options.cross_traffic)
                        .scratch(scratch)
                        .execute(&mut drawn);
                // A run that drew depends on the host's RNG: never reuse it.
                if drawn.draws == 0 {
                    Kept::keep(last_tcp, key, &tcp_behavior, &report);
                }
                report
            }
        });
        tally.inc(Row::TcpProbed);
        if tcp_report.as_ref().is_some_and(|r| r.connected) {
            tally.inc(Row::TcpConnected);
        }

        // ---- Tracebox (sampled, only on abnormal behaviour) ----------------
        let class = quic_report.as_ref().and_then(EcnClass::classify);
        if let Some(class) = class {
            tally.inc(class.into());
        }
        let abnormal = match class {
            Some(EcnClass::Capable) | None => false,
            Some(_) => true,
        };
        // Per-domain sampling, at most one trace per IP: an IP serving `n`
        // domains is traced with probability 1 - (1-p)^n, so heavy-hitter IPs
        // are almost always covered — exactly the property §6.1 relies on.
        // An abnormal host takes the one draw whatever the probability.
        let per_domain_p = self.options.trace_sample_probability.get();
        let weight = (host.cno_domains + host.toplist_domains).max(1);
        let host_trace_p =
            Probability::new(1.0 - (1.0 - per_domain_p).powi(weight.min(1_000) as i32));
        let trace = if abnormal && host_trace_p.draw(&mut rng) {
            let trace = trace_path(
                &path.forward,
                client_addr,
                server_addr,
                &TraceConfig::default(),
                &mut rng,
            );
            let as_org = &self.universe.as_org;
            let analysis = analyze_trace(&trace, &|ip| as_org.asn_of_ip(ip));
            tally.inc(Row::Traced);
            if analysis.is_impaired() {
                tally.inc(Row::TraceImpaired);
            }
            Some(analysis)
        } else {
            None
        };

        HostMeasurement {
            host_id,
            quic_reachable,
            quic: quic_report,
            tcp: tcp_report,
            trace,
        }
    }

    fn client_addr(&self, v6: bool) -> IpAddr {
        if v6 {
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, 0x10))
        } else {
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
        }
    }

    /// The route for `key`: `route` if it was built for the same key, else
    /// built into `route`, with the scanner's fault plan on its forward
    /// direction.  The vantage AS and the fault plan are the scanner's, and
    /// a worker has one scanner.
    fn route_to<'r>(&self, key: RouteKey, route: &'r mut Option<Route>) -> &'r mut Route {
        if route.as_ref().is_some_and(|last| last.key != key) {
            *route = None;
        }
        route.get_or_insert_with(|| {
            let mut path = key.path(self.vantage.asn);
            if !self.fault_plan.is_empty() {
                path.forward = path.forward.with_fault(self.fault_plan.clone());
            }
            Route { key, path }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::RETRYING;
    use crate::vantage::VantageQuirks;
    use qem_netsim::{FaultKind, SimDuration, TransitProfile};
    use qem_obs::MetricValue;
    use qem_web::UniverseConfig;
    use std::collections::BTreeMap;

    fn universe() -> Universe {
        Universe::generate(&UniverseConfig::tiny())
    }

    #[test]
    fn scan_is_deterministic_across_worker_counts() {
        let universe = universe();
        let quic_hosts: Vec<usize> = universe
            .hosts
            .iter()
            .filter(|h| h.stack.is_some())
            .map(|h| h.id)
            .take(40)
            .collect();
        let options = ScanOptions::paper_default(SnapshotDate::APR_2023);
        let single = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                workers: 1,
                ..options
            },
        )
        .scan_hosts(&quic_hosts);
        for workers in [4, 8] {
            let parallel = Scanner::new(
                &universe,
                VantagePoint::main(),
                ScanOptions { workers, ..options },
            )
            .scan_hosts(&quic_hosts);
            assert_eq!(single, parallel, "workers={workers}");
        }
        // Unsorted input with repeats measures each host once, in order.
        let mut shuffled: Vec<usize> = quic_hosts.iter().rev().copied().collect();
        shuffled.extend_from_slice(&quic_hosts[..5]);
        let scanner = Scanner::new(&universe, VantagePoint::main(), options);
        assert_eq!(scanner.scan_hosts(&shuffled), single);
    }

    #[test]
    fn scan_metrics_match_across_worker_counts() {
        let universe = universe();
        let host_ids: Vec<usize> = universe.hosts.iter().map(|h| h.id).take(16).collect();
        let options = ScanOptions::paper_default(SnapshotDate::APR_2023);
        let run = |workers: usize| {
            let scanner = Scanner::new(
                &universe,
                VantagePoint::main(),
                ScanOptions { workers, ..options },
            );
            scanner.scan_hosts(&host_ids);
            scanner.metrics_snapshot()
        };
        let single = run(1);
        let quad = run(4);
        assert_eq!(single, quad);
        assert_eq!(single.to_json(), quad.to_json());
        assert_eq!(single.counter("scan.hosts"), Some(16));
        assert!(single.counter("engine.events_processed").unwrap() > 0);
    }

    #[test]
    fn scan_tally_does_not_depend_on_how_the_hosts_are_partitioned() {
        let universe = universe();
        let population = universe.scan_population(false);
        let loss = FaultPlan::new().always(FaultKind::Loss {
            rate: Probability::new(0.35),
        });
        for (fault_plan, retry) in [
            (FaultPlan::default(), RetryPolicy::none()),
            (loss, RETRYING),
        ] {
            let scanner = |workers: usize| Scanner {
                fault_plan: fault_plan.clone(),
                ..Scanner::new(
                    &universe,
                    VantagePoint::main(),
                    ScanOptions {
                        workers,
                        retry,
                        ..ScanOptions::paper_default(SnapshotDate::APR_2023)
                    },
                )
            };
            let whole = scanner(1);
            whole.scan_hosts(&population);
            let whole = whole.metrics_snapshot();
            assert_eq!(whole.counter("scan.hosts"), Some(population.len() as u64));

            // Three disjoint sub-scans: by three scanners whose snapshots
            // are merged, and by one scanner that accumulates.
            let mut merged = MetricsSnapshot::new();
            let accumulating = scanner(1);
            for part in population.chunks(population.len().div_ceil(3)) {
                let sub = scanner(1);
                sub.scan_hosts(part);
                merged.merge_from(&sub.metrics_snapshot());
                accumulating.scan_hosts(part);
            }
            assert_eq!(merged, whole);
            assert_eq!(accumulating.metrics_snapshot(), whole);

            for workers in [2, 0] {
                let parallel = scanner(workers);
                parallel.scan_hosts(&population);
                assert_eq!(parallel.metrics_snapshot(), whole, "workers={workers}");
            }

            let faulted = !fault_plan.is_empty();
            let errors: u64 = ["timeout", "blackhole", "corrupt_reply", "exhausted"]
                .iter()
                .map(|kind| whole.counter(&format!("scan.probe_error.{kind}")).unwrap())
                .sum();
            let Some(MetricValue::Histogram(backoffs)) = whole.metrics.get("scan.quic.backoff_us")
            else {
                panic!("scan.quic.backoff_us is a histogram");
            };
            assert_eq!(errors > 0, faulted);
            assert_eq!(backoffs.count > 0, faulted);
        }
    }

    #[test]
    fn retries_under_forward_loss_terminate_recover_hosts_and_stay_worker_invariant() {
        let universe = universe();
        let population = universe.scan_population(false);
        let run = |workers: usize, retry: RetryPolicy| {
            let scanner = Scanner {
                fault_plan: FaultPlan::new().always(FaultKind::Loss {
                    rate: Probability::new(0.35),
                }),
                ..Scanner::new(
                    &universe,
                    VantagePoint::main(),
                    ScanOptions {
                        workers,
                        retry,
                        ..ScanOptions::paper_default(SnapshotDate::APR_2023)
                    },
                )
            };
            (scanner.scan_all(), scanner.metrics_snapshot())
        };
        let (single, metrics) = run(1, RETRYING);
        let (every_core, every_core_metrics) = run(0, RETRYING);
        assert_eq!(single, every_core);
        assert_eq!(metrics, every_core_metrics);
        assert_eq!(single.len(), population.len());
        let counter = |name: &str| metrics.counter(name).unwrap_or(0);
        assert_eq!(counter("scan.hosts"), population.len() as u64);
        assert!(counter("scan.quic.retries") > 0);
        assert!(counter("scan.quic.recovered") > 0);
        assert!(counter("scan.probe_error.exhausted") > 0);
        // One backoff is recorded per retry, none per first attempt.
        let retries = counter("scan.quic.retries");
        assert!(matches!(
            metrics.metrics.get("scan.quic.backoff_us"),
            Some(MetricValue::Histogram(h)) if h.count == retries
        ));
        // A host's first attempt draws identically under both policies, so
        // retries can only add reachable hosts.
        let (_, single_attempt) = run(1, RetryPolicy::none());
        assert_eq!(single_attempt.counter("scan.quic.retries"), Some(0));
        assert_eq!(
            counter("scan.quic.reachable"),
            single_attempt.counter("scan.quic.reachable").unwrap() + counter("scan.quic.recovered")
        );
    }

    #[test]
    fn reused_scratches_measure_what_a_fresh_scratch_per_host_does() {
        let tiny = universe();
        // Round robin over the providers changes route at nearly every host.
        for ipv6 in [false, true] {
            let interleaved = round_robin(&tiny, &tiny.scan_population(ipv6));
            let asn_changes = interleaved
                .windows(2)
                .filter(|w| tiny.hosts[w[0]].asn != tiny.hosts[w[1]].asn)
                .count();
            assert!(asn_changes > interleaved.len() / 2, "{asn_changes}");
        }
        let ms = SimDuration::from_millis;
        let loss = Some((
            FaultKind::Loss {
                rate: Probability::new(0.35),
            },
            "fault.drops.loss",
        ));
        // A cloud vantage whose quirks re-mark or clean a host's transit by
        // a per-host draw: neighbours on one provider get different routes.
        let quirky = VantagePoint {
            quirks: VantageQuirks {
                extra_remark_probability: Probability::new(0.5),
                remark_suppression_probability: Probability::new(0.5),
                ..VantageQuirks::default()
            },
            ..VantagePoint::cloud_fleet()[0].clone()
        };
        let none = (CrossTraffic::none(), RetryPolicy::none());
        let congested = (CrossTraffic::congested(), RETRYING);
        let retrying = (CrossTraffic::none(), RETRYING);
        let main = VantagePoint::main;
        // Each fault row names the `fault.*` counter its kind must move.
        for (vantage, ipv6, scenario, fault) in [
            (main(), false, none, None),
            (main(), false, congested, loss.clone()),
            (main(), true, none, None),
            (quirky, false, congested, loss),
            // Every other fault kind, always on.
            // A flap that never comes up: a blackhole, seen as
            // `ProbeError::Blackhole` after every retry.
            (
                main(),
                false,
                retrying,
                Some((
                    FaultKind::Flap {
                        period: ms(40),
                        down: ms(40),
                    },
                    "fault.drops.flap",
                )),
            ),
            (
                main(),
                false,
                retrying,
                Some((
                    FaultKind::Flap {
                        period: ms(50),
                        down: ms(20),
                    },
                    "fault.drops.flap",
                )),
            ),
            (
                main(),
                false,
                retrying,
                Some((
                    FaultKind::Corrupt {
                        rate: Probability::new(0.2),
                    },
                    "fault.corrupted",
                )),
            ),
            (
                main(),
                false,
                retrying,
                Some((FaultKind::Jitter { max: ms(5) }, "fault.jittered")),
            ),
            (
                main(),
                false,
                retrying,
                Some((
                    FaultKind::Reorder {
                        rate: Probability::new(0.3),
                        extra: ms(5),
                    },
                    "fault.reordered",
                )),
            ),
        ] {
            check_reuse(
                &tiny,
                &tiny.scan_population(ipv6),
                vantage,
                ipv6,
                scenario,
                fault,
            );
        }

        // The QUIC hosts of a 1:1000 universe, where about two QUIC
        // attempts in three replay a run in id order — among them
        // low-weight abnormal hosts, whose trace-sampling draw shows whether
        // a replay took the run's seeds.  From AWS Mumbai a Google host's
        // QUIC behaviour changes by host id within one route.  Over routes
        // that draw nothing every attempt succeeds at once, so a retry
        // policy must change nothing.
        let census = Universe::generate(&UniverseConfig {
            scale: 0.001,
            ..UniverseConfig::tiny()
        });
        let mumbai = VantagePoint::cloud_fleet()
            .into_iter()
            .find(|vantage| vantage.quirks.google_ce_anomaly)
            .unwrap();
        for (vantage, ipv6, scenario) in [
            (mumbai, false, none),
            (main(), false, retrying),
            (main(), true, none),
        ] {
            let quic_hosts: Vec<usize> = census
                .scan_population(ipv6)
                .into_iter()
                .filter(|&id| census.hosts[id].stack.is_some())
                .collect();
            check_reuse(&census, &quic_hosts, vantage, ipv6, scenario, None);
        }
    }

    /// Scan `population` from `vantage` with a fresh worker per host, then
    /// with reused ones, and hold the two to each other.  A fault names
    /// the `fault.*` counter its kind must move.
    fn check_reuse(
        universe: &Universe,
        population: &[usize],
        vantage: VantagePoint,
        ipv6: bool,
        (cross_traffic, retry): (CrossTraffic, RetryPolicy),
        fault: Option<(FaultKind, &str)>,
    ) {
        let fault_plan = fault.clone().map_or_else(FaultPlan::default, |(kind, _)| {
            FaultPlan::new().always(kind)
        });
        let scanner = |workers: usize| Scanner {
            fault_plan: fault_plan.clone(),
            ..Scanner::new(
                universe,
                vantage.clone(),
                ScanOptions {
                    workers,
                    ipv6,
                    cross_traffic,
                    retry,
                    ..ScanOptions::paper_default(SnapshotDate::APR_2023)
                },
            )
        };
        let single = scanner(1);
        let fresh: Vec<HostMeasurement> = population
            .iter()
            .map(|&id| single.measure_host(id, &mut single.worker()))
            .collect();
        let fresh_metrics = single.metrics_snapshot();
        if let Some((kind, counter)) = &fault {
            let moved = fresh_metrics.counter(counter).unwrap_or(0);
            assert!(moved > 0, "{kind:?} left {counter} at zero");
        }

        // One worker for every host, in orders whose route changes far more
        // often than in id order: round robin over the providers, forwards
        // and backwards, and the population backwards…
        let interleaved = round_robin(universe, population);
        let reversed_interleaved: Vec<usize> = interleaved.iter().rev().copied().collect();
        let reversed: Vec<usize> = population.iter().rev().copied().collect();
        for order in [interleaved, reversed_interleaved, reversed] {
            let reused = scanner(1);
            let mut worker = reused.worker();
            let mut measured: Vec<HostMeasurement> = order
                .iter()
                .map(|&id| reused.measure_host(id, &mut worker))
                .collect();
            drop(worker);
            measured.sort_by_key(|m| m.host_id);
            assert_eq!(measured, fresh, "{} ipv6={ipv6}", vantage.name);
            assert_eq!(reused.metrics_snapshot(), fresh_metrics);
        }
        // …and one per executor worker, inline and threaded.
        for workers in [1, 2, 0] {
            let scanner = scanner(workers);
            assert_eq!(scanner.scan_hosts(population), fresh, "workers={workers}");
            assert_eq!(scanner.metrics_snapshot(), fresh_metrics);
        }
    }

    /// `population` round robin over its hosts' providers.
    fn round_robin(universe: &Universe, population: &[usize]) -> Vec<usize> {
        let mut by_provider: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &id in population {
            let provider = universe.hosts[id].provider;
            by_provider.entry(provider).or_default().push(id);
        }
        let longest = by_provider.values().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|round| by_provider.values().filter_map(move |ids| ids.get(round)))
            .copied()
            .collect()
    }

    #[test]
    fn a_nan_trace_probability_scans_as_zero_does() {
        let universe = universe();
        let census = |p: f64| {
            let scanner = Scanner::new(
                &universe,
                VantagePoint::main(),
                ScanOptions {
                    trace_sample_probability: Probability::new(p),
                    ..ScanOptions::paper_default(SnapshotDate::APR_2023)
                },
            );
            (scanner.scan_all(), scanner.metrics_snapshot())
        };
        // The population has abnormal hosts, so the trace draw is taken.
        assert!(census(1.0).1.counter("scan.traced").unwrap() > 0);
        let zero = census(0.0);
        assert_eq!(zero.1.counter("scan.traced"), Some(0));
        assert_eq!(census(f64::NAN), zero);
    }

    #[test]
    fn quic_hosts_answer_and_tcp_hosts_do_not_speak_quic() {
        let universe = universe();
        let scanner = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions::paper_default(SnapshotDate::APR_2023),
        );
        let quic_host = universe.hosts.iter().find(|h| h.stack.is_some()).unwrap();
        let tcp_host = universe.hosts.iter().find(|h| h.stack.is_none()).unwrap();
        let m = scanner.measure_host(quic_host.id, &mut scanner.worker());
        assert!(m.quic.is_some());
        assert!(m.tcp.as_ref().unwrap().connected);
        let m = scanner.measure_host(tcp_host.id, &mut scanner.worker());
        assert!(m.quic.is_none());
        assert!(!m.quic_reachable);
        assert!(m.tcp.as_ref().unwrap().connected);
    }

    #[test]
    fn abnormal_hosts_get_traced_when_sampling_is_certain() {
        let universe = universe();
        let scanner = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                trace_sample_probability: Probability::new(1.0),
                ..ScanOptions::paper_default(SnapshotDate::APR_2023)
            },
        );
        // A Cloudflare host never mirrors → always abnormal → always traced.
        let cf = universe
            .providers
            .iter()
            .position(|p| p.name == "Cloudflare")
            .unwrap();
        let host = universe
            .hosts
            .iter()
            .find(|h| h.provider == cf && h.stack.is_some())
            .unwrap();
        let m = scanner.measure_host(host.id, &mut scanner.worker());
        assert!(m.trace.is_some());
        assert!(!m.trace.unwrap().is_impaired());
    }

    #[test]
    fn capable_hosts_are_not_traced() {
        let universe = universe();
        let scanner = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                trace_sample_probability: Probability::new(1.0),
                ..ScanOptions::paper_default(SnapshotDate::APR_2023)
            },
        );
        let amazon = universe
            .providers
            .iter()
            .position(|p| p.name == "Amazon")
            .unwrap();
        let host = universe
            .hosts
            .iter()
            .find(|h| h.provider == amazon && h.segment == "cloudfront")
            .unwrap();
        let m = scanner.measure_host(host.id, &mut scanner.worker());
        assert_eq!(m.summary().class, Some(EcnClass::Capable));
        assert!(m.trace.is_none());
    }

    #[test]
    fn cleared_paths_yield_no_mirroring_and_a_cleared_trace() {
        let universe = universe();
        let scanner = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                trace_sample_probability: Probability::new(1.0),
                ..ScanOptions::paper_default(SnapshotDate::APR_2023)
            },
        );
        let host = universe
            .hosts
            .iter()
            .find(|h| matches!(h.transit_v4, TransitProfile::Clearing { .. }) && h.stack.is_some())
            .unwrap();
        let m = scanner.measure_host(host.id, &mut scanner.worker());
        assert_eq!(m.summary().class, Some(EcnClass::NoMirroring));
        let trace = m.trace.expect("abnormal host must be traced");
        assert!(trace.is_impaired());
    }

    #[test]
    fn ipv6_scan_only_covers_dual_stack_hosts() {
        let universe = universe();
        let scanner = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                ipv6: true,
                ..ScanOptions::paper_default(SnapshotDate::APR_2023)
            },
        );
        let results = scanner.scan_all();
        assert!(!results.is_empty());
        for m in &results {
            assert!(universe.hosts[m.host_id].ipv6.is_some());
        }
    }
}
