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
//! Each executor worker owns one `ScanWorker` for the scan: the
//! [`ClientConfig`] its QUIC probes read, the `ScanTally` it counts its
//! hosts in, folded into the scanner's once, when the worker ends
//! ([`Scanner::metrics_snapshot`] names the counts), and a kit, what it
//! reuses from host to host: an [`EngineScratch`] and a [`QuicScratch`]
//! lent to every probe, the path built last, the routes met and the runs
//! kept.
//!
//! **One rule keeps and replays the QUIC exchange, the TCP exchange and the
//! trace** (`replay_or_run`).  A run that drew from its host's RNG only its
//! seeds, and was not observed, is kept under what it depends on, and a
//! later host with that key replays it.  The seeds are what a run draws
//! whatever the path: a QUIC run its endpoints' connection-ID seeds
//! ([`ConnectionRun::SEED_DRAWS`]), whose values nothing observed depends
//! on; a TCP exchange and a trace none.  A replay takes the seeds from the
//! host's RNG all the same, so what the host draws next is drawn where it
//! was.  A fresh run draws through an adapter that counts its draws, so a
//! run that drew more (over a lossy hop, behind cross traffic, through a
//! fault that draws, past a router that answers only sometimes) is never
//! kept, and no list of those conditions is kept in step.  A QUIC run that
//! returned telemetry was observed, and is not kept either.  A replayed
//! trace is counted as an observed one: traced, and impaired if the kept
//! one was.  Debug builds run every replay fresh all the same, on a copy of
//! the host's RNG, and hold it to what the kit kept, to its seeds and to
//! where the replay left the RNG; they also hold each route's effect to its
//! path's, and the path kept to a fresh build.
//!
//! The keys.  A trace reads the routers that answer and their ASes, so it
//! is kept with its route, by vantage AS and `RouteKey`, beside what the
//! route's path does to a packet (its [`PathEffect`]).  The exchanges read
//! less: the QUIC and TCP flows drop the delay of what a path delivers and
//! send at TTL 64 over routes of fewer than 64 hops, so they read of the
//! path only the codepoint each packet arrives with, its effect (premise
//! tests in `qem-quic`'s `census_runs.rs` and `qem-tcp`'s `connection.rs`
//! group the routes of every vantage AS, in both families, by effect).
//! Neither depends on the server address, nor the QUIC one on the SNI
//! (written only for a fresh run), so an exchange is kept by path effect
//! and server behaviour.  A path is built only when its route is first met,
//! to read its effect, and when a fresh run goes over it.  A replay shares
//! what the kit keeps: a report's header values are `Arc<str>` and a
//! trace's changes an `Arc<[_]>`.  Each list of a kit is a `Memo`, which
//! grows by what the world holds, not by the scan (the main census's IPv4
//! scan meets 64 routes at 1:1000, 1:250 and 1:50 alike); a lookup looks
//! first at the entry found last.
//!
//! A [`crate::campaign::Campaign`] lends one pool of kits (`Kits`) per
//! probe mode, which no key names, to every scanner it builds: a worker
//! takes a kit when it starts and gives it back when it ends, so the IPv6
//! scan replays what the IPv4 scan ran, a date what the dates before it
//! ran, and a vantage point of the fleet what the ones before it met.  The
//! pool is locked only then: while a worker lives its kit is its own, so
//! which host of a key runs fresh follows the worker count, and what a host
//! measures does not.  A scanner with cross traffic or a fault plan, which
//! no key names either, takes no kit from its pool; a scanner lent no pool
//! gives each worker a fresh kit.
//!
//! The oracle is
//! `tests::reused_scratches_measure_what_a_fresh_scratch_per_host_does`: a
//! fresh worker per host, held to having replayed nothing, against one
//! worker reused in orders that change route at nearly every host, against
//! executor workers over a population where most QUIC attempts replay, and
//! against vantage points scanned in turn with one pool of kits.

use crate::executor::ShardedExecutor;
use crate::metrics::{Row, ScanTally};
use crate::observation::{EcnClass, HostMeasurement};
use crate::resilience::{classify_probe, RetryPolicy};
use crate::vantage::{Encounter, RouteKey, VantagePoint};
use qem_netsim::{
    Asn, CrossTraffic, DuplexPath, EngineScratch, FaultPlan, PathEffect, Probability,
};
use qem_obs::MetricsSnapshot;
use qem_quic::{
    ClientConfig, ConnectionRun, DriverConfig, QuicScratch, RunOutcome, ServerBehavior,
};
use qem_tcp::{TcpClientConfig, TcpConnectionRun, TcpReport, TcpServerBehavior};
use qem_tracebox::{analyze_trace, trace_path, TraceAnalysis, TraceConfig};
use qem_web::{SnapshotDate, Universe};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::fmt::{Debug, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::{Mutex, MutexGuard};

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
    /// What the worker reuses from host to host.  Only the worker's drop
    /// takes it, to hand it back to the pool it came from.
    kit: Option<Kit>,
    /// The QUIC probes' configuration, the SNI of each fresh run written
    /// into it.
    client: ClientConfig,
    tally: ScanTally,
    scanner: &'s Scanner<'s>,
}

/// A route from a vantage point: the AS it starts from and its key.
type Route = (Asn, RouteKey);

/// What a scan worker reuses from host to host and, lent through a
/// [`Kits`] pool, from scan to scan: its scratches, the path it built
/// last, the routes it has met and the runs it may replay.
#[derive(Default)]
pub(crate) struct Kit {
    scratch: EngineScratch,
    quic: QuicScratch,
    path: Option<(Route, DuplexPath)>,
    /// What each route's path does to a packet, and a kept trace over it.
    routes: Memo<Route, (PathEffect, Option<TraceAnalysis>)>,
    tcp_runs: Memo<(PathEffect, TcpServerBehavior), TcpReport>,
    quic_runs: Memo<(PathEffect, ServerBehavior), RunOutcome>,
}

/// The kits of the workers that have ended, lent by a campaign to each of
/// its scanners in turn ([`Scanner::with_kits`]).
pub(crate) type Kits = Mutex<Vec<Kit>>;

/// Values by key, in the order they were kept.
struct Memo<K, V> {
    entries: Vec<(K, V)>,
    /// The entry found or kept last, looked at first.
    last: usize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            entries: Vec::new(),
            last: 0,
        }
    }
}

impl<K, V> Memo<K, V> {
    /// The value of the key `is` accepts, if any.
    fn find(&mut self, is: impl Fn(&K) -> bool) -> Option<&mut V> {
        if !self.entries.get(self.last).is_some_and(|(key, _)| is(key)) {
            self.last = self.entries.iter().position(|(key, _)| is(key))?;
        }
        Some(&mut self.entries[self.last].1)
    }

    /// Keep `value` under `key`, which no entry holds.
    fn keep(&mut self, key: K, value: V) -> &mut V {
        self.last = self.entries.len();
        self.entries.push((key, value));
        &mut self.entries[self.last].1
    }
}

/// The host's RNG, counting what is drawn from it.  `StdRng` draws
/// everything through `next_u64`, as `RngCore`'s other methods do.
struct Drawn<'r> {
    rng: &'r mut StdRng,
    draws: usize,
}

impl RngCore for Drawn<'_> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// `kept` replayed, or else a `fresh` run, and whether the run may be kept:
/// it ran fresh, drew exactly `seeds` from the host's RNG and was not
/// `observed`.  A replay draws the seeds, so that what the host draws next
/// is drawn where it was.  Debug builds run a replay fresh all the same, on
/// a copy of the host's RNG, and hold the replay to it.
fn replay_or_run<R: Clone + PartialEq + Debug>(
    kept: Option<&R>,
    seeds: usize,
    rng: &mut StdRng,
    mut fresh: impl FnMut(&mut Drawn<'_>) -> R,
    observed: impl Fn(&R) -> bool,
) -> (R, bool) {
    let mut run = |rng: &mut StdRng| {
        let mut drawn = Drawn { rng, draws: 0 };
        let run = fresh(&mut drawn);
        (run, drawn.draws)
    };
    let Some(kept) = kept else {
        let (run, draws) = run(rng);
        let keep = draws == seeds && !observed(&run);
        return (run, keep);
    };
    #[cfg(debug_assertions)]
    let mut shadow = rng.clone();
    for _ in 0..seeds {
        rng.next_u64();
    }
    #[cfg(debug_assertions)]
    {
        let (run, draws) = run(&mut shadow);
        assert_eq!(&run, kept, "a replayed run");
        assert_eq!(draws, seeds, "a replayed run's draws");
        assert_eq!(shadow, *rng, "the host's RNG after a replay");
    }
    (kept.clone(), false)
}

impl Drop for ScanWorker<'_> {
    /// The worker ends: hand its counts in, and its kit back to the pool
    /// lent to its scanner, if any.  Debug builds first hold the counts to
    /// the laws every measured host keeps, unless a measurement panicked.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let count = |row| self.tally.count(row);
            debug_assert_eq!(
                count(Row::Hosts),
                count(Row::NoAddress) + count(Row::TcpProbed),
                "hosts"
            );
            debug_assert_eq!(
                count(Row::TcpProbed),
                count(Row::QuicNoStack) + count(Row::QuicAttempted),
                "TCP probes"
            );
            // Each QUIC attempt ends in one error, or, the last only,
            // reachable: a retry follows an error.
            debug_assert_eq!(
                count(Row::QuicAttempted) + count(Row::QuicRetries),
                count(Row::QuicReachable)
                    + count(Row::ErrorTimeout)
                    + count(Row::ErrorBlackhole)
                    + count(Row::ErrorCorruptReply),
                "QUIC attempts"
            );
        }
        self.scanner.lock_tally().merge_from(&self.tally);
        if let (Some(kits), Some(kit)) = (self.scanner.pool(), self.kit.take()) {
            lock(kits).push(kit);
        }
    }
}

/// Lock `mutex`.  Poisoning only means a worker panicked while merging its
/// tally or handing its kit back; every step of either leaves the value
/// structurally valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
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
    /// The pool a worker takes its kit from and gives it back to, if
    /// [`Scanner::pool`] allows; `None` gives every worker a fresh kit.
    kits: Option<&'a Kits>,
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
            kits: None,
        }
    }

    /// Lend `kits` to this scanner: each worker takes a kit from the pool,
    /// or a fresh one if it is empty, and gives it back when it ends.  A
    /// kit's runs and traces hold for any scanner with the same probe mode
    /// and no cross traffic or fault plan ([`Scanner::pool`]): lend one
    /// pool only to the scanners of one campaign and one probe mode.
    pub(crate) fn with_kits(self, kits: &'a Kits) -> Self {
        Scanner {
            kits: Some(kits),
            ..self
        }
    }

    /// The pool lent to this scanner, unless it scans with cross traffic
    /// or a fault plan: the keys name neither, so its workers' kits are
    /// their own.
    fn pool(&self) -> Option<&'a Kits> {
        self.kits
            .filter(|_| self.fault_plan.is_empty() && !self.options.cross_traffic.is_enabled())
    }

    /// The deterministic metrics of everything scanned so far: probe
    /// outcome counters, per-class counts and the aggregated engine/queue
    /// metrics of the QUIC connections — a TCP run returns only its report,
    /// so the `engine.*` keys count QUIC runs only.  Bit-identical across
    /// worker counts.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.lock_tally().snapshot()
    }

    fn lock_tally(&self) -> MutexGuard<'_, ScanTally> {
        lock(&self.tally)
    }

    /// The state of one scan worker, merged into this scanner when dropped:
    /// a kit from the pool lent to the scanner, else a fresh one.
    fn worker(&self) -> ScanWorker<'_> {
        ScanWorker {
            kit: Some(
                self.pool()
                    .and_then(|kits| lock(kits).pop())
                    .unwrap_or_default(),
            ),
            client: match self.options.probe {
                ProbeMode::Ect0 => ClientConfig::paper_default(""),
                ProbeMode::ForceCe => ClientConfig::force_ce(""),
            },
            tally: ScanTally::default(),
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
            kit, client, tally, ..
        } = worker;
        let Kit {
            scratch,
            quic,
            path,
            routes,
            tcp_runs,
            quic_runs,
        } = kit.get_or_insert_with(Kit::default);
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
        let route = (self.vantage.asn, key);
        let (effect, kept_trace) = match routes.find(|met| *met == route) {
            Some(met) => met,
            None => {
                let effect = self.path_to(route, path).effect();
                routes.keep(route, (effect, None))
            }
        };
        let effect = *effect;
        #[cfg(debug_assertions)]
        assert_eq!(
            self.path_to(route, path).effect(),
            effect,
            "a route's effect"
        );

        // ---- QUIC ---------------------------------------------------------
        if behavior.is_none() {
            tally.inc(Row::QuicNoStack);
        }
        let quic_report = behavior.map(|behavior| {
            tally.inc(Row::QuicAttempted);
            let policy = self.options.retry;
            let max_attempts = policy.attempts.max(1);
            // Queue and fault metrics are named per router and per fault:
            // only a loaded or faulted run is counted by name.
            let named = self.options.cross_traffic.is_enabled() || !self.fault_plan.is_empty();
            // A disabled scenario is the plain single-flow run inside the
            // builder.
            let mut fresh = |drawn: &mut Drawn<'_>| {
                client.sni.clear();
                // Writing to a `String` cannot fail.
                let _ = write!(client.sni, "www.host-{host_id}.example");
                let driver = DriverConfig::new(client_addr, server_addr);
                ConnectionRun::lent(client, behavior.clone(), self.path_to(route, path), driver)
                    .cross_traffic(self.options.cross_traffic)
                    .telemetry(named)
                    .scratch(scratch, quic)
                    .execute(drawn)
            };
            let mut attempt = 1u32;
            loop {
                let kept = quic_runs.find(|(e, b)| *e == effect && *b == behavior);
                let (run, keep) = replay_or_run(
                    kept.as_deref(),
                    ConnectionRun::SEED_DRAWS,
                    &mut rng,
                    &mut fresh,
                    |run| run.telemetry.is_some(),
                );
                if keep {
                    quic_runs.keep((effect, behavior.clone()), run.clone());
                }
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
        let kept = tcp_runs.find(|(e, b)| *e == effect && *b == tcp_behavior);
        let (tcp_report, keep) = replay_or_run(
            kept.as_deref(),
            0,
            &mut rng,
            |drawn| {
                let path = self.path_to(route, path);
                TcpConnectionRun::new(tcp_config, tcp_behavior, client_addr, server_addr, path)
                    .cross_traffic(self.options.cross_traffic)
                    .scratch(scratch)
                    .execute(drawn)
            },
            |_| false,
        );
        if keep {
            tcp_runs.keep((effect, tcp_behavior), tcp_report);
        }
        tally.inc(Row::TcpProbed);
        if tcp_report.connected {
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
            let (analysis, keep) = replay_or_run(
                kept_trace.as_ref(),
                0,
                &mut rng,
                |drawn| {
                    let path = &self.path_to(route, path).forward;
                    let config = TraceConfig::default();
                    let trace = trace_path(path, client_addr, server_addr, &config, drawn);
                    let as_org = &self.universe.as_org;
                    analyze_trace(&trace, &|ip| as_org.asn_of_ip(ip))
                },
                |_| false,
            );
            if keep {
                *kept_trace = Some(analysis.clone());
            }
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
            tcp: Some(tcp_report),
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

    /// The path of `route`: `built` if it holds it, else built into `built`.
    fn path_to<'p>(
        &self,
        route: Route,
        built: &'p mut Option<(Route, DuplexPath)>,
    ) -> &'p DuplexPath {
        if built.as_ref().is_some_and(|(last, _)| *last != route) {
            *built = None;
        }
        // Debug builds build a kept path all the same and hold it to that.
        #[cfg(debug_assertions)]
        if let Some((_, path)) = built {
            assert_eq!(*path, self.build_path(route.1), "a kept path");
        }
        &built
            .get_or_insert_with(|| (route, self.build_path(route.1)))
            .1
    }

    /// The path of the route `key` from this scanner's vantage point, with
    /// the scanner's fault plan on its forward direction.  The fault plan
    /// is the scanner's, and a kit is lent only to scanners without one.
    fn build_path(&self, key: RouteKey) -> DuplexPath {
        let mut path = key.path(self.vantage.asn);
        if !self.fault_plan.is_empty() {
            path.forward = path.forward.with_fault(self.fault_plan.clone());
        }
        path
    }
}

/// How many routes the kits of `kits` hold, and how many traces, QUIC runs
/// and TCP runs they keep, in that order: each ran fresh once in its kit.
#[cfg(test)]
pub(crate) fn kept(kits: &Kits) -> [usize; 4] {
    lock(kits)
        .iter()
        .fold([0; 4], |[routes, traces, quic, tcp], kit| {
            let met = &kit.routes.entries;
            [
                routes + met.len(),
                traces + met.iter().filter(|(_, (_, trace))| trace.is_some()).count(),
                quic + kit.quic_runs.entries.len(),
                tcp + kit.tcp_runs.entries.len(),
            ]
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::RETRYING;
    use crate::vantage::VantageQuirks;
    use qem_netsim::{FaultKind, SimDuration, TransitProfile};
    use qem_obs::MetricValue;
    use qem_tracebox::EcnChange;
    use qem_web::UniverseConfig;
    use std::collections::BTreeMap;
    use std::sync::Arc;

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

        // Vantages scanned in turn, as a cloud campaign scans them, with
        // one pool of kits lent to each scanner: two that share an AS, one
        // in another AS between them, and the main vantage point.
        let fleet = VantagePoint::cloud_fleet();
        let named = |name: &str| fleet.iter().find(|v| v.name == name).unwrap().clone();
        check_pooled(
            &census,
            &[
                named("AWS Frankfurt"),
                named("Vultr Frankfurt"),
                named("AWS Mumbai"),
                main(),
            ],
        );
    }

    /// Measure `id` as if nothing had been measured before: with a worker
    /// and a kit of its own.  The host runs every exchange and trace fresh,
    /// one QUIC run per attempt, and replays none — which is held here: only
    /// a retry meets a key of its kit again, so a host that retried kept no
    /// QUIC run.
    fn measure_fresh(scanner: &Scanner<'_>, id: usize) -> HostMeasurement {
        let mut worker = scanner.worker();
        let measured = scanner.measure_host(id, &mut worker);
        let retries = worker.tally.snapshot().counter("scan.quic.retries");
        let kit = worker.kit.as_ref().expect("a worker holds its kit");
        assert!(
            retries.unwrap_or(0) == 0 || kit.quic_runs.entries.is_empty(),
            "host {id} replayed a QUIC run"
        );
        measured
    }

    /// Scan the QUIC hosts of `universe` from each of `vantages` in turn,
    /// in both families, with one pool of kits lent to every scanner, and
    /// hold each scan to a fresh worker per host: a kit carries the routes,
    /// traces and runs it met from one vantage point to the next.  The
    /// fleet is scanned twice, at one executor worker and at two, so the
    /// second pass meets everything from the first already kept.
    fn check_pooled(universe: &Universe, vantages: &[VantagePoint]) {
        let options = |workers: usize, ipv6: bool| ScanOptions {
            workers,
            ipv6,
            ..ScanOptions::paper_default(SnapshotDate::APR_2023)
        };
        let scans: Vec<_> = vantages
            .iter()
            .flat_map(|vantage| [(vantage, false), (vantage, true)])
            .map(|(vantage, ipv6)| {
                let population: Vec<usize> = universe
                    .scan_population(ipv6)
                    .into_iter()
                    .filter(|&id| universe.hosts[id].stack.is_some())
                    .collect();
                let single = Scanner::new(universe, vantage.clone(), options(1, ipv6));
                let fresh: Vec<HostMeasurement> = population
                    .iter()
                    .map(|&id| measure_fresh(&single, id))
                    .collect();
                (vantage, ipv6, population, fresh, single.metrics_snapshot())
            })
            .collect();
        let kits = Kits::default();
        for workers in [1, 2] {
            for (vantage, ipv6, population, fresh, metrics) in &scans {
                let scanner = Scanner::new(universe, (*vantage).clone(), options(workers, *ipv6))
                    .with_kits(&kits);
                let name = &vantage.name;
                assert_eq!(
                    scanner.scan_hosts(population),
                    *fresh,
                    "{name} ipv6={ipv6} workers={workers}"
                );
                assert_eq!(scanner.metrics_snapshot(), *metrics, "{name} ipv6={ipv6}");
            }
        }
        // Every kit came back: the first pass's, and the second worker's.
        assert_eq!(lock(&kits).len(), 2);
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
            .map(|&id| measure_fresh(&single, id))
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

    /// A replayed host's header values and trace changes are the kept
    /// run's and trace's allocations, not copies of them.
    #[test]
    fn a_replay_shares_what_the_kit_keeps() {
        let universe = universe();
        let kits = Kits::default();
        let scanner = Scanner::new(
            &universe,
            VantagePoint::main(),
            ScanOptions {
                trace_sample_probability: Probability::new(1.0),
                workers: 1,
                ..ScanOptions::paper_default(SnapshotDate::APR_2023)
            },
        )
        .with_kits(&kits);
        let measured = scanner.scan_all();
        let kit = lock(&kits).pop().expect("the worker gave its kit back");
        let kept_servers: Vec<&Arc<str>> = kit
            .quic_runs
            .entries
            .iter()
            .filter_map(|(_, run)| run.connection.report.response.as_ref()?.server.as_ref())
            .collect();
        let kept_changes: Vec<&Arc<[EcnChange]>> = kit
            .routes
            .entries
            .iter()
            .filter_map(|(_, (_, trace))| trace.as_ref())
            .map(|trace| &trace.changes)
            .filter(|changes| !changes.is_empty())
            .collect();
        let (mut servers, mut changes) = (0, 0);
        for m in &measured {
            let response = m.quic.as_ref().and_then(|q| q.response.as_ref());
            if let Some(server) = response.and_then(|r| r.server.as_ref()) {
                let shared = kept_servers.iter().any(|&kept| Arc::ptr_eq(kept, server));
                assert!(shared, "host {}'s server header", m.host_id);
                servers += 1;
            }
            if let Some(trace) = m.trace.as_ref().filter(|t| !t.changes.is_empty()) {
                let shared = kept_changes
                    .iter()
                    .any(|&kept| Arc::ptr_eq(kept, &trace.changes));
                assert!(shared, "host {}'s trace changes", m.host_id);
                changes += 1;
            }
        }
        // More hosts than kept runs and traces: most of them replayed.
        assert!(
            servers > kept_servers.len(),
            "{servers} {}",
            kept_servers.len()
        );
        assert!(
            changes > kept_changes.len(),
            "{changes} {}",
            kept_changes.len()
        );
    }

    /// One shadow holds every replay: a kept QUIC run, TCP exchange or
    /// trace edited in a lent pool is caught when a rescan replays it.
    #[cfg(debug_assertions)]
    #[test]
    fn the_replay_shadow_catches_a_tampered_kit() {
        let universe = universe();
        let options = ScanOptions {
            trace_sample_probability: Probability::new(1.0),
            workers: 1,
            ..ScanOptions::paper_default(SnapshotDate::APR_2023)
        };
        let tampers: [fn(&mut Kit); 3] = [
            |kit| kit.quic_runs.entries[0].1.connection.forward_losses += 1,
            |kit| kit.tcp_runs.entries[0].1.forward_losses += 1,
            |kit| {
                let mut routes = kit.routes.entries.iter_mut();
                let trace = routes.find_map(|(_, (_, trace))| trace.as_mut());
                trace.expect("a kept trace").dscp_rewritten_only ^= true;
            },
        ];
        for (kind, tamper) in ["QUIC", "TCP", "trace"].into_iter().zip(tampers) {
            let kits = Kits::default();
            let scan = || {
                Scanner::new(&universe, VantagePoint::main(), options)
                    .with_kits(&kits)
                    .scan_all()
            };
            scan();
            tamper(&mut lock(&kits)[0]);
            let rescan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(scan));
            let panic = rescan.expect_err(kind);
            let message = panic
                .downcast_ref::<String>()
                .expect("an assertion message");
            assert!(message.contains("a replayed run"), "{kind}: {message}");
        }
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
        // A host without an IPv6 address, scanned by id, measures nothing
        // and is counted as having none.
        let v4_only: Vec<usize> = universe
            .hosts
            .iter()
            .filter(|h| h.ipv6.is_none())
            .map(|h| h.id)
            .collect();
        for m in scanner.scan_hosts(&v4_only) {
            assert!(m.quic.is_none() && m.tcp.is_none() && m.trace.is_none());
        }
        let no_address = scanner.metrics_snapshot().counter("scan.no_address");
        assert_eq!(no_address, Some(v4_only.len() as u64));
        assert!(!v4_only.is_empty());
    }
}
