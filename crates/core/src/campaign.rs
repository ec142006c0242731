//! Campaign orchestration: main-vantage-point snapshots, longitudinal series,
//! the CE-probing comparison run and the distributed cloud measurement.
//!
//! A snapshot holds its hosts as a [`HostMap`], the scanner's sorted output
//! wrapped without a copy: reports read hosts in host-id order, and
//! [`SnapshotMeasurement::host`] looks one up by binary search.

use crate::executor::ShardedExecutor;
use crate::host_map::HostMap;
use crate::observation::HostMeasurement;
use crate::resilience::RetryPolicy;
use crate::scanner::{ProbeMode, ScanOptions, Scanner};
use crate::vantage::VantagePoint;
use qem_netsim::{CrossTraffic, Probability};
use qem_obs::{MetricsSnapshot, RunTelemetry};
use qem_web::{SnapshotDate, Universe};

/// Options shared by campaign runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOptions {
    /// Snapshot date of the measurement.
    pub date: SnapshotDate,
    /// Probe mode (ECT(0) methodology or the §6.3 CE run).
    pub probe: ProbeMode,
    /// Tracebox sampling probability for abnormal hosts.
    pub trace_sample_probability: Probability,
    /// Worker-thread budget; `0` means one worker per available core.
    ///
    /// Single-vantage runs give the whole budget to each scan; the cloud
    /// campaign spends it on fleet-level fan-out first and divides the rest
    /// among the per-vantage scans.  Results never depend on the value.
    pub workers: usize,
    /// Seed.
    pub seed: u64,
    /// Opt-in shared-bottleneck scenario (background flows through each
    /// measured host's bottleneck).  Off by default; when off, campaign
    /// results are bit-identical to the single-flow methodology.
    pub cross_traffic: CrossTraffic,
    /// QUIC probe retry policy; [`RetryPolicy::none()`] by default.
    pub retry: RetryPolicy,
}

impl CampaignOptions {
    /// The week-15/2023 main measurement configuration.
    ///
    /// Scans fan out across every available core (`workers == 0`); thanks to
    /// the scanner's per-host RNG derivation the results are identical to a
    /// single-threaded run.
    pub fn paper_default() -> Self {
        CampaignOptions {
            date: SnapshotDate::APR_2023,
            probe: ProbeMode::Ect0,
            trace_sample_probability: Probability::new(0.2),
            workers: 0,
            seed: 0x1299,
            cross_traffic: CrossTraffic::none(),
            retry: RetryPolicy::none(),
        }
    }

    /// The week-20/2023 CE-probing configuration (Figure 6).
    pub fn ce_probing() -> Self {
        CampaignOptions {
            date: SnapshotDate::MAY_2023,
            probe: ProbeMode::ForceCe,
            ..CampaignOptions::paper_default()
        }
    }

    /// Derive a copy with the given cross-traffic scenario.
    pub fn with_cross_traffic(self, cross_traffic: CrossTraffic) -> Self {
        CampaignOptions {
            cross_traffic,
            ..self
        }
    }

    /// The scanner options of one address family of this campaign — the only
    /// `CampaignOptions` → [`ScanOptions`] conversion.
    pub fn scan_options(&self, ipv6: bool) -> ScanOptions {
        ScanOptions {
            date: self.date,
            ipv6,
            probe: self.probe,
            trace_sample_probability: self.trace_sample_probability,
            workers: self.workers,
            seed: self.seed,
            cross_traffic: self.cross_traffic,
            retry: self.retry,
        }
    }
}

/// All host measurements taken from one vantage point for one address family
/// at one date.
#[derive(Debug, Clone)]
pub struct SnapshotMeasurement {
    /// Snapshot date.
    pub date: SnapshotDate,
    /// Whether this snapshot probed IPv6.
    pub ipv6: bool,
    /// The vantage point used.
    pub vantage: VantagePoint,
    /// Per-host measurements in ascending host-id order.
    pub hosts: HostMap,
}

impl SnapshotMeasurement {
    /// Look up the measurement for a host: a binary search.
    pub fn host(&self, host_id: usize) -> Option<&HostMeasurement> {
        self.hosts.get(host_id)
    }

    /// Number of hosts reachable via QUIC in this snapshot.
    pub fn quic_host_count(&self) -> usize {
        self.hosts.values().filter(|m| m.quic_reachable).count()
    }
}

/// The result of the main-vantage-point campaign: IPv4 plus optional IPv6.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// IPv4 snapshot.
    pub v4: SnapshotMeasurement,
    /// IPv6 snapshot, if requested.
    pub v6: Option<SnapshotMeasurement>,
}

/// Campaign runner bound to a universe.
pub struct Campaign<'a> {
    universe: &'a Universe,
}

impl<'a> Campaign<'a> {
    /// Create a campaign runner.
    pub fn new(universe: &'a Universe) -> Self {
        Campaign { universe }
    }

    /// The universe being measured.
    pub fn universe(&self) -> &Universe {
        self.universe
    }

    /// Run one snapshot from one vantage point.
    pub fn run_snapshot(
        &self,
        vantage: &VantagePoint,
        options: &CampaignOptions,
        ipv6: bool,
    ) -> SnapshotMeasurement {
        self.run_snapshot_with_telemetry(vantage, options, ipv6).0
    }

    /// Like [`Campaign::run_snapshot`], additionally returning the scan's
    /// deterministic metrics snapshot (probe outcome counters plus the
    /// aggregated engine/queue metrics of every simulated QUIC connection;
    /// a TCP run's engine is not counted).
    pub fn run_snapshot_with_telemetry(
        &self,
        vantage: &VantagePoint,
        options: &CampaignOptions,
        ipv6: bool,
    ) -> (SnapshotMeasurement, MetricsSnapshot) {
        let (snapshot, scanner) = self.scan(vantage, options, ipv6, Scanner::scan_all);
        (snapshot, scanner.metrics_snapshot())
    }

    /// Build the scanner of `vantage`, let `probe` pick what it scans and
    /// wrap the measurements, in place, as a snapshot; the scanner comes
    /// back for callers that read its metrics.
    fn scan(
        &self,
        vantage: &VantagePoint,
        options: &CampaignOptions,
        ipv6: bool,
        probe: impl FnOnce(&Scanner<'a>) -> Vec<HostMeasurement>,
    ) -> (SnapshotMeasurement, Scanner<'a>) {
        let scanner = Scanner::new(self.universe, vantage.clone(), options.scan_options(ipv6));
        let snapshot = SnapshotMeasurement {
            date: options.date,
            ipv6,
            vantage: vantage.clone(),
            hosts: HostMap::from(probe(&scanner)),
        };
        (snapshot, scanner)
    }

    /// Run the main-vantage-point campaign (IPv4, optionally IPv6).
    pub fn run_main(&self, options: &CampaignOptions, include_ipv6: bool) -> CampaignResult {
        self.run_main_with_telemetry(options, include_ipv6).0
    }

    /// Like [`Campaign::run_main`], additionally returning the run's
    /// telemetry: one metrics section per scanned address family, plus the
    /// campaign configuration as info lines.
    ///
    /// The telemetry is deterministic — it deliberately excludes anything
    /// dependent on worker count or wall time, so two runs of the same
    /// campaign serialise to byte-identical JSON.
    pub fn run_main_with_telemetry(
        &self,
        options: &CampaignOptions,
        include_ipv6: bool,
    ) -> (CampaignResult, RunTelemetry) {
        let main = VantagePoint::main();
        let mut telemetry = RunTelemetry::new();
        telemetry.set_info("campaign", "main");
        telemetry.set_info("date", options.date.to_string());
        telemetry.set_info("probe", format!("{:?}", options.probe));
        telemetry.set_info("seed", options.seed.to_string());
        let (v4, v4_metrics) = self.run_snapshot_with_telemetry(&main, options, false);
        telemetry.insert_section("scan.v4", v4_metrics);
        let v6 = include_ipv6.then(|| {
            // The paper's IPv6 run happened two weeks earlier (week 13/2023);
            // model that by keeping the same month.
            let (v6, v6_metrics) = self.run_snapshot_with_telemetry(&main, options, true);
            telemetry.insert_section("scan.v6", v6_metrics);
            v6
        });
        (CampaignResult { v4, v6 }, telemetry)
    }

    /// Run the longitudinal series (one IPv4 snapshot per month, Figure 3/4/8).
    pub fn run_longitudinal(
        &self,
        dates: &[SnapshotDate],
        options: &CampaignOptions,
    ) -> Vec<SnapshotMeasurement> {
        let main = VantagePoint::main();
        dates
            .iter()
            .map(|&date| {
                let opts = CampaignOptions { date, ..*options };
                self.run_snapshot(&main, &opts, false)
            })
            .collect()
    }

    /// Run the distributed cloud campaign (§4.3 / §8).
    ///
    /// As in the paper, the cloud workers only probe hosts (IPs) that the
    /// main vantage point found reachable via QUIC — the per-IP deduplication
    /// that reduces load by a factor of ~40.  Each worker measures both
    /// address families.
    pub fn run_cloud(
        &self,
        main_v4: &SnapshotMeasurement,
        main_v6: Option<&SnapshotMeasurement>,
        options: &CampaignOptions,
    ) -> Vec<(
        VantagePoint,
        SnapshotMeasurement,
        Option<SnapshotMeasurement>,
    )> {
        let v4_targets: Vec<usize> = main_v4
            .hosts
            .values()
            .filter(|m| m.quic_reachable)
            .map(|m| m.host_id)
            .collect();
        let v6_targets: Vec<usize> = main_v6
            .map(|snapshot| {
                snapshot
                    .hosts
                    .values()
                    .filter(|m| m.quic_reachable)
                    .map(|m| m.host_id)
                    .collect()
            })
            .unwrap_or_default();

        // Fan out across the fleet itself: every vantage point is an
        // independent measurement, so the executor shards over vantages and
        // any worker budget beyond the fleet size is divided among the
        // per-vantage scans.  Per-host determinism makes this reshuffling
        // invisible in the results.
        let fleet = VantagePoint::cloud_fleet();
        let executor = ShardedExecutor::new(options.workers).with_batch_size(1);
        let per_vantage_options = CampaignOptions {
            workers: (executor.workers() / fleet.len()).max(1),
            ..*options
        };
        executor.run(&fleet, |vantage| {
            let scan = |ipv6, targets: &[usize]| {
                self.scan(vantage, &per_vantage_options, ipv6, |s| {
                    s.scan_hosts(targets)
                })
                .0
            };
            let snap_v4 = scan(false, &v4_targets);
            let snap_v6 = (!v6_targets.is_empty()).then(|| scan(true, &v6_targets));
            (vantage.clone(), snap_v4, snap_v6)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{EcnClass, HostSummary};
    use crate::resilience::RETRYING;
    use crate::source::{HostTable, Scope, SnapshotSource};
    use qem_web::UniverseConfig;

    fn universe() -> Universe {
        Universe::generate(&UniverseConfig::tiny())
    }

    /// Destructures without `..`: a field added to `ScanOptions` does not
    /// compile here until `scan_options` forwards it.
    #[test]
    fn scan_options_forwards_every_field() {
        let options = CampaignOptions {
            workers: 3,
            retry: RETRYING,
            ..CampaignOptions::ce_probing().with_cross_traffic(CrossTraffic::congested())
        };
        let ScanOptions {
            date,
            ipv6,
            probe,
            trace_sample_probability,
            workers,
            seed,
            cross_traffic,
            retry,
        } = options.scan_options(true);
        assert!(ipv6);
        assert_eq!(
            (date, probe, trace_sample_probability, workers, seed),
            (
                options.date,
                options.probe,
                options.trace_sample_probability,
                3,
                options.seed
            )
        );
        assert_eq!(cross_traffic, CrossTraffic::congested());
        assert_eq!(retry, RETRYING);
    }

    /// Domains of either population on the QUIC-reachable hosts of `table`
    /// that satisfy `pred`.
    fn quic_domains(table: &HostTable, pred: impl Fn(&HostSummary) -> bool) -> u64 {
        [Scope::Toplists, Scope::Cno]
            .into_iter()
            .flat_map(|scope| table.quic_hosts(scope))
            .filter(|(_, _, host)| pred(host))
            .map(|(_, domains, _)| domains)
            .sum()
    }

    #[test]
    fn host_finds_every_measured_id_and_only_those() {
        let bare = |host_id| HostMeasurement {
            host_id,
            quic_reachable: host_id == 9,
            quic: None,
            tcp: None,
            trace: None,
        };
        let snapshot = |ids: &[usize]| SnapshotMeasurement {
            date: SnapshotDate::APR_2023,
            ipv6: false,
            vantage: VantagePoint::main(),
            hosts: HostMap::from(ids.iter().map(|&id| bare(id)).collect::<Vec<_>>()),
        };
        let measured = snapshot(&[2, 5, 9]);
        assert_eq!(measured.host(2), Some(&bare(2)), "first");
        assert_eq!(measured.host(9), Some(&bare(9)), "last");
        assert_eq!(measured.host(5), Some(&bare(5)));
        assert_eq!(measured.host(4), None, "missing");
        assert_eq!(measured.host(0), None, "below the first");
        assert_eq!(measured.host(10), None, "above the last");
        assert_eq!(measured.host(usize::MAX), None);
        assert_eq!(measured.quic_host_count(), 1);
        let empty = snapshot(&[]);
        assert_eq!(empty.host(0), None);
        assert_eq!(empty.quic_host_count(), 0);
    }

    #[test]
    fn main_campaign_joins_domains_onto_hosts() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let result = campaign.run_main(&CampaignOptions::paper_default(), false);
        let table = result.v4.host_table(&universe);
        let resolved: u64 = [Scope::Toplists, Scope::Cno]
            .into_iter()
            .flat_map(|scope| table.weights(scope))
            .map(|&w| u64::from(w))
            .sum();
        let quic = quic_domains(&table, |_| true);
        assert!(quic > 0);
        assert!(resolved > quic);
        // Mirroring domains are a small minority, capable even fewer.
        let mirroring = quic_domains(&table, |h| h.mirror_use.mirroring);
        let capable = quic_domains(&table, |h| h.class == Some(EcnClass::Capable));
        assert!(mirroring < quic / 4);
        assert!(capable <= mirroring);
    }

    #[test]
    fn ipv6_snapshot_covers_fewer_domains() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let result = campaign.run_main(&CampaignOptions::paper_default(), true);
        let v4_quic = quic_domains(&result.v4.host_table(&universe), |_| true);
        let v6_quic = quic_domains(&result.v6.unwrap().host_table(&universe), |_| true);
        assert!(v6_quic < v4_quic);
        assert!(v6_quic > 0);
    }

    #[test]
    fn longitudinal_mirroring_dips_and_recovers() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let snapshots = campaign.run_longitudinal(
            &[
                SnapshotDate::JUN_2022,
                SnapshotDate::FEB_2023,
                SnapshotDate::APR_2023,
            ],
            &CampaignOptions::paper_default(),
        );
        let mirroring_domains: Vec<u64> = snapshots
            .iter()
            .map(|s| quic_domains(&s.host_table(&universe), |h| h.mirror_use.mirroring))
            .collect();
        // The Figure 3 shape: decline from June 2022 to February 2023, strong
        // recovery by April 2023.
        assert!(mirroring_domains[1] < mirroring_domains[0]);
        assert!(mirroring_domains[2] > mirroring_domains[0]);
    }

    #[test]
    fn ce_probing_flips_the_probe_codepoint_on_quic_and_tcp() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let ect0_run = campaign.run_main(&CampaignOptions::paper_default(), false);
        let ce_run = campaign.run_main(&CampaignOptions::ce_probing(), false);

        // QUIC path: the client-side sent counters are ground truth for what
        // the probes carried.  Under ForceCe every marked packet is CE and
        // none is ECT(0); under the standard methodology it is the opposite.
        let quic_sent = |result: &CampaignResult| {
            let mut ect0 = 0u64;
            let mut ce = 0u64;
            for m in result.v4.hosts.values() {
                if let Some(q) = &m.quic {
                    ect0 += q.sent_counts.ect0;
                    ce += q.sent_counts.ce;
                }
            }
            (ect0, ce)
        };
        let (ect0_sent, ce_sent) = quic_sent(&ce_run);
        assert!(ce_sent > 0, "ForceCe must send CE-marked QUIC packets");
        assert_eq!(ect0_sent, 0, "ForceCe must not send ECT(0) on QUIC");
        let (ect0_sent, ce_sent) = quic_sent(&ect0_run);
        assert!(ect0_sent > 0);
        assert_eq!(ce_sent, 0, "the standard methodology never sends CE");

        // TCP path: no router policy ever *creates* ECT(0), so segments
        // arriving at servers with ECT(0) prove the client probed with it —
        // and their absence under ForceCe proves the flip.
        let tcp_observed = |result: &CampaignResult| {
            let mut ect0 = 0u64;
            let mut ce = 0u64;
            for m in result.v4.hosts.values() {
                if let Some(t) = &m.tcp {
                    ect0 += t.server_observed_ecn.ect0;
                    ce += t.server_observed_ecn.ce;
                }
            }
            (ect0, ce)
        };
        let (ect0_seen, ce_seen) = tcp_observed(&ce_run);
        assert!(ce_seen > 0, "ForceCe must reach servers with CE over TCP");
        assert_eq!(ect0_seen, 0, "ForceCe must not probe TCP with ECT(0)");
        let (ect0_seen, _) = tcp_observed(&ect0_run);
        assert!(ect0_seen > 0);
    }

    #[test]
    fn campaign_telemetry_is_worker_independent_json() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let base = CampaignOptions::paper_default();
        let (_, single) =
            campaign.run_main_with_telemetry(&CampaignOptions { workers: 1, ..base }, false);
        let (_, parallel) =
            campaign.run_main_with_telemetry(&CampaignOptions { workers: 4, ..base }, false);
        assert_eq!(single.to_json(), parallel.to_json());
        let scan = single.section("scan.v4").expect("v4 section");
        assert!(scan.counter("scan.hosts").unwrap() > 0);
        assert!(scan.counter("engine.events_processed").unwrap() > 0);
        assert_eq!(
            single.info.get("workers"),
            None,
            "worker count must not leak"
        );
    }

    #[test]
    fn cloud_campaign_only_probes_deduplicated_quic_hosts() {
        let universe = universe();
        let campaign = Campaign::new(&universe);
        let options = CampaignOptions {
            workers: 2,
            ..CampaignOptions::paper_default()
        };
        let main = campaign.run_main(&options, false);
        let cloud = campaign.run_cloud(&main.v4, None, &options);
        assert_eq!(cloud.len(), 16);
        let main_quic = main.v4.quic_host_count();
        for (vantage, snap_v4, snap_v6) in &cloud {
            assert!(snap_v4.hosts.len() <= main_quic, "{}", vantage.name);
            assert!(snap_v6.is_none());
        }
    }
}
