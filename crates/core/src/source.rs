//! Streaming snapshot sources: the report builders' view of a snapshot.
//!
//! Tables 1–7 and Figures 3–8 never need a whole snapshot in memory at once —
//! each builder needs (a) the per-domain join with the universe's DNS data
//! and (b) one or two small per-host attributes (a trace verdict, a server
//! family, a TCP category).  [`SnapshotSource`] captures exactly that: a
//! snapshot's identity plus a way to *stream* its measurements in host-id
//! order.  The in-memory [`SnapshotMeasurement`] implements it trivially;
//! `qem-store`'s segment reader implements it by decoding one segment at a
//! time, which is how store-backed reports run without ever materialising a
//! full campaign.
//!
//! The contract that makes store-backed and in-memory reports byte-identical
//! is the same one the sharded executor relies on: measurements are streamed
//! in ascending host-id order, and every consumer aggregates into
//! order-insensitive structures keyed by domain index, host id or class.

use crate::campaign::SnapshotMeasurement;
use crate::observation::{DomainRecord, EcnClass, HostMeasurement, MirrorUse};
use crate::vantage::VantagePoint;
use qem_web::{SnapshotDate, Universe};
use std::collections::BTreeMap;

/// A source of host measurements for one snapshot (one vantage point, one
/// address family, one date).
pub trait SnapshotSource {
    /// Snapshot date.
    fn date(&self) -> SnapshotDate;

    /// Whether this snapshot probed IPv6.
    fn ipv6(&self) -> bool;

    /// The vantage point the snapshot was taken from.
    fn vantage(&self) -> &VantagePoint;

    /// Stream every measurement in ascending host-id order.
    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement));

    /// Number of hosts measured.
    fn host_count(&self) -> usize {
        let mut n = 0;
        self.for_each_host(&mut |_| n += 1);
        n
    }

    /// Number of hosts reachable via QUIC.
    fn quic_host_count(&self) -> usize {
        let mut n = 0;
        self.for_each_host(&mut |m| {
            if m.quic_reachable {
                n += 1;
            }
        });
        n
    }

    /// Build per-domain records by joining the universe's DNS data with the
    /// per-host measurements — the paper's per-domain vs per-IP distinction.
    ///
    /// **Cost:** one streaming pass over the measurements plus one pass over
    /// `universe.domains`, allocating the full `Vec<DomainRecord>` each call.
    /// Builders that need the join repeatedly should compute it once via
    /// [`JoinedSnapshot`] instead of re-joining per table.
    fn domain_records(&self, universe: &Universe) -> Vec<DomainRecord> {
        // One pass to pull out the two per-host attributes the join needs;
        // the full reports (with their packet counters and traces) can be
        // dropped as soon as they have been summarised.
        let mut summaries: BTreeMap<usize, (MirrorUse, Option<EcnClass>)> = BTreeMap::new();
        self.for_each_host(&mut |m| {
            if m.quic_reachable {
                summaries.insert(m.host_id, (m.mirror_use(), m.ecn_class()));
            }
        });
        join_domains(universe, self.ipv6(), |h| summaries.get(&h).copied())
    }
}

/// The domain join itself: every domain of `universe`, resolved for the
/// probed address family, paired with what `quic_summary` knows about its
/// host — `None` unless that host was measured and reachable via QUIC.
pub(crate) fn join_domains(
    universe: &Universe,
    ipv6: bool,
    quic_summary: impl Fn(usize) -> Option<(MirrorUse, Option<EcnClass>)>,
) -> Vec<DomainRecord> {
    universe
        .domains
        .iter()
        .enumerate()
        .map(|(idx, domain)| {
            let host_id = domain
                .host
                .filter(|&h| universe.hosts[h].addr(ipv6).is_some());
            let summary = host_id.and_then(&quic_summary);
            DomainRecord {
                domain_idx: idx,
                resolved: host_id.is_some(),
                host_id,
                quic: summary.is_some(),
                mirror_use: summary.map(|s| s.0).unwrap_or_default(),
                class: summary.and_then(|s| s.1),
            }
        })
        .collect()
}

impl SnapshotSource for SnapshotMeasurement {
    fn date(&self) -> SnapshotDate {
        self.date
    }

    fn ipv6(&self) -> bool {
        self.ipv6
    }

    fn vantage(&self) -> &VantagePoint {
        &self.vantage
    }

    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
        // `hosts` is a BTreeMap, so iteration is already in ascending
        // host-id order — the order the contract requires.
        for m in self.hosts.values() {
            f(m);
        }
    }

    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn quic_host_count(&self) -> usize {
        SnapshotMeasurement::quic_host_count(self)
    }

    fn domain_records(&self, universe: &Universe) -> Vec<DomainRecord> {
        // The in-memory snapshot has random access; skip the summary pass.
        SnapshotMeasurement::domain_records(self, universe)
    }
}

/// A snapshot paired with its domain join, computed **once**.
///
/// Every table and figure builder starts from [`SnapshotSource::domain_records`];
/// rendering the full report set from a plain snapshot therefore repeats the
/// O(domains) join up to nine times.  `JoinedSnapshot` performs the join at
/// construction and serves cheap copies afterwards — the repo benchmark's
/// `core.join_ns_per_domain` probe is what one join costs.
pub struct JoinedSnapshot<'a, S: SnapshotSource> {
    snapshot: &'a S,
    records: Vec<DomainRecord>,
}

impl<'a, S: SnapshotSource> JoinedSnapshot<'a, S> {
    /// Join `snapshot` against `universe` once.
    pub fn new(universe: &Universe, snapshot: &'a S) -> Self {
        JoinedSnapshot {
            records: snapshot.domain_records(universe),
            snapshot,
        }
    }

    /// The cached per-domain records, without copying.
    pub fn records(&self) -> &[DomainRecord] {
        &self.records
    }
}

impl<S: SnapshotSource> SnapshotSource for JoinedSnapshot<'_, S> {
    fn date(&self) -> SnapshotDate {
        self.snapshot.date()
    }

    fn ipv6(&self) -> bool {
        self.snapshot.ipv6()
    }

    fn vantage(&self) -> &VantagePoint {
        self.snapshot.vantage()
    }

    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
        self.snapshot.for_each_host(f);
    }

    fn host_count(&self) -> usize {
        self.snapshot.host_count()
    }

    fn quic_host_count(&self) -> usize {
        self.snapshot.quic_host_count()
    }

    fn domain_records(&self, _universe: &Universe) -> Vec<DomainRecord> {
        // `DomainRecord` is a flat value type; cloning the cached join is a
        // memcpy, not a re-join.
        self.records.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignOptions};
    use qem_web::UniverseConfig;

    #[test]
    fn streaming_join_matches_random_access_join() {
        let universe = Universe::generate(&UniverseConfig::tiny());
        let result = Campaign::new(&universe).run_main(&CampaignOptions::paper_default(), false);
        // Route the default (streaming) implementation through a thin wrapper
        // so it cannot fall back to the specialised SnapshotMeasurement impl.
        struct Stream<'a>(&'a SnapshotMeasurement);
        impl SnapshotSource for Stream<'_> {
            fn date(&self) -> SnapshotDate {
                self.0.date
            }
            fn ipv6(&self) -> bool {
                self.0.ipv6
            }
            fn vantage(&self) -> &VantagePoint {
                &self.0.vantage
            }
            fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
                self.0.for_each_host(f);
            }
        }
        let streamed = Stream(&result.v4).domain_records(&universe);
        assert_eq!(streamed, result.v4.domain_records(&universe));
        assert_eq!(
            Stream(&result.v4).quic_host_count(),
            result.v4.quic_host_count()
        );
        assert_eq!(Stream(&result.v4).host_count(), result.v4.hosts.len());
    }

    #[test]
    fn joined_snapshot_serves_the_same_records() {
        let universe = Universe::generate(&UniverseConfig::tiny());
        let result = Campaign::new(&universe).run_main(&CampaignOptions::paper_default(), false);
        let joined = JoinedSnapshot::new(&universe, &result.v4);
        assert_eq!(
            joined.records(),
            result.v4.domain_records(&universe).as_slice()
        );
        assert_eq!(
            joined.domain_records(&universe),
            result.v4.domain_records(&universe)
        );
    }
}
