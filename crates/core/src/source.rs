//! Streaming snapshot sources and the per-host join every report starts from.
//!
//! The paper's headline numbers are statements about *hosts weighted by the
//! websites they serve* ("20 % of QUIC hosts, providing 6 % of HTTP/3
//! websites"), and so is every cell of Tables 1–7 and Figures 3–7: apart
//! from list membership and "resolves in this address family", everything a
//! builder reads about a domain is a property of the host serving it.  The
//! join is therefore per host, not per domain.  [`SnapshotSource`] is a
//! snapshot's identity plus a way to *stream* its measurements in host-id
//! order; [`HostTable`] is what one such pass, joined with the universe's
//! DNS data, leaves behind — per host the number of toplist and
//! `.com/.net/.org` domains it serves and a flat summary of what was
//! measured there.  Every count in a report is a sum of those weights over
//! the hosts matching a predicate, and every "IPs" count the number of such
//! hosts.
//!
//! The join reads summaries, not measurements:
//! [`SnapshotSource::for_each_summary`] streams each host's id and
//! [`HostSummary`].  The in-memory [`SnapshotMeasurement`] summarises its
//! sorted [`HostMap`](crate::HostMap) as it streams it; `qem-store`'s
//! segment reader decodes each record straight to its summary, one segment
//! at a time into one lent buffer, and never assembles the measurement.
//! Both are joined by the same `HostTable::new`, which is what makes
//! store-backed and in-memory reports the same path: summaries arrive in
//! ascending host-id order and land in a table indexed by host id.
//! [`JoinedSnapshot`] keeps the table so that a whole report set costs one
//! pass over the source.

use crate::campaign::SnapshotMeasurement;
use crate::observation::{HostMeasurement, HostSummary};
use crate::vantage::VantagePoint;
use qem_web::{Host, SnapshotDate, Universe};
use std::borrow::Cow;

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

    /// Stream every host's id and [`HostSummary`] in ascending host-id
    /// order: what the per-host join keeps of a measurement.  The provided
    /// body summarises [`SnapshotSource::for_each_host`]; a source that can
    /// build the summaries without the measurements overrides it.
    fn for_each_summary(&self, f: &mut dyn FnMut(usize, HostSummary)) {
        self.for_each_host(&mut |m| f(m.host_id, m.summary()));
    }

    /// Number of hosts measured.
    fn host_count(&self) -> usize {
        let mut n = 0;
        self.for_each_host(&mut |_| n += 1);
        n
    }

    /// This snapshot joined with `universe` — what every table and figure
    /// builder starts from.
    ///
    /// **Cost:** one streaming pass over the measurements plus one pass over
    /// `universe.hosts`, unless the source already holds the table: a
    /// [`JoinedSnapshot`] lends its own, so builders never copy one.
    fn host_table(&self, universe: &Universe) -> Cow<'_, HostTable> {
        Cow::Owned(HostTable::new(universe, self))
    }
}

/// Which domain population a count covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// The merged toplists (Alexa, Umbrella, Majestic, Tranco).
    Toplists,
    /// The `.com/.net/.org` zone files.
    Cno,
}

/// One snapshot joined with the universe's DNS data, per host.
///
/// Rows are indexed by host id.  A host without an address in the probed
/// family serves no domain *in this snapshot*: its weights are zero, exactly
/// as its domains do not resolve.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTable {
    /// Per [`Scope`]: in-scope domains resolving to each host.
    weights: [Vec<u32>; 2],
    /// Per [`Scope`]: in-scope domains overall, resolving or not.
    totals: [u64; 2],
    /// What was measured at each host, if anything.
    pub(crate) measured: Vec<Option<HostSummary>>,
}

impl HostTable {
    /// Join `source` against `universe`: one pass over each.
    fn new<S: SnapshotSource + ?Sized>(universe: &Universe, source: &S) -> Self {
        let ipv6 = source.ipv6();
        let served = |count: fn(&Host) -> u32| -> Vec<u32> {
            let in_family = |h: &Host| if h.addr(ipv6).is_some() { count(h) } else { 0 };
            universe.hosts.iter().map(in_family).collect()
        };
        // Columns in `Scope` order.
        let weights = [served(|h| h.toplist_domains), served(|h| h.cno_domains)];
        let totals = [universe.domains.toplist, universe.domains.cno];
        let mut measured = vec![None; universe.hosts.len()];
        source.for_each_summary(&mut |host_id, summary| {
            // A store written for another universe can name hosts this one
            // does not have; no domain resolves to them.
            if let Some(slot) = measured.get_mut(host_id) {
                *slot = Some(summary);
            }
        });
        HostTable {
            weights,
            totals,
            measured,
        }
    }

    /// In-scope domains overall, resolving or not.
    pub(crate) fn total(&self, scope: Scope) -> u64 {
        self.totals[scope as usize]
    }

    /// In-scope domains resolving to each host, indexed by host id.
    pub(crate) fn weights(&self, scope: Scope) -> &[u32] {
        &self.weights[scope as usize]
    }

    /// Host `host` as `scope` sees it: the in-scope domains it serves and
    /// what was measured there — `None` unless both exist.
    pub(crate) fn host(&self, scope: Scope, host: usize) -> Option<(u64, &HostSummary)> {
        let weight = *self.weights(scope).get(host)?;
        let summary = self.measured[host].as_ref()?;
        (weight > 0).then_some((u64::from(weight), summary))
    }

    /// Every measured host serving in-scope domains, in host-id order, as
    /// `(host id, domains, summary)`.
    pub(crate) fn hosts(&self, scope: Scope) -> impl Iterator<Item = (usize, u64, &HostSummary)> {
        (0..self.measured.len())
            .filter_map(move |id| self.host(scope, id).map(|(weight, s)| (id, weight, s)))
    }

    /// [`HostTable::hosts`], QUIC-reachable ones only.
    pub(crate) fn quic_hosts(
        &self,
        scope: Scope,
    ) -> impl Iterator<Item = (usize, u64, &HostSummary)> {
        self.hosts(scope).filter(|(_, _, s)| s.quic_reachable)
    }
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
        // A `HostMap` is kept in ascending host-id order — the order the
        // contract requires.
        for m in self.hosts.values() {
            f(m);
        }
    }

    fn host_count(&self) -> usize {
        self.hosts.len()
    }
}

/// A snapshot paired with its [`HostTable`], computed **once**.
///
/// Rendering a report set from a plain source joins it once per builder;
/// `JoinedSnapshot` joins at construction and lends the table to every
/// builder afterwards — the repo benchmark's `core.join_ns_per_domain` probe
/// is what one join costs.
pub struct JoinedSnapshot<'a> {
    snapshot: &'a dyn SnapshotSource,
    table: HostTable,
}

impl<'a> JoinedSnapshot<'a> {
    /// Join `snapshot` against `universe` once.
    pub fn new<S: SnapshotSource>(universe: &Universe, snapshot: &'a S) -> Self {
        JoinedSnapshot {
            table: HostTable::new(universe, snapshot),
            snapshot,
        }
    }
}

impl SnapshotSource for JoinedSnapshot<'_> {
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

    fn for_each_summary(&self, f: &mut dyn FnMut(usize, HostSummary)) {
        self.snapshot.for_each_summary(f);
    }

    fn host_count(&self) -> usize {
        self.snapshot.host_count()
    }

    fn host_table(&self, _universe: &Universe) -> Cow<'_, HostTable> {
        Cow::Borrowed(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignOptions, CampaignResult};
    use crate::host_map::HostMap;
    use crate::observation::EcnClass;
    use crate::reports::{
        figure4, figure5, figure6, table1, table2, table3, table4, table5, table6, table7,
        DomainState, MirrorUseQuadrant,
    };
    use qem_web::{default_landscape, Domain, DomainLists, UniverseConfig};
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};

    fn census() -> (Universe, CampaignResult) {
        let universe = Universe::generate(&UniverseConfig::tiny());
        let result = Campaign::new(&universe).run_main(&CampaignOptions::paper_default(), true);
        (universe, result)
    }

    /// A universe and every domain its generator drew: the records the
    /// per-domain oracles below recount, which the universe itself only
    /// keeps as counts.
    fn observed(config: &UniverseConfig) -> (Universe, Vec<Domain>) {
        let mut domains = Vec::new();
        let universe =
            Universe::generate_observed(&default_landscape(), config, |d| domains.push(d));
        (universe, domains)
    }

    /// A source that counts how often it is streamed.
    struct Counted<'a> {
        inner: &'a SnapshotMeasurement,
        passes: Cell<usize>,
    }

    impl<'a> Counted<'a> {
        fn new(inner: &'a SnapshotMeasurement) -> Self {
            Counted {
                inner,
                passes: Cell::new(0),
            }
        }
    }

    impl SnapshotSource for Counted<'_> {
        fn date(&self) -> SnapshotDate {
            self.inner.date
        }
        fn ipv6(&self) -> bool {
            self.inner.ipv6
        }
        fn vantage(&self) -> &VantagePoint {
            &self.inner.vantage
        }
        fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
            self.passes.set(self.passes.get() + 1);
            self.inner.for_each_host(f);
        }
    }

    #[test]
    fn a_report_set_streams_its_source_once() {
        let (universe, result) = census();
        let (v4, v6) = (&result.v4, result.v6.as_ref().unwrap());

        let (counted_v4, counted_v6) = (Counted::new(v4), Counted::new(v6));
        let joined_v4 = JoinedSnapshot::new(&universe, &counted_v4);
        let joined_v6 = JoinedSnapshot::new(&universe, &counted_v6);
        table1(&universe, &joined_v4);
        table2(&universe, &joined_v4);
        table3(&universe, &joined_v4);
        table4(&universe, &joined_v4);
        table5(&universe, &joined_v4, Some(&joined_v6));
        table6(&universe, &joined_v4);
        table7(&universe, &joined_v4);
        figure5(&universe, &joined_v4, &joined_v6);
        figure6(&universe, &joined_v4);
        assert_eq!((counted_v4.passes.get(), counted_v6.passes.get()), (1, 1));

        // On a raw source every builder joins for itself: one pass each.
        let passes = |build: &dyn Fn(&Counted)| {
            let counted = Counted::new(v4);
            build(&counted);
            counted.passes.get()
        };
        assert_eq!(passes(&|s| _ = table1(&universe, s)), 1);
        assert_eq!(passes(&|s| _ = table2(&universe, s)), 1);
        assert_eq!(passes(&|s| _ = table3(&universe, s)), 1);
        assert_eq!(passes(&|s| _ = table4(&universe, s)), 1);
        assert_eq!(passes(&|s| _ = table5(&universe, s, None)), 1);
        assert_eq!(passes(&|s| _ = table6(&universe, s)), 1);
        assert_eq!(passes(&|s| _ = table7(&universe, s)), 1);
        assert_eq!(passes(&|s| _ = figure6(&universe, s)), 1);
        let (counted_v4, counted_v6) = (Counted::new(v4), Counted::new(v6));
        figure5(&universe, &counted_v4, &counted_v6);
        assert_eq!((counted_v4.passes.get(), counted_v6.passes.get()), (1, 1));
        // The provided `host_count` streams too, and counts what it sees.
        assert_eq!(counted_v4.host_count(), v4.hosts.len());
        assert_eq!(counted_v4.passes.get(), 2);
    }

    #[test]
    fn joined_snapshot_lends_the_table_a_fresh_join_builds() {
        let (universe, result) = census();
        let joined = JoinedSnapshot::new(&universe, &result.v4);
        let lent = joined.host_table(&universe);
        assert!(matches!(lent, Cow::Borrowed(_)));
        assert_eq!(*lent, *result.v4.host_table(&universe));
    }

    /// The definition the weighted table must agree with, one domain at a
    /// time: the in-scope domains whose resolved host satisfies `pred`, as
    /// `(distinct hosts, domains)`.
    fn recount(
        universe: &Universe,
        domains: &[Domain],
        ipv6: bool,
        in_scope: impl Fn(DomainLists) -> bool,
        pred: impl Fn(usize) -> bool,
    ) -> (u64, u64) {
        let mut hosts = BTreeSet::new();
        let mut served = 0;
        for domain in domains.iter().filter(|d| in_scope(d.lists)) {
            let resolved = domain
                .host
                .filter(|&h| universe.hosts[h].addr(ipv6).is_some());
            if let Some(host) = resolved.filter(|&h| pred(h)) {
                hosts.insert(host);
                served += 1;
            }
        }
        (hosts.len() as u64, served)
    }

    const QUADRANTS: [(MirrorUseQuadrant, bool, bool); 4] = [
        (MirrorUseQuadrant::MirroringNoUse, true, false),
        (MirrorUseQuadrant::MirroringUse, true, true),
        (MirrorUseQuadrant::NoMirroringNoUse, false, false),
        (MirrorUseQuadrant::NoMirroringUse, false, true),
    ];

    #[test]
    fn weighted_hosts_agree_with_a_per_domain_recount() {
        let (universe, domains) = observed(&UniverseConfig::tiny());
        let result = Campaign::new(&universe).run_main(&CampaignOptions::paper_default(), true);
        let (v4, v6) = (&result.v4, result.v6.as_ref().unwrap());
        fn quic(snapshot: &SnapshotMeasurement, host: usize) -> Option<&HostMeasurement> {
            snapshot.host(host).filter(|m| m.quic_reachable)
        }

        // Table 1.
        let rows = table1(&universe, v4).rows;
        let scopes: [&dyn Fn(DomainLists) -> bool; 2] = [&|l| l.toplist(), &|l| l.cno];
        for (scope, pair) in scopes.into_iter().zip(rows.chunks(2)) {
            let total = domains.iter().filter(|d| scope(d.lists)).count();
            let resolved = recount(&universe, &domains, false, scope, |_| true);
            let reachable = recount(&universe, &domains, false, scope, |h| quic(v4, h).is_some());
            let mirroring = recount(&universe, &domains, false, scope, |h| {
                quic(v4, h).is_some_and(|m| m.mirror_use().mirroring)
            });
            let uses = recount(&universe, &domains, false, scope, |h| {
                quic(v4, h).is_some_and(|m| m.mirror_use().uses_ecn)
            });
            assert!(reachable.1 > 0 && mirroring.1 > 0);
            let (domains, ips) = (&pair[0], &pair[1]);
            assert_eq!(
                (domains.total, domains.resolved, domains.quic),
                (total as u64, resolved.1, reachable.1)
            );
            assert_eq!(domains.mirroring, mirroring.1 as f64 / reachable.1 as f64);
            assert_eq!(domains.uses, uses.1 as f64 / reachable.1 as f64);
            assert_eq!(
                (ips.total, ips.resolved, ips.quic),
                (resolved.0, resolved.0, reachable.0)
            );
            assert_eq!(ips.mirroring, mirroring.0 as f64 / reachable.0 as f64);
            assert_eq!(ips.uses, uses.0 as f64 / reachable.0 as f64);
        }

        // Table 5, both families.
        let t5 = table5(&universe, v4, Some(v6));
        for (snapshot, counts) in [(v4, &t5.v4), (v6, &t5.v6)] {
            assert!(!counts.is_empty());
            for class in [
                EcnClass::NoMirroring,
                EcnClass::Undercount,
                EcnClass::RemarkEct1,
                EcnClass::AllCe,
                EcnClass::Capable,
                EcnClass::Other,
            ] {
                let expected = recount(
                    &universe,
                    &domains,
                    snapshot.ipv6,
                    |l| l.cno,
                    |h| quic(snapshot, h).is_some_and(|m| m.ecn_class() == Some(class)),
                );
                let got = counts.get(&class).map_or((0, 0), |c| (c.ips, c.domains));
                assert_eq!(got, expected, "{class} ipv6={}", snapshot.ipv6);
                assert_eq!(counts.contains_key(&class), expected.1 > 0);
            }
        }

        // Figure 5.
        let quadrant = |snapshot: &SnapshotMeasurement, host: usize| {
            let m = quic(snapshot, host)?.mirror_use();
            QUADRANTS
                .iter()
                .find(|q| (q.1, q.2) == (m.mirroring, m.uses_ecn))
                .map(|q| q.0)
        };
        let fig = figure5(&universe, v4, v6);
        let mut cross = BTreeMap::new();
        for (q4, ..) in QUADRANTS {
            let in_v4 = recount(
                &universe,
                &domains,
                false,
                |l| l.cno,
                |h| quadrant(v4, h) == Some(q4),
            );
            let in_v6 = recount(
                &universe,
                &domains,
                true,
                |l| l.cno,
                |h| quadrant(v6, h) == Some(q4),
            );
            assert_eq!(fig.v4.get(&q4).copied().unwrap_or(0), in_v4.1);
            assert_eq!(fig.v6.get(&q4).copied().unwrap_or(0), in_v6.1);
            for (q6, ..) in QUADRANTS {
                // Resolving in IPv6 implies resolving in IPv4: every host
                // has an IPv4 address.
                let both = recount(
                    &universe,
                    &domains,
                    true,
                    |l| l.cno,
                    |h| quadrant(v4, h) == Some(q4) && quadrant(v6, h) == Some(q6),
                );
                if both.1 > 0 {
                    cross.insert((q4, q6), both.1);
                }
            }
        }
        assert_eq!(fig.cross, cross);
        assert!(!cross.is_empty());
        let v4_only = recount(
            &universe,
            &domains,
            false,
            |l| l.cno,
            |h| {
                let via_v6 = universe.hosts[h].ipv6.and(quadrant(v6, h));
                quadrant(v4, h).is_some() && via_v6.is_none()
            },
        );
        assert_eq!(fig.v4_only, v4_only.1);
    }

    #[test]
    fn domain_counts_are_conserved_from_the_generator_to_the_table() {
        fn sum<'a>(hosts: impl Iterator<Item = &'a Host>, count: fn(&Host) -> u32) -> u64 {
            hosts.map(|h| u64::from(count(h))).sum()
        }
        /// A scope, its count on a host and its membership test.
        type Column = (Scope, fn(&Host) -> u32, fn(DomainLists) -> bool);
        let scopes: [Column; 2] = [
            (Scope::Toplists, |h| h.toplist_domains, |l| l.toplist()),
            (Scope::Cno, |h| h.cno_domains, |l| l.cno),
        ];
        for config in [UniverseConfig::default(), UniverseConfig::tiny()] {
            let (universe, domains) = observed(&config);
            for ipv6 in [false, true] {
                let unmeasured = SnapshotMeasurement {
                    date: SnapshotDate::APR_2023,
                    ipv6,
                    vantage: VantagePoint::main(),
                    hosts: HostMap::default(),
                };
                let table = HostTable::new(&universe, &unmeasured);
                for (scope, count, member) in scopes {
                    let in_family = universe.hosts.iter().filter(|h| h.addr(ipv6).is_some());
                    let weights = table.weights(scope).iter().map(|&w| u64::from(w));
                    assert_eq!(weights.sum::<u64>(), sum(in_family, count));
                    let unresolved = domains
                        .iter()
                        .filter(|d| member(d.lists) && d.host.is_none())
                        .count() as u64;
                    assert!(unresolved > 0);
                    assert_eq!(
                        sum(universe.hosts.iter(), count) + unresolved,
                        table.total(scope)
                    );
                }
                assert_eq!(
                    table.total(Scope::Toplists) + table.total(Scope::Cno),
                    universe.domains.len() as u64
                );
            }
        }
    }

    #[test]
    fn a_reachable_host_without_a_quic_report_joins_as_v1() {
        let (universe, domains) = observed(&UniverseConfig::tiny());
        let served = |host: usize| {
            domains
                .iter()
                .filter(|d| d.lists.cno && d.host == Some(host))
                .count() as u64
        };
        let host = (0..universe.hosts.len())
            .find(|&h| served(h) > 0)
            .expect("some host serves com/net/org domains");
        // What `decode_block` returns for a segment with the reachable bit
        // set and no QUIC report, next to a host this universe does not have.
        let bare = |host_id| HostMeasurement {
            host_id,
            quic_reachable: true,
            quic: None,
            tcp: None,
            trace: None,
        };
        let snapshot = SnapshotMeasurement {
            date: SnapshotDate::APR_2023,
            ipv6: false,
            vantage: VantagePoint::main(),
            hosts: [host, universe.hosts.len()]
                .into_iter()
                .map(|id| (id, bare(id)))
                .collect(),
        };
        let fig = figure4(&universe, std::slice::from_ref(&snapshot));
        let state = DomainState::NoMirroring("v1".to_string());
        assert_eq!(fig.states, [BTreeMap::from([(state, served(host))])]);
        assert!(fig.to_string().contains("No Mirroring (v1)"));
    }
}
