//! Builders for Tables 1–7.
//!
//! Every builder is generic over [`SnapshotSource`] and is a plain loop over
//! the source's [`HostTable`](crate::source::HostTable): each domain count
//! is a sum of per-host domain weights, each IP count the number of hosts
//! that contributed.  The same code therefore renders a table from a live
//! in-memory campaign or from a `qem-store` directory on disk with
//! byte-identical output; the source itself is streamed once, by the join.

use super::{fmt_count, fmt_pct};
use crate::observation::EcnClass;
use crate::source::{Scope, SnapshotSource};
use qem_tracebox::PathVerdict;
use qem_web::Universe;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::IpAddr;

impl Scope {
    fn label(self) -> &'static str {
        match self {
            Scope::Toplists => "Toplists",
            Scope::Cno => "com/net/org",
        }
    }
}

fn org_of_host(universe: &Universe, host_id: usize) -> String {
    universe
        .as_org
        .org_of_ip(IpAddr::V4(universe.hosts[host_id].ipv4))
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of Table 1 (a scope × unit combination).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Domain population.
    pub scope: &'static str,
    /// "Domains" or "IPs".
    pub unit: &'static str,
    /// Total entries in the population.
    pub total: u64,
    /// Entries that resolved.
    pub resolved: u64,
    /// Entries reachable via QUIC.
    pub quic: u64,
    /// Share of QUIC entries that mirror ECN.
    pub mirroring: f64,
    /// Share of QUIC entries whose host uses ECN itself.
    pub uses: f64,
}

/// Table 1: visible ECN mirroring and use via QUIC.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The four rows (toplists/c-n-o × domains/IPs).
    pub rows: Vec<Table1Row>,
}

/// Build Table 1 from the main IPv4 snapshot.
pub fn table1<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> Table1 {
    let table = snapshot.host_table(universe);
    let mut rows = Vec::new();
    for scope in [Scope::Toplists, Scope::Cno] {
        let mut resolved = ClassCount::default();
        for &weight in table.weights(scope).iter().filter(|&&w| w > 0) {
            resolved.add(u64::from(weight));
        }
        let mut quic = ClassCount::default();
        let mut mirroring = ClassCount::default();
        let mut uses = ClassCount::default();
        for (_, weight, host) in table.quic_hosts(scope) {
            quic.add(weight);
            if host.mirror_use.mirroring {
                mirroring.add(weight);
            }
            if host.mirror_use.uses_ecn {
                uses.add(weight);
            }
        }
        let pct = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        rows.push(Table1Row {
            scope: scope.label(),
            unit: "Domains",
            total: table.total(scope),
            resolved: resolved.domains,
            quic: quic.domains,
            mirroring: pct(mirroring.domains, quic.domains),
            uses: pct(uses.domains, quic.domains),
        });
        rows.push(Table1Row {
            scope: scope.label(),
            unit: "IPs",
            total: resolved.ips,
            resolved: resolved.ips,
            quic: quic.ips,
            mirroring: pct(mirroring.ips, quic.ips),
            uses: pct(uses.ips, quic.ips),
        });
    }
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1: visible ECN mirroring and use via QUIC (IPv4)\n\
             {:<14} {:<8} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "Scope", "Unit", "Total", "Resolved", "QUIC", "Mirroring", "Use"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<14} {:<8} {:>12} {:>12} {:>12} {:>10} {:>10}",
                row.scope,
                row.unit,
                fmt_count(row.total),
                fmt_count(row.resolved),
                fmt_count(row.quic),
                fmt_pct(row.mirroring),
                fmt_pct(row.uses),
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tables 2 and 3
// ---------------------------------------------------------------------------

/// One provider row of Table 2 / Table 3.
#[derive(Debug, Clone)]
pub struct ProviderRow {
    /// Rank by total QUIC domains.
    pub rank: usize,
    /// AS organisation name.
    pub org: String,
    /// QUIC domains hosted.
    pub total: u64,
    /// Domains with ECN mirroring.
    pub mirroring: u64,
    /// Domains whose host uses ECN.
    pub uses: u64,
}

/// Table 2 / Table 3: top providers and their ECN support.
#[derive(Debug, Clone)]
pub struct ProviderTable {
    /// Scope the table covers.
    pub scope: &'static str,
    /// The listed providers (top by size, plus top mirroring/use providers).
    pub rows: Vec<ProviderRow>,
    /// Aggregate of everything else.
    pub other: ProviderRow,
    /// Total QUIC domains in scope.
    pub total_quic_domains: u64,
}

fn provider_table<S: SnapshotSource + ?Sized>(
    universe: &Universe,
    snapshot: &S,
    scope: Scope,
    listed: usize,
) -> ProviderTable {
    #[derive(Default, Clone)]
    struct Acc {
        total: u64,
        mirroring: u64,
        uses: u64,
    }
    let mut per_org: BTreeMap<String, Acc> = BTreeMap::new();
    let mut total_quic = 0u64;
    for (id, weight, host) in snapshot.host_table(universe).quic_hosts(scope) {
        total_quic += weight;
        let acc = per_org.entry(org_of_host(universe, id)).or_default();
        acc.total += weight;
        if host.mirror_use.mirroring {
            acc.mirroring += weight;
        }
        if host.mirror_use.uses_ecn {
            acc.uses += weight;
        }
    }
    let mut ranked: Vec<(String, Acc)> = per_org.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));

    // Keep the top-N by size plus the top-5 by mirroring and use, as the
    // paper's tables do.
    let mut keep: BTreeSet<String> = ranked.iter().take(listed).map(|(o, _)| o.clone()).collect();
    let mut by_mirroring = ranked.clone();
    by_mirroring.sort_by_key(|entry| std::cmp::Reverse(entry.1.mirroring));
    for (org, acc) in by_mirroring.iter().take(5) {
        if acc.mirroring > 0 {
            keep.insert(org.clone());
        }
    }
    let mut by_use = ranked.clone();
    by_use.sort_by_key(|entry| std::cmp::Reverse(entry.1.uses));
    for (org, acc) in by_use.iter().take(5) {
        if acc.uses > 0 {
            keep.insert(org.clone());
        }
    }

    let mut rows = Vec::new();
    let mut other = ProviderRow {
        rank: 0,
        org: "<other>".to_string(),
        total: 0,
        mirroring: 0,
        uses: 0,
    };
    for (rank, (org, acc)) in ranked.iter().enumerate() {
        if keep.contains(org) {
            rows.push(ProviderRow {
                rank: rank + 1,
                org: org.clone(),
                total: acc.total,
                mirroring: acc.mirroring,
                uses: acc.uses,
            });
        } else {
            other.total += acc.total;
            other.mirroring += acc.mirroring;
            other.uses += acc.uses;
        }
    }
    ProviderTable {
        scope: scope.label(),
        rows,
        other,
        total_quic_domains: total_quic,
    }
}

/// Table 2: top providers of com/net/org QUIC domains.
pub fn table2<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> ProviderTable {
    provider_table(universe, snapshot, Scope::Cno, 8)
}

/// Table 3: top providers of toplist QUIC domains.
pub fn table3<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> ProviderTable {
    provider_table(universe, snapshot, Scope::Toplists, 5)
}

impl ProviderTable {
    /// The row for a specific organisation, if listed.
    pub fn row(&self, org: &str) -> Option<&ProviderRow> {
        self.rows.iter().find(|r| r.org == org)
    }
}

impl fmt::Display for ProviderTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Top providers of {} QUIC domains ({} total)\n{:<4} {:<26} {:>12} {:>12} {:>12}",
            self.scope,
            fmt_count(self.total_quic_domains),
            "#",
            "AS Organisation",
            "Total",
            "Mirroring",
            "Use"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<4} {:<26} {:>12} {:>12} {:>12}",
                row.rank,
                row.org,
                fmt_count(row.total),
                fmt_count(row.mirroring),
                fmt_count(row.uses),
            )?;
        }
        writeln!(
            f,
            "{:<4} {:<26} {:>12} {:>12} {:>12}",
            "",
            self.other.org,
            fmt_count(self.other.total),
            fmt_count(self.other.mirroring),
            fmt_count(self.other.uses),
        )
    }
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// One organisation row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// AS organisation.
    pub org: String,
    /// Domains whose forward path visibly cleared ECN codepoints.
    pub cleared: u64,
    /// Domains whose host was not selected for tracing.
    pub not_tested: u64,
    /// Domains traced without visible clearing.
    pub not_cleared: u64,
}

/// Table 4: ECN codepoint clearing per AS organisation (non-mirroring
/// com/net/org QUIC domains).
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Per-organisation rows, sorted by cleared count.
    pub rows: Vec<Table4Row>,
    /// Domain totals: (cleared, not tested, not cleared).
    pub totals: (u64, u64, u64),
    /// IP totals: (cleared, not tested, not cleared).
    pub total_ips: (u64, u64, u64),
}

/// Build Table 4 from the main IPv4 snapshot.
pub fn table4<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> Table4 {
    let mut per_org: BTreeMap<String, Table4Row> = BTreeMap::new();
    // Cleared, not tested, not cleared.
    let mut totals = [ClassCount::default(); 3];
    for (id, weight, host) in snapshot.host_table(universe).quic_hosts(Scope::Cno) {
        if host.mirror_use.mirroring {
            continue;
        }
        let org = org_of_host(universe, id);
        let row = per_org.entry(org.clone()).or_insert_with(|| Table4Row {
            org,
            cleared: 0,
            not_tested: 0,
            not_cleared: 0,
        });
        let (cell, total) = match host.verdict {
            Some(PathVerdict::Cleared) => (&mut row.cleared, &mut totals[0]),
            None | Some(PathVerdict::Untested) => (&mut row.not_tested, &mut totals[1]),
            Some(_) => (&mut row.not_cleared, &mut totals[2]),
        };
        *cell += weight;
        total.add(weight);
    }
    let mut rows: Vec<Table4Row> = per_org.into_values().collect();
    rows.sort_by(|a, b| {
        b.cleared
            .cmp(&a.cleared)
            .then(b.not_cleared.cmp(&a.not_cleared))
    });
    Table4 {
        rows,
        totals: (totals[0].domains, totals[1].domains, totals[2].domains),
        total_ips: (totals[0].ips, totals[1].ips, totals[2].ips),
    }
}

impl Table4 {
    /// Row for an organisation, if present.
    pub fn row(&self, org: &str) -> Option<&Table4Row> {
        self.rows.iter().find(|r| r.org == org)
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4: ECN codepoint clearing per AS organisation (IPv4, non-mirroring domains)\n\
             {:<26} {:>12} {:>12} {:>12}",
            "AS Organisation", "Cleared", "Not Tested", "Not Cleared"
        )?;
        for row in self.rows.iter().take(12) {
            writeln!(
                f,
                "{:<26} {:>12} {:>12} {:>12}",
                row.org,
                fmt_count(row.cleared),
                fmt_count(row.not_tested),
                fmt_count(row.not_cleared),
            )?;
        }
        writeln!(
            f,
            "{:<26} {:>12} {:>12} {:>12}",
            "<total>",
            fmt_count(self.totals.0),
            fmt_count(self.totals.1),
            fmt_count(self.totals.2),
        )?;
        writeln!(
            f,
            "{:<26} {:>12} {:>12} {:>12}",
            "<total IPs>",
            fmt_count(self.total_ips.0),
            fmt_count(self.total_ips.1),
            fmt_count(self.total_ips.2),
        )
    }
}

// ---------------------------------------------------------------------------
// Table 5
// ---------------------------------------------------------------------------

/// Counts for one validation class and one address family.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCount {
    /// Distinct IPs in the class.
    pub ips: u64,
    /// Domains in the class.
    pub domains: u64,
}

impl ClassCount {
    /// Count one more host, serving `domains` domains.
    fn add(&mut self, domains: u64) {
        self.ips += 1;
        self.domains += domains;
    }
}

/// Table 5: ECN validation results for the com/net/org domains.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Per-class counts for IPv4.
    pub v4: BTreeMap<EcnClass, ClassCount>,
    /// Per-class counts for IPv6 (empty map if IPv6 was not measured).
    pub v6: BTreeMap<EcnClass, ClassCount>,
}

fn classify_snapshot<S: SnapshotSource + ?Sized>(
    universe: &Universe,
    snapshot: &S,
) -> BTreeMap<EcnClass, ClassCount> {
    let mut counts: BTreeMap<EcnClass, ClassCount> = BTreeMap::new();
    for (_, weight, host) in snapshot.host_table(universe).quic_hosts(Scope::Cno) {
        if let Some(class) = host.class {
            counts.entry(class).or_default().add(weight);
        }
    }
    counts
}

/// Build Table 5 from the main IPv4 snapshot and the optional IPv6 snapshot.
pub fn table5<S: SnapshotSource + ?Sized>(universe: &Universe, v4: &S, v6: Option<&S>) -> Table5 {
    Table5 {
        v4: classify_snapshot(universe, v4),
        v6: v6
            .map(|s| classify_snapshot(universe, s))
            .unwrap_or_default(),
    }
}

impl Table5 {
    /// Domain count for a class (IPv4).
    pub fn v4_domains(&self, class: EcnClass) -> u64 {
        self.v4.get(&class).map(|c| c.domains).unwrap_or(0)
    }

    /// Domain count for a class (IPv6).
    pub fn v6_domains(&self, class: EcnClass) -> u64 {
        self.v6.get(&class).map(|c| c.domains).unwrap_or(0)
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 5: ECN validation results (com/net/org)\n{:<20} {:>10} {:>12} {:>10} {:>12}",
            "Mirrored counters", "IPv4 IPs", "IPv4 Domains", "IPv6 IPs", "IPv6 Domains"
        )?;
        let order = [
            EcnClass::AllCe,
            EcnClass::RemarkEct1,
            EcnClass::Undercount,
            EcnClass::Capable,
            EcnClass::Other,
            EcnClass::NoMirroring,
        ];
        for class in order {
            let v4 = self.v4.get(&class).copied().unwrap_or_default();
            let v6 = self.v6.get(&class).copied().unwrap_or_default();
            if v4.domains == 0 && v6.domains == 0 && class == EcnClass::Other {
                continue;
            }
            writeln!(
                f,
                "{:<20} {:>10} {:>12} {:>10} {:>12}",
                class.label(),
                fmt_count(v4.ips),
                fmt_count(v4.domains),
                fmt_count(v6.ips),
                fmt_count(v6.domains),
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Table 6
// ---------------------------------------------------------------------------

/// Table 6: the AS organisations behind the three biggest validation classes.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Top organisations per class: (org, domain count), plus an `<other>` row.
    pub columns: BTreeMap<EcnClass, Vec<(String, u64)>>,
}

/// Build Table 6 from the main IPv4 snapshot.
pub fn table6<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> Table6 {
    let mut per_class: BTreeMap<EcnClass, BTreeMap<String, u64>> = BTreeMap::new();
    for (id, weight, host) in snapshot.host_table(universe).quic_hosts(Scope::Cno) {
        let Some(class @ (EcnClass::Capable | EcnClass::Undercount | EcnClass::RemarkEct1)) =
            host.class
        else {
            continue;
        };
        *per_class
            .entry(class)
            .or_default()
            .entry(org_of_host(universe, id))
            .or_default() += weight;
    }
    let mut columns = BTreeMap::new();
    for (class, orgs) in per_class {
        let mut ranked: Vec<(String, u64)> = orgs.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut rows: Vec<(String, u64)> = ranked.iter().take(5).cloned().collect();
        let other: u64 = ranked.iter().skip(5).map(|(_, c)| c).sum();
        rows.push(("<other>".to_string(), other));
        columns.insert(class, rows);
    }
    Table6 { columns }
}

impl Table6 {
    /// The top organisation for a class, if any.
    pub fn top_org(&self, class: EcnClass) -> Option<&str> {
        self.columns
            .get(&class)
            .and_then(|rows| rows.first())
            .map(|(org, _)| org.as_str())
    }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 6: AS organisations per validation class (IPv4, com/net/org)"
        )?;
        for class in [
            EcnClass::Capable,
            EcnClass::Undercount,
            EcnClass::RemarkEct1,
        ] {
            writeln!(f, "  {}:", class.label())?;
            if let Some(rows) = self.columns.get(&class) {
                for (org, count) in rows {
                    writeln!(f, "    {:<26} {:>12}", org, fmt_count(*count))?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Table 7
// ---------------------------------------------------------------------------

/// Tracebox-visible path state for domains in a validation failure class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table7Row {
    /// The path visibly re-marked ECT(0) to ECT(1).
    pub remarked_to_ect1: ClassCount,
    /// The path visibly cleared the codepoints to not-ECT.
    pub cleared_to_not_ect: ClassCount,
    /// The trace shows the codepoint unchanged (ECT(0) end to end).
    pub unchanged_ect0: ClassCount,
    /// The host was not traced (sampling) or the trace was unusable.
    pub not_tested: ClassCount,
}

/// Table 7: validation failures and the network impacts seen for them.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// Row for the re-marking failure class.
    pub remarking: Table7Row,
    /// Row for the undercount failure class.
    pub undercount: Table7Row,
}

/// Build Table 7 from the main IPv4 snapshot.
pub fn table7<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> Table7 {
    let mut remarking = Table7Row::default();
    let mut undercount = Table7Row::default();
    for (_, weight, host) in snapshot.host_table(universe).quic_hosts(Scope::Cno) {
        let row = match host.class {
            Some(EcnClass::RemarkEct1) => &mut remarking,
            Some(EcnClass::Undercount) => &mut undercount,
            _ => continue,
        };
        let cell = match host.verdict {
            Some(PathVerdict::RemarkedToEct1) => &mut row.remarked_to_ect1,
            Some(PathVerdict::Cleared) => &mut row.cleared_to_not_ect,
            Some(PathVerdict::NoChange)
            | Some(PathVerdict::RemarkedToEct0)
            | Some(PathVerdict::CeMarked) => &mut row.unchanged_ect0,
            None | Some(PathVerdict::Untested) => &mut row.not_tested,
        };
        cell.add(weight);
    }
    Table7 {
        remarking,
        undercount,
    }
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 7: validation failures vs. tracebox-visible path impact (com/net/org, IPv4)\n\
             {:<14} {:>20} {:>16} {:>14} {:>14}",
            "", "ECT(0)->ECT(1)", "not-ECT", "ECT(0)", "not tested"
        )?;
        for (label, row) in [
            ("Re-Marking", &self.remarking),
            ("Undercount", &self.undercount),
        ] {
            writeln!(
                f,
                "{:<14} {:>20} {:>16} {:>14} {:>14}",
                label,
                format!(
                    "{} / {}",
                    fmt_count(row.remarked_to_ect1.ips),
                    fmt_count(row.remarked_to_ect1.domains)
                ),
                format!(
                    "{} / {}",
                    fmt_count(row.cleared_to_not_ect.ips),
                    fmt_count(row.cleared_to_not_ect.domains)
                ),
                format!(
                    "{} / {}",
                    fmt_count(row.unchanged_ect0.ips),
                    fmt_count(row.unchanged_ect0.domains)
                ),
                format!(
                    "{} / {}",
                    fmt_count(row.not_tested.ips),
                    fmt_count(row.not_tested.domains)
                ),
            )?;
        }
        Ok(())
    }
}
