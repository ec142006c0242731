//! Builders for Figures 3–8 (Figure 1 is the validation state machine itself,
//! Figure 2 the pipeline diagram; neither carries data).
//!
//! Like the table builders, every figure builder is generic over
//! [`SnapshotSource`] and loops over the source's per-host join, so the same
//! code renders a figure from a live campaign or from a `qem-store`
//! directory with byte-identical output.  Only Figure 7 streams sources
//! itself: the cloud snapshots are weighted by the main vantage point's
//! join, not joined.

use super::fmt_count;
use crate::observation::{EcnClass, HostSummary};
use crate::source::{Scope, SnapshotSource};
use crate::vantage::VantagePoint;
use qem_quic::ClientReport;
use qem_tcp::TcpReport;
use qem_web::{SnapshotDate, Universe};
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One month of Figure 3.
#[derive(Debug, Clone)]
pub struct Figure3Point {
    /// Snapshot date.
    pub date: SnapshotDate,
    /// Total QUIC-reachable com/net/org domains (the cyan line).
    pub total_quic_domains: u64,
    /// Mirroring domains by web-server family (the stacked bars):
    /// "LiteSpeed", "Pepyaka", "Other", "Unknown".
    pub mirroring_by_family: BTreeMap<String, u64>,
}

impl Figure3Point {
    /// Total mirroring domains in this month.
    pub fn mirroring_total(&self) -> u64 {
        self.mirroring_by_family.values().sum()
    }
}

/// Figure 3: ECN mirroring over time by web-server family.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// One point per snapshot, in chronological order.
    pub points: Vec<Figure3Point>,
}

/// Build Figure 3 from a longitudinal series of IPv4 snapshots.
pub fn figure3<S: SnapshotSource>(universe: &Universe, snapshots: &[S]) -> Figure3 {
    let mut points = Vec::new();
    for snapshot in snapshots {
        let table = snapshot.host_table(universe);
        // The fingerprint → family map that identifies stacks without a
        // server header (§5.3); where hosts disagree, the last in id order
        // wins.
        let fingerprint_family: BTreeMap<u64, _> = table
            .measured
            .iter()
            .flatten()
            .filter_map(|host| Some((host.fingerprint?, host.family?)))
            .collect();
        let mut by_family: BTreeMap<String, u64> = BTreeMap::new();
        let mut total_quic = 0u64;
        for (_, weight, host) in table.quic_hosts(Scope::Cno) {
            total_quic += weight;
            if !host.mirror_use.mirroring {
                continue;
            }
            let family = host
                .family
                .or_else(|| fingerprint_family.get(&host.fingerprint?).copied());
            *by_family
                .entry(family.map_or("Unknown", |f| f.label()).to_string())
                .or_default() += weight;
        }
        points.push(Figure3Point {
            date: snapshot.date(),
            total_quic_domains: total_quic,
            mirroring_by_family: by_family,
        });
    }
    Figure3 { points }
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: HTTP/3 servers with observed ECN mirroring over time (com/net/org, IPv4)\n\
             {:<8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "Month", "Total QUIC", "Mirroring", "LiteSpeed", "Pepyaka", "Other", "Unknown"
        )?;
        for point in &self.points {
            let get = |k: &str| point.mirroring_by_family.get(k).copied().unwrap_or(0);
            writeln!(
                f,
                "{:<8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
                point.date.to_string(),
                fmt_count(point.total_quic_domains),
                fmt_count(point.mirroring_total()),
                fmt_count(get("LiteSpeed")),
                fmt_count(get("Pepyaka")),
                fmt_count(get("Other")),
                fmt_count(get("Unknown")),
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 4 / Figure 8
// ---------------------------------------------------------------------------

/// Per-domain state used in the Figure 4 alluvial plot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainState {
    /// Not reachable via QUIC at that date.
    Unavailable,
    /// Reachable, not mirroring; the string is the QUIC version label ("v1", "d27", …).
    NoMirroring(String),
    /// Reachable and mirroring; the string is the QUIC version label.
    Mirroring(String),
}

impl fmt::Display for DomainState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainState::Unavailable => write!(f, "Unavailable"),
            DomainState::NoMirroring(v) => write!(f, "No Mirroring ({v})"),
            DomainState::Mirroring(v) => write!(f, "Mirroring ({v})"),
        }
    }
}

/// Figure 4 / Figure 8: per-domain transitions across snapshots.
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// The snapshot dates, in order.
    pub dates: Vec<SnapshotDate>,
    /// State counts per snapshot.
    pub states: Vec<BTreeMap<DomainState, u64>>,
    /// Transition counts between consecutive snapshots.
    pub transitions: Vec<BTreeMap<(DomainState, DomainState), u64>>,
}

impl DomainState {
    /// The state of every domain a host serves.
    fn of(host: Option<&HostSummary>) -> Self {
        match host {
            Some(host) if host.quic_reachable => {
                let version = host.version.label();
                if host.mirror_use.mirroring {
                    DomainState::Mirroring(version)
                } else {
                    DomainState::NoMirroring(version)
                }
            }
            _ => DomainState::Unavailable,
        }
    }
}

/// Build Figure 4 from (typically three) longitudinal snapshots.
pub fn figure4<S: SnapshotSource>(universe: &Universe, snapshots: &[S]) -> Figure4 {
    let tables: Vec<_> = snapshots.iter().map(|s| s.host_table(universe)).collect();
    let mut states = vec![BTreeMap::new(); tables.len()];
    let mut transitions = vec![BTreeMap::new(); tables.len().saturating_sub(1)];
    for id in 0..universe.hosts.len() {
        // Like the paper's alluvial plots, only domains that are part of the
        // QUIC web at some point in the window are shown; the never-QUIC
        // mass of the zone files would otherwise dwarf every flow.
        let Some((weight, _)) = tables
            .iter()
            .filter_map(|t| t.host(Scope::Cno, id))
            .find(|(_, host)| host.quic_reachable)
        else {
            continue;
        };
        // A domain's state at each date is its host's, so the host's domains
        // move through the alluvial together.
        let path: Vec<DomainState> = tables
            .iter()
            .map(|t| DomainState::of(t.host(Scope::Cno, id).map(|(_, host)| host)))
            .collect();
        for (counts, state) in states.iter_mut().zip(&path) {
            *counts.entry(state.clone()).or_default() += weight;
        }
        for (counts, step) in transitions.iter_mut().zip(path.windows(2)) {
            *counts
                .entry((step[0].clone(), step[1].clone()))
                .or_default() += weight;
        }
    }
    Figure4 {
        dates: snapshots.iter().map(|s| s.date()).collect(),
        states,
        transitions,
    }
}

impl Figure4 {
    /// Number of domains in a given state at snapshot index `at`.
    pub fn count(&self, at: usize, state: &DomainState) -> u64 {
        self.states
            .get(at)
            .and_then(|m| m.get(state))
            .copied()
            .unwrap_or(0)
    }

    /// Number of mirroring domains (any version) at snapshot index `at`.
    pub fn mirroring_total(&self, at: usize) -> u64 {
        self.states
            .get(at)
            .map(|m| {
                m.iter()
                    .filter(|(s, _)| matches!(s, DomainState::Mirroring(_)))
                    .map(|(_, c)| c)
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl fmt::Display for Figure4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4/8: QUIC ECN support transitions over time (com/net/org)"
        )?;
        for (i, date) in self.dates.iter().enumerate() {
            writeln!(f, "  {date}:")?;
            for (state, count) in &self.states[i] {
                writeln!(f, "    {:<22} {:>12}", state.to_string(), fmt_count(*count))?;
            }
        }
        for (i, transition) in self.transitions.iter().enumerate() {
            writeln!(
                f,
                "  {} -> {} (flows >= 1% of domains):",
                self.dates[i],
                self.dates[i + 1]
            )?;
            let total: u64 = transition.values().sum();
            let mut flows: Vec<_> = transition.iter().collect();
            flows.sort_by(|a, b| b.1.cmp(a.1));
            for ((from, to), count) in flows {
                if *count * 100 >= total {
                    writeln!(
                        f,
                        "    {:<22} -> {:<22} {:>12}",
                        from.to_string(),
                        to.to_string(),
                        fmt_count(*count)
                    )?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// The four mirroring/use quadrants of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MirrorUseQuadrant {
    /// Mirrors, does not use.
    MirroringNoUse,
    /// Mirrors and uses.
    MirroringUse,
    /// Neither mirrors nor uses.
    NoMirroringNoUse,
    /// Uses without mirroring.
    NoMirroringUse,
}

impl MirrorUseQuadrant {
    fn of(mirroring: bool, uses: bool) -> Self {
        match (mirroring, uses) {
            (true, false) => MirrorUseQuadrant::MirroringNoUse,
            (true, true) => MirrorUseQuadrant::MirroringUse,
            (false, false) => MirrorUseQuadrant::NoMirroringNoUse,
            (false, true) => MirrorUseQuadrant::NoMirroringUse,
        }
    }

    /// Label as used in the figure.
    pub fn label(self) -> &'static str {
        match self {
            MirrorUseQuadrant::MirroringNoUse => "Mirroring, No Use",
            MirrorUseQuadrant::MirroringUse => "Mirroring, Use",
            MirrorUseQuadrant::NoMirroringNoUse => "No Mirroring, No Use",
            MirrorUseQuadrant::NoMirroringUse => "No Mirroring, Use",
        }
    }
}

/// Figure 5: IPv4 ↔ IPv6 relation of visible ECN support (com/net/org).
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Domain counts per quadrant via IPv4.
    pub v4: BTreeMap<MirrorUseQuadrant, u64>,
    /// Domain counts per quadrant via IPv6.
    pub v6: BTreeMap<MirrorUseQuadrant, u64>,
    /// Domains reachable via IPv4 QUIC but not via IPv6 QUIC.
    pub v4_only: u64,
    /// Cross-tabulation for domains reachable via both.
    pub cross: BTreeMap<(MirrorUseQuadrant, MirrorUseQuadrant), u64>,
}

/// Build Figure 5 by joining the IPv4 and IPv6 snapshots per domain.
pub fn figure5<S4: SnapshotSource + ?Sized, S6: SnapshotSource + ?Sized>(
    universe: &Universe,
    v4: &S4,
    v6: &S6,
) -> Figure5 {
    let table_v4 = v4.host_table(universe);
    let table_v6 = v6.host_table(universe);
    let quadrant = |host: &HostSummary| {
        MirrorUseQuadrant::of(host.mirror_use.mirroring, host.mirror_use.uses_ecn)
    };
    let mut fig = Figure5 {
        v4: BTreeMap::new(),
        v6: BTreeMap::new(),
        v4_only: 0,
        cross: BTreeMap::new(),
    };
    for (_, weight, host) in table_v6.quic_hosts(Scope::Cno) {
        *fig.v6.entry(quadrant(host)).or_default() += weight;
    }
    for (id, weight, host) in table_v4.quic_hosts(Scope::Cno) {
        *fig.v4.entry(quadrant(host)).or_default() += weight;
        // A dual-stacked host serves the same domains in both families.
        match table_v6.host(Scope::Cno, id) {
            Some((_, host_v6)) if host_v6.quic_reachable => {
                *fig.cross
                    .entry((quadrant(host), quadrant(host_v6)))
                    .or_default() += weight;
            }
            _ => fig.v4_only += weight,
        }
    }
    fig
}

impl fmt::Display for Figure5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5: IPv4 vs IPv6 visible ECN support (com/net/org)"
        )?;
        writeln!(f, "  {:<24} {:>12} {:>12}", "Class", "IPv4", "IPv6")?;
        for quadrant in [
            MirrorUseQuadrant::MirroringNoUse,
            MirrorUseQuadrant::MirroringUse,
            MirrorUseQuadrant::NoMirroringNoUse,
            MirrorUseQuadrant::NoMirroringUse,
        ] {
            writeln!(
                f,
                "  {:<24} {:>12} {:>12}",
                quadrant.label(),
                fmt_count(self.v4.get(&quadrant).copied().unwrap_or(0)),
                fmt_count(self.v6.get(&quadrant).copied().unwrap_or(0)),
            )?;
        }
        writeln!(
            f,
            "  (domains QUIC-reachable via IPv4 only: {})",
            fmt_count(self.v4_only)
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// TCP-side categories of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TcpCategory {
    /// ECN negotiated, CE mirrored, host does not use ECN.
    CeMirrorNoUseNegotiated,
    /// ECN negotiated, CE mirrored, host uses ECN.
    CeMirrorUseNegotiated,
    /// ECN negotiated but CE not mirrored, host does not use ECN.
    NoCeMirrorNoUseNegotiated,
    /// ECN negotiated but CE not mirrored, host uses ECN.
    NoCeMirrorUseNegotiated,
    /// ECN not negotiated.
    NoNegotiation,
}

impl TcpCategory {
    /// Label as in the figure.
    pub fn label(self) -> &'static str {
        match self {
            TcpCategory::CeMirrorNoUseNegotiated => "CE Mirroring, No Use, Negotiation",
            TcpCategory::CeMirrorUseNegotiated => "CE Mirroring, Use, Negotiation",
            TcpCategory::NoCeMirrorNoUseNegotiated => "No CE Mirroring, No Use, Negotiation",
            TcpCategory::NoCeMirrorUseNegotiated => "No CE Mirroring, Use, Negotiation",
            TcpCategory::NoNegotiation => "No Negotiation",
        }
    }

    /// Category of a finished TCP probe; `None` if it never connected.
    pub(crate) fn of(report: &TcpReport) -> Option<Self> {
        let category = match (
            report.negotiated,
            report.ce_mirrored,
            report.server_used_ecn,
        ) {
            (false, ..) => TcpCategory::NoNegotiation,
            (true, true, false) => TcpCategory::CeMirrorNoUseNegotiated,
            (true, true, true) => TcpCategory::CeMirrorUseNegotiated,
            (true, false, false) => TcpCategory::NoCeMirrorNoUseNegotiated,
            (true, false, true) => TcpCategory::NoCeMirrorUseNegotiated,
        };
        report.connected.then_some(category)
    }
}

/// QUIC-side categories of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuicCeCategory {
    /// CE counter mirrored, host does not use ECN.
    CeMirrorNoUse,
    /// CE counter mirrored, host uses ECN.
    CeMirrorUse,
    /// No CE mirroring, no use.
    NoCeMirrorNoUse,
    /// No CE mirroring but the host uses ECN.
    NoCeMirrorUse,
}

impl QuicCeCategory {
    /// Label as in the figure.
    pub fn label(self) -> &'static str {
        match self {
            QuicCeCategory::CeMirrorNoUse => "CE Mirroring, No Use",
            QuicCeCategory::CeMirrorUse => "CE Mirroring, Use",
            QuicCeCategory::NoCeMirrorNoUse => "No CE Mirroring, No Use",
            QuicCeCategory::NoCeMirrorUse => "No CE Mirroring, Use",
        }
    }

    /// Category of a finished QUIC probe; `None` if it never connected.
    pub(crate) fn of(report: &ClientReport) -> Option<Self> {
        let category = match (report.mirrored_counts.ce > 0, report.server_used_ecn) {
            (true, false) => QuicCeCategory::CeMirrorNoUse,
            (true, true) => QuicCeCategory::CeMirrorUse,
            (false, false) => QuicCeCategory::NoCeMirrorNoUse,
            (false, true) => QuicCeCategory::NoCeMirrorUse,
        };
        report.connected.then_some(category)
    }
}

/// Figure 6: TCP ↔ QUIC CE-mirroring relation (the week-20 CE-probing run).
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// Domain counts per TCP category (TCP-reachable c/n/o domains).
    pub tcp: BTreeMap<TcpCategory, u64>,
    /// Domain counts per QUIC category (QUIC-reachable c/n/o domains).
    pub quic: BTreeMap<QuicCeCategory, u64>,
    /// Cross-tabulation for domains measured via both protocols.
    pub cross: BTreeMap<(TcpCategory, QuicCeCategory), u64>,
}

/// Build Figure 6 from the CE-probing snapshot (QUIC and TCP measured in parallel).
pub fn figure6<S: SnapshotSource + ?Sized>(universe: &Universe, snapshot: &S) -> Figure6 {
    let mut fig = Figure6 {
        tcp: BTreeMap::new(),
        quic: BTreeMap::new(),
        cross: BTreeMap::new(),
    };
    for (_, weight, host) in snapshot.host_table(universe).hosts(Scope::Cno) {
        if let Some(t) = host.tcp {
            *fig.tcp.entry(t).or_default() += weight;
        }
        if let Some(q) = host.quic_ce {
            *fig.quic.entry(q).or_default() += weight;
        }
        if let (Some(t), Some(q)) = (host.tcp, host.quic_ce) {
            *fig.cross.entry((t, q)).or_default() += weight;
        }
    }
    fig
}

impl fmt::Display for Figure6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: TCP vs QUIC visible ECN support with CE probing (com/net/org, IPv4)"
        )?;
        writeln!(f, "  TCP:")?;
        for (category, count) in &self.tcp {
            writeln!(f, "    {:<40} {:>12}", category.label(), fmt_count(*count))?;
        }
        writeln!(f, "  QUIC:")?;
        for (category, count) in &self.quic {
            writeln!(f, "    {:<40} {:>12}", category.label(), fmt_count(*count))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// One vantage point of Figure 7.
#[derive(Debug, Clone)]
pub struct Figure7Row {
    /// Vantage point name.
    pub vantage: String,
    /// Platform marker ('M', 'A' or 'V').
    pub marker: char,
    /// Share of (domain-weighted) QUIC domains passing ECN validation, IPv4.
    pub capable_share_v4: f64,
    /// Share for IPv6, if measured.
    pub capable_share_v6: Option<f64>,
    /// Number of hosts probed from this vantage point.
    pub hosts_probed: usize,
}

/// Figure 7: global view on QUIC ECN validation.
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// One row per vantage point.
    pub rows: Vec<Figure7Row>,
}

/// Build Figure 7.  Cloud workers probe deduplicated IPs only, so the shares
/// are re-weighted by the main vantage point's domain-to-IP mapping, exactly
/// as the paper does.
pub fn figure7<SM: SnapshotSource, SC: SnapshotSource>(
    universe: &Universe,
    main_v4: &SM,
    cloud: &[(VantagePoint, SC, Option<SC>)],
) -> Figure7 {
    // Domain weight per host, from the main vantage point's IPv4 view.
    let table = main_v4.host_table(universe);
    let total_weight: u64 = table.quic_hosts(Scope::Cno).map(|(_, w, _)| w).sum();
    let share = |snapshot: &dyn SnapshotSource| {
        if total_weight == 0 {
            return 0.0;
        }
        let mut capable = 0u64;
        snapshot.for_each_host(&mut |m| {
            if m.ecn_class() == Some(EcnClass::Capable) {
                if let Some((weight, main)) = table.host(Scope::Cno, m.host_id) {
                    if main.quic_reachable {
                        capable += weight;
                    }
                }
            }
        });
        capable as f64 / total_weight as f64
    };
    let mut rows = Vec::new();
    rows.push(Figure7Row {
        vantage: main_v4.vantage().name.clone(),
        marker: main_v4.vantage().provider.marker(),
        capable_share_v4: share(main_v4),
        capable_share_v6: None,
        hosts_probed: main_v4.host_count(),
    });
    for (vantage, v4, v6) in cloud {
        rows.push(Figure7Row {
            vantage: vantage.name.clone(),
            marker: vantage.provider.marker(),
            capable_share_v4: share(v4),
            capable_share_v6: v6.as_ref().map(|s| share(s)),
            hosts_probed: v4.host_count(),
        });
    }
    Figure7 { rows }
}

impl fmt::Display for Figure7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7: domains passing QUIC ECN validation per vantage point\n  {:<24} {:>8} {:>10} {:>10}",
            "Vantage point", "Kind", "IPv4", "IPv6"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<24} {:>8} {:>9.2}% {:>10}",
                row.vantage,
                row.marker,
                row.capable_share_v4 * 100.0,
                row.capable_share_v6
                    .map(|s| format!("{:.2}%", s * 100.0))
                    .unwrap_or_else(|| "-".to_string()),
            )?;
        }
        Ok(())
    }
}
