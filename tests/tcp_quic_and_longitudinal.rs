//! Shape tests for the TCP-vs-QUIC comparison (Figure 6), the longitudinal
//! view (Figures 3 and 4) and the global vantage points (Figure 7).

use qem_core::reports::{figure3, figure4, figure6, figure7, QuicCeCategory, TcpCategory};
use qem_core::{Campaign, CampaignOptions};
use qem_web::{SnapshotDate, Universe, UniverseConfig};

fn small_universe() -> Universe {
    // 1:2500 scale keeps these multi-campaign tests fast while preserving the
    // provider structure.
    Universe::generate(&UniverseConfig {
        scale: 0.0004,
        seed: 11,
        ensure_rare_segments: true,
    })
}

/// Figure 6 under the opt-in `cross_traffic` scenario: ECT(0) probing never
/// shows CE mirroring on idle paths (outside the pathological MarkAllCe
/// hosts), but behind a congested shared bottleneck the same probes arrive
/// CE-marked and the mirroring categories fill up — the load-dependent
/// regime the single-flow drivers could not express.
#[test]
fn figure6_under_cross_traffic_shows_congestion_driven_mirroring() {
    let universe = small_universe();
    let campaign = Campaign::new(&universe);

    let mirror_count = |fig: &qem_core::reports::Figure6| -> u64 {
        fig.tcp
            .get(&TcpCategory::CeMirrorNoUseNegotiated)
            .copied()
            .unwrap_or(0)
            + fig
                .tcp
                .get(&TcpCategory::CeMirrorUseNegotiated)
                .copied()
                .unwrap_or(0)
    };

    let idle = campaign.run_main(&CampaignOptions::paper_default(), false);
    let idle_fig = figure6(&universe, &idle.v4);

    let loaded = campaign.run_main(
        &CampaignOptions::paper_default().with_cross_traffic(qem_core::CrossTraffic::congested()),
        false,
    );
    let loaded_fig = figure6(&universe, &loaded.v4);

    assert!(
        mirror_count(&loaded_fig) > mirror_count(&idle_fig),
        "congestion must move domains into the CE-mirroring categories \
         (idle: {idle_fig}, loaded: {loaded_fig})"
    );
}

#[test]
fn figure6_tcp_supports_ecn_where_quic_does_not() {
    let universe = small_universe();
    let campaign = Campaign::new(&universe);
    let result = campaign.run_main(&CampaignOptions::ce_probing(), false);
    let fig = figure6(&universe, &result.v4);

    let tcp_total: u64 = fig.tcp.values().sum();
    let tcp_mirror = fig
        .tcp
        .get(&TcpCategory::CeMirrorNoUseNegotiated)
        .copied()
        .unwrap_or(0)
        + fig
            .tcp
            .get(&TcpCategory::CeMirrorUseNegotiated)
            .copied()
            .unwrap_or(0);
    let tcp_no_negotiation = fig
        .tcp
        .get(&TcpCategory::NoNegotiation)
        .copied()
        .unwrap_or(0);
    let quic_total: u64 = fig.quic.values().sum();
    let quic_mirror = fig
        .quic
        .get(&QuicCeCategory::CeMirrorNoUse)
        .copied()
        .unwrap_or(0)
        + fig
            .quic
            .get(&QuicCeCategory::CeMirrorUse)
            .copied()
            .unwrap_or(0);

    // Paper: ~70 % of domains mirror CE via TCP, ~20 % do not negotiate, and
    // fewer than 10 % mirror CE via QUIC.
    assert!(tcp_total > 0 && quic_total > 0);
    let tcp_share = tcp_mirror as f64 / tcp_total as f64;
    let quic_share = quic_mirror as f64 / quic_total as f64;
    assert!(tcp_share > 0.5, "tcp CE mirroring share {tcp_share}");
    assert!(quic_share < 0.15, "quic CE mirroring share {quic_share}");
    assert!(tcp_share > 5.0 * quic_share);
    assert!((tcp_no_negotiation as f64) > 0.05 * tcp_total as f64);
}

#[test]
fn figures_3_and_4_show_the_litespeed_dip_and_recovery() {
    let universe = small_universe();
    let campaign = Campaign::new(&universe);
    let dates = [
        SnapshotDate::JUN_2022,
        SnapshotDate::FEB_2023,
        SnapshotDate::APR_2023,
    ];
    let snapshots = campaign.run_longitudinal(&dates, &CampaignOptions::paper_default());

    let fig3 = figure3(&universe, &snapshots);
    assert_eq!(fig3.points.len(), 3);
    let jun = &fig3.points[0];
    let feb = &fig3.points[1];
    let apr = &fig3.points[2];
    // Total QUIC grows steadily; mirroring dips and then jumps (Figure 3).
    assert!(jun.total_quic_domains < apr.total_quic_domains);
    assert!(feb.mirroring_total() < jun.mirroring_total());
    assert!(apr.mirroring_total() > 3 * feb.mirroring_total());
    // The mirroring population is dominated by LiteSpeed, with the Pepyaka
    // (Google-proxied wix.com) block appearing only in 2023.
    let litespeed_apr = apr
        .mirroring_by_family
        .get("LiteSpeed")
        .copied()
        .unwrap_or(0);
    let pepyaka_apr = apr.mirroring_by_family.get("Pepyaka").copied().unwrap_or(0);
    let pepyaka_jun = jun.mirroring_by_family.get("Pepyaka").copied().unwrap_or(0);
    assert!(litespeed_apr > apr.mirroring_total() / 2);
    assert!(pepyaka_apr > 0);
    assert_eq!(pepyaka_jun, 0);

    // Figure 4: in June 2022 the mirroring population is mostly on draft-27;
    // in April 2023 it is mostly on v1.
    let fig4 = figure4(&universe, &snapshots);
    use qem_core::reports::DomainState;
    // Domains in `state` at snapshot `at`, and the mirroring ones (any
    // version) there.
    let count = |at: usize, state: &DomainState| fig4.states[at].get(state).copied().unwrap_or(0);
    let mirroring_total = |at: usize| -> u64 {
        fig4.states[at]
            .iter()
            .filter(|(s, _)| matches!(s, DomainState::Mirroring(_)))
            .map(|(_, c)| c)
            .sum()
    };
    let jun_d27 = count(0, &DomainState::Mirroring("d27".to_string()));
    let jun_v1 = count(0, &DomainState::Mirroring("v1".to_string()));
    let apr_d27 = count(2, &DomainState::Mirroring("d27".to_string()));
    let apr_v1 = count(2, &DomainState::Mirroring("v1".to_string()));
    assert!(jun_d27 > jun_v1);
    assert!(apr_v1 > apr_d27);
    assert!(mirroring_total(2) > mirroring_total(1));
}

#[test]
fn figure7_capable_share_is_small_everywhere() {
    let universe = small_universe();
    let campaign = Campaign::new(&universe);
    let options = CampaignOptions::paper_default();
    let main = campaign.run_main(&options, false);
    let cloud = campaign.run_cloud(&main.v4, None, &options);
    let fig = figure7(&universe, &main.v4, &cloud);

    assert_eq!(fig.rows.len(), 17); // main + 16 cloud locations
    for row in &fig.rows {
        // Paper: 0.2 % – 0.4 % everywhere; allow slack for the small scale.
        assert!(
            row.capable_share_v4 < 0.03,
            "{} shows implausibly high ECN capability: {}",
            row.vantage,
            row.capable_share_v4
        );
    }
    // The main vantage point itself is in the paper's band.
    assert!(fig.rows[0].capable_share_v4 > 0.0005 && fig.rows[0].capable_share_v4 < 0.01);
}
