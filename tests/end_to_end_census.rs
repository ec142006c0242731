//! End-to-end shape test: run the full main-vantage-point campaign on the
//! default-scale universe and check that the recovered tables reproduce the
//! paper's qualitative findings (who wins, by roughly what factor).

use qem_core::reports::{figure5, table1, table2, table3, table5, table6, ClassCount};
use qem_core::{Campaign, CampaignOptions, EcnClass};
use qem_web::{parking, Universe, UniverseConfig};
use std::collections::BTreeMap;

/// One campaign shared by all assertions (generating it is the expensive part).
fn run() -> (Universe, qem_core::CampaignResult) {
    let universe = Universe::generate(&UniverseConfig::default());
    let campaign = Campaign::new(&universe);
    let result = campaign.run_main(&CampaignOptions::paper_default(), true);
    (universe, result)
}

#[test]
fn census_reproduces_the_papers_headline_numbers() {
    let (universe, result) = run();
    let t1 = table1(&universe, &result.v4);

    // --- Table 1 -----------------------------------------------------------
    let cno_domains = t1
        .rows
        .iter()
        .find(|r| r.scope == "com/net/org" && r.unit == "Domains")
        .unwrap();
    // Paper: 183.28 M domains, 159.40 M resolved, 17.30 M QUIC (scaled 1:1000).
    assert!((175_000..=195_000).contains(&cno_domains.total));
    assert!(cno_domains.resolved < cno_domains.total);
    assert!((15_000..=20_000).contains(&cno_domains.quic));
    // Paper: 5.6 % mirroring, 4.2 % use.
    assert!(
        cno_domains.mirroring > 0.03 && cno_domains.mirroring < 0.09,
        "mirroring share {}",
        cno_domains.mirroring
    );
    assert!(cno_domains.uses > 0.02 && cno_domains.uses < 0.07);
    assert!(cno_domains.uses < cno_domains.mirroring + 0.02);

    let cno_ips = t1
        .rows
        .iter()
        .find(|r| r.scope == "com/net/org" && r.unit == "IPs")
        .unwrap();
    // Paper: a considerably larger share of IPs than of domains mirrors
    // (19.5 % vs 5.6 %) because the biggest CDNs do not mirror.
    assert!(cno_ips.mirroring > cno_domains.mirroring * 2.0);

    let toplist_domains = t1
        .rows
        .iter()
        .find(|r| r.scope == "Toplists" && r.unit == "Domains")
        .unwrap();
    // Paper: toplist mirroring (3.3 %) is lower than com/net/org (5.6 %).
    assert!(toplist_domains.mirroring < cno_domains.mirroring);

    // --- Table 2 -----------------------------------------------------------
    let t2 = table2(&universe, &result.v4);
    let t2_row = |org: &str| t2.rows.iter().find(|r| r.org == org);
    let rank_of = |org: &str| t2_row(org).map(|r| r.rank).unwrap_or(usize::MAX);
    assert_eq!(rank_of("Cloudflare"), 1);
    assert_eq!(rank_of("Google"), 2);
    assert!(rank_of("Hostinger") <= 4);
    // The two biggest CDNs do not mirror at all.
    assert_eq!(t2_row("Cloudflare").unwrap().mirroring, 0);
    assert_eq!(t2_row("Cloudflare").unwrap().uses, 0);
    // Google mirrors on a small share of its domains but never uses ECN.
    let google = t2_row("Google").unwrap();
    assert!(google.mirroring > 0);
    assert!((google.mirroring as f64) < 0.1 * google.total as f64);
    assert_eq!(google.uses, 0);
    // Medium providers carry the adoption: SingleHop mirrors on most of its
    // domains (paper: 114 k of 128 k).
    let singlehop = t2_row("SingleHop").unwrap();
    assert!(singlehop.mirroring as f64 > 0.7 * singlehop.total as f64);

    // --- Table 3 -----------------------------------------------------------
    let t3 = table3(&universe, &result.v4);
    let t3_row = |org: &str| t3.rows.iter().find(|r| r.org == org);
    assert_eq!(t3_row("Cloudflare").unwrap().rank, 1);
    // Amazon is the top toplist ECN supporter (s2n-quic on CloudFront).
    let amazon = t3_row("Amazon").expect("Amazon listed in the toplist table");
    assert!(amazon.mirroring as f64 > 0.6 * amazon.total as f64);
    assert!(amazon.uses > 0);

    // --- Table 5 -----------------------------------------------------------
    let t5 = table5(&universe, &result.v4, result.v6.as_ref());
    let domains = |counts: &BTreeMap<EcnClass, ClassCount>, class| {
        counts.get(&class).map(|c| c.domains).unwrap_or(0)
    };
    let mirroring_total = domains(&t5.v4, EcnClass::Undercount)
        + domains(&t5.v4, EcnClass::RemarkEct1)
        + domains(&t5.v4, EcnClass::AllCe)
        + domains(&t5.v4, EcnClass::Capable)
        + domains(&t5.v4, EcnClass::Other);
    // Paper: validation fails for ~96 % of mirroring endpoints.
    let capable = domains(&t5.v4, EcnClass::Capable);
    assert!(capable > 0);
    assert!(
        (capable as f64) < 0.1 * mirroring_total as f64,
        "capable {capable} of {mirroring_total} mirroring domains"
    );
    // Undercount is the biggest failure class, re-marking second.
    assert!(domains(&t5.v4, EcnClass::Undercount) > domains(&t5.v4, EcnClass::RemarkEct1));
    assert!(domains(&t5.v4, EcnClass::RemarkEct1) > domains(&t5.v4, EcnClass::AllCe));
    // No-mirroring dwarfs everything.
    assert!(domains(&t5.v4, EcnClass::NoMirroring) > 10 * mirroring_total);
    // Headline: only ~0.22 % of QUIC domains can actually use ECN.
    let capable_share = capable as f64 / cno_domains.quic as f64;
    assert!(
        capable_share > 0.0005 && capable_share < 0.01,
        "capable share {capable_share}"
    );
    // IPv6: far fewer domains, almost no clearing, lower overall support.
    assert!(domains(&t5.v6, EcnClass::NoMirroring) < domains(&t5.v4, EcnClass::NoMirroring));
    assert!(domains(&t5.v6, EcnClass::Capable) > 0);

    // --- Table 6 -----------------------------------------------------------
    let t6 = table6(&universe, &result.v4);
    let top_org = |class| t6.columns[&class][0].0.as_str();
    assert_eq!(top_org(EcnClass::Capable), "Amazon");
    let undercount_top = top_org(EcnClass::Undercount);
    assert!(
        ["Google", "SingleHop", "Hostinger"].contains(&undercount_top),
        "unexpected top undercount org {undercount_top}"
    );

    // --- Figure 5 ----------------------------------------------------------
    let fig5 = figure5(&universe, &result.v4, result.v6.as_ref().unwrap());
    let v4_total: u64 = fig5.v4.values().sum();
    let v6_total: u64 = fig5.v6.values().sum();
    // Paper: ~17 M QUIC domains via IPv4 vs ~6 M via IPv6.
    assert!(v6_total * 2 < v4_total);
    assert!(v6_total > 0);

    // --- §5.1 parking check -------------------------------------------------
    let (_, parked_share) = parking::parked_quic_share(&universe);
    assert!(parked_share < 0.02, "parking must not bias the data");
}
