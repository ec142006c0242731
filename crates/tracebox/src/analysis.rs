//! Impairment detection and AS attribution on top of a [`PathTrace`].
//!
//! The quotes only show the packet *as received* at each responding hop, so a
//! change that becomes visible at hop `k` was applied by some router between
//! the previous responding hop and `k`.  The paper handles this ambiguity by
//! reporting the AS seen *before* the change and the AS at which the change
//! is first *visible* (§7.3: "residing in either AS 1299 (before) or AS 174
//! (Cogent, after visible change)"); this module exposes both.

use crate::tracer::HopObservation;
use crate::tracer::PathTrace;
use qem_netsim::Asn;
use qem_packet::ecn::EcnCodepoint;
use std::net::IpAddr;
use std::sync::Arc;

/// A single observed change of the probe's ECN codepoint along the path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnChange {
    /// The codepoint before the change.
    pub from: EcnCodepoint,
    /// The codepoint after the change.
    pub to: EcnCodepoint,
    /// TTL at which the new codepoint became visible.
    pub visible_at_ttl: u8,
    /// Router that quoted the *old* value last (the "before" side).
    pub last_unchanged_router: Option<IpAddr>,
    /// AS of that router, if resolvable.
    pub asn_before: Option<Asn>,
    /// Router whose quote first showed the new value.
    pub first_changed_router: Option<IpAddr>,
    /// AS of that router, if resolvable.
    pub asn_at_change: Option<Asn>,
}

impl EcnChange {
    /// The AS the measurement pipeline attributes the change to: the AS
    /// before the visible change if known, otherwise the AS at the change.
    pub fn attributed_asn(&self) -> Option<Asn> {
        self.asn_before.or(self.asn_at_change)
    }
}

/// End-to-end verdict about what the path did to the probe codepoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathVerdict {
    /// The codepoint visible at the last observed hop equals the sent one and
    /// no intermediate change was seen.
    NoChange,
    /// The codepoint ended up as not-ECT (cleared / bleached).
    Cleared,
    /// The codepoint ended up as ECT(1) although ECT(0) was sent.
    RemarkedToEct1,
    /// The codepoint ended up as ECT(0) although something else was sent.
    RemarkedToEct0,
    /// The codepoint ended up as CE.
    CeMarked,
    /// No hop produced a usable quotation, so nothing can be said.
    Untested,
}

/// The result of analysing one trace.  A clone shares its changes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Every codepoint change observed along the path, in order, shared:
    /// a copy of an analysis — a route's kept trace replayed by the
    /// scanner, a stored record decoded — copies a pointer, not the list.
    pub changes: Arc<[EcnChange]>,
    /// The end-to-end verdict.
    pub verdict: PathVerdict,
    /// The codepoint observed at the last responding hop, if any.
    pub final_observed: Option<EcnCodepoint>,
    /// Whether any hop rewrote only the DSCP while leaving ECN intact
    /// (benign bleaching the tracer must not flag as an ECN impairment).
    pub dscp_rewritten_only: bool,
}

impl TraceAnalysis {
    /// Whether the path visibly impairs ECN.
    pub fn is_impaired(&self) -> bool {
        !matches!(self.verdict, PathVerdict::NoChange | PathVerdict::Untested)
    }
}

/// Analyse a trace, resolving router addresses to ASes with `ip_to_asn`
/// (typically backed by the synthetic as2org data in `qem-web`).
///
/// The changes are counted first and then resolved into their list, so
/// the analysis allocates once, for a path that changes the codepoint,
/// and not at all for one that does not.
pub fn analyze_trace(
    trace: &PathTrace,
    ip_to_asn: &dyn Fn(IpAddr) -> Option<Asn>,
) -> TraceAnalysis {
    let observed = || {
        trace
            .hops
            .iter()
            .filter_map(|hop| Some((hop, hop.observed_ecn?)))
    };
    let dscp_changed = observed().any(|(hop, _)| {
        hop.observed_dscp
            .is_some_and(|dscp| dscp != trace.sent_dscp)
    });
    let final_observed = observed().next_back().map(|(_, ecn)| ecn);
    let count = changes_along(trace).count();
    let changes: Arc<[EcnChange]> = if count == 0 {
        Arc::default()
    } else {
        let mut found = changes_along(trace);
        // A mapped range has a known length, which `Arc<[_]>` collects
        // into one allocation (a filtered iterator it collects twice).
        (0..count)
            .map(|_| {
                let (previous_router, hop, from, to) =
                    found.next().expect("a second walk meets as many changes");
                EcnChange {
                    from,
                    to,
                    visible_at_ttl: hop.ttl,
                    last_unchanged_router: previous_router,
                    asn_before: previous_router.and_then(ip_to_asn),
                    first_changed_router: hop.router,
                    asn_at_change: hop.router.and_then(ip_to_asn),
                }
            })
            .collect()
    };

    // No observed hop: no change, no DSCP rewrite, and `Untested`.
    let verdict = match final_observed {
        None => PathVerdict::Untested,
        Some(ecn) if ecn == trace.sent_codepoint && changes.is_empty() => PathVerdict::NoChange,
        Some(EcnCodepoint::NotEct) => PathVerdict::Cleared,
        Some(EcnCodepoint::Ect1) if trace.sent_codepoint != EcnCodepoint::Ect1 => {
            PathVerdict::RemarkedToEct1
        }
        Some(EcnCodepoint::Ect0) if trace.sent_codepoint != EcnCodepoint::Ect0 => {
            PathVerdict::RemarkedToEct0
        }
        Some(EcnCodepoint::Ce) if trace.sent_codepoint != EcnCodepoint::Ce => PathVerdict::CeMarked,
        // Same as sent at the end: end-to-end the path is unchanged, even if
        // something flapped in between (the flaps stay visible in `changes`).
        Some(_) => PathVerdict::NoChange,
    };

    let dscp_rewritten_only = dscp_changed && changes.is_empty();
    TraceAnalysis {
        changes,
        verdict,
        final_observed,
        dscp_rewritten_only,
    }
}

/// Each observed hop whose codepoint differs from the one observed before
/// it (the sent one, at the first), with the router observed before it:
/// `(last unchanged router, hop, from, to)`.
fn changes_along(
    trace: &PathTrace,
) -> impl Iterator<Item = (Option<IpAddr>, &HopObservation, EcnCodepoint, EcnCodepoint)> {
    let mut previous_ecn = trace.sent_codepoint;
    let mut previous_router = None;
    trace.hops.iter().filter_map(move |hop| {
        let ecn = hop.observed_ecn?;
        let before = std::mem::replace(&mut previous_router, hop.router);
        if ecn == previous_ecn {
            return None;
        }
        Some((before, hop, std::mem::replace(&mut previous_ecn, ecn), ecn))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{trace_path, TraceConfig};
    use qem_netsim::{
        build_transit_path, Asn, DscpPolicy, Hop, IcmpBehavior, Path, Probability, Router,
        TransitProfile,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn endpoints() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 99)),
        )
    }

    /// Resolve a router address to the candidate AS whose router prefix
    /// ([`Router::prefix`]) holds it.
    fn resolver(candidates: &'static [Asn]) -> impl Fn(IpAddr) -> Option<Asn> {
        let bits = |ip: IpAddr| match ip {
            IpAddr::V4(v4) => u128::from(u32::from(v4)) << 96,
            IpAddr::V6(v6) => u128::from(v6),
        };
        move |addr| {
            candidates.iter().copied().find(|&asn| {
                let (prefix, len) = Router::prefix(asn, addr.is_ipv6());
                (bits(prefix) ^ bits(addr)) >> (128 - u32::from(len)) == 0
            })
        }
    }

    fn trace(profile: TransitProfile) -> PathTrace {
        let path = build_transit_path(Asn::DFN, Asn(13335), profile, false);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(11);
        trace_path(&path, src, dst, &TraceConfig::default(), &mut rng)
    }

    const ASNS: &[Asn] = &[Asn::DFN, Asn::ARELION, Asn::COGENT, Asn::LEVEL3, Asn(13335)];

    #[test]
    fn clean_path_is_unimpaired() {
        let analysis = analyze_trace(&trace(TransitProfile::Clean), &resolver(ASNS));
        assert_eq!(analysis.verdict, PathVerdict::NoChange);
        assert!(!analysis.is_impaired());
        assert!(analysis.changes.is_empty());
    }

    #[test]
    fn clearing_is_detected_and_attributed() {
        let analysis = analyze_trace(
            &trace(TransitProfile::Clearing { asn: Asn::ARELION }),
            &resolver(ASNS),
        );
        assert_eq!(analysis.verdict, PathVerdict::Cleared);
        assert!(analysis.is_impaired());
        assert_eq!(analysis.changes.len(), 1);
        let change = analysis.changes[0];
        assert_eq!(change.from, EcnCodepoint::Ect0);
        assert_eq!(change.to, EcnCodepoint::NotEct);
        // The clearing router sits inside AS 1299; both attribution candidates
        // must include it.
        assert_eq!(change.attributed_asn(), Some(Asn::ARELION));
        assert!([change.asn_before, change.asn_at_change].contains(&Some(Asn::ARELION)));
    }

    #[test]
    fn remarking_is_detected() {
        let analysis = analyze_trace(
            &trace(TransitProfile::Remarking { asn: Asn::ARELION }),
            &resolver(ASNS),
        );
        assert_eq!(analysis.verdict, PathVerdict::RemarkedToEct1);
        assert_eq!(analysis.changes.len(), 1);
        assert_eq!(analysis.changes[0].to, EcnCodepoint::Ect1);
    }

    #[test]
    fn double_rewrite_shows_two_changes() {
        let analysis = analyze_trace(
            &trace(TransitProfile::RemarkThenClear {
                first: Asn::ARELION,
                second: Asn::COGENT,
            }),
            &resolver(ASNS),
        );
        assert_eq!(analysis.verdict, PathVerdict::Cleared);
        assert_eq!(analysis.changes.len(), 2);
        assert_eq!(analysis.changes[0].to, EcnCodepoint::Ect1);
        assert_eq!(analysis.changes[1].to, EcnCodepoint::NotEct);
        let involved: Vec<Asn> = analysis
            .changes
            .iter()
            .flat_map(|c| [c.asn_before, c.asn_at_change])
            .flatten()
            .collect();
        assert!(involved.contains(&Asn::ARELION));
        assert!(involved.contains(&Asn::COGENT));
    }

    #[test]
    fn ce_marking_is_detected() {
        let analysis = analyze_trace(
            &trace(TransitProfile::MarkAllCe { asn: Asn::ARELION }),
            &resolver(ASNS),
        );
        assert_eq!(analysis.verdict, PathVerdict::CeMarked);
    }

    #[test]
    fn dscp_only_rewrite_is_not_an_impairment() {
        let path = Path::new(vec![
            Hop::new(Router::transparent(1, Asn::DFN)),
            Hop::new(Router {
                dscp_policy: DscpPolicy::ResetToBestEffort,
                ..Router::transparent(5, Asn::ARELION)
            }),
            Hop::new(Router::transparent(2, Asn(13335))),
            Hop::new(Router::transparent(3, Asn(13335))),
        ]);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(3);
        let config = TraceConfig {
            probe_dscp: qem_packet::ecn::Dscp::new(12),
        };
        let trace = trace_path(&path, src, dst, &config, &mut rng);
        let analysis = analyze_trace(&trace, &resolver(ASNS));
        assert_eq!(analysis.verdict, PathVerdict::NoChange);
        assert!(analysis.dscp_rewritten_only);
        assert!(!analysis.is_impaired());
    }

    #[test]
    fn all_silent_path_is_untested() {
        let icmp = IcmpBehavior {
            response_probability: Probability::new(0.0),
            quote_bytes: 0,
        };
        let path = Path::new(vec![
            Hop::new(Router {
                icmp,
                ..Router::transparent(1, Asn::DFN)
            }),
            Hop::new(Router {
                icmp,
                ..Router::transparent(2, Asn::ARELION)
            }),
        ]);
        let (src, dst) = endpoints();
        let mut rng = StdRng::seed_from_u64(4);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        let analysis = analyze_trace(&trace, &resolver(ASNS));
        assert_eq!(analysis.verdict, PathVerdict::Untested);
        assert!(!analysis.is_impaired());
        assert_eq!(analysis.final_observed, None);
    }
}
