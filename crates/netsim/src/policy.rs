//! Per-router ECN and DSCP rewrite policies.
//!
//! These model the middlebox behaviours the paper observes in the wild:
//!
//! * routers that forward the traffic-class octet untouched,
//! * routers that clear the two ECN bits (§6.1, "Cleared ECN Codepoints" —
//!   attributed mostly to AS 1299),
//! * routers that re-mark `ECT(0)` to `ECT(1)` (§7.1/§7.3 — the validation
//!   failure class that also threatens L4S),
//! * routers that re-mark ECT to `not-ECT` only after a first re-marking hop
//!   (the AS 1299 double rewrite seen in §7.3),
//! * legacy devices that bleach the whole former ToS octet (DSCP and ECN).

use qem_packet::ecn::{Dscp, EcnCodepoint};
use std::fmt;

/// How a router rewrites the ECN field of forwarded packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcnPolicy {
    /// Forward the codepoint unchanged (the default, and what RFC 3168 asks for).
    Pass,
    /// Clear both ECN bits: every packet leaves as `not-ECT`.
    ClearEcn,
    /// Re-mark `ECT(0)` to `ECT(1)`; other codepoints pass unchanged.
    RemarkEct0ToEct1,
    /// Re-mark any ECT codepoint to `not-ECT` but leave `CE` alone
    /// (observed as the second stage of the AS 1299 double rewrite).
    RemarkEctToNotEct,
    /// Mark every ECT packet `CE` (broken device or severe congestion).
    MarkAllCe,
    /// Rewrite the entire former ToS octet to zero: DSCP *and* ECN are lost.
    /// This is the "legacy router rewriting the complete ToS field" hypothesis
    /// from §6.1.
    BleachTos,
    /// Rewrite `CE` back to `ECT(0)` but forward every other codepoint
    /// untouched: the congestion signal set by an upstream AQM is destroyed
    /// in transit while the path still *looks* ECN-capable to both endpoints.
    /// This is the CE-blackholing failure mode the broken-path workload
    /// variants exercise — marks are spent at the bottleneck, but the
    /// feedback loop never closes.
    EraseCe,
}

impl EcnPolicy {
    /// Apply the policy to a codepoint, returning the forwarded codepoint.
    pub fn apply(self, ecn: EcnCodepoint) -> EcnCodepoint {
        match self {
            EcnPolicy::Pass => ecn,
            EcnPolicy::ClearEcn | EcnPolicy::BleachTos => EcnCodepoint::NotEct,
            EcnPolicy::RemarkEct0ToEct1 => {
                if ecn == EcnCodepoint::Ect0 {
                    EcnCodepoint::Ect1
                } else {
                    ecn
                }
            }
            EcnPolicy::RemarkEctToNotEct => {
                if ecn.is_ect() {
                    EcnCodepoint::NotEct
                } else {
                    ecn
                }
            }
            EcnPolicy::MarkAllCe => {
                if ecn == EcnCodepoint::NotEct {
                    EcnCodepoint::NotEct
                } else {
                    EcnCodepoint::Ce
                }
            }
            EcnPolicy::EraseCe => {
                if ecn == EcnCodepoint::Ce {
                    EcnCodepoint::Ect0
                } else {
                    ecn
                }
            }
        }
    }

    /// Whether the policy can change at least one codepoint, i.e. whether a
    /// path containing such a router is impaired for ECN purposes.
    pub fn is_impairing(self) -> bool {
        self != EcnPolicy::Pass
    }
}

impl fmt::Display for EcnPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EcnPolicy::Pass => "pass",
            EcnPolicy::ClearEcn => "clear-ecn",
            EcnPolicy::RemarkEct0ToEct1 => "remark-ect0-to-ect1",
            EcnPolicy::RemarkEctToNotEct => "remark-ect-to-not-ect",
            EcnPolicy::MarkAllCe => "mark-all-ce",
            EcnPolicy::BleachTos => "bleach-tos",
            EcnPolicy::EraseCe => "erase-ce",
        };
        f.write_str(s)
    }
}

/// How a router rewrites the DSCP field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DscpPolicy {
    /// Forward the DSCP unchanged.
    #[default]
    Pass,
    /// Reset the DSCP to best effort (common at AS boundaries) without
    /// touching the ECN bits — the *correct* way to bleach.
    ResetToBestEffort,
    /// Rewrite to a fixed DSCP value.
    Rewrite(Dscp),
}

impl DscpPolicy {
    /// Apply the policy to a DSCP value.
    pub fn apply(self, dscp: Dscp) -> Dscp {
        match self {
            DscpPolicy::Pass => dscp,
            DscpPolicy::ResetToBestEffort => Dscp::BEST_EFFORT,
            DscpPolicy::Rewrite(d) => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_identity() {
        for cp in EcnCodepoint::ALL {
            assert_eq!(EcnPolicy::Pass.apply(cp), cp);
        }
        assert!(!EcnPolicy::Pass.is_impairing());
    }

    #[test]
    fn clear_maps_everything_to_not_ect() {
        for cp in EcnCodepoint::ALL {
            assert_eq!(EcnPolicy::ClearEcn.apply(cp), EcnCodepoint::NotEct);
        }
        assert!(EcnPolicy::ClearEcn.is_impairing());
    }

    #[test]
    fn remark_only_touches_ect0() {
        assert_eq!(
            EcnPolicy::RemarkEct0ToEct1.apply(EcnCodepoint::Ect0),
            EcnCodepoint::Ect1
        );
        assert_eq!(
            EcnPolicy::RemarkEct0ToEct1.apply(EcnCodepoint::Ect1),
            EcnCodepoint::Ect1
        );
        assert_eq!(
            EcnPolicy::RemarkEct0ToEct1.apply(EcnCodepoint::Ce),
            EcnCodepoint::Ce
        );
        assert_eq!(
            EcnPolicy::RemarkEct0ToEct1.apply(EcnCodepoint::NotEct),
            EcnCodepoint::NotEct
        );
    }

    #[test]
    fn remark_to_not_ect_spares_ce() {
        assert_eq!(
            EcnPolicy::RemarkEctToNotEct.apply(EcnCodepoint::Ect1),
            EcnCodepoint::NotEct
        );
        assert_eq!(
            EcnPolicy::RemarkEctToNotEct.apply(EcnCodepoint::Ce),
            EcnCodepoint::Ce
        );
    }

    #[test]
    fn mark_all_ce_spares_not_ect() {
        assert_eq!(
            EcnPolicy::MarkAllCe.apply(EcnCodepoint::NotEct),
            EcnCodepoint::NotEct
        );
        assert_eq!(
            EcnPolicy::MarkAllCe.apply(EcnCodepoint::Ect0),
            EcnCodepoint::Ce
        );
    }

    #[test]
    fn double_rewrite_composes_like_as1299() {
        // §7.3: first hop re-marks ECT(0) → ECT(1), later hop re-marks ECT → not-ECT.
        let after_first = EcnPolicy::RemarkEct0ToEct1.apply(EcnCodepoint::Ect0);
        let after_second = EcnPolicy::RemarkEctToNotEct.apply(after_first);
        assert_eq!(after_second, EcnCodepoint::NotEct);
    }

    #[test]
    fn erase_ce_blackholes_only_the_congestion_signal() {
        assert_eq!(
            EcnPolicy::EraseCe.apply(EcnCodepoint::Ce),
            EcnCodepoint::Ect0
        );
        for cp in [EcnCodepoint::NotEct, EcnCodepoint::Ect0, EcnCodepoint::Ect1] {
            assert_eq!(EcnPolicy::EraseCe.apply(cp), cp);
        }
        assert!(EcnPolicy::EraseCe.is_impairing());
    }

    #[test]
    fn dscp_policies() {
        let d = Dscp::new(46);
        assert_eq!(DscpPolicy::Pass.apply(d), d);
        assert_eq!(DscpPolicy::ResetToBestEffort.apply(d), Dscp::BEST_EFFORT);
        assert_eq!(DscpPolicy::Rewrite(Dscp::CS1).apply(d), Dscp::CS1);
    }
}
