//! The RFC 9000 §13.4.2 ECN validation state machine (Figure 1 of the paper).
//!
//! Each QUIC endpoint unilaterally decides whether to *use* ECN on its
//! forward path.  While testing, it marks outgoing packets `ECT(0)` and
//! watches the ECN counters the peer mirrors in `ACK_ECN` frames.  The
//! validation fails — and ECN is disabled — if
//!
//! * ACK frames acknowledge ECT-marked packets without carrying ECN counts
//!   (the peer or a middlebox discards the marks — "no mirroring"),
//! * the mirrored counters are non-monotonic,
//! * the counters undercount the newly acknowledged ECT packets,
//! * a codepoint appears that was never sent (e.g. `ECT(1)` although only
//!   `ECT(0)` was used — the re-marking class of Table 5),
//! * every packet is reported CE ("All CE"),
//! * or all testing packets are lost / time out.
//!
//! The paper's measurement client shortens the testing phase to 5 packets and
//! 2 timeouts (§4.1); the RFC suggests 10 and 3.  Both are expressible via
//! [`EcnConfig`].

use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use std::fmt;

/// Parameters of the validation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcnConfig {
    /// Number of packets sent with ECT marking during the testing phase.
    pub testing_packets: u64,
    /// Number of PTO-style timeouts tolerated before validation fails.
    pub max_timeouts: u32,
    /// The codepoint set on outgoing packets while testing.  The paper's
    /// §6.3 experiment deliberately sends `CE` instead of `ECT(0)`.
    pub codepoint: EcnCodepoint,
}

impl EcnConfig {
    /// The RFC 9000 §13.4.2 suggestion: 10 packets, 3 timeouts, ECT(0).
    pub fn rfc_default() -> Self {
        EcnConfig {
            testing_packets: 10,
            max_timeouts: 3,
            codepoint: EcnCodepoint::Ect0,
        }
    }

    /// The paper's reduced budget: 5 packets, 2 timeouts, ECT(0) (§4.1).
    pub fn paper_default() -> Self {
        EcnConfig {
            testing_packets: 5,
            max_timeouts: 2,
            codepoint: EcnCodepoint::Ect0,
        }
    }

    /// A configuration that sends CE on every testing packet (§6.3).
    pub fn force_ce() -> Self {
        EcnConfig {
            codepoint: EcnCodepoint::Ce,
            ..EcnConfig::paper_default()
        }
    }
}

impl Default for EcnConfig {
    fn default() -> Self {
        EcnConfig::paper_default()
    }
}

/// Why ECN validation failed.
///
/// The variants map one-to-one onto the failure classes of Table 5 / §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcnValidationFailure {
    /// ACK frames acknowledged ECT-marked packets without any ECN counts.
    NoMirroring,
    /// Mirrored counters decreased between ACK frames.
    NonMonotonic,
    /// Fewer codepoints mirrored than ECT-marked packets acknowledged.
    Undercount,
    /// A codepoint was mirrored that this endpoint never sent
    /// (in practice: `ECT(1)` reported although only `ECT(0)` was used).
    WrongCodepoint,
    /// Every acknowledged packet was reported as CE.
    AllCe,
    /// All testing packets were lost (or the timeout budget was exhausted).
    AllLost,
}

impl fmt::Display for EcnValidationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EcnValidationFailure::NoMirroring => "no mirroring",
            EcnValidationFailure::NonMonotonic => "non-monotonic counters",
            EcnValidationFailure::Undercount => "undercount",
            EcnValidationFailure::WrongCodepoint => "wrong codepoint",
            EcnValidationFailure::AllCe => "all packets CE",
            EcnValidationFailure::AllLost => "all packets lost",
        };
        f.write_str(s)
    }
}

/// The state of the validation machine (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcnValidationState {
    /// ECN is being tested: outgoing packets carry the configured codepoint.
    Testing,
    /// The testing budget is exhausted; waiting for the remaining ACKs before
    /// deciding.  Outgoing packets are sent without ECN marks.
    Unknown,
    /// Validation succeeded: the path and peer handle ECN correctly.
    Capable,
    /// Validation failed: ECN is disabled for this connection.
    Failed(EcnValidationFailure),
}

impl EcnValidationState {
    /// Whether the endpoint should still mark outgoing packets.
    pub fn marking_active(self) -> bool {
        matches!(
            self,
            EcnValidationState::Testing | EcnValidationState::Capable
        )
    }

    /// Whether a final verdict has been reached.
    pub fn is_final(self) -> bool {
        matches!(
            self,
            EcnValidationState::Capable | EcnValidationState::Failed(_)
        )
    }
}

/// The sender-side ECN validator attached to one packet number space
/// aggregate.
///
/// The validator is fed three kinds of events by the connection:
///
/// * [`on_packet_sent`](EcnValidator::on_packet_sent) whenever a packet
///   leaves, with the codepoint it carried,
/// * [`on_ack_received`](EcnValidator::on_ack_received) whenever an ACK frame
///   arrives, with the cumulative mirrored counters (if any) and how many
///   ECT-marked packets were newly acknowledged,
/// * [`on_timeout`](EcnValidator::on_timeout) whenever a PTO fires without
///   any acknowledgment.
#[derive(Debug, Clone)]
pub struct EcnValidator {
    config: EcnConfig,
    state: EcnValidationState,
    /// Packets sent with an ECT or CE mark, by codepoint.
    sent: EcnCounts,
    /// Packets sent while marking was active that have been acknowledged.
    acked_marked: u64,
    /// Highest cumulative counters seen so far (per connection).
    last_counts: Option<EcnCounts>,
    timeouts: u32,
    marked_sent_total: u64,
}

impl EcnValidator {
    /// Create a validator.
    pub fn new(config: EcnConfig) -> Self {
        EcnValidator {
            config,
            state: EcnValidationState::Testing,
            sent: EcnCounts::ZERO,
            acked_marked: 0,
            last_counts: None,
            timeouts: 0,
            marked_sent_total: 0,
        }
    }

    /// Create a validator that never marks packets (ECN disabled by
    /// configuration, like the unmodified quic-go client the paper started
    /// from).
    pub fn disabled() -> Self {
        let mut v = EcnValidator::new(EcnConfig::paper_default());
        v.state = EcnValidationState::Failed(EcnValidationFailure::NoMirroring);
        v.marked_sent_total = 0;
        v
    }

    /// Current state.
    pub fn state(&self) -> EcnValidationState {
        self.state
    }

    /// The configuration in use.
    pub fn config(&self) -> &EcnConfig {
        &self.config
    }

    /// Cumulative codepoints sent with marking.
    pub fn sent_counts(&self) -> EcnCounts {
        self.sent
    }

    /// The last cumulative counters mirrored by the peer, if any.
    pub fn mirrored_counts(&self) -> Option<EcnCounts> {
        self.last_counts
    }

    /// The codepoint to place on the next outgoing packet.
    pub fn codepoint_for_next_packet(&self) -> EcnCodepoint {
        match self.state {
            EcnValidationState::Testing | EcnValidationState::Capable => self.config.codepoint,
            _ => EcnCodepoint::NotEct,
        }
    }

    /// Record that a packet left carrying `codepoint`.
    pub fn on_packet_sent(&mut self, codepoint: EcnCodepoint) {
        self.sent.record(codepoint);
        if codepoint != EcnCodepoint::NotEct {
            self.marked_sent_total += 1;
        }
        if self.state == EcnValidationState::Testing
            && self.marked_sent_total >= self.config.testing_packets
        {
            self.state = EcnValidationState::Unknown;
        }
    }

    /// Record a PTO-style timeout without any acknowledgment progress.
    pub fn on_timeout(&mut self) {
        if self.state.is_final() {
            return;
        }
        self.timeouts += 1;
        if self.timeouts >= self.config.max_timeouts {
            self.state = EcnValidationState::Failed(EcnValidationFailure::AllLost);
        }
    }

    /// Process an ACK frame.
    ///
    /// * `newly_acked_marked` — how many of the newly acknowledged packets
    ///   were sent with an ECT/CE mark,
    /// * `newly_acked_total` — how many packets were newly acknowledged,
    /// * `counts` — the cumulative ECN counters carried by the frame (`None`
    ///   for plain ACK frames).
    pub fn on_ack_received(
        &mut self,
        newly_acked_marked: u64,
        newly_acked_total: u64,
        counts: Option<EcnCounts>,
    ) {
        // Validation keeps running even in the Capable state: Figure 1 has an
        // "Incorrect Counters" edge from Capable back to Failed, and RFC 9000
        // requires counts to be checked on every ACK.
        if matches!(self.state, EcnValidationState::Failed(_)) || newly_acked_total == 0 {
            return;
        }

        let counts = match counts {
            Some(c) => c,
            None => {
                if newly_acked_marked > 0 {
                    // An ACK that newly acknowledges an ECT packet but carries
                    // no ECN counts means the peer (or path) discards marks.
                    self.state = EcnValidationState::Failed(EcnValidationFailure::NoMirroring);
                }
                return;
            }
        };

        // Monotonicity across ACK frames.
        if let Some(prev) = self.last_counts {
            if !counts.dominates(&prev) {
                self.state = EcnValidationState::Failed(EcnValidationFailure::NonMonotonic);
                return;
            }
        }
        let increase = counts.saturating_sub(&self.last_counts.unwrap_or(EcnCounts::ZERO));
        self.last_counts = Some(counts);
        self.acked_marked += newly_acked_marked;

        // A codepoint we never sent must not appear (unless CE, which routers
        // may legitimately apply).
        if increase.ect1 > 0 && self.sent.ect1 == 0 && self.config.codepoint != EcnCodepoint::Ect1 {
            self.state = EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint);
            return;
        }
        if increase.ect0 > 0 && self.sent.ect0 == 0 && self.config.codepoint != EcnCodepoint::Ect0 {
            self.state = EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint);
            return;
        }

        // Undercount: the counters must have increased by at least the number
        // of newly acknowledged marked packets.
        if newly_acked_marked > 0 && increase.total() < newly_acked_marked {
            self.state = EcnValidationState::Failed(EcnValidationFailure::Undercount);
            return;
        }

        // All CE: the whole testing budget has been acknowledged and *every*
        // marked packet came back as CE even though we never sent CE ourselves
        // (a router marking everything, or genuinely severe congestion — the
        // paper's Table 5 "All CE" class).  Partial CE marking is legitimate
        // congestion signalling and must not fail validation.
        if self.config.codepoint != EcnCodepoint::Ce
            && self.acked_marked >= self.config.testing_packets
            && counts.ce >= self.acked_marked
            && counts.ect0 == 0
            && counts.ect1 == 0
        {
            self.state = EcnValidationState::Failed(EcnValidationFailure::AllCe);
            return;
        }

        // Successful validation: the testing budget has been used (or we are
        // still testing) and every marked packet acknowledged so far has been
        // accounted for correctly.
        if self.acked_marked > 0 {
            match self.state {
                // Keep testing until the budget is exhausted; counters are fine.
                EcnValidationState::Testing
                    if self.marked_sent_total >= self.config.testing_packets =>
                {
                    self.state = EcnValidationState::Capable;
                }
                EcnValidationState::Unknown => {
                    self.state = EcnValidationState::Capable;
                }
                _ => {}
            }
        }
    }

    /// Process an ACK frame whose counters went backwards in their packet
    /// number space.  RFC 9000 §13.4.2.1 fails validation on it only if it
    /// newly acknowledges something — a reordered ACK does not — and, like
    /// any ACK, only while validation has not failed already.
    pub fn on_regressed_counts(&mut self, newly_acked_total: u64) {
        if !matches!(self.state, EcnValidationState::Failed(_)) && newly_acked_total > 0 {
            self.state = EcnValidationState::Failed(EcnValidationFailure::NonMonotonic);
        }
    }

    /// Whether the peer mirrored *any* ECN counters on this connection,
    /// regardless of whether validation succeeded.  This is the paper's
    /// "Mirroring" notion (§2.2.2 terminology).
    pub fn peer_mirrored(&self) -> bool {
        self.last_counts.map(|c| c.total() > 0).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validator() -> EcnValidator {
        EcnValidator::new(EcnConfig::paper_default())
    }

    /// Simulate sending `n` marked packets.
    fn send_n(v: &mut EcnValidator, n: u64) {
        for _ in 0..n {
            let cp = v.codepoint_for_next_packet();
            v.on_packet_sent(cp);
        }
    }

    #[test]
    fn capable_path_validates() {
        let mut v = validator();
        send_n(&mut v, 5);
        assert_eq!(v.state(), EcnValidationState::Unknown);
        v.on_ack_received(
            5,
            5,
            Some(EcnCounts {
                ect0: 5,
                ect1: 0,
                ce: 0,
            }),
        );
        assert_eq!(v.state(), EcnValidationState::Capable);
        assert!(v.peer_mirrored());
        assert!(v.state().marking_active());
    }

    #[test]
    fn capable_with_partial_acks() {
        let mut v = validator();
        send_n(&mut v, 3);
        v.on_ack_received(
            3,
            3,
            Some(EcnCounts {
                ect0: 3,
                ect1: 0,
                ce: 0,
            }),
        );
        // Still testing (budget not exhausted), marking continues.
        assert_eq!(v.state(), EcnValidationState::Testing);
        send_n(&mut v, 2);
        v.on_ack_received(
            2,
            2,
            Some(EcnCounts {
                ect0: 5,
                ect1: 0,
                ce: 0,
            }),
        );
        assert_eq!(v.state(), EcnValidationState::Capable);
    }

    #[test]
    fn missing_counts_fail_as_no_mirroring() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_ack_received(5, 5, None);
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::NoMirroring)
        );
        assert!(!v.peer_mirrored());
        assert!(!v.state().marking_active());
    }

    #[test]
    fn ack_without_counts_for_unmarked_packets_is_harmless() {
        let mut v = validator();
        send_n(&mut v, 5);
        // ACK only covers packets sent after marking stopped.
        v.on_packet_sent(EcnCodepoint::NotEct);
        v.on_ack_received(0, 1, None);
        assert_eq!(v.state(), EcnValidationState::Unknown);
    }

    #[test]
    fn undercount_fails() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_ack_received(
            5,
            5,
            Some(EcnCounts {
                ect0: 3,
                ect1: 0,
                ce: 0,
            }),
        );
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::Undercount)
        );
    }

    #[test]
    fn remarking_to_ect1_fails_as_wrong_codepoint() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_ack_received(
            5,
            5,
            Some(EcnCounts {
                ect0: 0,
                ect1: 5,
                ce: 0,
            }),
        );
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint)
        );
        // The peer did mirror something — the paper counts this as "Mirroring"
        // but not "Capable".
        assert!(v.peer_mirrored());
    }

    #[test]
    fn ce_marking_by_congested_path_is_accepted() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_ack_received(
            5,
            5,
            Some(EcnCounts {
                ect0: 3,
                ect1: 0,
                ce: 2,
            }),
        );
        assert_eq!(v.state(), EcnValidationState::Capable);
    }

    #[test]
    fn all_ce_fails() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_ack_received(
            5,
            5,
            Some(EcnCounts {
                ect0: 0,
                ect1: 0,
                ce: 5,
            }),
        );
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::AllCe)
        );
    }

    #[test]
    fn non_monotonic_counters_fail() {
        let mut v = validator();
        send_n(&mut v, 3);
        v.on_ack_received(
            3,
            3,
            Some(EcnCounts {
                ect0: 3,
                ect1: 0,
                ce: 0,
            }),
        );
        send_n(&mut v, 2);
        v.on_ack_received(
            2,
            2,
            Some(EcnCounts {
                ect0: 2,
                ect1: 0,
                ce: 0,
            }),
        );
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::NonMonotonic)
        );
    }

    #[test]
    fn timeouts_exhaust_budget() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_timeout();
        assert_eq!(v.state(), EcnValidationState::Unknown);
        v.on_timeout();
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::AllLost)
        );
    }

    #[test]
    fn rfc_budget_uses_ten_packets_and_three_timeouts() {
        let mut v = EcnValidator::new(EcnConfig::rfc_default());
        send_n(&mut v, 9);
        assert_eq!(v.state(), EcnValidationState::Testing);
        send_n(&mut v, 1);
        assert_eq!(v.state(), EcnValidationState::Unknown);
        v.on_timeout();
        v.on_timeout();
        assert_eq!(v.state(), EcnValidationState::Unknown);
        v.on_timeout();
        assert_eq!(
            v.state(),
            EcnValidationState::Failed(EcnValidationFailure::AllLost)
        );
    }

    #[test]
    fn marking_stops_after_testing_budget() {
        let mut v = validator();
        send_n(&mut v, 5);
        assert_eq!(v.codepoint_for_next_packet(), EcnCodepoint::NotEct);
        assert_eq!(v.sent_counts().ect0, 5);
    }

    #[test]
    fn force_ce_config_marks_ce() {
        let mut v = EcnValidator::new(EcnConfig::force_ce());
        assert_eq!(v.codepoint_for_next_packet(), EcnCodepoint::Ce);
        send_n(&mut v, 5);
        assert_eq!(v.sent_counts().ce, 5);
        // A peer mirroring those CE marks is not a failure in this mode.
        v.on_ack_received(
            5,
            5,
            Some(EcnCounts {
                ect0: 0,
                ect1: 0,
                ce: 5,
            }),
        );
        assert_eq!(v.state(), EcnValidationState::Capable);
    }

    #[test]
    fn disabled_validator_never_marks() {
        let v = EcnValidator::disabled();
        assert_eq!(v.codepoint_for_next_packet(), EcnCodepoint::NotEct);
        assert!(v.state().is_final());
    }

    #[test]
    fn late_events_after_final_state_are_ignored() {
        let mut v = validator();
        send_n(&mut v, 5);
        v.on_ack_received(5, 5, None);
        let failed = v.state();
        v.on_ack_received(
            1,
            1,
            Some(EcnCounts {
                ect0: 1,
                ect1: 0,
                ce: 0,
            }),
        );
        v.on_timeout();
        assert_eq!(v.state(), failed);
    }
}
