//! The references the simulator is held to, slow and obviously correct, so
//! they live with the tests that compare production against them:
//!
//! * [`Oracle`], the scheduler the timer wheel must match event for event:
//!   a `Vec` of pending `(fire time, sequence number, payload)` entries
//!   whose next batch is, by construction, the earliest fire time and
//!   every entry tied with it, in schedule order;
//! * [`expected_arrival_ecn`] and [`has_ecn_impairment`], the ECN ground
//!   truth of a path, read from its routers' policies alone.

// Every test crate that includes this file uses only part of it.
#![allow(dead_code)]

use qem_netsim::engine::{Event, Scheduler};
use qem_netsim::{EcnPolicy, Path, SimInstant};
use qem_packet::ecn::EcnCodepoint;

/// The codepoint a packet sent with `sent` carries on arrival over `path`,
/// ignoring loss, AQM randomness and TTL: what transit must deliver.
pub fn expected_arrival_ecn(path: &Path, sent: EcnCodepoint) -> EcnCodepoint {
    path.hops
        .iter()
        .fold(sent, |ecn, hop| hop.router.ecn_policy.apply(ecn))
}

/// Whether any router on `path` can change a codepoint: whether the path
/// is impaired for ECN purposes.
pub fn has_ecn_impairment(path: &Path) -> bool {
    path.hops
        .iter()
        .any(|hop| hop.router.ecn_policy != EcnPolicy::Pass)
}

/// A sorted-`Vec` [`Scheduler`].
#[derive(Debug)]
pub struct Oracle<T> {
    pending: Vec<(SimInstant, u64, T)>,
    next_seq: u64,
    now: SimInstant,
}

impl<T> Default for Oracle<T> {
    fn default() -> Self {
        Oracle {
            pending: Vec::new(),
            next_seq: 0,
            now: SimInstant::EPOCH,
        }
    }
}

impl<T> Scheduler<T> for Oracle<T> {
    fn now(&self) -> SimInstant {
        self.now
    }

    fn schedule_at(&mut self, at: SimInstant, payload: T) {
        self.pending
            .push((at.max(self.now), self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop_batch(&mut self, out: &mut Vec<Event<T>>) -> usize {
        out.clear();
        self.pending.sort_by_key(|&(at, seq, _)| (at, seq));
        let Some(&(at, _, _)) = self.pending.first() else {
            return 0;
        };
        self.now = at;
        let tied = self
            .pending
            .iter()
            .take_while(|entry| entry.0 == at)
            .count();
        out.extend(
            self.pending
                .drain(..tied)
                .map(|(at, _, payload)| Event { at, payload }),
        );
        out.len()
    }
}
