//! The reference scheduler the timer wheel is held to: a `Vec` of pending
//! `(fire time, sequence number, payload)` entries whose next batch is, by
//! construction, the earliest fire time and every entry tied with it, in
//! schedule order.  Slow and obviously correct, so it lives with the tests
//! that compare the wheel against it, event for event.

use qem_netsim::engine::{Event, Scheduler};
use qem_netsim::SimInstant;

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
