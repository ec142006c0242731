//! A hierarchical slotted timer wheel: the engine's scheduler.
//!
//! Nearly every event the engine schedules is a near-future timer — pacing
//! ticks, RTOs, queue drains — which is the workload hierarchical wheels
//! were designed for (Varghese & Lauck's hashed hierarchical wheels; the
//! same structure production QUIC pacers use).  Compared to a binary heap:
//!
//! * **O(1) insert** — a level is picked from the xor of the fire tick and
//!   the current tick, a pooled node carrying the payload is linked onto
//!   that slot's list, one bitmap OR.  No sift-up, no comparisons.
//! * **Amortised O(1) pop with native batching** — advancing means scanning
//!   occupancy bitmaps (`trailing_zeros` on a `u64`), and a bottom-level
//!   slot covers exactly one tick, so draining it yields the whole
//!   same-instant batch at once, sorted by sequence number to keep the
//!   FIFO tie-break.
//!
//! ## Geometry and storage
//!
//! Ticks are the engine's native microseconds (`SimInstant::as_micros`).
//! The bottom level has 4096 one-tick slots — a 4.096 ms window sized so
//! the engine's common timers (pacing intervals, queue drains, sub-ms
//! re-arms) insert directly into their firing slot and never cascade.
//! Above it, nine levels of 64 slots cover `12 + 9 × 6 = 66 ≥ 64` bits,
//! i.e. the whole `u64` tick space — there is no separate overflow list; a
//! timer 10 years out simply lands in a high level and cascades down as
//! the clock approaches.  Cascading re-inserts a slot's entries after
//! advancing the clock to the slot's base tick, so every entry moves to a
//! *strictly lower* level and termination is structural.  The bottom
//! level's 4096 occupancy bits are themselves hierarchical: one summary
//! `u64` over 64 leaf words, so finding the next occupied slot is two
//! `trailing_zeros`, not a 4096-bit scan.
//!
//! Slots are intrusive singly-linked lists threaded through one shared
//! node pool: a slot is a `u32` head index, a push links a pooled node,
//! and a drain walks the chain back onto the pool's free list.  With
//! thousands of slots this matters twice over — constructing a wheel is a
//! small memset rather than thousands of `Vec` headers, and steady-state
//! scheduling never allocates, where per-slot vectors would malloc on
//! every first touch of a slot.  Payloads are `Copy` and live in the
//! nodes themselves.
//!
//! ## Reuse
//!
//! Constructing a wheel costs one 18.7 KB slot table — nothing next to a
//! many-flow run, most of what a one-flow census probe used to allocate.
//! [`TimerWheel::reset`] therefore makes a used wheel *observably* a new
//! one (clock and sequence numbers start over) while keeping the slot
//! table and node pool, and the engine's
//! [`EngineScratch`](crate::engine::EngineScratch) carries one wheel from
//! probe to probe.  `tests/scheduler_differential.rs` holds a reset wheel to
//! exactly what it holds a new one to.
//!
//! ## Determinism
//!
//! The wheel's observable contract is the `(fire time, schedule order)`
//! event sequence, its batch boundaries and the clock, which equals the
//! fire time of the last batch handed out.
//! `tests/scheduler_differential.rs` asserts it by driving the wheel and a
//! sorted-`Vec` oracle, kept under `tests/support/`, through identical
//! workloads, including proptest-random schedule/pop interleavings.

use crate::engine::{Event, Scheduler};
use crate::time::SimInstant;

/// Bits of the tick consumed by the bottom level: 4096 one-tick slots.
const BOTTOM_BITS: u32 = 12;
/// Bottom-level slot count.
const BOTTOM_SLOTS: usize = 1 << BOTTOM_BITS;
/// Bits of the tick consumed per upper level: 64 slots each.
const UPPER_BITS: u32 = 6;
/// Slots per upper level.
const UPPER_SLOTS: usize = 1 << UPPER_BITS;
/// Upper levels needed so `BOTTOM_BITS + UPPER_LEVELS * UPPER_BITS >= 64`
/// covers every `u64` tick.
const UPPER_LEVELS: usize = 9;
/// Total slot count across all levels; bottom slots come first.
const TOTAL_SLOTS: usize = BOTTOM_SLOTS + UPPER_LEVELS * UPPER_SLOTS;
/// Empty-list sentinel for slot heads and node links.
const NIL: u32 = u32::MAX;

/// One slot entry: fire tick, FIFO sequence number and the payload.  Small
/// and `Copy` so cascades move plain words around.
#[derive(Debug, Clone, Copy)]
struct WheelEntry<T> {
    at_us: u64,
    seq: u64,
    payload: T,
}

/// A pooled list node: the entry plus the next index in its slot's chain
/// (or in the pool's free list once drained).
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    entry: WheelEntry<T>,
    next: u32,
}

/// Where the next occupied slot lives: the bottom ring or an upper level.
#[derive(Debug, Clone, Copy)]
enum SlotRef {
    Bottom(usize),
    Upper(usize, usize),
}

/// The hierarchical timer wheel.  Implements [`Scheduler`]; the engine's
/// backing (see [`crate::engine::Engine`]).
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Head node index per slot, bottom level first then the upper levels
    /// flattened level-major.  `NIL` means empty.
    heads: Vec<u32>,
    /// Bottom occupancy, hierarchical: bit `i` of `bottom_words[w]` is set
    /// iff slot `w * 64 + i` is non-empty…
    bottom_words: [u64; BOTTOM_SLOTS / 64],
    /// …and bit `w` of the summary is set iff `bottom_words[w] != 0`.
    bottom_summary: u64,
    /// One occupancy bit per upper slot, per level.
    upper_occupied: [u64; UPPER_LEVELS],
    /// The shared node pool all slot lists thread through.
    pool: Vec<Node<T>>,
    /// Head of the pool's free list (`NIL` when exhausted).
    pool_free: u32,
    /// The wheel clock in ticks (µs).  Monotone; never passes an occupied
    /// slot without draining it.
    now_us: u64,
    next_seq: u64,
    /// Drain buffer, reused so steady-state advancing allocates nothing.
    scratch: Vec<WheelEntry<T>>,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel starting at the epoch.
    pub fn new() -> Self {
        TimerWheel {
            heads: vec![NIL; TOTAL_SLOTS],
            bottom_words: [0; BOTTOM_SLOTS / 64],
            bottom_summary: 0,
            upper_occupied: [0; UPPER_LEVELS],
            pool: Vec::new(),
            pool_free: NIL,
            now_us: 0,
            next_seq: 0,
            scratch: Vec::new(),
        }
    }

    /// Make the wheel observably a [`TimerWheel::new`] one — clock at the
    /// epoch, sequence numbers starting over — while keeping every
    /// allocation.  Pending entries are dropped.  `heads` is refilled only
    /// if the occupancy bitmaps say a slot is non-empty: a wheel that ran
    /// dry, the common case between two probes, resets without touching
    /// its 18.7 KB.
    pub fn reset(&mut self) {
        if self.bottom_summary != 0 || self.upper_occupied != [0; UPPER_LEVELS] {
            self.heads.fill(NIL);
            self.bottom_words = [0; BOTTOM_SLOTS / 64];
            self.bottom_summary = 0;
            self.upper_occupied = [0; UPPER_LEVELS];
        }
        self.pool.clear();
        self.pool_free = NIL;
        self.now_us = 0;
        self.next_seq = 0;
    }

    fn upper_slot_of(at_us: u64, level: usize) -> usize {
        let shift = BOTTOM_BITS as usize + UPPER_BITS as usize * level;
        ((at_us >> shift) & (UPPER_SLOTS as u64 - 1)) as usize
    }

    /// Link `entry` onto `slot`'s chain, reusing a freed pool node when one
    /// is available.
    fn link(&mut self, slot: usize, entry: WheelEntry<T>) {
        let head = self.heads[slot];
        let index = if self.pool_free != NIL {
            let index = self.pool_free;
            let node = &mut self.pool[index as usize];
            self.pool_free = node.next;
            *node = Node { entry, next: head };
            index
        } else {
            let index = self.pool.len() as u32;
            self.pool.push(Node { entry, next: head });
            index
        };
        self.heads[slot] = index;
    }

    /// Unlink `slot`'s whole chain into `scratch` (clearing the slot and
    /// returning the nodes to the free list), then sort it back into FIFO
    /// order — chains are LIFO, sequence numbers restore schedule order.
    fn drain_slot_to_scratch(&mut self, slot: usize) {
        self.scratch.clear();
        let mut index = self.heads[slot];
        self.heads[slot] = NIL;
        while index != NIL {
            let node = self.pool[index as usize];
            self.scratch.push(node.entry);
            self.pool[index as usize].next = self.pool_free;
            self.pool_free = index;
            index = node.next;
        }
        if self.scratch.len() > 1 {
            self.scratch.sort_unstable_by_key(|entry| entry.seq);
        }
    }

    /// Insert an entry at the level whose field is the highest one
    /// differing between `at_us` and the current tick: within the current
    /// 4096-tick window that is the bottom ring (the entry's exact firing
    /// slot); otherwise an upper level, strictly ahead of the clock.
    fn push_entry(&mut self, entry: WheelEntry<T>) {
        let xor = entry.at_us ^ self.now_us;
        if xor < BOTTOM_SLOTS as u64 {
            let slot = (entry.at_us & (BOTTOM_SLOTS as u64 - 1)) as usize;
            self.link(slot, entry);
            self.bottom_words[slot >> 6] |= 1u64 << (slot & 63);
            self.bottom_summary |= 1u64 << (slot >> 6);
        } else {
            let level =
                (63 - xor.leading_zeros() as usize - BOTTOM_BITS as usize) / UPPER_BITS as usize;
            let slot = Self::upper_slot_of(entry.at_us, level);
            self.link(BOTTOM_SLOTS + level * UPPER_SLOTS + slot, entry);
            self.upper_occupied[level] |= 1u64 << slot;
        }
    }

    /// The first occupied slot at or after the clock's current position,
    /// lowest level first — by the wheel invariant, the slot holding the
    /// globally minimal pending entry.
    fn next_occupied(&self) -> Option<SlotRef> {
        // Bottom ring: the clock's leaf word first, then the summary for
        // any later word.  Slots behind the clock are structurally empty:
        // the clock never passes an occupied slot without draining it.
        let cur = (self.now_us & (BOTTOM_SLOTS as u64 - 1)) as usize;
        let word = cur >> 6;
        let ahead = self.bottom_words[word] & (!0u64 << (cur & 63));
        if ahead != 0 {
            return Some(SlotRef::Bottom(
                (word << 6) + ahead.trailing_zeros() as usize,
            ));
        }
        let later_words = if word + 1 < 64 {
            self.bottom_summary & (!0u64 << (word + 1))
        } else {
            0
        };
        if later_words != 0 {
            let w = later_words.trailing_zeros() as usize;
            let slot = (w << 6) + self.bottom_words[w].trailing_zeros() as usize;
            return Some(SlotRef::Bottom(slot));
        }
        for level in 0..UPPER_LEVELS {
            let cur = Self::upper_slot_of(self.now_us, level);
            let ahead = self.upper_occupied[level] & (!0u64 << cur);
            if ahead != 0 {
                return Some(SlotRef::Upper(level, ahead.trailing_zeros() as usize));
            }
        }
        None
    }
}

impl<T: Copy> Scheduler<T> for TimerWheel<T> {
    fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.now_us)
    }

    fn schedule_at(&mut self, at: SimInstant, payload: T) {
        let at_us = at.as_micros().max(self.now_us);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(WheelEntry {
            at_us,
            seq,
            payload,
        });
    }

    /// Cascade upper-level slots downwards until a bottom slot is next,
    /// then drain that slot — every event it holds fires at its one tick —
    /// into `out` in schedule order.
    fn pop_batch(&mut self, out: &mut Vec<Event<T>>) -> usize {
        out.clear();
        while let Some(found) = self.next_occupied() {
            match found {
                SlotRef::Bottom(slot) => {
                    self.now_us = (self.now_us & !(BOTTOM_SLOTS as u64 - 1)) | slot as u64;
                    let word = slot >> 6;
                    self.bottom_words[word] &= !(1u64 << (slot & 63));
                    if self.bottom_words[word] == 0 {
                        self.bottom_summary &= !(1u64 << word);
                    }
                    self.drain_slot_to_scratch(slot);
                    out.extend(self.scratch.iter().map(|entry| Event {
                        at: SimInstant::from_micros(entry.at_us),
                        payload: entry.payload,
                    }));
                    break;
                }
                SlotRef::Upper(level, slot) => {
                    // Advance the clock to the slot's base tick *first*;
                    // cascaded entries then differ from `now` only below
                    // this level's field, so each re-insert lands at a
                    // strictly lower level.
                    let shift = BOTTOM_BITS as usize + UPPER_BITS as usize * level;
                    let above = shift + UPPER_BITS as usize;
                    let high = if above >= 64 {
                        0
                    } else {
                        (self.now_us >> above) << above
                    };
                    self.now_us = high | ((slot as u64) << shift);
                    self.upper_occupied[level] &= !(1u64 << slot);
                    self.drain_slot_to_scratch(BOTTOM_SLOTS + level * UPPER_SLOTS + slot);
                    for i in 0..self.scratch.len() {
                        self.push_entry(self.scratch[i]);
                    }
                }
            }
        }
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
    }

    /// Every event still pending, batch by batch, in firing order.
    fn drain<T: Copy>(wheel: &mut TimerWheel<T>) -> Vec<Event<T>> {
        let mut fired = Vec::new();
        let mut batch = Vec::new();
        while wheel.pop_batch(&mut batch) > 0 {
            fired.extend_from_slice(&batch);
        }
        fired
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut wheel = TimerWheel::new();
        wheel.schedule_at(at(1000), "b");
        wheel.schedule_at(at(0), "a");
        wheel.schedule_at(at(1000), "c");
        let order: Vec<&str> = drain(&mut wheel).iter().map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b", "c"], "same-instant events must be FIFO");
    }

    #[test]
    fn clamps_past_events_to_now() {
        let mut wheel = TimerWheel::new();
        let mut batch = Vec::new();
        wheel.schedule_at(at(5000), ());
        assert_eq!(wheel.pop_batch(&mut batch), 1);
        wheel.schedule_at(at(0), ());
        assert_eq!(wheel.pop_batch(&mut batch), 1, "clamped event");
        assert_eq!(batch[0].at, at(5000));
    }

    #[test]
    fn pop_batch_yields_the_whole_same_instant_batch() {
        let mut wheel = TimerWheel::new();
        wheel.schedule_at(at(10), 0u32);
        wheel.schedule_at(at(10), 1u32);
        wheel.schedule_at(at(20), 2u32);
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_batch(&mut batch), 2);
        assert_eq!(batch.iter().map(|e| e.payload).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(wheel.pop_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, 2);
        assert_eq!(wheel.pop_batch(&mut batch), 0);
    }

    #[test]
    fn far_future_timers_cascade_down_between_levels() {
        let mut wheel = TimerWheel::new();
        // One event per level boundary: 64^k µs apart, far past any single
        // level's span — plus one ten-years-out outlier.
        let ticks: Vec<u64> = (0..8).map(|k| 64u64.pow(k)).chain([u64::MAX / 2]).collect();
        for &t in ticks.iter().rev() {
            wheel.schedule_at(at(t), t);
        }
        let mut popped = Vec::new();
        for event in drain(&mut wheel) {
            assert_eq!(
                event.at,
                at(event.payload),
                "fire time must survive cascading"
            );
            popped.push(event.payload);
        }
        let mut expected = ticks.clone();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }

    #[test]
    fn bottom_window_boundaries_neither_lose_nor_reorder_events() {
        let mut wheel = TimerWheel::new();
        // Straddle the 4096-tick bottom window edge and both sides of a
        // leaf-word boundary within it, in scrambled insert order.
        let ticks = [4095u64, 4096, 4097, 63, 64, 8191, 8192, 1];
        for &t in &ticks {
            wheel.schedule_at(at(t), t);
        }
        let mut popped = Vec::new();
        for event in drain(&mut wheel) {
            assert_eq!(event.at, at(event.payload));
            popped.push(event.payload);
        }
        let mut expected = ticks.to_vec();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }

    #[test]
    fn pool_nodes_are_recycled_across_slots() {
        let mut wheel = TimerWheel::new();
        // Thousands of schedule/fire cycles across distinct slots must not
        // grow the node pool past the peak number in flight.
        for round in 0..2000u64 {
            wheel.schedule_at(at(round * 7 + 1), round);
            wheel.schedule_at(at(round * 7 + 3), round);
            let mut batch = Vec::new();
            while wheel.pop_batch(&mut batch) > 0 {}
        }
        assert!(
            wheel.pool.len() <= 4,
            "pool grew to {} nodes for 2 in flight",
            wheel.pool.len()
        );
    }
}
