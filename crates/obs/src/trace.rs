//! Bounded ring-buffer trace recorder.
//!
//! Long scenarios produce unbounded event streams; a [`TraceRing`] keeps
//! the most recent `capacity` entries and counts what it evicted, so the
//! recorder's memory is fixed while the *information that something was
//! dropped* is preserved deterministically.  `qem_netsim::Engine` records
//! its `FlowWake` log through one of these — entries carry virtual-time
//! (`SimInstant`) stamps, so two identical runs produce identical rings
//! and traces can be pinned by golden tests.

/// A fixed-capacity ring that keeps the newest entries.
#[derive(Debug, Clone)]
pub struct TraceRing<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index in `buf` of the oldest retained entry.
    head: usize,
    dropped: u64,
}

impl<T> TraceRing<T> {
    /// A ring retaining at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> TraceRing<T> {
        let capacity = capacity.max(1);
        TraceRing {
            buf: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Append `item`, evicting the oldest entry when full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Forget every entry and eviction, keeping capacity and allocation: the
    /// ring is as [`TraceRing::new`] left it.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total number of entries ever pushed (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.dropped + self.buf.len() as u64
    }

    /// Iterate oldest → newest over the retained entries.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, front) = self.buf.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// The retained entries oldest → newest, as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_below_capacity() {
        let mut ring = TraceRing::new(8);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.to_vec(), vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn evicts_oldest_first_when_full() {
        let mut ring = TraceRing::new(3);
        for i in 0..7 {
            ring.push(i);
        }
        assert_eq!(ring.to_vec(), vec![4, 5, 6]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.recorded(), 7);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut ring = TraceRing::new(0);
        ring.push('a');
        ring.push('b');
        assert_eq!(ring.to_vec(), vec!['b']);
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn iter_matches_to_vec_at_every_fill_level() {
        let mut ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(i);
            let via_iter: Vec<i32> = ring.iter().copied().collect();
            assert_eq!(via_iter, ring.to_vec());
            // Entries stay in push order.
            assert!(via_iter.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
