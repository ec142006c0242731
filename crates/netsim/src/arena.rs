//! A generational slot arena for in-flight scheduler events.
//!
//! The timer wheel ([`crate::wheel`]) stores event payloads out-of-line so
//! that wheel slots hold only small `Copy` bookkeeping records and — more
//! importantly — so that cancellation is O(1): freeing an arena slot bumps
//! its generation, which instantly invalidates every outstanding reference
//! to the old occupant without touching the wheel at all.  Stale wheel
//! entries are then discarded (and counted) lazily when their slot drains.
//!
//! Keys are 64-bit values packing `(generation << 32) | index`, which lets
//! the scheduler hand them out as [`crate::engine::EventId`]s directly.  The
//! arena recycles freed slots through a free list, so a steady-state
//! schedule/fire workload performs no allocation at all.

/// A key into an [`EventArena`]: slot index plus the generation the payload
/// was stored under.  A key is invalidated the moment its slot is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArenaKey {
    index: u32,
    generation: u32,
}

impl ArenaKey {
    /// Pack the key into one `u64` as `(generation << 32) | index`.
    pub fn encode(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Unpack a key previously produced by [`ArenaKey::encode`].
    pub fn decode(raw: u64) -> Self {
        ArenaKey {
            index: (raw & 0xffff_ffff) as u32,
            generation: (raw >> 32) as u32,
        }
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    payload: Option<T>,
}

/// A generational arena: stable 32-bit indices, ABA-safe keys, free-list
/// slot reuse.
#[derive(Debug)]
pub struct EventArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for EventArena<T> {
    fn default() -> Self {
        EventArena::new()
    }
}

impl<T> EventArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Drop every payload and forget every slot, keeping the allocations:
    /// the next insert is slot 0, generation 0, as in [`EventArena::new`].
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }

    /// Number of live (inserted, not yet removed) payloads.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no payload is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Store `payload`, returning the key under which it can be removed.
    ///
    /// Reuses a freed slot when one is available; the slot's generation
    /// (bumped at free time) makes the new key distinct from every key the
    /// slot has handed out before.
    pub fn insert(&mut self, payload: T) -> ArenaKey {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.payload = Some(payload);
            return ArenaKey {
                index,
                generation: slot.generation,
            };
        }
        let index = self.slots.len() as u32;
        self.slots.push(Slot {
            generation: 0,
            payload: Some(payload),
        });
        ArenaKey {
            index,
            generation: 0,
        }
    }

    /// Whether `key` still refers to a live payload.
    pub fn contains(&self, key: ArenaKey) -> bool {
        self.slots
            .get(key.index as usize)
            .map(|slot| slot.generation == key.generation && slot.payload.is_some())
            .unwrap_or(false)
    }

    /// Remove and return the payload under `key`, freeing the slot.
    ///
    /// Returns `None` — and changes nothing — when the key is stale: the
    /// slot was already freed (and possibly reused under a newer
    /// generation).  The freed slot's generation is bumped immediately, so
    /// the same key can never match twice.
    pub fn remove(&mut self, key: ArenaKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation || slot.payload.is_none() {
            return None;
        }
        let payload = slot.payload.take();
        // Wrapping keeps the arena sound after 2^32 reuses of one slot; the
        // key space simply cycles.
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.index);
        self.live -= 1;
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut arena = EventArena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.len(), 2);
        assert!(arena.contains(a));
        assert_eq!(arena.remove(a), Some("a"));
        assert!(!arena.contains(a));
        assert_eq!(arena.remove(b), Some("b"));
        assert!(arena.is_empty());
    }

    #[test]
    fn stale_keys_never_match_reused_slots() {
        let mut arena = EventArena::new();
        let first = arena.insert(1u32);
        assert_eq!(arena.remove(first), Some(1));
        // The freed slot is reused under a bumped generation…
        let second = arena.insert(2u32);
        assert_eq!(second.index, first.index);
        assert_ne!(second.generation, first.generation);
        // …so the old key is dead even though the slot is occupied again.
        assert!(!arena.contains(first));
        assert_eq!(arena.remove(first), None);
        assert_eq!(arena.remove(second), Some(2));
    }

    #[test]
    fn keys_roundtrip_through_u64_encoding() {
        let key = ArenaKey {
            index: 0x1234_5678,
            generation: 0x9abc_def0,
        };
        assert_eq!(ArenaKey::decode(key.encode()), key);
    }

    #[test]
    fn double_remove_is_a_noop() {
        let mut arena = EventArena::new();
        let key = arena.insert(7u8);
        assert_eq!(arena.remove(key), Some(7));
        assert_eq!(arena.remove(key), None);
        assert_eq!(arena.len(), 0);
    }
}
