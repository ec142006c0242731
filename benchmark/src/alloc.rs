//! A counting global allocator: allocations, bytes requested, live bytes
//! and peak live bytes, switched on only around the one *counted* pass of a
//! run.  While switched off every allocator call pays a single relaxed load,
//! so the timed passes measure the same binary without the bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The process-wide allocator: [`System`] plus the counters below.
pub struct Counting;

// All counters are statistics that publish no other data, so `Relaxed` is
// enough; worker threads of the census add to them concurrently.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: memory allocated before `enable` and freed after it subtracts
// bytes that were never added.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if ENABLED.load(Relaxed) && !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if ENABLED.load(Relaxed) && !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only ever hands out `System`
        // blocks.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Relaxed) {
            on_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout` and that `new_size` is non-zero and does not
        // overflow when rounded up to the alignment.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if ENABLED.load(Relaxed) && !new_ptr.is_null() {
            // A grown `Vec` is one more request to the allocator for
            // `new_size` bytes; the old block is gone.
            on_free(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// What the allocator saw since the last [`begin_pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Calls that returned a new block (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes live now, counted from [`enable`].
    pub live: u64,
    /// Highest number of bytes live at one time, counted from [`enable`].
    pub peak_live: u64,
}

/// Switch counting on.  Live bytes count from here, so whatever is allocated
/// between `enable` and [`begin_pass`] (the workload's resident inputs) is
/// part of the pass's peak.
pub fn enable() {
    LIVE.store(0, Relaxed);
    begin_pass();
    ENABLED.store(true, Relaxed);
}

/// Switch counting off.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Start a counted pass: zero the allocation and byte counters and reset the
/// peak to what is live right now.
pub fn begin_pass() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The counters since the last [`begin_pass`].
pub fn counts() -> Counts {
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed).max(0) as u64,
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Run `f` with counting on and return what it allocated.  Used by the
/// per-layer probes, which need no resident baseline.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    enable();
    let out = f();
    let counts = counts();
    disable();
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::Mutex;

    // The counters are process-wide and the test harness runs tests on
    // parallel threads: tests that switch counting on take this lock.  Other
    // modules' tests may still allocate or free a few hundred bytes
    // meanwhile, so the blocks here are a megabyte and the assertions leave
    // half of it as margin.
    static SWITCH: Mutex<()> = Mutex::new(());
    const MIB: usize = 1 << 20;
    const HALF: u64 = 1 << 19;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        SWITCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn a_known_vec_allocation_is_counted() {
        let _guard = lock();
        let (block, counts) = counted(|| black_box(vec![0u8; MIB]));
        assert!(counts.allocs >= 1);
        assert!(counts.bytes >= MIB as u64);
        assert!(counts.live > HALF, "the block is still alive: {counts:?}");
        assert!(counts.peak_live >= counts.live);
        drop(block);
    }

    #[test]
    fn peak_resets_per_pass() {
        let _guard = lock();
        enable();
        drop(black_box(vec![0u8; MIB]));
        let first = counts();
        begin_pass();
        let small = black_box(vec![0u8; 64]);
        let second = counts();
        disable();
        assert!(first.peak_live > HALF, "{first:?}");
        // The megabyte was freed before the second pass began.
        assert!(second.peak_live < HALF, "{second:?}");
        assert!(second.allocs >= 1 && second.bytes < HALF, "{second:?}");
        drop(small);
    }

    #[test]
    fn nothing_is_counted_while_switched_off() {
        let _guard = lock();
        enable();
        disable();
        begin_pass();
        drop(black_box(vec![0u8; MIB]));
        let counts = counts();
        assert_eq!((counts.allocs, counts.bytes), (0, 0));
    }
}
