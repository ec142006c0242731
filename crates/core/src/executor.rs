//! Sharded, batch-claiming executor for embarrassingly-parallel measurement
//! work.
//!
//! Handing items to threads one at a time serialises on a lock once per
//! item.  This executor shards the input into contiguous batches and lets
//! workers *claim whole batches*: the per-item synchronisation cost is
//! amortised over [`ShardedExecutor::batch_size`] items, so throughput
//! scales with cores even when a single measurement is cheap.
//!
//! Determinism contract: the executor only controls *scheduling*.  As long
//! as the supplied closure is a pure function of the item (the scanner
//! derives each host's RNG from `seed × host id`), the returned vector is
//! bit-identical for every worker count — results are reassembled in input
//! order, not completion order.
//!
//! Work that wants reusable buffers or a private accumulator gets them as
//! **per-worker state**: [`ShardedExecutor::run_streaming`] builds one `W`
//! per worker thread (or one for the inline path) with `init`, hands it to
//! every `work` call of that worker, and drops it — exactly once, on the
//! thread that built it, also when `work` or the sink panics — before the
//! run returns, so a `Drop` impl is where a worker hands in what it
//! accumulated.  The state belongs to the run — nothing is parked in
//! thread-locals or statics — and, by the contract above, must not
//! influence results.  The executor itself keeps no statistics: how many
//! batches a worker claimed is scheduling, and nobody reads it.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A sharded batch executor with a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedExecutor {
    workers: usize,
    batch_size: usize,
}

/// Work below this size is run inline: thread startup would dominate.
const SEQUENTIAL_CUTOFF: usize = 32;

/// Upper bound on the batch size picked by [`ShardedExecutor::new`].
const MAX_BATCH: usize = 256;

/// What the threads of one streaming run share: shards `flushed..claimed`
/// are handed out and not yet through the sink.
struct Board<T> {
    /// The next shard a worker claims.
    claimed: usize,
    /// The shard the sink waits for.
    flushed: usize,
    /// One slot per shard in `flushed..claimed`, filled when its batch is
    /// computed; the front slot is emptied while its batch is in the sink.
    done: VecDeque<Option<Vec<T>>>,
    /// Set when a worker or the sink panicked: nobody waits any more, so
    /// the scope join can propagate the panic.
    cancelled: bool,
}

/// The board behind its one lock, and the one condition: "the board moved".
struct Shared<T> {
    board: Mutex<Board<T>>,
    moved: Condvar,
}

impl<T> Shared<T> {
    // Short of a failed debug assertion, nothing panics while the lock is
    // held, so a poisoned lock still guards a consistent board.
    fn lock(&self) -> MutexGuard<'_, Board<T>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the board once `waiting` no longer holds for it.
    fn wait_while(&self, waiting: impl FnMut(&mut Board<T>) -> bool) -> MutexGuard<'_, Board<T>> {
        self.moved
            .wait_while(self.lock(), waiting)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Cancels the run when dropped by a panicking thread, so that nobody is
/// left waiting on a shard the panic will never deliver.
struct CancelOnPanic<'a, T>(&'a Shared<T>);

impl<T> Drop for CancelOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().cancelled = true;
            self.0.moved.notify_all();
        }
    }
}

impl ShardedExecutor {
    /// Create an executor.  `workers == 0` means "one worker per available
    /// core"; any other value is used as-is.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            workers
        };
        ShardedExecutor {
            workers,
            batch_size: 0,
        }
    }

    /// Override the automatic batch size (values are clamped to ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The batch size used for `n` items.
    ///
    /// Aims for ~8 batches per worker so stragglers rebalance, bounded by
    /// `MAX_BATCH` so a batch waiting for the sink never holds a huge
    /// payload.
    pub fn batch_size(&self, n: usize) -> usize {
        if self.batch_size > 0 {
            return self.batch_size;
        }
        (n / (self.workers * 8).max(1)).clamp(1, MAX_BATCH)
    }

    /// Apply `work` to every item, returning outputs in input order.
    ///
    /// The output is identical to `items.iter().map(work).collect()` for any
    /// worker count, provided `work` is a pure function of its argument.
    pub fn run<I, T, F>(&self, items: &[I], work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        self.run_streaming(items, || (), |(), item| work(item), |value| out.push(value));
        out
    }

    /// Apply `work` to every item, delivering outputs to `sink` *in input
    /// order* without ever materialising the full result set.
    ///
    /// This is the spill path campaign persistence is built on: workers
    /// claim shards only within a **window** of the shard the sink waits
    /// for, and a batch counts against the window until the sink has
    /// returned from its last item.  So when the sink (e.g. a segment
    /// writer flushing to disk) or one slow shard falls behind, workers
    /// block instead of piling results up in RAM.  The sink runs on the
    /// calling thread.
    ///
    /// Calling `sink` for each output of `items.iter().map(work)` in order is
    /// the exact sequential semantics; only the scheduling differs.
    ///
    /// Each worker builds its own `W` with `init` and lends it to every
    /// `work` call it makes (the inline path builds one); the output is the
    /// same as long as `work`'s result does not depend on the state.
    pub fn run_streaming<I, T, W, N, F, S>(&self, items: &[I], init: N, work: F, mut sink: S)
    where
        I: Sync,
        T: Send,
        N: Fn() -> W + Sync,
        F: Fn(&mut W, &I) -> T + Sync,
        S: FnMut(T),
    {
        // An explicit batch size signals coarse-grained items (e.g. one whole
        // vantage-point scan each); only auto-batched work gets the inline
        // shortcut for small inputs.
        let run_inline =
            self.workers <= 1 || (self.batch_size == 0 && items.len() < SEQUENTIAL_CUTOFF);
        if run_inline {
            let mut state = init();
            for item in items {
                sink(work(&mut state, item));
            }
            return;
        }

        let batch = self.batch_size(items.len());
        let shard_count = items.len().div_ceil(batch);
        // At most `window` shards are claimed and not yet through the sink,
        // so memory stays O(window × batch) however slow one shard or the
        // sink is.  The shard the sink waits for is always inside the
        // window, so the throttle cannot deadlock.
        let window = self.workers * 4;
        let shared = Shared {
            board: Mutex::new(Board {
                claimed: 0,
                flushed: 0,
                done: VecDeque::with_capacity(window),
                cancelled: false,
            }),
            moved: Condvar::new(),
        };
        let (shared, init, work) = (&shared, &init, &work);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(shard_count) {
                scope.spawn(move || {
                    let mut state = init();
                    let _cancel = CancelOnPanic(shared);
                    loop {
                        let mut board = shared.wait_while(|b| {
                            !b.cancelled
                                && b.claimed < shard_count
                                && b.claimed >= b.flushed + window
                        });
                        if board.cancelled || board.claimed == shard_count {
                            return;
                        }
                        let shard = board.claimed;
                        board.claimed += 1;
                        board.done.push_back(None);
                        debug_assert_eq!(board.done.len(), board.claimed - board.flushed);
                        drop(board);
                        let start = shard * batch;
                        let outputs = items[start..(start + batch).min(items.len())]
                            .iter()
                            .map(|item| work(&mut state, item))
                            .collect();
                        let mut board = shared.lock();
                        let slot = shard - board.flushed;
                        board.done[slot] = Some(outputs);
                        if slot == 0 {
                            drop(board);
                            shared.moved.notify_all();
                        }
                    }
                });
            }

            // Flush batches to the sink in shard order: completion order is
            // scheduling noise.
            let _cancel = CancelOnPanic(shared);
            for _ in 0..shard_count {
                let mut board =
                    shared.wait_while(|b| !b.cancelled && !matches!(b.done.front(), Some(Some(_))));
                let Some(outputs) = board.done.front_mut().and_then(Option::take) else {
                    // Cancelled: a worker panicked, and the scope join
                    // re-raises it.
                    return;
                };
                drop(board);
                for value in outputs {
                    sink(value);
                }
                let mut board = shared.lock();
                board.done.pop_front();
                board.flushed += 1;
                debug_assert_eq!(board.done.len(), board.claimed - board.flushed);
                drop(board);
                shared.moved.notify_all();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        assert!(ShardedExecutor::new(0).workers() >= 1);
        assert_eq!(ShardedExecutor::new(3).workers(), 3);
    }

    #[test]
    fn output_order_matches_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..1_000).rev().collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 4, 8, 16] {
            let got = ShardedExecutor::new(workers).run(&items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn small_inputs_run_inline_without_threads() {
        let items: Vec<usize> = (0..SEQUENTIAL_CUTOFF - 1).collect();
        let calls = AtomicUsize::new(0);
        let got = ShardedExecutor::new(8).run(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(got, items);
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let items: Vec<usize> = (0..10_000).collect();
        let calls = AtomicUsize::new(0);
        let got = ShardedExecutor::new(7)
            .with_batch_size(13)
            .run(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert_eq!(got, items);
    }

    #[test]
    fn streaming_delivers_in_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..5_000).rev().collect();
        let expected: Vec<u64> = items.iter().map(|&x| x ^ 0xa5).collect();
        for workers in [1, 2, 4, 8] {
            let mut got = Vec::new();
            ShardedExecutor::new(workers).run_streaming(
                &items,
                || (),
                |(), &x| x ^ 0xa5,
                |v| got.push(v),
            );
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_work_closure_propagates_instead_of_deadlocking() {
        // A worker that dies mid-shard never fills its slot; the sink would
        // wait there forever and every other worker would park on the
        // claim window.
        // The cancellation guard must break that cycle so the panic reaches
        // the caller (regression test: this used to hang forever).
        let items: Vec<usize> = (0..100_000).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardedExecutor::new(4).with_batch_size(10).run_streaming(
                &items,
                || (),
                |(), &x| {
                    assert!(x != 500, "work gives up");
                    x
                },
                |_| {},
            );
        }));
        assert!(result.is_err(), "the work panic must propagate");
    }

    #[test]
    fn a_panicking_sink_propagates_instead_of_hanging_the_join() {
        // The sink panics while workers are still producing; the run must
        // end in that panic (observable via catch_unwind), not in a hang on
        // the scope join with workers parked on the claim window.
        let items: Vec<usize> = (0..10_000).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut seen = 0usize;
            ShardedExecutor::new(4).with_batch_size(8).run_streaming(
                &items,
                || (),
                |(), &x| x,
                |_| {
                    seen += 1;
                    assert!(seen <= 64, "sink gives up");
                },
            );
        }));
        assert!(result.is_err(), "the sink panic must propagate");
    }

    #[test]
    fn streaming_bounds_the_reorder_buffer_when_one_shard_is_slow() {
        // Shard 0 sleeps while its successors race ahead, or the sink sleeps
        // inside shard 0's batch: either way the claim window must cap how
        // far ahead workers compute, the batch in the sink included, without
        // ever deadlocking the shard the sink waits on.
        let items: Vec<usize> = (0..4_000).collect();
        let batch = 10;
        let executor = ShardedExecutor::new(4).with_batch_size(batch);
        let window_items = 4 * 4 * batch; // workers × window factor × batch
        let nap = || std::thread::sleep(std::time::Duration::from_millis(30));
        for slow_sink in [false, true] {
            let computed_ahead = AtomicUsize::new(0);
            let flushed = AtomicUsize::new(0);
            let mut got = Vec::new();
            executor.run_streaming(
                &items,
                || (),
                |(), &x| {
                    if x == 0 && !slow_sink {
                        nap();
                    }
                    let lead = x.saturating_sub(flushed.load(Ordering::Relaxed));
                    computed_ahead.fetch_max(lead, Ordering::Relaxed);
                    x
                },
                |v| {
                    if v == batch / 2 && slow_sink {
                        nap();
                    }
                    flushed.store(v + 1, Ordering::Relaxed);
                    got.push(v);
                },
            );
            assert_eq!(got, items, "slow_sink={slow_sink}");
            // Nothing outside the window is ever computed: the lead stays
            // within one batch of it, far below "the rest of the input raced
            // ahead".
            let max_lead = computed_ahead.load(Ordering::Relaxed);
            assert!(
                max_lead <= window_items + batch,
                "claim window not enforced (slow_sink={slow_sink}): lead {max_lead}"
            );
        }
    }

    #[test]
    fn streaming_backpressures_a_slow_sink_without_losing_order() {
        let items: Vec<usize> = (0..2_000).collect();
        let mut got = Vec::new();
        ShardedExecutor::new(4).with_batch_size(7).run_streaming(
            &items,
            || (),
            |(), &x| x,
            |v| {
                if v % 512 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                got.push(v);
            },
        );
        assert_eq!(got, items);
    }

    /// Worker state that counts its drops on the thread that built it.
    struct Counted<'a> {
        dropped: &'a AtomicUsize,
        thread: std::thread::ThreadId,
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            if self.thread == std::thread::current().id() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_dropped_before_the_run_returns() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Panics {
            Nowhere,
            InWork(usize),
            InSink(usize),
        }
        let threaded: Vec<usize> = (0..2_000).collect();
        let inline: Vec<usize> = (0..SEQUENTIAL_CUTOFF - 1).collect();
        let mut cases = Vec::new();
        for (workers, items) in [(1, &threaded), (4, &threaded), (4, &inline)] {
            for panics in [Panics::Nowhere, Panics::InWork(20), Panics::InSink(20)] {
                cases.push((ShardedExecutor::new(workers), items, panics));
            }
        }
        // Cancellation at every batch boundary: the panic hits each shard's
        // first and last item, in `work` and in the sink.
        let small: Vec<usize> = (0..64).collect();
        let batch = 4;
        for workers in [1, 2, 4, 0] {
            let executor = ShardedExecutor::new(workers).with_batch_size(batch);
            cases.push((executor, &small, Panics::Nowhere));
            for &x in small
                .iter()
                .filter(|&&x| x % batch == 0 || x % batch == batch - 1)
            {
                cases.push((executor, &small, Panics::InWork(x)));
                cases.push((executor, &small, Panics::InSink(x)));
            }
        }
        for (executor, items, panics) in cases {
            let workers = executor.workers();
            let case = format!("workers={workers} items={} {panics:?}", items.len());
            let dropped = AtomicUsize::new(0);
            let built_on = Mutex::new(Vec::new());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut got = Vec::new();
                executor.run_streaming(
                    items,
                    || {
                        let thread = std::thread::current().id();
                        built_on.lock().unwrap().push(thread);
                        Counted {
                            dropped: &dropped,
                            thread,
                        }
                    },
                    |state, &x| {
                        assert_eq!(state.thread, std::thread::current().id());
                        assert!(panics != Panics::InWork(x), "work gives up");
                        x
                    },
                    |v| {
                        assert!(panics != Panics::InSink(v), "sink gives up");
                        got.push(v);
                    },
                );
                got
            }));
            // Whatever happened, every state built is gone by now.
            let built_on = built_on.into_inner().unwrap();
            let built = built_on.len();
            assert_eq!(dropped.load(Ordering::Relaxed), built, "{case}");
            let threads: HashSet<_> = built_on.into_iter().collect();
            assert_eq!(threads.len(), built, "one state per thread: {case}");
            if workers == 1 || items.len() < SEQUENTIAL_CUTOFF {
                assert_eq!(built, 1, "{case}");
                assert!(threads.contains(&std::thread::current().id()), "{case}");
            } else {
                let shards = items.len().div_ceil(executor.batch_size(items.len()));
                assert_eq!(built, workers.min(shards), "{case}");
            }
            match panics {
                Panics::Nowhere => assert_eq!(&result.expect(&case), items),
                _ => assert!(result.is_err(), "the panic must propagate: {case}"),
            }
        }
    }

    #[test]
    fn automatic_batch_size_is_bounded() {
        let ex = ShardedExecutor::new(4);
        assert_eq!(ex.batch_size(0), 1);
        assert!(ex.batch_size(100) >= 1);
        assert!(ex.batch_size(10_000_000) <= MAX_BATCH);
        assert_eq!(ex.with_batch_size(5).batch_size(10_000), 5);
    }
}
