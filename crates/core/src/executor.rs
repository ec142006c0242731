//! Sharded, batch-dequeuing executor for embarrassingly-parallel measurement
//! work.
//!
//! Handing items to threads one at a time over a channel serialises on the
//! channel lock once per item.  This executor shards the input into
//! contiguous batches and lets workers *dequeue whole batches*: the per-item
//! synchronisation cost is amortised over [`ShardedExecutor::batch_size`]
//! items, so throughput scales with cores even when a single measurement is
//! cheap.
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

use crossbeam::channel;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// A sharded batch executor with a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedExecutor {
    workers: usize,
    batch_size: usize,
}

/// Work below this size is run inline: thread startup would dominate.
const SEQUENTIAL_CUTOFF: usize = 32;

use std::sync::{Condvar, Mutex};

/// Shared flush state of one streaming run.
struct Frontier {
    /// Index of the next shard the sink is waiting for.
    flushed: usize,
    /// Set when the run is being torn down (sink panicked): throttled
    /// workers must exit instead of waiting for the frontier to move.
    cancelled: bool,
}

/// Wakes throttled workers with `cancelled = true` when dropped.
///
/// Two deployments, both about panics:
/// * in the collector closure (`only_on_panic = false`): runs on every exit,
///   covering a panicking *sink* — harmless on the normal path, where the
///   workers are already gone;
/// * in each worker (`only_on_panic = true`): a panicking *work* closure
///   dies without sending its shard, so the frontier would never reach it
///   and every other worker would park on the throttle forever while the
///   collector waits for their senders — cancellation breaks that cycle and
///   lets the scope join propagate the panic.
struct CancelOnDrop<'a> {
    frontier: &'a Mutex<Frontier>,
    frontier_moved: &'a Condvar,
    only_on_panic: bool,
}

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        if self.only_on_panic && !std::thread::panicking() {
            return;
        }
        // Recover from poisoning: this runs while a panic may already be
        // unwinding, and its whole job is to unblock the join that follows.
        let mut state = match self.frontier.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.cancelled = true;
        drop(state);
        self.frontier_moved.notify_all();
    }
}

/// Upper bound on the batch size picked by [`ShardedExecutor::new`].
const MAX_BATCH: usize = 256;

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
    /// `MAX_BATCH` so the result channel never holds huge payloads.
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
    /// This is the spill path campaign persistence is built on: workers hand
    /// finished batches to the calling thread over a **bounded** channel, so
    /// when the sink (e.g. a segment writer flushing to disk) falls behind,
    /// workers block instead of piling results up in RAM.  The sink runs on
    /// the calling thread; a small reorder buffer holds batches that finish
    /// ahead of their turn.
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
        // Queue every shard up front; workers drain the queue batch-by-batch,
        // so a worker stuck on an expensive shard simply claims fewer shards.
        let (shard_tx, shard_rx) = channel::unbounded::<(usize, usize, usize)>();
        for shard in 0..shard_count {
            let start = shard * batch;
            let end = (start + batch).min(items.len());
            // lint: allow(panic-policy) unbounded send with the receiver alive in scope cannot fail
            shard_tx.send((shard, start, end)).expect("queue shards");
        }
        drop(shard_tx);

        // Two brakes keep memory bounded at O(window × batch):
        //
        // * the result channel is bounded, so a slow *sink* back-pressures
        //   the workers instead of letting finished batches queue up;
        // * workers may only compute shards within `window` of the flush
        //   frontier, so a slow *shard* (one expensive batch while its
        //   successors race ahead) cannot make the reorder buffer hoard the
        //   whole result set.  The frontier shard itself is always within
        //   the window, so the throttle can never deadlock.
        let window = self.workers * 4;
        let (result_tx, result_rx) = channel::bounded::<(usize, Vec<T>)>(self.workers * 2);
        let frontier: Mutex<Frontier> = Mutex::new(Frontier {
            flushed: 0,
            cancelled: false,
        });
        let frontier_moved = std::sync::Condvar::new();
        let (init, work) = (&init, &work);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(shard_count) {
                let shard_rx = shard_rx.clone();
                let result_tx = result_tx.clone();
                let frontier = &frontier;
                let frontier_moved = &frontier_moved;
                scope.spawn(move || {
                    let mut state = init();
                    // If `work` panics, this shard never reaches the
                    // collector and the frontier stalls; cancel the run so
                    // the other workers exit and the panic can propagate.
                    let _cancel = CancelOnDrop {
                        frontier,
                        frontier_moved,
                        only_on_panic: true,
                    };
                    while let Ok((shard, start, end)) = shard_rx.recv() {
                        {
                            // A poisoned frontier means another worker already
                            // panicked; re-panicking here merely joins the
                            // teardown the cancellation guard is propagating.
                            // lint: allow(panic-policy) poisoning propagation, not a new abort
                            let mut state = frontier.lock().expect("frontier lock poisoned");
                            while !state.cancelled && shard >= state.flushed + window {
                                // lint: allow(panic-policy) poisoning propagation, not a new abort
                                state = frontier_moved.wait(state).expect("frontier lock poisoned");
                            }
                            if state.cancelled {
                                return;
                            }
                        }
                        let outputs: Vec<T> = items[start..end]
                            .iter()
                            .map(|item| work(&mut state, item))
                            .collect();
                        if result_tx.send((shard, outputs)).is_err() {
                            break;
                        }
                    }
                });
            }
            // Both bindings below are owned by this closure so that a panic
            // in the sink drops them *before* the scope joins the workers:
            // dropping the receiver errors out senders blocked on the full
            // channel, and the guard wakes workers parked on the throttle —
            // the panic then propagates instead of hanging the join.
            let result_rx = result_rx;
            drop(result_tx);
            let _cancel = CancelOnDrop {
                frontier: &frontier,
                frontier_moved: &frontier_moved,
                only_on_panic: false,
            };

            // Flush batches to the sink in shard order: completion order is
            // scheduling noise.  Out-of-order arrivals wait in `pending`,
            // which the claim throttle above caps at `window` entries.
            let mut pending: BTreeMap<usize, Vec<T>> = BTreeMap::new();
            let mut next_shard = 0usize;
            for (shard, outputs) in result_rx.iter() {
                pending.insert(shard, outputs);
                if pending.contains_key(&next_shard) {
                    while let Some(outputs) = pending.remove(&next_shard) {
                        for value in outputs {
                            sink(value);
                        }
                        next_shard += 1;
                    }
                    // lint: allow(panic-policy) poisoning propagation, not a new abort
                    frontier.lock().expect("frontier lock poisoned").flushed = next_shard;
                    frontier_moved.notify_all();
                }
            }
            // On the normal path every shard has flushed; after a worker
            // panic the buffer may legitimately hold orphans — the scope
            // join below re-raises that panic.
            debug_assert!(
                pending.is_empty() || frontier.lock().map(|s| s.cancelled).unwrap_or(true),
                "every shard flushes in order"
            );
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
        // A worker that dies mid-shard never sends its result; the frontier
        // would stall there and park every other worker on the throttle.
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
        // the scope join with workers parked on the throttle or the full
        // result channel.
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
        // Shard 0 sleeps while its successors race ahead: the claim throttle
        // must cap how far ahead workers compute (bounded reorder buffer)
        // without ever deadlocking the shard the flush frontier waits on.
        let items: Vec<usize> = (0..4_000).collect();
        let executor = ShardedExecutor::new(4).with_batch_size(10);
        let window_items = 4 * 4 * 10; // workers × window factor × batch
        let computed_ahead = AtomicUsize::new(0);
        let flushed = AtomicUsize::new(0);
        let mut got = Vec::new();
        executor.run_streaming(
            &items,
            || (),
            |(), &x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                let lead = x.saturating_sub(flushed.load(Ordering::Relaxed));
                computed_ahead.fetch_max(lead, Ordering::Relaxed);
                x
            },
            |v| {
                flushed.store(v + 1, Ordering::Relaxed);
                got.push(v);
            },
        );
        assert_eq!(got, items);
        // The lead can exceed the window by in-flight batches, but must stay
        // far below "the rest of the input raced ahead".
        let max_lead = computed_ahead.load(Ordering::Relaxed);
        assert!(
            max_lead <= window_items + 4 * 2 * 10,
            "reorder window not enforced: lead {max_lead}"
        );
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
            InWork,
            InSink,
        }
        let threaded: Vec<usize> = (0..2_000).collect();
        let inline: Vec<usize> = (0..SEQUENTIAL_CUTOFF - 1).collect();
        for (workers, items) in [(1, &threaded), (4, &threaded), (4, &inline)] {
            for panics in [Panics::Nowhere, Panics::InWork, Panics::InSink] {
                let case = format!("workers={workers} items={} {panics:?}", items.len());
                let dropped = AtomicUsize::new(0);
                let built_on = Mutex::new(Vec::new());
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut got = Vec::new();
                    ShardedExecutor::new(workers).run_streaming(
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
                            assert!(panics != Panics::InWork || x != 20, "work gives up");
                            x
                        },
                        |v| {
                            assert!(panics != Panics::InSink || v != 20, "sink gives up");
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
                    assert_eq!(built, workers, "{case}");
                }
                match panics {
                    Panics::Nowhere => assert_eq!(&result.expect(&case), items),
                    _ => assert!(result.is_err(), "the panic must propagate: {case}"),
                }
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
