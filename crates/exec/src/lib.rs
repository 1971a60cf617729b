//! Deterministic shared-memory work pool for the paper-parallel phases.
//!
//! The paper's three hot phases — subset-pair alignment (§II-B), recursive
//! bisection (§IV-C) and level-wise k-way refinement (§IV-D) — decompose
//! into independent tasks whose *results* do not depend on execution order.
//! [`Pool`] exploits that: workers claim index-tagged chunks of the task
//! slice from one shared queue until it is empty, and every result is
//! delivered in **canonical task order** — a result that finishes early
//! waits only for its unfinished predecessors, not for the whole batch
//! ([`Pool::for_each_ordered`]). Output is therefore bit-identical at any
//! thread count. The calling thread is one of the workers: a batch on `w`
//! workers spawns `w − 1` scoped threads, and with `threads = 1` the pool
//! does not spawn at all and runs the exact serial loop in the caller's
//! thread.
//!
//! Workers own reusable per-thread scratch state (allocation buffers for the
//! alignment kernel, for instance) created once per worker through the
//! `scratch` factory of [`Pool::map_with`].

#![forbid(unsafe_code)]

use fc_obs::sync::{Mutex, Rank};
use fc_obs::Recorder;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::Instant;

/// How many chunks each worker should see on average; smaller chunks
/// balance better, larger chunks amortise queue traffic. Eight per worker
/// keeps both effects small for the task counts seen in the pipeline (tens
/// to a few thousand).
const CHUNKS_PER_WORKER: usize = 8;

/// The machine's available parallelism (at least 1).
#[expect(
    clippy::disallowed_methods,
    reason = "config layer, the one call in fc-exec: Pool::new(0) resolves to the core \
              count before any task runs, and Pool::new_obs compares a requested count \
              against it for sched.threads.oversubscribed; the worker count affects \
              scheduling, never reduction order (results merge by task index)"
)]
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A deterministic work pool with a fixed thread count.
///
/// `threads == 1` is the exact serial path (no threads spawned, caller-order
/// execution); any other count changes only wall-clock time, never results.
/// A batch on `w` workers runs one of them in the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// The auto-sized pool ([`Pool::new`] with `0`).
    fn default() -> Pool {
        Pool::new(0)
    }
}

impl Pool {
    /// Creates a pool. `threads == 0` resolves to the machine's available
    /// parallelism (at least 1); any other value is used as given.
    pub fn new(threads: usize) -> Pool {
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        Pool { threads }
    }

    /// The single-threaded pool: tasks run in the caller's thread, in order.
    pub fn serial() -> Pool {
        Pool { threads: 1 }
    }

    /// [`Pool::new`] plus an oversubscription warning: when an *explicit*
    /// `threads` exceeds the machine's available parallelism the requested
    /// count is still honoured (results are thread-count-independent, and
    /// callers may be benchmarking oversubscription on purpose), but the
    /// condition is recorded on `rec` — the `sched.threads.oversubscribed`
    /// counter plus an instant event carrying requested vs available — so
    /// it shows up in traces instead of being silently absorbed as a
    /// slowdown. `sched.*` is excluded from logical-clock snapshots, so
    /// recording it never breaks byte-determinism.
    pub fn new_obs(threads: usize, rec: &Recorder) -> Pool {
        let available = available_threads();
        if threads > available && rec.is_enabled() {
            rec.add("sched.threads.oversubscribed", 1);
            rec.instant(
                "sched",
                "sched.threads.oversubscribed",
                &[
                    ("requested", threads as i64),
                    ("available", available as i64),
                ],
            );
        }
        Pool::new(threads)
    }

    /// The resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0..n)` and returns the results in index order.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_obs(n, &Recorder::disabled(), f)
    }

    /// [`Pool::map`] with execution metrics recorded into `rec`: task count
    /// (`exec.tasks`) plus scheduling detail (`sched.exec.dispatches`,
    /// `sched.exec.worker_busy_us`, …).
    pub fn map_obs<T, F>(&self, n: usize, rec: &Recorder, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        self.for_each_ordered(n, rec, || (), |i, ()| f(i), |t| out.push(t));
        out
    }

    /// Runs `f(0..n)` with one reusable `scratch` value per worker thread
    /// (created by `scratch()`), returning results in index order.
    ///
    /// The scratch value is the pool's ownership story for allocation reuse:
    /// each worker creates it once and threads it through every task it
    /// executes, so buffers inside it are recycled without synchronisation.
    pub fn map_with<T, S, F, C>(&self, n: usize, scratch: C, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut S) -> T + Sync,
        C: Fn() -> S + Sync,
    {
        let mut out = Vec::with_capacity(n);
        let rec = Recorder::disabled();
        self.for_each_ordered(n, &rec, scratch, f, |t| out.push(t));
        out
    }

    /// [`Pool::map_with`] without the collecting, and with execution
    /// metrics recorded into `rec`: each result is handed to `sink` in
    /// index order as soon as every earlier one has been, so a result waits
    /// for its predecessors, not for the whole batch. `sink` runs on
    /// whichever thread completes the in-order prefix, one call at a time.
    pub fn for_each_ordered<T, S, F, C, K>(
        &self,
        n: usize,
        rec: &Recorder,
        scratch: C,
        f: F,
        mut sink: K,
    ) where
        T: Send,
        F: Fn(usize, &mut S) -> T + Sync,
        C: Fn() -> S + Sync,
        K: FnMut(T) + Send,
    {
        let mut items: Vec<usize> = (0..n).collect();
        self.run(&mut items, &scratch, &|&mut i, s| f(i, s), rec, &mut sink);
    }

    /// Consumes `items`, runs `f(index, item, scratch)` over each, and
    /// returns the results in the items' original order; execution metrics
    /// are recorded into `rec`.
    pub fn map_items<I, T, S, F, C>(
        &self,
        items: Vec<I>,
        rec: &Recorder,
        scratch: C,
        f: F,
    ) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &mut S) -> T + Sync,
        C: Fn() -> S + Sync,
    {
        let mut slots: Vec<(usize, Option<I>)> = items
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i, Some(v)))
            .collect();
        // Every slot is visited exactly once, so every result is `Some`;
        // `extend` only strips the wrapper and preserves order.
        let mut out = Vec::with_capacity(slots.len());
        self.run(
            &mut slots,
            &scratch,
            &|slot, s| slot.1.take().map(|item| f(slot.0, item, s)),
            rec,
            &mut |t| out.extend(t),
        );
        out
    }

    /// Runs `a` and `b` as one batch of two tasks and returns both results.
    /// On one worker they run in the calling thread, `a` first; otherwise
    /// `b` runs on one spawned thread while the caller runs `a`. Metrics are
    /// those of a two-task [`Pool::map_obs`] batch.
    pub fn join<A, B>(
        &self,
        rec: &Recorder,
        a: impl FnOnce() -> A + Send,
        b: impl FnOnce() -> B + Send,
    ) -> (A, B)
    where
        A: Send,
        B: Send,
    {
        rec.add("exec.tasks", 2);
        let _batch = rec.span_args("exec", "exec.batch", &[("tasks", 2)]);
        if self.threads == 1 {
            rec.add("sched.exec.scratch_created", 1);
            let a = a();
            return (a, b());
        }
        rec.add("sched.exec.dispatches", 1);
        rec.add("sched.exec.scratch_created", 2);
        std::thread::scope(|scope| {
            let spawned = scope.spawn(b);
            let a = a();
            match spawned.join() {
                Ok(b) => (a, b),
                Err(cause) => std::panic::resume_unwind(cause),
            }
        })
    }

    /// Core driver: executes `f` over `&mut items[i]` for every `i`,
    /// handing the results to `sink` in index order.
    ///
    /// Metric naming: `exec.tasks` counts items and is deterministic at any
    /// thread count; everything the schedule decides (dispatches that hit
    /// the parallel path, scratch creations, per-worker busy time)
    /// lives under the reserved `sched.` prefix so logical-clock snapshots
    /// can exclude it.
    fn run<I, T, S, F, C>(
        &self,
        items: &mut [I],
        scratch: &C,
        f: &F,
        rec: &Recorder,
        sink: &mut (dyn FnMut(T) + Send),
    ) where
        I: Send,
        T: Send,
        F: Fn(&mut I, &mut S) -> T + Sync,
        C: Fn() -> S + Sync,
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        rec.add("exec.tasks", n as u64);
        // One span per batch, opened on the submitting lane so it nests
        // under (and parent-links to) whatever phase span dispatched the
        // work — the causal trace shows which phase ran which batches.
        let batch_span = rec.span_args("exec", "exec.batch", &[("tasks", n as i64)]);
        if self.threads == 1 || n == 1 {
            rec.add("sched.exec.scratch_created", 1);
            let mut s = scratch();
            for item in items.iter_mut() {
                sink(f(item, &mut s));
            }
            return;
        }
        rec.add("sched.exec.dispatches", 1);

        let workers = self.threads.min(n);
        let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);

        // One shared queue of index-tagged chunks, claimed one at a time.
        // A poisoned lock still guards a valid queue: the only thing ever
        // done under it is this `next`.
        let queue = Mutex::new(Rank::ExecQueue, items.chunks_mut(chunk).enumerate());
        let claim = || queue.lock().next();
        // In-order delivery: a result that finishes ahead of a predecessor
        // waits in `early`; whoever completes the next index drains the
        // ready prefix into the sink. Output order is therefore independent
        // of which worker ran what when. The drainer takes the sink out of
        // the lock and calls it unlocked, so a slow sink (a spill write)
        // holds up only its own worker: the others leave their results in
        // `early` and go on claiming, and the drainer collects them before
        // it gives the sink back.
        let delivery = Mutex::new(Rank::ExecDelivery, (0usize, BTreeMap::new(), Some(sink)));
        let deliver = |i: usize, t: T| {
            let mut guard = delivery.lock();
            guard.1.insert(i, t);
            let Some(sink) = guard.2.take() else { return };
            loop {
                let (next, early, _) = &mut *guard;
                let mut ready = Vec::new();
                while let Some(t) = early.remove(&*next) {
                    ready.push(t);
                    *next += 1;
                }
                if ready.is_empty() {
                    guard.2 = Some(sink);
                    return;
                }
                drop(guard);
                for t in ready {
                    sink(t);
                }
                guard = delivery.lock();
            }
        };

        // Every worker runs this claim loop: the calling thread is one of
        // them, so a batch spawns `workers - 1` threads. Returns the
        // worker's busy time in microseconds.
        let work = || {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-worker busy time for sched.worker.busy_us; sched.* \
                          is excluded from logical-clock snapshots, so the \
                          reading cannot reach output bytes"
            )]
            let started = Instant::now();
            let mut s = scratch();
            // Tasks never enqueue new tasks, so the queue only ever drains:
            // once it is empty, all remaining chunks are being executed by
            // their claimants and this worker can retire.
            while let Some((c, block)) = claim() {
                for (off, item) in block.iter_mut().enumerate() {
                    deliver(c * chunk + off, f(item, &mut s));
                }
            }
            started.elapsed().as_micros() as u64
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            // A task that panics in the calling thread unwinds out of the
            // scope, which joins the spawned workers first and then
            // re-raises it.
            let own = Ok(work());
            for joined in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
                match joined {
                    Ok(busy_us) => {
                        rec.add("sched.exec.scratch_created", 1);
                        rec.observe("sched.exec.worker_busy_us", busy_us);
                    }
                    // A worker died: the task paniced; propagate it.
                    Err(cause) => std::panic::resume_unwind(cause),
                }
            }
        });
        drop(batch_span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn resolves_thread_counts() {
        assert!(Pool::new(0).threads() >= 1);
        assert_eq!(Pool::new(3).threads(), 3);
        assert_eq!(Pool::serial().threads(), 1);
        assert_eq!(Pool::default().threads(), Pool::new(0).threads());
    }

    #[test]
    fn new_obs_warns_on_oversubscription_without_clamping() {
        use fc_obs::ObsOptions;
        let rec = Recorder::new(ObsOptions::wall_clock());
        let available = available_threads();

        // Explicit oversubscription: honoured, but recorded.
        let over = available + 7;
        assert_eq!(Pool::new_obs(over, &rec).threads(), over);
        assert_eq!(
            rec.snapshot()
                .counters
                .get("sched.threads.oversubscribed")
                .copied(),
            Some(1)
        );

        // Auto-sizing and in-budget counts stay silent.
        let quiet = Recorder::new(ObsOptions::wall_clock());
        assert!(Pool::new_obs(0, &quiet).threads() >= 1);
        assert_eq!(Pool::new_obs(1, &quiet).threads(), 1);
        assert!(!quiet
            .snapshot()
            .counters
            .contains_key("sched.threads.oversubscribed"));

        // The warning stays out of deterministic logical snapshots.
        let logical = Recorder::new(ObsOptions::logical());
        Pool::new_obs(over, &logical);
        assert!(!logical.snapshot_json().contains("oversubscribed"));
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(1000, |i| i * i);
            let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = Pool::new(4);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_with_reuses_scratch_per_worker() {
        let created = AtomicU64::new(0);
        let pool = Pool::new(4);
        let out = pool.map_with(
            256,
            || {
                created.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |i, buf| {
                buf.push(i);
                buf.len()
            },
        );
        assert_eq!(out.len(), 256);
        // At most one scratch per worker thread, not one per task.
        assert!(created.load(Ordering::Relaxed) <= 4);
        // Serially, every task shares the single scratch: lengths are 1..=n.
        let serial = Pool::serial().map_with(5, Vec::<usize>::new, |i, buf| {
            buf.push(i);
            buf.len()
        });
        assert_eq!(serial, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn map_items_moves_values_in_order() {
        for threads in [1, 3, 8] {
            let pool = Pool::new(threads);
            let items: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
            let out = pool.map_items(
                items,
                &Recorder::disabled(),
                || (),
                |_, item, ()| item + "!",
            );
            let expected: Vec<String> = (0..100).map(|i| format!("v{i}!")).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_equals_serial_for_stateful_computation() {
        // A mildly expensive pure function; results must match bit for bit.
        let f = |i: usize| -> u64 {
            let mut x = i as u64 ^ 0x9E3779B97F4A7C15;
            for _ in 0..50 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let serial = Pool::serial().map(5000, f);
        for threads in [2, 4, 8] {
            assert_eq!(Pool::new(threads).map(5000, f), serial);
        }
    }

    #[test]
    fn obs_records_task_and_scheduling_metrics() {
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let pool = Pool::new(4);
        let out = pool.map_obs(500, &rec, |i| i);
        assert_eq!(out.len(), 500);
        let snapshot = rec.snapshot();
        assert_eq!(snapshot.counters.get("exec.tasks"), Some(&500));
        assert_eq!(snapshot.counters.get("sched.exec.dispatches"), Some(&1));
        // One scratch per worker, the calling thread included, and one
        // busy-time sample each.
        let scratch = snapshot
            .counters
            .get("sched.exec.scratch_created")
            .copied()
            .unwrap_or(0);
        assert_eq!(scratch, 4);
        assert_eq!(
            snapshot
                .histograms
                .get("sched.exec.worker_busy_us")
                .map(|h| h.count),
            Some(scratch)
        );
        // The deterministic view keeps only the task count.
        let logical = snapshot.logical();
        assert_eq!(logical.counters.len(), 1);
        assert!(logical.counters.contains_key("exec.tasks"));
    }

    #[test]
    fn obs_serial_path_records_tasks_without_dispatch() {
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let out = Pool::serial().map_obs(16, &rec, |i| i);
        assert_eq!(out.len(), 16);
        let snapshot = rec.snapshot();
        assert_eq!(snapshot.counters.get("exec.tasks"), Some(&16));
        assert_eq!(snapshot.counters.get("sched.exec.dispatches"), None);
        assert_eq!(
            snapshot.counters.get("sched.exec.scratch_created"),
            Some(&1)
        );
    }

    #[test]
    fn obs_variants_match_plain_results() {
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let pool = Pool::new(4);
        assert_eq!(pool.map_obs(100, &rec, |i| i * 3), pool.map(100, |i| i * 3));
        let items: Vec<usize> = (0..64).collect();
        assert_eq!(
            pool.map_items(items.clone(), &rec, || (), |_, v, ()| v + 1),
            pool.map_items(items, &Recorder::disabled(), || (), |_, v, ()| v + 1)
        );
    }

    /// Claiming is dynamic: with task 0 stuck on one worker, the other
    /// worker runs all fifteen remaining tasks. A static split would leave
    /// seven of them queued behind task 0 and trip the deadline.
    #[test]
    fn idle_worker_keeps_claiming_while_a_peer_is_stuck() {
        let finished = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        let out = Pool::new(2).map(16, |i| {
            if i == 0 {
                while finished.load(Ordering::SeqCst) < 15 {
                    assert!(
                        Instant::now() < deadline,
                        "tasks queued behind the stuck worker were never claimed"
                    );
                    std::thread::yield_now();
                }
            } else {
                finished.fetch_add(1, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    /// Delivery streams: the last task waits until the sink has seen the
    /// first result, which only a sink fed while the batch runs satisfies;
    /// and the sink still sees every result, in index order.
    #[test]
    fn for_each_ordered_streams_results_in_index_order() {
        for threads in [1, 2, 4] {
            let seen = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut got = Vec::new();
            Pool::new(threads).for_each_ordered(
                64,
                &Recorder::disabled(),
                || (),
                |i, ()| {
                    while i == 63 && seen.load(Ordering::SeqCst) == 0 {
                        assert!(Instant::now() < deadline, "the sink saw nothing mid-batch");
                        std::thread::yield_now();
                    }
                    i
                },
                |i| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    got.push(i);
                },
            );
            assert_eq!(got, (0..64).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(64, |i| {
                assert!(i != 33, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    /// Runs `Pool::new(2).map(2, f)` so that its two tasks overlap: each
    /// waits until both have started, which two workers satisfy only by
    /// running one task each. `f` gets the task index. Returns each task's
    /// thread next to the calling thread.
    fn two_overlapping_tasks<T: Send>(
        rec: &Recorder,
        f: impl Fn(usize) -> T + Sync,
    ) -> (Vec<(std::thread::ThreadId, T)>, std::thread::ThreadId) {
        let started = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        let out = Pool::new(2).map_obs(2, rec, |i| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "the second worker never started");
                std::thread::yield_now();
            }
            (std::thread::current().id(), f(i))
        });
        (out, std::thread::current().id())
    }

    /// A batch on two workers spawns one thread: the calling thread runs
    /// the other task, and both results arrive in order.
    #[test]
    fn calling_thread_runs_tasks() {
        let rec = Recorder::new(fc_obs::ObsOptions::wall_clock());
        let (out, caller) = two_overlapping_tasks(&rec, |i| i);
        assert_eq!(out.iter().map(|&(_, i)| i).collect::<Vec<_>>(), vec![0, 1]);
        let on_caller = out.iter().filter(|&&(id, _)| id == caller).count();
        assert_eq!(on_caller, 1, "exactly one task runs in the calling thread");
        // Two workers, two scratch values: the caller's counts.
        let snapshot = rec.snapshot();
        assert_eq!(
            snapshot.counters.get("sched.exec.scratch_created"),
            Some(&2)
        );
        assert_eq!(
            snapshot
                .histograms
                .get("sched.exec.worker_busy_us")
                .map(|h| h.count),
            Some(2)
        );
    }

    /// A task that panics in the calling thread propagates its panic after
    /// the spawned worker is joined, and one that panics in the spawned
    /// worker does too.
    #[test]
    fn panic_in_either_worker_propagates() {
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let result = std::panic::catch_unwind(|| {
                two_overlapping_tasks(&Recorder::disabled(), |_| {
                    let here = std::thread::current().id() == caller;
                    assert!(here != on_caller, "boom");
                })
            });
            let cause = result.expect_err("the panic must propagate");
            let message = cause.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "boom", "on_caller = {on_caller}");
        }
    }

    /// A slow sink holds up only the worker running it: while the sink
    /// sits on the first result, the other worker goes on running tasks,
    /// and every result still reaches the sink in index order.
    #[test]
    fn a_slow_sink_does_not_stall_the_other_worker() {
        let done = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = Vec::new();
        Pool::new(2).for_each_ordered(
            16,
            &Recorder::disabled(),
            || (),
            |i, ()| {
                done.fetch_add(1, Ordering::SeqCst);
                i
            },
            |i| {
                while i == 0 && done.load(Ordering::SeqCst) < 8 {
                    assert!(Instant::now() < deadline, "the other worker stalled");
                    std::thread::yield_now();
                }
                got.push(i);
            },
        );
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    /// A join returns both results at any thread count, counts two tasks,
    /// and at two threads runs its halves at once: each waits for the
    /// other to start.
    #[test]
    fn join_runs_both_halves_as_one_two_task_batch() {
        for threads in [1, 2, 3] {
            let rec = Recorder::new(fc_obs::ObsOptions::logical());
            let (a, b) = Pool::new(threads).join(&rec, || 7, || "b".to_string());
            assert_eq!((a, b.as_str()), (7, "b"), "threads = {threads}");
            assert_eq!(rec.snapshot().counters.get("exec.tasks"), Some(&2));
        }
        let started = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        let half = || {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "the halves never overlapped");
                std::thread::yield_now();
            }
            std::thread::current().id()
        };
        let (a, b) = Pool::new(2).join(&Recorder::disabled(), half, half);
        assert_eq!(a, std::thread::current().id());
        assert_ne!(a, b);
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).join(&Recorder::disabled(), || 1, || panic!("boom"))
        });
        assert!(result.is_err());
    }

    /// `sched.exec.scratch_created` is the worker count: the thread count,
    /// or the task count when there are fewer tasks.
    #[test]
    fn scratch_count_is_the_worker_count() {
        for (threads, tasks, workers) in [(1, 10, 1), (2, 10, 2), (4, 3, 3), (4, 100, 4)] {
            let rec = Recorder::new(fc_obs::ObsOptions::wall_clock());
            let created = AtomicU64::new(0);
            Pool::new(threads).for_each_ordered(
                tasks,
                &rec,
                || created.fetch_add(1, Ordering::Relaxed),
                |i, _| i,
                drop,
            );
            assert_eq!(created.load(Ordering::Relaxed), workers);
            assert_eq!(
                rec.snapshot().counters.get("sched.exec.scratch_created"),
                Some(&workers),
                "threads = {threads}, tasks = {tasks}"
            );
        }
    }
}
