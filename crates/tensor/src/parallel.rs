//! Persistent worker pool powering the kernel engine's data parallelism.
//!
//! # Architecture
//!
//! The engine parallelizes by splitting output buffers into disjoint chunks and
//! handing each chunk to a worker ([`for_each_chunk`]). Earlier revisions spawned
//! scoped threads per call, which cost ~tens of µs of spawn/join per GEMM and meant
//! worker-side thread-local scratch arenas never survived a call. Dispatch now goes
//! through a lazily-initialized **persistent pool**:
//!
//! * **Parked workers.** The first parallel dispatch spawns `num_threads() − 1`
//!   workers (the submitting thread always participates as a worker itself). Idle
//!   workers park on a condvar; waking them is the only per-call cost.
//! * **Job-queue handoff.** A dispatch publishes a `Job` — a type-erased task
//!   plus an atomic chunk cursor — onto a shared queue and wakes the pool. Workers
//!   claim chunk indices with a `fetch_add`, so uneven chunk costs load-balance
//!   automatically, and several jobs can be in flight at once (concurrent
//!   submitters from different threads never block each other's progress: each
//!   submitter also executes its own job's chunks).
//! * **Graceful resize.** [`set_num_threads`] only stores the target; the pool
//!   grows (spawns) or shrinks (excess workers exit on their next wakeup) at the
//!   next dispatch. [`shutdown_pool`] parks the whole pool for idle teardown; the
//!   next dispatch transparently reinitializes it.
//! * **Panic containment.** A panicking task marks its job poisoned, remaining
//!   chunks of that job are drained without executing, and the panic payload is
//!   re-raised on the submitting thread. Workers survive task panics, and other
//!   in-flight jobs are unaffected — a panicking kernel can never deadlock the
//!   queue.
//! * **Worker-persistent scratch.** Because workers are long-lived, the
//!   thread-local [`scratch`](crate::scratch) arenas they populate persist across
//!   dispatches: in steady state the zero-allocation property holds on worker
//!   threads, not just the caller.
//!
//! # Determinism
//!
//! Results are bitwise identical for every thread count and every scheduling order:
//! the chunk decomposition is a pure function of the data length and `chunk_len`
//! (never of the worker count), every output element is written by exactly one
//! task, and each task uses one fixed accumulation order. Which worker executes a
//! chunk affects only wall-clock time. Dispatch from inside a pool worker (nested
//! parallelism) executes inline on that worker in ascending chunk order — the same
//! decomposition, so nesting cannot change results either. The multi-thread
//! determinism suite in `tests/engine_parity.rs` (run in CI under
//! `RESCNN_THREADS=1,2,4`) pins this down.
//!
//! The effective worker count comes from the calling thread's
//! [`EngineContext`](crate::EngineContext) override when one is installed, then
//! [`set_num_threads`], then the `RESCNN_THREADS` environment variable, then
//! `std::thread::available_parallelism`.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::cancel::CancellationToken;

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads the engine may use (always at least 1).
///
/// A thread-scoped [`EngineContext`](crate::EngineContext) override takes
/// precedence over the process-wide setting, which lets concurrent pipelines run
/// with different thread budgets without racing on global state.
pub fn num_threads() -> usize {
    if let Some(threads) = crate::context::EngineContext::current().threads {
        return threads;
    }
    configured_num_threads()
}

/// The process-wide worker-thread setting, ignoring any thread-scoped override.
pub(crate) fn configured_num_threads() -> usize {
    let cached = NUM_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let configured = std::env::var("RESCNN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    NUM_THREADS.store(configured, Ordering::Relaxed);
    configured
}

/// Overrides the engine's process-wide worker-thread count (clamped to at least 1).
///
/// The persistent pool resizes gracefully at the next dispatch: it spawns
/// additional workers when the target grew and retires excess workers when it
/// shrank. For a per-call bound that does not mutate process state, use
/// [`EngineContext::with_threads`](crate::EngineContext::with_threads) instead.
pub fn set_num_threads(threads: usize) {
    NUM_THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// Splits a thread budget between sample-level (outer) and kernel-level (inner)
/// parallelism, returning `(outer, inner)` with `outer * inner <= threads`.
///
/// The heuristic is deliberately simple: batch-level parallelism only pays once the
/// batch can occupy every worker, so `batch >= threads` runs one sample per worker
/// (`(threads, 1)`), and anything smaller keeps all threads on one sample at a time
/// (`(1, threads)`) — the inner row-chunk parallelism scales near-linearly (see the
/// PR 1 measurements in ROADMAP.md), whereas a partially-filled outer batch would
/// idle `threads − batch` workers for the whole batch.
pub fn split_parallelism(batch: usize, threads: usize) -> (usize, usize) {
    let threads = threads.max(1);
    if batch.max(1) >= threads {
        (threads, 1)
    } else {
        (1, threads)
    }
}

/// Runs `f(index)` for every index in `0..count` and returns the outcomes in
/// index order, splitting `threads` between batch-level and kernel-level
/// parallelism with [`split_parallelism`]. This is the one shared implementation
/// of indexed batch dispatch: `Network::forward_batch` runs one task per
/// folded group of equal-shape images and one per image otherwise (it splits
/// the batch by the same `split_parallelism` first), the core
/// `BatchScheduler` one per request.
///
/// The caller's [`EngineContext`](crate::EngineContext) is snapshotted and
/// re-installed around every task — also on pool worker threads, which have no
/// ambient scope of their own — with only the thread budget replaced by the
/// inner split. Results are therefore identical to running `f` sequentially in
/// the caller's scope, whatever the schedule.
pub fn parallel_map_indexed<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (outer, inner) = split_parallelism(count, threads);
    let mut task_context = crate::context::EngineContext::current();
    task_context.threads = Some(inner.max(1));
    if outer <= 1 {
        return task_context.scope(|| (0..count).map(f).collect());
    }
    // Pool workers have no ambient scopes of their own: carry the submitting
    // thread's cancellation token (like the engine context above) onto them.
    let token = crate::cancel::CancellationToken::current();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    // The dispatching scope bounds how many pool workers join the outer batch.
    // The token is masked around the slot-fill dispatch (every slot must be
    // recorded, cancelled or not) and re-installed inside each task.
    crate::cancel::mask_token_scope(|| {
        crate::context::EngineContext::new().with_threads(outer).scope(|| {
            for_each_chunk(&mut slots, 1, true, |index, slot| {
                slot[0] = Some(crate::cancel::with_token_scope(token.as_ref(), || {
                    task_context.scope(|| f(index))
                }));
            });
        });
    });
    slots.into_iter().map(|slot| slot.expect("every batch slot was executed")).collect()
}

/// Renders a panic payload as a human-readable message, for converting caught
/// task panics into per-request error records. `&str` and `String` payloads
/// (what `panic!` produces) come through verbatim; anything else gets a
/// placeholder.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "task panicked with a non-string payload".to_string()
    }
}

/// [`parallel_map_indexed`] with **per-task panic isolation**: a panicking task
/// yields `Err(message)` in its own slot instead of poisoning the job and
/// re-raising on the submitter, so every other task still completes and returns
/// its result.
///
/// The catch wraps only the caller's `f` — the surrounding
/// [`EngineContext`](crate::EngineContext) scope (and any context installed
/// inside `f`) unwinds through its drop guards as usual, so a caught
/// panic cannot leak thread-scoped state onto a pool worker. Because the pool's
/// job never observes the panic, the job is never poisoned: the chunk
/// decomposition, scheduling, and surviving tasks' results are identical to a
/// run where the panicking task had merely returned an error, for every thread
/// count.
///
/// A [`crate::CancellationToken`] in scope is honoured at
/// *task* boundaries here: a task whose token has fired before it starts
/// yields `Err("cancelled …")` without running, and a task whose token fires
/// mid-run has its (partially-skipped, garbage) result replaced by the same
/// error — cancelled work can never leak data out of the isolation boundary.
pub fn parallel_map_isolated<R, F>(
    count: usize,
    threads: usize,
    f: F,
) -> Vec<std::result::Result<R, String>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_indexed(count, threads, |index| {
        let token = crate::cancel::CancellationToken::current();
        if token.as_ref().is_some_and(CancellationToken::is_cancelled) {
            return Err(format!("cancelled before start: task {index}"));
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(index))).map_err(panic_message);
        if token.is_some_and(|t| t.is_cancelled()) {
            return Err(format!("cancelled mid-run: task {index}"));
        }
        result
    })
}

/// A type-erased parallel task: `call(chunk_index)` for indices `0..total`.
///
/// The raw pointer refers into the submitting thread's stack frame; it is only
/// dereferenced for chunk indices below `total`, all of which complete before the
/// submitter returns from [`for_each_chunk`], so the referent always outlives use.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to claim.
    cursor: AtomicUsize,
    /// Total number of chunks.
    total: usize,
    /// Pool workers still allowed to join this job (decremented under the pool
    /// lock). Bounds the job's parallelism to its submitter's thread budget even
    /// when the shared pool is larger.
    tickets: AtomicUsize,
    /// The submitter's total worker budget for this job (including itself):
    /// concurrent resize requests must not shrink the pool below what in-flight
    /// jobs were promised.
    workers: usize,
    /// Set once any chunk of this job panics; remaining chunks drain without running.
    poisoned: AtomicBool,
    /// Completed-chunk count plus the first panic payload, guarded for the condvar.
    done: Mutex<JobDone>,
    done_signal: Condvar,
}

// SAFETY: `task` is the only field that is not `Send + Sync` by itself. It points
// at a `dyn Fn(usize) + Sync` closure, so calling it through a shared reference
// from several threads at once is sound. It is only called from `Job::work` for
// a claimed index below `total`, and `run_on_pool` does not return (so the
// closure does not die) before `Job::wait` has counted all `total` chunks
// complete; a pool worker that still holds the `Arc<Job>` after that finds the
// cursor exhausted and never dereferences it.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above; every other field is an atomic, a `Mutex` or a
// `Condvar`.
unsafe impl Sync for Job {}

struct JobDone {
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Claims and executes chunks until the job is exhausted. Returns once this
    /// thread can make no further progress on the job (other threads may still be
    /// finishing chunks they claimed).
    fn work(&self) {
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.total {
                return;
            }
            let result = if self.poisoned.load(Ordering::Acquire) {
                Ok(())
            } else {
                // SAFETY: `index < total` and this chunk is not yet counted in
                // `done.completed`, so the submitter is still blocked in
                // `run_on_pool` (its `Job::wait` needs every chunk counted) and
                // `task` still points at its live closure.
                catch_unwind(AssertUnwindSafe(|| unsafe { (*self.task)(index) }))
            };
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(payload) = result {
                self.poisoned.store(true, Ordering::Release);
                done.panic.get_or_insert(payload);
            }
            done.completed += 1;
            if done.completed == self.total {
                self.done_signal.notify_all();
            }
        }
    }

    /// Blocks until every chunk has completed, then re-raises any task panic.
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while done.completed < self.total {
            done = self.done_signal.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(payload) = done.panic.take() {
            drop(done);
            resume_unwind(payload);
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.total
    }
}

/// Shared pool state: the job queue and the worker census.
struct PoolState {
    /// In-flight jobs. A job is pushed at submit and removed by its submitter once
    /// fully complete; workers skip exhausted jobs.
    jobs: Vec<Arc<Job>>,
    /// Workers currently live (parked or running).
    alive: usize,
    /// Desired pool size; excess workers retire at their next wakeup.
    target: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here; signalled on new jobs and on resize/shutdown.
    work_signal: Condvar,
    /// Signalled by each retiring worker so shutdown can await an empty pool.
    retire_signal: Condvar,
}

static POOL: OnceLock<PoolShared> = OnceLock::new();

fn pool() -> &'static PoolShared {
    POOL.get_or_init(|| PoolShared {
        state: Mutex::new(PoolState { jobs: Vec::new(), alive: 0, target: 0 }),
        work_signal: Condvar::new(),
        retire_signal: Condvar::new(),
    })
}

thread_local! {
    /// True on pool worker threads; nested dispatch from a worker runs inline.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn worker_main(shared: &'static PoolShared) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // A plain shrink retires immediately (resize tests rely on
                // excess workers leaving at their next wakeup); a *shutdown*
                // (target == 0) drains first — queued jobs are claimed and
                // finished before this worker retires.
                let draining = state.target == 0;
                if !draining && state.alive > state.target {
                    state.alive -= 1;
                    shared.retire_signal.notify_all();
                    return;
                }
                let available = state
                    .jobs
                    .iter()
                    .find(|job| !job.exhausted() && job.tickets.load(Ordering::Relaxed) > 0);
                if let Some(job) = available {
                    // Claimed under the pool lock, so the ticket count never races.
                    job.tickets.fetch_sub(1, Ordering::Relaxed);
                    break Arc::clone(job);
                }
                if state.alive > state.target {
                    state.alive -= 1;
                    shared.retire_signal.notify_all();
                    return;
                }
                state = shared.work_signal.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.work();
    }
}

/// Grows or shrinks the pool toward `target` workers. Growth is synchronous
/// (threads are spawned before returning); shrinking is lazy (excess workers
/// retire at their next wakeup, triggered here) and never drops below what
/// unfinished in-flight jobs were promised — a concurrent narrow-budget
/// submitter must not retire workers out from under a wide job mid-run.
fn resize_pool(shared: &'static PoolShared, target: usize) {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let in_flight = state
        .jobs
        .iter()
        .filter(|job| !job.exhausted())
        .map(|job| job.workers.saturating_sub(1))
        .max()
        .unwrap_or(0);
    let target = target.max(in_flight);
    state.target = target;
    if state.alive > target {
        shared.work_signal.notify_all();
    }
    // Wake any in-progress shutdown_pool so it observes the raised target and
    // cedes to the new work instead of waiting forever.
    shared.retire_signal.notify_all();
    while state.alive < target {
        // Failing to spawn (resource exhaustion) degrades to fewer workers; the
        // submitting thread always makes progress on its own.
        let spawned: std::io::Result<JoinHandle<()>> = std::thread::Builder::new()
            .name("rescnn-pool-worker".into())
            .spawn(move || worker_main(shared));
        match spawned {
            Ok(handle) => {
                drop(handle); // detached: lifecycle is tracked via the census
                state.alive += 1;
            }
            Err(_) => break,
        }
    }
}

/// What a [`shutdown_pool`] drain observed and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Jobs with unclaimed chunks at the moment the drain began. Every one of
    /// them was finished before the drain completed: workers drain queued work
    /// before retiring, and each job's submitter drives its own job regardless.
    pub jobs_in_flight: usize,
    /// True when a concurrent dispatch raised the pool target while the drain
    /// was waiting — the shutdown ceded to the new work and the pool stayed up.
    pub superseded: bool,
    /// Jobs still holding unclaimed chunks *after* the drain completed. Always
    /// zero on a non-superseded drain (the invariant a graceful server
    /// shutdown pins its tests on); a superseded drain may observe the new
    /// work's jobs here.
    pub abandoned: usize,
}

/// Retires every pool worker and blocks until they have all exited, returning
/// what the drain observed.
///
/// Intended for idle teardown (e.g. a server draining before exit); the next
/// parallel dispatch transparently respawns the pool. Drain semantics: workers
/// finish queued jobs before retiring (a shutdown never abandons unclaimed
/// chunks — and even a worker-less pool cannot lose work, because every job's
/// submitter executes and awaits its own job). If another thread dispatches
/// parallel work *while* the shutdown is draining, that dispatch revives the
/// pool and the shutdown request is superseded: this function returns with
/// [`DrainReport::superseded`] set (rather than blocking until the process
/// goes idle) and the pool stays up for the new work.
pub fn shutdown_pool() -> DrainReport {
    let shared = pool();
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let jobs_in_flight = state.jobs.iter().filter(|job| !job.exhausted()).count();
    state.target = 0;
    shared.work_signal.notify_all();
    while state.alive > 0 && state.target == 0 {
        state = shared.retire_signal.wait(state).unwrap_or_else(|e| e.into_inner());
    }
    let abandoned = state.jobs.iter().filter(|job| !job.exhausted()).count();
    DrainReport { jobs_in_flight, superseded: state.target != 0, abandoned }
}

/// Number of live pool workers (parked or running). Observability for tests and
/// serving diagnostics; the submitting thread is not counted.
pub fn pool_size() -> usize {
    pool().state.lock().unwrap_or_else(|e| e.into_inner()).alive
}

/// Runs `task(i)` for every `i` in `0..total` across the persistent pool,
/// blocking until all have completed. The submitting thread participates, so at
/// most `workers - 1` pool workers join in.
fn run_on_pool(total: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
    let shared = pool();
    // SAFETY: the transmute only erases the closure's stack lifetime; the fat
    // pointer's layout is unchanged. The pointer is dereferenced only in
    // `Job::work`, for chunks counted complete before `job.wait()` below
    // returns, and this function blocks in `job.wait()` (task panics are caught
    // in `Job::work`, so it always gets there) while `task` is still borrowed.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        cursor: AtomicUsize::new(0),
        total,
        tickets: AtomicUsize::new(workers.saturating_sub(1)),
        workers,
        poisoned: AtomicBool::new(false),
        done: Mutex::new(JobDone { completed: 0, panic: None }),
        done_signal: Condvar::new(),
    });
    // The pool tracks the process-wide setting; a larger per-call context budget
    // grows it further for this dispatch.
    resize_pool(shared, workers.max(configured_num_threads()).saturating_sub(1));
    {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.push(Arc::clone(&job));
        shared.work_signal.notify_all();
    }
    job.work();
    let outcome = catch_unwind(AssertUnwindSafe(|| job.wait()));
    {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.retain(|other| !Arc::ptr_eq(other, &job));
    }
    if let Err(payload) = outcome {
        resume_unwind(payload);
    }
}

/// How many threads (the caller included) a dispatch of `total` tasks from this
/// thread, right now, runs on at most: 1 unless `parallel`, and 1 inside a pool
/// worker, where nested dispatches run inline. Kernels size per-task state
/// they must own up front with it.
pub(crate) fn dispatch_width(total: usize, parallel: bool) -> usize {
    let nested = IS_POOL_WORKER.with(|flag| flag.get());
    if parallel && !nested {
        num_threads().min(total)
    } else {
        1
    }
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the final chunk may
/// be shorter) and invokes `f(chunk_index, chunk)` for every chunk, on pool workers
/// when `parallel` is set and the configuration allows it.
///
/// Chunks are claimed from a shared cursor, so uneven chunk costs load-balance
/// automatically. `f` must be safe to call concurrently; each invocation owns its
/// chunk exclusively. Called from inside a pool worker (nested parallelism), the
/// chunks run inline on that worker in ascending order.
pub fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = dispatch_width(n_chunks, parallel);
    // Snapshotted once per dispatch; checked at every chunk boundary. A fired
    // token skips the remaining chunk bodies (output is then unspecified — the
    // scope that installed the token discards the result).
    let token = CancellationToken::current();
    if workers <= 1 {
        for (index, chunk) in data.chunks_mut(chunk_len).enumerate() {
            if let Some(token) = &token {
                if token.is_cancelled() {
                    return;
                }
            }
            f(index, chunk);
        }
        return;
    }
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    run_on_pool(n_chunks, workers, &move |index: usize| {
        if let Some(token) = &token {
            if token.is_cancelled() {
                return;
            }
        }
        let start = index * chunk_len;
        let end = (start + chunk_len).min(len);
        debug_assert!(start < end && end <= len, "chunk {index} outside the data");
        // SAFETY: `index < n_chunks = len.div_ceil(chunk_len)`, so `[start, end)`
        // is a non-empty window inside `data`. `run_on_pool` runs each index
        // once and windows of distinct indices are disjoint, so no two `&mut`
        // chunks alias. `data` stays exclusively borrowed until `run_on_pool`
        // returns, after every chunk is done.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(index, chunk);
    });
}

/// Runs `f(index)` for every `index` in `0..total` on the persistent pool (when
/// `parallel` allows), without slicing a data buffer.
///
/// [`for_each_chunk`] hands each task a contiguous `&mut` window, which fits
/// kernels whose output decomposes into consecutive runs. Some kernels produce
/// *strided* disjoint regions instead — the Winograd convolution, for example,
/// writes a range of output rows in **every** output-channel plane per task — so
/// this variant dispatches bare indices and leaves the (disjoint) data access to
/// the caller. `f` must be safe to call concurrently and tasks must touch
/// pairwise-disjoint data.
///
/// The determinism contract matches [`for_each_chunk`]: the index decomposition
/// is `0..total` regardless of worker count, so as long as each output element is
/// written by exactly one task in one fixed order, results are bitwise identical
/// for every thread count. Called from inside a pool worker (nested parallelism),
/// the indices run inline on that worker in ascending order.
pub fn for_each_task<F>(total: usize, parallel: bool, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = dispatch_width(total, parallel);
    let token = CancellationToken::current();
    if workers <= 1 {
        for index in 0..total {
            if let Some(token) = &token {
                if token.is_cancelled() {
                    return;
                }
            }
            f(index);
        }
        return;
    }
    run_on_pool(total, workers, &move |index: usize| {
        if let Some(token) = &token {
            if token.is_cancelled() {
                return;
            }
        }
        f(index);
    });
}

/// A raw pointer that may cross thread boundaries (the chunk decomposition above
/// guarantees disjoint access).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the whole
    /// wrapper instead of the bare `*mut T`, keeping them `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: a `SendPtr` is only built by `for_each_chunk`, over a `&mut [T]` it
// borrows exclusively for the dispatch, and threads only turn it into the
// pairwise-disjoint chunks described there. With `T: Send`, giving each
// thread exclusive access to its own elements is what sending `chunks_mut`
// pieces to other threads allows.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send` above: shared access to the wrapper only copies the
// pointer; every element behind it is reached through one chunk at a time.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_configurable() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert_eq!(num_threads(), 1, "zero clamps to one");
        set_num_threads(original);
    }

    #[test]
    fn chunks_cover_all_data_serial_and_parallel() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let mut data = vec![0u64; 1003];
            for_each_chunk(&mut data, 64, true, |index, chunk| {
                for (offset, value) in chunk.iter_mut().enumerate() {
                    *value = (index * 64 + offset) as u64;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
        }
        set_num_threads(original);
    }

    #[test]
    fn chunk_indices_match_positions() {
        let mut data = vec![0usize; 10];
        for_each_chunk(&mut data, 4, false, |index, chunk| {
            assert_eq!(chunk.len(), if index == 2 { 2 } else { 4 });
            chunk.fill(index);
        });
        assert_eq!(data, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn scoped_baseline_matches_pool_dispatch() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(4);
        let mut pooled = vec![0u32; 257];
        for_each_chunk(&mut pooled, 16, true, |i, c| c.fill(i as u32 + 1));
        // Chunk i covers elements 16i..16i+16 (the last one short) and holds i + 1.
        let expected: Vec<u32> = (0..257).map(|e| e / 16 + 1).collect();
        assert_eq!(pooled, expected);
        set_num_threads(original);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(4);
        let mut data = vec![0u64; 64];
        for_each_chunk(&mut data, 8, true, |outer, chunk| {
            let mut inner = vec![0u64; 32];
            for_each_chunk(&mut inner, 4, true, |i, c| c.fill(i as u64));
            let inner_sum: u64 = inner.iter().sum();
            chunk.fill(outer as u64 * 1000 + inner_sum);
        });
        let expect_inner: u64 = (0..8u64).map(|i| i * 4).sum();
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 8) as u64 * 1000 + expect_inner);
        }
        set_num_threads(original);
    }

    #[test]
    fn split_heuristic_prefers_inner_for_small_batches() {
        assert_eq!(split_parallelism(1, 8), (1, 8));
        assert_eq!(split_parallelism(4, 8), (1, 8));
        assert_eq!(split_parallelism(8, 8), (8, 1));
        assert_eq!(split_parallelism(32, 8), (8, 1));
        assert_eq!(split_parallelism(5, 1), (1, 1));
        assert_eq!(split_parallelism(0, 3), (1, 3));
    }

    #[test]
    fn parallel_map_preserves_order_and_carries_caller_context() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(4);
        let caller = crate::context::EngineContext::new().with_algo(crate::conv::ConvAlgo::Direct);
        // Batch >= threads forces the outer (pool-worker) path; every task must
        // still observe the caller's algorithm override and its inner budget.
        let observed = caller.scope(|| {
            parallel_map_indexed(16, 4, |index| {
                let ctx = crate::context::EngineContext::current();
                (index, ctx.algo, ctx.threads)
            })
        });
        for (position, (index, algo, threads)) in observed.iter().enumerate() {
            assert_eq!(*index, position, "results must come back in index order");
            assert_eq!(*algo, Some(crate::conv::ConvAlgo::Direct), "caller algo dropped");
            assert_eq!(*threads, Some(1), "outer batch must single-thread each task");
        }
        // Small batch: sequential path, full inner budget.
        let observed = parallel_map_indexed(2, 4, |index| {
            (index, crate::context::EngineContext::current().threads)
        });
        assert_eq!(observed, vec![(0, Some(4)), (1, Some(4))]);
        set_num_threads(original);
    }

    #[test]
    fn isolated_map_contains_panics_to_their_own_slot() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        for threads in [1usize, 2, 4] {
            set_num_threads(threads);
            // Batch >= threads exercises the pool-worker path at 2 and 4.
            let outcomes = parallel_map_isolated(8, threads, |index| {
                if index == 3 {
                    panic!("request {index} exploded");
                }
                index * 10
            });
            for (index, outcome) in outcomes.iter().enumerate() {
                if index == 3 {
                    let message = outcome.as_ref().unwrap_err();
                    assert!(message.contains("request 3 exploded"), "got {message:?}");
                } else {
                    assert_eq!(
                        *outcome,
                        Ok(index * 10),
                        "survivor {index} under {threads} threads"
                    );
                }
            }
        }
        set_num_threads(original);
    }

    #[test]
    fn isolated_map_leaves_the_pool_usable_and_scopes_clean() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(4);
        // A panicking task must not leak its EngineContext onto a pool worker:
        // the next dispatch on the same workers observes no stale override.
        let _ = parallel_map_isolated(8, 4, |index| {
            if index % 2 == 0 {
                panic!("boom {index}");
            }
            index
        });
        let contexts = parallel_map_indexed(8, 4, |_| crate::context::EngineContext::current());
        for ctx in contexts {
            assert_eq!(ctx.algo, None, "panicked task leaked scoped state onto a worker");
        }
        // The pool itself still dispatches normally.
        let mut data = vec![0u64; 256];
        for_each_chunk(&mut data, 16, true, |i, c| c.fill(i as u64));
        assert!(data.iter().enumerate().all(|(i, &v)| v == (i / 16) as u64));
        set_num_threads(original);
    }

    #[test]
    fn cancelled_token_skips_remaining_chunks() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            // Pre-cancelled: no chunk body may run, serial or pooled.
            let token = CancellationToken::new();
            token.cancel();
            let mut data = vec![0u64; 128];
            token.scope(|| {
                for_each_chunk(&mut data, 8, true, |_, chunk| chunk.fill(7));
            });
            assert!(data.iter().all(|&v| v == 0), "cancelled dispatch ran a chunk");
            let ran = AtomicUsize::new(0);
            token.scope(|| {
                for_each_task(16, true, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert_eq!(ran.load(Ordering::Relaxed), 0);
            // Without cancellation the same scoped dispatch is unaffected.
            let live = CancellationToken::new();
            live.scope(|| for_each_chunk(&mut data, 8, true, |_, chunk| chunk.fill(7)));
            assert!(data.iter().all(|&v| v == 7));
        }
        set_num_threads(original);
    }

    #[test]
    fn isolated_map_reports_cancellation_as_task_errors() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(4);
        let token = CancellationToken::new();
        token.cancel();
        let outcomes = token.scope(|| parallel_map_isolated(6, 4, |index| index * 2));
        for outcome in &outcomes {
            let message = outcome.as_ref().expect_err("cancelled tasks must error, not run");
            assert!(message.contains("cancelled"), "got {message:?}");
        }
        // A token that fires mid-task replaces that task's result with an error.
        let mid = CancellationToken::new();
        let inner = mid.clone();
        let outcomes = mid.scope(|| {
            parallel_map_isolated(1, 1, move |index| {
                inner.cancel();
                index
            })
        });
        assert!(outcomes[0].as_ref().is_err_and(|m| m.contains("mid-run")));
        set_num_threads(original);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let caught = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught), "plain str");
        let caught = catch_unwind(|| panic!("{} {}", "formatted", 7)).unwrap_err();
        assert_eq!(panic_message(caught), "formatted 7");
        let caught = catch_unwind(|| std::panic::panic_any(42i32)).unwrap_err();
        assert!(panic_message(caught).contains("non-string"));
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let _guard = crate::test_sync::global_state_lock();
        let original = num_threads();
        set_num_threads(4);
        let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|submitter| {
                    scope.spawn(move || {
                        let mut data = vec![0u64; 500];
                        for_each_chunk(&mut data, 16, true, |i, c| {
                            c.fill(submitter as u64 * 10_000 + i as u64)
                        });
                        data
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (submitter, data) in results.iter().enumerate() {
            for (pos, &v) in data.iter().enumerate() {
                assert_eq!(v, submitter as u64 * 10_000 + (pos / 16) as u64);
            }
        }
        set_num_threads(original);
    }
}
