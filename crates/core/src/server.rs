//! Async real-clock serving front-end over the virtual-clock admission core.
//!
//! [`SloServer`] turns the batch [`SloScheduler`](crate::SloScheduler) policy
//! into a long-running service: a dedicated event-loop thread owns the
//! incremental [`AdmissionCore`](crate::slo) and steps it at wall-clock `now`,
//! one wave of at most the thread budget at a time — outcomes stream out wave
//! by wave, and a request submitted during a burst joins the next wave
//! (continuous batching) instead of waiting for a full drain.
//!
//! Robustness is the point of this layer:
//!
//! * **Bounded backpressure.** [`SloServer::submit`] is non-blocking and never
//!   queues unboundedly: a full submission queue returns
//!   [`SubmitError::QueueFull`] immediately, and a slow completion consumer
//!   stalls the event loop (the completion queue is bounded and its producer
//!   blocks), which fills the submission queue, which pushes the rejection all
//!   the way back to the submitter. Memory in flight is bounded by
//!   `queue_capacity + completion_capacity + threads` requests.
//! * **Lifecycle state machine.** `Starting → Ready → Draining → Stopped`,
//!   observable via [`SloServer::state`] (readiness) and
//!   [`SloServer::is_healthy`] (liveness: the event loop has not panicked).
//!   Submissions are accepted in `Starting`/`Ready` and rejected with a typed
//!   error afterwards — never silently dropped.
//! * **Graceful drain.** [`SloServer::drain`] stops admissions and lets
//!   in-flight work finish under [`ServerConfig::drain_deadline_ms`]; at the
//!   deadline a watcher fires the shared
//!   [`CancellationToken`](rescnn_tensor::CancellationToken), mid-execution
//!   work is refused at its task boundary, and everything still pending
//!   settles as [`CoreError::Cancelled`](crate::CoreError) — every accepted
//!   ticket yields exactly one terminal [`Completion`]. Dropping the server
//!   performs the same graceful drain.
//! * **Record/replay.** With [`ServerConfig::record`], the live run logs every
//!   arrival stamp and admission step into a
//!   [`ServingTrace`](crate::ServingTrace); replaying it through
//!   [`SloScheduler::replay`](crate::SloScheduler::replay) reproduces the
//!   admission decisions bitwise (see `docs/serving-frontend.md`), turning a
//!   production incident into a deterministic regression test.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;

use rescnn_data::Sample;
use rescnn_projpeg::ProgressiveImage;
use rescnn_tensor::CancellationToken;

use crate::error::{CoreError, Result, SubmitError};
use crate::lifecycle::SourceId;
use crate::pipeline::DynamicResolutionPipeline;
use crate::slo::{
    percentile, thread_budget, AdmissionCore, QueuedRequest, SampleRef, SloOptions, SloOutcome,
    SloReport, DRAIN_CANCEL_REASON,
};
use crate::trace::ServingTrace;

/// Lifecycle state of an [`SloServer`]'s event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ServerState {
    /// The event-loop thread is initialising; submissions are already
    /// accepted and queue until it is ready.
    Starting = 0,
    /// Serving: submissions accepted, completions streaming.
    Ready = 1,
    /// Shutdown begun: in-flight work is finishing, new submissions are
    /// rejected with [`SubmitError::Draining`].
    Draining = 2,
    /// The event loop has terminated (drained, or died; see
    /// [`SloServer::is_healthy`]).
    Stopped = 3,
}

impl ServerState {
    fn from_u8(raw: u8) -> ServerState {
        match raw {
            0 => ServerState::Starting,
            1 => ServerState::Ready,
            2 => ServerState::Draining,
            _ => ServerState::Stopped,
        }
    }
}

/// Configuration of an [`SloServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on the submission queue; a submit finding it full is rejected
    /// with [`SubmitError::QueueFull`]. Default 64.
    pub queue_capacity: usize,
    /// Bound on the completion queue; when the consumer falls behind, the
    /// event loop blocks delivering into it (backpressure) rather than
    /// buffering unboundedly. Default 64.
    pub completion_capacity: usize,
    /// Wall-clock budget for [`SloServer::drain`]: in-flight work finishing
    /// after this deadline is hard-cancelled via the shared
    /// [`CancellationToken`](rescnn_tensor::CancellationToken). Default 5000.
    pub drain_deadline_ms: f64,
    /// Idle-poll granularity of the event loop in milliseconds (upper bound on
    /// wake-up latency for retry arrivals; submissions wake it immediately).
    /// Default 5.
    pub idle_tick_ms: f64,
    /// Record a [`ServingTrace`](crate::ServingTrace) of the run for
    /// deterministic replay. Default off.
    pub record: bool,
    /// The admission policy (deadlines, degradation ladder, retry/breaker/
    /// watchdog/precision policies), shared with the batch scheduler.
    pub options: SloOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            completion_capacity: 64,
            drain_deadline_ms: 5_000.0,
            idle_tick_ms: 5.0,
            record: false,
            options: SloOptions::default(),
        }
    }
}

impl ServerConfig {
    /// Sets the submission-queue bound (clamped to at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the completion-queue bound (clamped to at least 1).
    #[must_use]
    pub fn with_completion_capacity(mut self, capacity: usize) -> Self {
        self.completion_capacity = capacity.max(1);
        self
    }

    /// Sets the graceful-drain deadline in milliseconds.
    #[must_use]
    pub fn with_drain_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.drain_deadline_ms = deadline_ms.max(0.0);
        self
    }

    /// Sets the idle-poll granularity in milliseconds.
    #[must_use]
    pub fn with_idle_tick_ms(mut self, tick_ms: f64) -> Self {
        self.idle_tick_ms = tick_ms.max(0.1);
        self
    }

    /// Enables trace recording for deterministic replay.
    #[must_use]
    pub fn with_record(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Sets the admission policy.
    #[must_use]
    pub fn with_options(mut self, options: SloOptions) -> Self {
        self.options = options;
        self
    }
}

/// One request submitted to an [`SloServer`]. Arrival is stamped by the
/// server at [`submit`](SloServer::submit) time; the absolute deadline is
/// `arrival + deadline_slack_ms` on the same wall clock.
#[derive(Debug, Clone)]
pub struct ServerRequest {
    /// The sample to serve (shared, so the caller keeps its dataset).
    pub sample: Arc<Sample>,
    storage: Option<ProgressiveImage>,
    /// Completion slack granted past the arrival stamp, in milliseconds.
    pub deadline_slack_ms: f64,
    /// Multiplier on the request's estimated service time (fault-injection
    /// hook, mirroring [`SloRequest`](crate::SloRequest)). `1.0` is nominal.
    pub cost_multiplier: f64,
    /// Originating source, for per-source circuit breaking.
    pub source: Option<SourceId>,
}

impl ServerRequest {
    /// A request that must complete within `deadline_slack_ms` of its arrival.
    pub fn new(sample: Arc<Sample>, deadline_slack_ms: f64) -> Self {
        ServerRequest {
            sample,
            storage: None,
            deadline_slack_ms,
            cost_multiplier: 1.0,
            source: None,
        }
    }

    /// Serves from a caller-supplied progressive stream (possibly corrupt).
    #[must_use]
    pub fn with_storage(mut self, storage: ProgressiveImage) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Applies a service-time multiplier (fault-injection hook).
    #[must_use]
    pub fn with_cost_multiplier(mut self, multiplier: f64) -> Self {
        self.cost_multiplier = multiplier;
        self
    }

    /// Tags the request with its originating source for breaker gating.
    #[must_use]
    pub fn with_source(mut self, source: SourceId) -> Self {
        self.source = Some(source);
        self
    }
}

/// Handle to one accepted submission. Tickets are issued densely in
/// submission order, so a ticket doubles as the request's index in the final
/// report's outcome vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Ticket(pub u64);

/// Terminal outcome of one accepted submission, streamed to the caller as it
/// settles. Every accepted ticket yields exactly one completion.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The ticket [`submit`](SloServer::submit) returned.
    pub ticket: Ticket,
    /// What happened — same outcome type as the batch scheduler.
    pub outcome: SloOutcome,
    /// Wall arrival stamp, milliseconds since server start.
    pub wall_arrival_ms: f64,
    /// Wall settle stamp, milliseconds since server start.
    pub wall_settled_ms: f64,
    /// Wall latency: settle minus arrival.
    pub wall_latency_ms: f64,
    /// The absolute wall deadline the request carried.
    pub deadline_ms: f64,
    /// Whether the request completed *and* settled by its wall deadline.
    pub deadline_met: bool,
}

/// Final report of a server run: the deterministic virtual-clock
/// [`SloReport`] plus the wall-clock and lifecycle telemetry layered on top.
#[derive(Debug, Clone, Serialize)]
pub struct ServerReport {
    /// The virtual-clock admission report (outcomes in ticket order).
    pub slo: SloReport,
    /// Median wall latency of completed requests, ms.
    pub wall_p50_ms: f64,
    /// p99 wall latency of completed requests, ms.
    pub wall_p99_ms: f64,
    /// Completed requests that settled after their wall deadline.
    pub wall_deadline_violations: usize,
    /// Tickets accepted.
    pub submitted: usize,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub rejected_queue_full: usize,
    /// Submissions rejected with [`SubmitError::Draining`] /
    /// [`SubmitError::Stopped`].
    pub rejected_draining: usize,
    /// Wall seconds spent draining at shutdown.
    pub drain_seconds: f64,
    /// Whether the drain finished all in-flight work before the deadline.
    pub drained_gracefully: bool,
    /// Requests hard-cancelled at the drain deadline.
    pub hard_cancelled: usize,
    /// The recorded trace, when [`ServerConfig::record`] was set.
    pub trace: Option<ServingTrace>,
}

/// One accepted submission queued for the event loop.
#[derive(Debug)]
struct InboxEntry {
    ticket: u64,
    arrival_ms: f64,
    deadline_ms: f64,
    request: ServerRequest,
}

#[derive(Debug, Default)]
struct Inbox {
    entries: VecDeque<InboxEntry>,
    drain_requested: bool,
}

#[derive(Debug, Default)]
struct CompletionInner {
    items: VecDeque<Completion>,
    /// No more completions will ever be pushed (event loop finished).
    closed: bool,
    /// The consumer dropped its stream; pushes discard instead of blocking.
    receiver_gone: bool,
    /// The drain deadline fired: pushes stop blocking on capacity so the
    /// event loop can always make progress to termination. Queue growth past
    /// the bound is limited to the requests already in flight.
    unblocked: bool,
}

/// Bounded MPSC-ish completion channel built on `Mutex`/`Condvar` (no
/// external runtime). The producer (event loop) blocks when the consumer
/// falls behind — that stall is the backpressure chain's first link.
#[derive(Debug)]
struct CompletionQueue {
    inner: Mutex<CompletionInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl CompletionQueue {
    fn new(capacity: usize) -> Self {
        CompletionQueue {
            inner: Mutex::new(CompletionInner::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CompletionInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocking bounded push; discards when the receiver is gone, appends
    /// past the bound once unblocked for shutdown.
    fn push(&self, completion: Completion) {
        let mut inner = self.lock();
        loop {
            if inner.receiver_gone {
                return;
            }
            if inner.unblocked || inner.items.len() < self.capacity {
                inner.items.push_back(completion);
                self.not_empty.notify_all();
                return;
            }
            inner = self.not_full.wait(inner).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn unblock(&self) {
        let mut inner = self.lock();
        inner.unblocked = true;
        self.not_full.notify_all();
    }

    fn mark_receiver_gone(&self) {
        let mut inner = self.lock();
        inner.receiver_gone = true;
        inner.items.clear();
        self.not_full.notify_all();
    }

    fn recv(&self) -> Option<Completion> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_all();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn try_recv(&self) -> Option<Completion> {
        let mut inner = self.lock();
        let item = inner.items.pop_front();
        if item.is_some() {
            self.not_full.notify_all();
        }
        item
    }
}

/// Receiving half of the completion channel. Iterate (or call
/// [`recv`](CompletionStream::recv)) until `None`: the stream ends when the
/// server has settled every accepted ticket and stopped. Dropping the stream
/// tells the server to discard further completions instead of blocking on
/// them.
#[derive(Debug)]
pub struct CompletionStream {
    shared: Arc<Shared>,
}

impl CompletionStream {
    /// Blocks for the next completion; `None` once the server stopped and the
    /// queue is empty.
    pub fn recv(&self) -> Option<Completion> {
        self.shared.completions.recv()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Completion> {
        self.shared.completions.try_recv()
    }
}

impl Iterator for CompletionStream {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        self.recv()
    }
}

impl Drop for CompletionStream {
    fn drop(&mut self) {
        self.shared.completions.mark_receiver_gone();
    }
}

/// State shared between the handle, the event loop, and the drain watcher.
#[derive(Debug)]
struct Shared {
    state: AtomicU8,
    epoch: Instant,
    inbox: Mutex<Inbox>,
    /// Wakes the event loop on submission or drain request.
    work: Condvar,
    completions: CompletionQueue,
    /// Fired at the drain deadline; every kernel-bearing execute under the
    /// event loop runs inside this token's scope during drain.
    cancel: CancellationToken,
    /// Drain-finished flag + condvar, so the watcher exits early on a
    /// graceful drain.
    drain_done: Mutex<bool>,
    drain_cv: Condvar,
    submitted: AtomicUsize,
    settled: AtomicUsize,
    rejected_queue_full: AtomicUsize,
    rejected_draining: AtomicUsize,
    report: Mutex<Option<ServerReport>>,
    worker_panic: Mutex<Option<String>>,
}

impl Shared {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1_000.0
    }

    fn state(&self) -> ServerState {
        ServerState::from_u8(self.state.load(Ordering::Acquire))
    }

    fn store_state(&self, state: ServerState) {
        self.state.store(state as u8, Ordering::Release);
    }

    fn mark_drain_done(&self) {
        let mut done = self.drain_done.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        *done = true;
        self.drain_cv.notify_all();
    }
}

/// The async serving front-end. The lifecycle and backpressure contracts are
/// stated in the docs of its (private) `server` module and in
/// `docs/serving-frontend.md`, with the full design.
#[derive(Debug)]
pub struct SloServer {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    stream: Option<CompletionStream>,
    queue_capacity: usize,
    drain_deadline_ms: f64,
}

impl SloServer {
    /// Starts the event loop. Fails fast (on the caller's thread) if the
    /// latency model or memory-budget arena peaks cannot be resolved.
    ///
    /// # Errors
    /// Propagates latency-model / arena-resolution failures.
    pub fn start(pipeline: Arc<DynamicResolutionPipeline>, config: ServerConfig) -> Result<Self> {
        let (latency, arena_peaks) = AdmissionCore::resolve_models(&pipeline, &config.options)?;
        let threads = thread_budget(&pipeline, &config.options);
        let shared = Arc::new(Shared {
            state: AtomicU8::new(ServerState::Starting as u8),
            epoch: Instant::now(),
            inbox: Mutex::new(Inbox::default()),
            work: Condvar::new(),
            completions: CompletionQueue::new(config.completion_capacity),
            cancel: CancellationToken::new(),
            drain_done: Mutex::new(false),
            drain_cv: Condvar::new(),
            submitted: AtomicUsize::new(0),
            settled: AtomicUsize::new(0),
            rejected_queue_full: AtomicUsize::new(0),
            rejected_draining: AtomicUsize::new(0),
            report: Mutex::new(None),
            worker_panic: Mutex::new(None),
        });
        let queue_capacity = config.queue_capacity.max(1);
        let drain_deadline_ms = config.drain_deadline_ms.max(0.0);
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("rescnn-slo-server".into())
            .spawn(move || {
                let body = catch_unwind(AssertUnwindSafe(|| {
                    run_worker(&worker_shared, &pipeline, &config, threads, latency, arena_peaks);
                }));
                if let Err(payload) = body {
                    let message = rescnn_tensor::panic_message(payload);
                    *worker_shared
                        .worker_panic
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(message);
                }
                // Terminal bookkeeping runs even when the loop died: probes
                // observe Stopped, consumers unblock, the watcher exits.
                worker_shared.store_state(ServerState::Stopped);
                worker_shared.completions.close();
                worker_shared.mark_drain_done();
            })
            .map_err(|e| CoreError::InvalidConfig {
                reason: format!("failed to spawn server event loop: {e}"),
            })?;
        let stream = CompletionStream { shared: Arc::clone(&shared) };
        Ok(SloServer {
            shared,
            worker: Some(worker),
            stream: Some(stream),
            queue_capacity,
            drain_deadline_ms,
        })
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ServerState {
        self.shared.state()
    }

    /// Readiness probe: the event loop is up and accepting submissions.
    pub fn is_ready(&self) -> bool {
        self.shared.state() == ServerState::Ready
    }

    /// Liveness probe: the event loop has not panicked. Stays true after a
    /// clean stop.
    pub fn is_healthy(&self) -> bool {
        self.shared.worker_panic.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).is_none()
    }

    /// Current submission-queue depth (entries accepted but not yet ingested
    /// by the event loop). Never exceeds the configured bound.
    pub fn queue_depth(&self) -> usize {
        self.shared.inbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).entries.len()
    }

    /// Tickets accepted but not yet settled.
    pub fn in_flight(&self) -> usize {
        let submitted = self.shared.submitted.load(Ordering::Acquire);
        let settled = self.shared.settled.load(Ordering::Acquire);
        submitted.saturating_sub(settled)
    }

    /// Takes the completion stream (once). Completions for every accepted
    /// ticket arrive on it as they settle; if nobody holds the stream the
    /// server discards them (the final [`ServerReport`] still carries every
    /// outcome).
    pub fn completions(&mut self) -> Option<CompletionStream> {
        self.stream.take()
    }

    /// Non-blocking submission. The arrival stamp (and with it the wall
    /// deadline) is taken under the queue lock, so ticket order, arrival
    /// order, and admission-queue order all agree.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under backpressure, [`SubmitError::Draining`]
    /// / [`SubmitError::Stopped`] after shutdown began — never a silent drop.
    pub fn submit(&self, request: ServerRequest) -> std::result::Result<Ticket, SubmitError> {
        let mut inbox = self.shared.inbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.shared.state() == ServerState::Stopped {
            self.shared.rejected_draining.fetch_add(1, Ordering::AcqRel);
            return Err(SubmitError::Stopped);
        }
        if inbox.drain_requested {
            self.shared.rejected_draining.fetch_add(1, Ordering::AcqRel);
            return Err(SubmitError::Draining);
        }
        if inbox.entries.len() >= self.queue_capacity {
            self.shared.rejected_queue_full.fetch_add(1, Ordering::AcqRel);
            return Err(SubmitError::QueueFull { capacity: self.queue_capacity });
        }
        let arrival_ms = self.shared.now_ms();
        let ticket = self.shared.submitted.fetch_add(1, Ordering::AcqRel) as u64;
        let deadline_ms = arrival_ms + request.deadline_slack_ms.max(0.0);
        inbox.entries.push_back(InboxEntry { ticket, arrival_ms, deadline_ms, request });
        drop(inbox);
        self.shared.work.notify_all();
        Ok(Ticket(ticket))
    }

    /// Begins graceful shutdown (idempotent, non-blocking): new submissions
    /// are rejected from this call on, in-flight work keeps finishing, and a
    /// watcher hard-cancels whatever remains at the drain deadline. Returns
    /// whether this call initiated the drain.
    pub fn drain(&self) -> bool {
        initiate_drain(&self.shared, self.drain_deadline_ms)
    }

    /// Drains and blocks until the event loop has terminated, returning the
    /// final report.
    ///
    /// # Errors
    /// [`CoreError::Panicked`] if the event loop died instead of stopping.
    pub fn join(mut self) -> Result<ServerReport> {
        self.drain();
        self.join_inner()
    }

    fn join_inner(&mut self) -> Result<ServerReport> {
        if let Some(worker) = self.worker.take() {
            // The worker never unwinds (its body is caught); join errors are
            // unreachable in practice.
            let _ = worker.join();
        }
        if let Some(message) =
            self.shared.worker_panic.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).take()
        {
            return Err(CoreError::Panicked { message });
        }
        self.shared
            .report
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .ok_or_else(|| CoreError::InvalidConfig {
                reason: "server report already taken or never produced".into(),
            })
    }
}

impl Drop for SloServer {
    /// Graceful by contract: dropping the handle drains in-flight work under
    /// the drain deadline rather than aborting it; stragglers past the
    /// deadline are hard-cancelled by the watcher.
    fn drop(&mut self) {
        if self.worker.is_some() {
            self.drain();
            let _ = self.join_inner();
        }
    }
}

/// Flags the drain (idempotent) and arms the deadline watcher on the first
/// call.
fn initiate_drain(shared: &Arc<Shared>, drain_deadline_ms: f64) -> bool {
    let mut inbox = shared.inbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if inbox.drain_requested {
        return false;
    }
    inbox.drain_requested = true;
    drop(inbox);
    if shared.state() != ServerState::Stopped {
        shared.store_state(ServerState::Draining);
    }
    shared.work.notify_all();
    // The watcher enforces the deadline even if the event loop is wedged
    // mid-delivery (slow consumer): firing the token refuses in-flight
    // kernels at their next task boundary, and unblocking the completion
    // queue lets the loop run to termination.
    let watcher_shared = Arc::clone(shared);
    let deadline = Duration::from_secs_f64((drain_deadline_ms.max(0.0)) / 1_000.0);
    let armed = std::thread::Builder::new()
        .name("rescnn-slo-drain".into())
        .spawn(move || {
            let start = Instant::now();
            let mut done =
                watcher_shared.drain_done.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            while !*done {
                let elapsed = start.elapsed();
                if elapsed >= deadline {
                    drop(done);
                    watcher_shared.cancel.cancel();
                    watcher_shared.completions.unblock();
                    watcher_shared.work.notify_all();
                    return;
                }
                let (guard, _) = watcher_shared
                    .drain_cv
                    .wait_timeout(done, deadline - elapsed)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                done = guard;
            }
        })
        .is_ok();
    if !armed {
        // Could not arm the watcher: enforce the deadline degenerately by
        // hard-cancelling immediately rather than risking an unbounded drain.
        shared.cancel.cancel();
        shared.completions.unblock();
        shared.work.notify_all();
    }
    true
}

/// Wall-clock bookkeeping for one accepted ticket.
#[derive(Debug, Clone, Copy)]
struct WallStamp {
    arrival_ms: f64,
    deadline_ms: f64,
}

/// The event loop, run on the dedicated worker thread.
fn run_worker(
    shared: &Arc<Shared>,
    pipeline: &DynamicResolutionPipeline,
    config: &ServerConfig,
    threads: usize,
    latency: crate::slo::ResolutionLatencyModel,
    arena_peaks: Option<std::collections::BTreeMap<usize, usize>>,
) {
    let wall_start = Instant::now();
    let mut core = AdmissionCore::with_resolved(
        pipeline,
        config.options.clone(),
        threads,
        config.record,
        latency,
        arena_peaks,
    );
    let mut stamps: Vec<WallStamp> = Vec::new();
    let mut wall_latencies: Vec<f64> = Vec::new();
    let mut wall_deadline_violations = 0usize;
    let mut hard_cancelled = 0usize;
    // Starting → Ready, unless a drain raced us there first.
    let _ = shared.state.compare_exchange(
        ServerState::Starting as u8,
        ServerState::Ready as u8,
        Ordering::AcqRel,
        Ordering::Acquire,
    );

    let idle_tick = Duration::from_secs_f64(config.idle_tick_ms.max(0.1) / 1_000.0);
    let mut draining = false;
    while !draining {
        // Ingest: drain the inbox, waiting (bounded) when there is nothing to
        // do right now. Retry arrivals bound the sleep so a scheduled retry
        // wakes the loop on time even with no traffic.
        let now = shared.now_ms();
        let batch: Vec<InboxEntry> = {
            let mut inbox = shared.inbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if inbox.entries.is_empty()
                && !inbox.drain_requested
                && !core.has_eligible(now)
                && !shared.cancel.is_cancelled()
            {
                let timeout = match core.next_pending_arrival() {
                    Some(arrival_ms) if arrival_ms > now => idle_tick
                        .min(Duration::from_secs_f64((arrival_ms - now).max(0.0) / 1_000.0)),
                    _ => idle_tick,
                };
                let (guard, _) = shared
                    .work
                    .wait_timeout(inbox, timeout)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                inbox = guard;
            }
            draining = inbox.drain_requested;
            inbox.entries.drain(..).collect()
        };
        for entry in batch {
            ingest(&mut core, &mut stamps, entry);
        }
        if shared.cancel.is_cancelled() {
            // The drain watcher fired while we were wedged (slow consumer):
            // go straight to the drain phase's hard-cancel path.
            draining = true;
        }
        if draining {
            break;
        }
        let now = shared.now_ms();
        if core.has_eligible(now) {
            // One wave — as many attempts as can plan side by side — then
            // deliver and come back round for the inbox: a burst's first
            // outcomes leave while its tail is still being planned, and an
            // arrival during the burst is ingested before the burst is over.
            let settled = core.admit_step(now, Some(threads));
            deliver(
                shared,
                &core,
                &stamps,
                &settled,
                &mut wall_latencies,
                &mut wall_deadline_violations,
            );
        }
    }

    // Drain phase: finish everything pending under the deadline; the watcher
    // (armed by `drain()`) fires the token at the deadline.
    shared.store_state(ServerState::Draining);
    let drain_start = Instant::now();
    let drain_deadline_abs = shared.now_ms() + config.drain_deadline_ms.max(0.0);
    loop {
        // Late submissions: entries accepted before the drain flag were set
        // are still owed an outcome.
        let batch: Vec<InboxEntry> = {
            let mut inbox = shared.inbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            inbox.entries.drain(..).collect()
        };
        for entry in batch {
            ingest(&mut core, &mut stamps, entry);
        }
        if !core.has_pending() {
            break;
        }
        let now = shared.now_ms();
        if shared.cancel.is_cancelled() || now >= drain_deadline_abs {
            let cancelled = core.cancel_pending(DRAIN_CANCEL_REASON);
            hard_cancelled += cancelled.len();
            deliver(
                shared,
                &core,
                &stamps,
                &cancelled,
                &mut wall_latencies,
                &mut wall_deadline_violations,
            );
            break;
        }
        if core.has_eligible(now) {
            // Kernel-bearing work runs inside the token scope so the
            // watcher's deadline refuses it at the next task boundary.
            let settled = shared.cancel.scope(|| core.admit_step(now, Some(threads)));
            if shared.cancel.is_cancelled() {
                // Mid-step refusals depended on the wall clock; the tail of
                // this run is no longer bitwise replayable.
                core.mark_hard_cancelled();
            }
            deliver(
                shared,
                &core,
                &stamps,
                &settled,
                &mut wall_latencies,
                &mut wall_deadline_violations,
            );
        } else if let Some(arrival_ms) = core.next_pending_arrival() {
            // Nothing eligible yet (retry backoff): sleep toward the earlier
            // of the next arrival and the drain deadline.
            let wake = arrival_ms.min(drain_deadline_abs).max(now);
            std::thread::sleep(
                idle_tick.min(Duration::from_secs_f64((wake - now).max(0.0) / 1_000.0)),
            );
        }
    }
    let drained_gracefully = !shared.cancel.is_cancelled() && hard_cancelled == 0;
    // Let the watcher exit before it can fire on a graceful drain.
    shared.mark_drain_done();

    let (slo, trace) = core.finish(wall_start.elapsed().as_secs_f64());
    wall_latencies.sort_by(f64::total_cmp);
    let report = ServerReport {
        wall_p50_ms: percentile(&wall_latencies, 0.50),
        wall_p99_ms: percentile(&wall_latencies, 0.99),
        wall_deadline_violations,
        submitted: slo.total,
        rejected_queue_full: shared.rejected_queue_full.load(Ordering::Acquire),
        rejected_draining: shared.rejected_draining.load(Ordering::Acquire),
        drain_seconds: drain_start.elapsed().as_secs_f64(),
        drained_gracefully,
        hard_cancelled,
        trace,
        slo,
    };
    *shared.report.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(report);
}

/// Feeds one accepted submission into the core, preserving the
/// ticket == submission-index invariant.
fn ingest<'a>(core: &mut AdmissionCore<'a>, stamps: &mut Vec<WallStamp>, entry: InboxEntry) {
    let InboxEntry { ticket, arrival_ms, deadline_ms, request } = entry;
    stamps.push(WallStamp { arrival_ms, deadline_ms });
    let index = core.submit(QueuedRequest {
        sample: SampleRef::Shared(request.sample),
        storage: request.storage,
        arrival_ms,
        deadline_ms,
        cost_multiplier: request.cost_multiplier,
        source: request.source,
    });
    debug_assert_eq!(index as u64, ticket, "tickets are issued in submission order");
}

/// Streams the step's terminal outcomes to the consumer and folds them into
/// the wall-clock aggregates.
fn deliver(
    shared: &Shared,
    core: &AdmissionCore<'_>,
    stamps: &[WallStamp],
    settled: &[usize],
    wall_latencies: &mut Vec<f64>,
    wall_deadline_violations: &mut usize,
) {
    if settled.is_empty() {
        return;
    }
    let settled_ms = shared.now_ms();
    for &index in settled {
        let outcome =
            core.outcome(index).cloned().expect("a settled index always holds a terminal outcome");
        let stamp = stamps[index];
        let completed = matches!(outcome, SloOutcome::Completed(_));
        let deadline_met = completed && settled_ms <= stamp.deadline_ms;
        if completed {
            wall_latencies.push(settled_ms - stamp.arrival_ms);
            if !deadline_met {
                *wall_deadline_violations += 1;
            }
        }
        shared.completions.push(Completion {
            ticket: Ticket(index as u64),
            outcome,
            wall_arrival_ms: stamp.arrival_ms,
            wall_settled_ms: settled_ms,
            wall_latency_ms: settled_ms - stamp.arrival_ms,
            deadline_ms: stamp.deadline_ms,
            deadline_met,
        });
        // Counted after delivery, so `in_flight` includes outcomes still
        // wedged behind a slow consumer.
        shared.settled.fetch_add(1, Ordering::AcqRel);
    }
}
