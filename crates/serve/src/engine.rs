//! The serving engine: a bounded job queue with backpressure, a fixed
//! pool of worker threads driving jobs through the core
//! [`Driver`] in resumable slices, and the
//! in-process [`ServeHandle`] client the HTTP front-end is a thin skin
//! over.
//!
//! # Why slices
//!
//! A worker never runs a job to completion in one call. It runs
//! [`Driver::run_slice`] / [`Driver::resume_slice`] in a loop, and at
//! every slice boundary — a quiescent checkpoint point — it observes
//! cancellation, server drain, and the job's wall-clock timeout, and
//! refreshes the job's live [`RunStatus`]. Slicing rides the driver's
//! proven checkpoint/resume path, so a served run's report is
//! **bit-identical** to a direct `run_*` call with the same task, method,
//! and seed (only the simulation/cache accounting differs, exactly as for
//! any resumed run).
//!
//! # Job retention
//!
//! Terminal jobs (done, failed, timed out, cancelled) do not live in the
//! registry forever: a configurable TTL ([`ServeConfig::retain_ttl`])
//! and a max-retained cap ([`ServeConfig::retain_max`]) bound it, so a
//! long-lived server's memory is O(cap), not O(jobs ever served). An
//! evicted job's [`StatsSnapshot`] is folded into a *retired*
//! accumulator before the record is dropped, so `/stats` cache totals
//! stay exact across evictions. Queries for an evicted id answer
//! [`ServeError::JobEvicted`] (HTTP 410) — distinct from
//! [`ServeError::UnknownJob`] (404) for an id this server never
//! assigned.
//!
//! # Lock discipline
//!
//! Three mutexes exist: the queue, the job registry, and the
//! retired-stats accumulator, acquired in that fixed order — queue
//! before registry before retired stats; no code path acquires an
//! earlier lock while holding a later one. The registry mutex pairs with
//! a condvar notified on every job state/status transition, which is
//! what [`ServeHandle::wait`] blocks on. All statistics are atomics
//! outside the locks.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use breaksym_core::{Driver, PlaceError, RunCheckpoint, RunReport, SliceOutcome};
use breaksym_sim::{EvalCache, SimCounter, StatsSnapshot};
use breaksym_testkit::{real_clock, FaultAction, SharedClock};

use crate::protocol::{
    Healthz, JobExport, JobId, JobSpec, JobState, RunStatus, ServeError, ServerStats,
    StatusResponse,
};

/// Failpoint hit at every slice boundary, just before the worker drives
/// the next slice (see `breaksym_testkit::fault`). A `Panic` action
/// emulates a panicking optimizer slice (caught by the worker's
/// panic-safety boundary), a `Fail` action an optimizer-level error, a
/// `DelayMs` an artificially slow slice.
pub const FAIL_SLICE: &str = "serve::slice";

/// What a poisoned lock means here: a worker panicked mid-update, and the
/// registry can no longer be trusted. Slice execution itself is guarded by
/// `catch_unwind`, so an optimizer panic cannot poison these locks — only
/// a panic inside the engine's own bookkeeping can.
const POISONED: &str = "serve: a worker panicked while holding an engine lock";

/// Sizing and defaults of a serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
    /// Queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`] — the service's backpressure signal.
    pub queue_cap: usize,
    /// Default evaluations per resumable slice; jobs may override via
    /// [`JobSpec::slice_evals`]. Smaller slices mean faster reaction to
    /// cancel/drain at slightly more checkpoint overhead.
    pub slice_evals: u64,
    /// How long a terminal job (done, failed, timed out, cancelled) is
    /// retained in the registry before eviction; `None` disables the
    /// TTL. Evicted jobs keep their statistics in the retired
    /// accumulator and answer [`ServeError::JobEvicted`] afterwards.
    pub retain_ttl: Option<Duration>,
    /// Upper bound on retained terminal jobs; beyond it the oldest are
    /// evicted first, whatever the TTL says. Eviction runs at every
    /// submission and every [`ServeHandle::stats`] call, never in the
    /// step that ends a job, so a waiter reads how its job ended. The
    /// registry therefore holds at most `retain_max` terminal jobs plus
    /// the jobs queued or running at the latest submission — the hard
    /// memory bound of a long-lived server.
    pub retain_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            slice_evals: 64,
            retain_ttl: None,
            retain_max: 1024,
        }
    }
}

/// Everything the registry tracks about one job. Each job owns a private
/// cache + counter pair so its simulation/cache accounting is exact and
/// job-local; the server-wide `/stats` view is the sum of the per-job
/// snapshots.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    status: Option<RunStatus>,
    /// Netlist health warnings captured when the submission resolved,
    /// echoed verbatim in every [`StatusResponse`] for the job.
    warnings: Vec<String>,
    report: Option<Box<RunReport>>,
    checkpoint: Option<Box<RunCheckpoint>>,
    cancel: Arc<AtomicBool>,
    cache: EvalCache,
    counter: SimCounter,
    /// When the job reached a terminal state — the retention clock.
    terminal_at: Option<Instant>,
}

impl JobRecord {
    fn new(mut spec: JobSpec, warnings: Vec<String>) -> Self {
        // A spec that carries a checkpoint (a coordinator moving a dead
        // node's job here) starts from it: the worker's slice loop resumes
        // from `JobRecord::checkpoint` whenever one is present. Moved out
        // of the spec, so the job holds it once.
        let checkpoint = spec.checkpoint.take();
        JobRecord {
            spec,
            state: JobState::Queued,
            status: None,
            warnings,
            report: None,
            checkpoint,
            cancel: Arc::new(AtomicBool::new(false)),
            cache: EvalCache::default(),
            counter: SimCounter::new(),
            terminal_at: None,
        }
    }
}

/// Accounting carried forward from evicted jobs, so `/stats` totals stay
/// exact however many records the retention policy has dropped.
#[derive(Debug, Default)]
struct RetiredStats {
    cache: StatsSnapshot,
    jobs: u64,
}

#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    /// Time source for timeouts, TTLs, uptime, and wait deadlines. The
    /// real clock in production; a `TestClock` in deterministic tests.
    clock: SharedClock,
    /// Job registry; see the module docs for the lock order.
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Notified on every job state/status transition; pairs with `jobs`.
    /// [`ServeHandle::wait`] blocks here instead of busy-polling.
    state_cv: Condvar,
    /// Statistics of evicted jobs; see the module docs for the lock order.
    retired: Mutex<RetiredStats>,
    /// FIFO of queued job ids (drained jobs are requeued at the front).
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    next_id: AtomicU64,
    started: Instant,
    busy_workers: AtomicUsize,
    worker_jobs: Vec<AtomicU64>,
    worker_busy_ms: Vec<AtomicU64>,
    jobs_submitted: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_timed_out: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_panicked: AtomicU64,
}

impl Shared {
    /// Evicts terminal jobs the retention policy no longer keeps: every
    /// one past its TTL, plus the oldest beyond the max-retained cap.
    /// Each evicted job's statistics are folded into the retired
    /// accumulator first, so server-wide totals never regress. Called
    /// with the registry lock held; takes the retired lock inside it
    /// (queue → jobs → retired, the fixed order).
    fn evict_terminal(&self, jobs: &mut HashMap<u64, JobRecord>) {
        let now = self.clock.now();
        let mut terminal: Vec<(u64, Instant)> = jobs
            .iter()
            .filter_map(|(&id, job)| job.terminal_at.map(|at| (id, at)))
            .collect();
        if terminal.is_empty() {
            return;
        }
        terminal.sort_by_key(|&(_, at)| at);
        let over_cap = terminal.len().saturating_sub(self.cfg.retain_max);
        let expired =
            |at: Instant| self.cfg.retain_ttl.is_some_and(|ttl| now.duration_since(at) >= ttl);
        let doomed: Vec<u64> = terminal
            .iter()
            .enumerate()
            .filter(|&(rank, &(_, at))| rank < over_cap || expired(at))
            .map(|(_, &(id, _))| id)
            .collect();
        if doomed.is_empty() {
            return;
        }
        let mut retired = self.retired.lock().expect(POISONED);
        for id in doomed {
            if let Some(job) = jobs.remove(&id) {
                retired.cache = retired.cache.merged(job.cache.snapshot(&job.counter));
                retired.jobs += 1;
            }
        }
        drop(retired);
        // Waiters on an evicted id must wake to observe JobEvicted.
        self.state_cv.notify_all();
    }

    /// The one writer of terminal job state: installs `state` (and, for
    /// completions, the report plus a final status refresh), stamps the
    /// retention clock, counts the outcome in the matching `/stats`
    /// counter, and wakes waiters. `jobs` is the held registry guard, so
    /// the count lands before the wake-up and a waiter that sees the
    /// terminal state also sees it counted. Nothing is evicted here: the
    /// next submission or `stats()` beat applies the retention policy,
    /// so the waiters read the state first. The latest checkpoint is
    /// deliberately retained for cancelled, timed-out and failed jobs —
    /// that is what makes them resumable. A done job's is dropped: its
    /// report supersedes it, and nothing resumes a finished run.
    fn set_terminal(
        &self,
        jobs: &mut HashMap<u64, JobRecord>,
        id: u64,
        state: JobState,
        completion: Option<(Box<RunReport>, RunStatus)>,
    ) {
        let outcomes = match state {
            JobState::Done => &self.jobs_done,
            JobState::Failed { .. } => &self.jobs_failed,
            JobState::TimedOut { .. } => &self.jobs_timed_out,
            JobState::Cancelled { .. } => &self.jobs_cancelled,
            JobState::Queued | JobState::Running => {
                unreachable!("only terminal states are installed")
            }
        };
        outcomes.fetch_add(1, Ordering::Relaxed);
        if let Some(job) = jobs.get_mut(&id) {
            if state == JobState::Done {
                job.checkpoint = None;
            }
            job.state = state;
            job.terminal_at = Some(self.clock.now());
            if let Some((report, status)) = completion {
                job.report = Some(report);
                job.status = Some(status);
            }
        }
        self.state_cv.notify_all();
    }

    /// The error for an id absent from the registry: ids this server
    /// assigned (they are dense, starting at 1) were evicted; anything
    /// else was never known.
    fn missing(&self, id: JobId) -> ServeError {
        if (1..=self.next_id.load(Ordering::SeqCst)).contains(&id.0) {
            ServeError::JobEvicted { id }
        } else {
            ServeError::UnknownJob { id }
        }
    }
}

/// A running placement service: worker pool + bounded queue + job
/// registry. Construct with [`ServeEngine::start`], talk to it through
/// [`ServeEngine::handle`], stop it with [`ServeEngine::shutdown`].
#[derive(Debug)]
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts the worker pool (idle until jobs are submitted) on the real
    /// system clock.
    pub fn start(cfg: ServeConfig) -> Self {
        Self::start_with_clock(cfg, real_clock())
    }

    /// As [`ServeEngine::start`], with an explicit time source. Tests pass
    /// a [`breaksym_testkit::TestClock`] here so job timeouts, retention
    /// TTLs, and [`ServeHandle::wait`] deadlines become deterministic:
    /// advancing the test clock wakes the engine's condvars (via the
    /// clock's waker hook) so blocked waiters re-evaluate their deadlines
    /// immediately.
    pub fn start_with_clock(cfg: ServeConfig, clock: SharedClock) -> Self {
        let worker_count = cfg.workers.max(1);
        let started = clock.now();
        let shared = Arc::new(Shared {
            cfg: ServeConfig { workers: worker_count, ..cfg },
            clock,
            jobs: Mutex::new(HashMap::new()),
            state_cv: Condvar::new(),
            retired: Mutex::new(RetiredStats::default()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            started,
            busy_workers: AtomicUsize::new(0),
            worker_jobs: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ms: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            jobs_submitted: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_timed_out: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
        });
        // Advancing a test clock must wake every deadline-blocked waiter so
        // it re-reads virtual time. The weak reference keeps a forgotten
        // clock from leaking a dead engine.
        let weak = Arc::downgrade(&shared);
        shared.clock.register_waker(Arc::new(move || {
            if let Some(shared) = weak.upgrade() {
                // Lock, notify, drop — one mutex at a time, in the fixed
                // queue-before-jobs order — so a waiter that checked its
                // deadline but has not parked yet cannot miss the wakeup.
                let queue = shared.queue.lock().expect(POISONED);
                shared.queue_cv.notify_all();
                drop(queue);
                let jobs = shared.jobs.lock().expect(POISONED);
                shared.state_cv.notify_all();
                drop(jobs);
            }
        }));
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("breaksym-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("worker threads spawn")
            })
            .collect();
        ServeEngine { shared, workers }
    }

    /// A clonable in-process client of this engine.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Graceful drain: stop accepting submissions, let every worker finish
    /// its *current slice*, persist a checkpoint for and requeue each
    /// interrupted job, then join the pool. Queued and requeued jobs stay
    /// in the registry as [`JobState::Queued`] with their latest
    /// checkpoint, ready for a future server to pick up. Returns the
    /// handle for post-mortem queries.
    pub fn shutdown(self) -> ServeHandle {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
        ServeHandle { shared: self.shared }
    }
}

/// Clonable in-process client of a [`ServeEngine`] — the exact operations
/// the HTTP front-end exposes, minus the transport.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Submits a job. Backpressure applies: a full queue rejects with
    /// [`ServeError::QueueFull`] (HTTP 429) rather than queueing unbounded
    /// work; a draining server rejects with [`ServeError::ShuttingDown`].
    ///
    /// # Errors
    ///
    /// Also [`ServeError::BadRequest`] when the task spec does not
    /// resolve — validated here so bad requests fail at submission, not
    /// inside a worker.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let (_, warnings) = spec.task.resolve_with_warnings()?;
        let mut queue = self.shared.queue.lock().expect(POISONED);
        if queue.len() >= self.shared.cfg.queue_cap {
            return Err(ServeError::QueueFull { capacity: self.shared.cfg.queue_cap });
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut jobs = self.shared.jobs.lock().expect(POISONED);
            jobs.insert(id, JobRecord::new(spec, warnings));
            // Submission is the natural beat of a busy server — enforce
            // retention here so the registry never outgrows the policy.
            self.shared.evict_terminal(&mut jobs);
        }
        queue.push_back(id);
        self.shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.queue_cv.notify_one();
        Ok(JobId(id))
    }

    /// The job's lifecycle state plus its latest slice-boundary progress.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this server never assigned;
    /// [`ServeError::JobEvicted`] for a terminal job the retention policy
    /// already dropped.
    pub fn status(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        let jobs = self.shared.jobs.lock().expect(POISONED);
        let job = jobs.get(&id.0).ok_or_else(|| self.shared.missing(id))?;
        Ok(StatusResponse {
            id,
            state: job.state.clone(),
            status: job.status,
            warnings: job.warnings.clone(),
        })
    }

    /// The final report of a completed job.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] until the job is [`JobState::Done`]
    /// (including failed/cancelled jobs, whose reason is echoed);
    /// [`ServeError::UnknownJob`] / [`ServeError::JobEvicted`] for an
    /// unknown or evicted id.
    pub fn report(&self, id: JobId) -> Result<RunReport, ServeError> {
        let jobs = self.shared.jobs.lock().expect(POISONED);
        let job = jobs.get(&id.0).ok_or_else(|| self.shared.missing(id))?;
        match (&job.state, &job.report) {
            (JobState::Done, Some(report)) => Ok((**report).clone()),
            (JobState::Failed { error }, _) => {
                Err(ServeError::NotReady { reason: format!("job failed: {error}") })
            }
            (JobState::TimedOut { resumable }, _) => Err(ServeError::NotReady {
                reason: if *resumable {
                    "job timed out; fetch its checkpoint and resume with a larger allowance".into()
                } else {
                    "job timed out before any slice completed".into()
                },
            }),
            (state, _) => Err(ServeError::NotReady {
                reason: format!("job is {}; no final report", state.label()),
            }),
        }
    }

    /// The job's latest resumable [`RunCheckpoint`], if any slice boundary
    /// has produced one. Available while running, after cancellation
    /// (`resumable: true`), timeout or failure, and for jobs requeued by a
    /// drain. A done job keeps none: its report supersedes it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] / [`ServeError::JobEvicted`] for an
    /// unknown or evicted id.
    pub fn checkpoint(&self, id: JobId) -> Result<Option<RunCheckpoint>, ServeError> {
        let jobs = self.shared.jobs.lock().expect(POISONED);
        let job = jobs.get(&id.0).ok_or_else(|| self.shared.missing(id))?;
        Ok(job.checkpoint.as_deref().cloned())
    }

    /// Cancels a job. A queued job is dequeued immediately; a running job
    /// stops at its next slice boundary, retaining its latest checkpoint
    /// (`resumable: true`). Terminal jobs are left untouched — cancelling
    /// twice, or racing a natural completion, is not an error.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] / [`ServeError::JobEvicted`] for an
    /// unknown or evicted id.
    pub fn cancel(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        let mut queue = self.shared.queue.lock().expect(POISONED);
        let mut jobs = self.shared.jobs.lock().expect(POISONED);
        let job = jobs.get_mut(&id.0).ok_or_else(|| self.shared.missing(id))?;
        let mut response = StatusResponse {
            id,
            state: job.state.clone(),
            status: job.status,
            warnings: job.warnings.clone(),
        };
        match job.state {
            JobState::Queued => {
                queue.retain(|&queued| queued != id.0);
                response.state = JobState::Cancelled { resumable: job.checkpoint.is_some() };
                self.shared.set_terminal(&mut jobs, id.0, response.state.clone(), None);
            }
            JobState::Running => job.cancel.store(true, Ordering::SeqCst),
            _ => {}
        }
        Ok(response)
    }

    /// A point-in-time snapshot of the whole server: queue depth,
    /// per-worker utilization, and the summed per-job cache/simulation
    /// accounting.
    pub fn stats(&self) -> ServerStats {
        let queue_depth = self.shared.queue.lock().expect(POISONED).len();
        let (cache, jobs_retired) = {
            // Lock order: jobs before retired (module docs).
            let mut jobs = self.shared.jobs.lock().expect(POISONED);
            // A stats poll is also a retention beat, so an idle server's
            // TTL takes effect without waiting for the next submission.
            self.shared.evict_terminal(&mut jobs);
            let live = jobs.values().fold(StatsSnapshot::default(), |acc, job| {
                acc.merged(job.cache.snapshot(&job.counter))
            });
            let retired = self.shared.retired.lock().expect(POISONED);
            (retired.cache.merged(live), retired.jobs)
        };
        let shared = &self.shared;
        ServerStats {
            queue_depth,
            queue_cap: shared.cfg.queue_cap,
            workers: shared.cfg.workers,
            busy_workers: shared.busy_workers.load(Ordering::Relaxed),
            worker_jobs: shared.worker_jobs.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
            worker_busy_ms: shared
                .worker_busy_ms
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            uptime_ms: shared.clock.now().duration_since(shared.started).as_millis() as u64,
            jobs_submitted: shared.jobs_submitted.load(Ordering::Relaxed),
            jobs_done: shared.jobs_done.load(Ordering::Relaxed),
            jobs_failed: shared.jobs_failed.load(Ordering::Relaxed),
            jobs_panicked: shared.jobs_panicked.load(Ordering::Relaxed),
            jobs_timed_out: shared.jobs_timed_out.load(Ordering::Relaxed),
            jobs_cancelled: shared.jobs_cancelled.load(Ordering::Relaxed),
            jobs_retired,
            cache,
        }
    }

    /// A cheap liveness probe: no retention beat, no cache folding — just
    /// queue depth, worker busyness, and uptime. This is what a load
    /// balancer or a cluster coordinator polls every heartbeat.
    pub fn healthz(&self) -> Healthz {
        let queue_depth = self.shared.queue.lock().expect(POISONED).len();
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let shared = &self.shared;
        Healthz {
            ok: !draining,
            draining,
            uptime_ms: shared.clock.now().duration_since(shared.started).as_millis() as u64,
            queue_depth,
            workers: shared.cfg.workers,
            busy_workers: shared.busy_workers.load(Ordering::Relaxed),
        }
    }

    /// Exports every live job's replicable state — id, lifecycle state,
    /// latest progress and latest slice-boundary checkpoint — sorted by
    /// id. One call per heartbeat is how a coordinator keeps its
    /// replicated checkpoint store fresh enough to resume this node's jobs
    /// elsewhere if it dies. No job's eval cache is read: a resumed job
    /// starts with an empty one.
    pub fn export_jobs(&self) -> Vec<JobExport> {
        let jobs = self.shared.jobs.lock().expect(POISONED);
        let mut out: Vec<JobExport> = jobs
            .iter()
            .map(|(&id, job)| JobExport {
                id: JobId(id),
                state: job.state.clone(),
                status: job.status,
                checkpoint: job.checkpoint.clone(),
            })
            .collect();
        out.sort_by_key(|e| e.id);
        out
    }

    /// Flags the engine to drain — the same signal Ctrl-C raises in
    /// `repro serve`. Workers stop at their next slice boundary; the
    /// engine's owner must still call [`ServeEngine::shutdown`] to join
    /// them.
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Blocks until the job reaches a terminal state or `timeout` elapses
    /// — the in-process counterpart of an HTTP poll loop. Sleeps on the
    /// engine's state condvar (woken at every job state/status
    /// transition) rather than busy-polling.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] on timeout; [`ServeError::UnknownJob`] /
    /// [`ServeError::JobEvicted`] for an unknown or evicted id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<StatusResponse, ServeError> {
        let deadline = self.shared.clock.now() + timeout;
        let mut jobs = self.shared.jobs.lock().expect(POISONED);
        loop {
            let job = jobs.get(&id.0).ok_or_else(|| self.shared.missing(id))?;
            if job.state.is_terminal() {
                return Ok(StatusResponse {
                    id,
                    state: job.state.clone(),
                    status: job.status,
                    warnings: job.warnings.clone(),
                });
            }
            let Some(remaining) = deadline.checked_duration_since(self.shared.clock.now()) else {
                return Err(ServeError::NotReady {
                    reason: format!("job still {} after {timeout:?}", job.state.label()),
                });
            };
            // Spurious wakeups and unrelated transitions loop back to the
            // state check; the deadline re-arms the wait each time.
            let (guard, _) = self.shared.state_cv.wait_timeout(jobs, remaining).expect(POISONED);
            jobs = guard;
        }
    }
}

// --------------------------------------------------------- the worker side

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let id = {
            let mut queue = shared.queue.lock().expect(POISONED);
            loop {
                // Checked before popping so a drain leaves queued jobs
                // queued (with their checkpoints) instead of starting them.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = shared.queue_cv.wait(queue).expect(POISONED);
            }
        };
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        let claimed_at = shared.clock.now();
        run_job(shared, id);
        let busy = shared.clock.now().duration_since(claimed_at);
        shared.worker_busy_ms[worker].fetch_add(busy.as_millis() as u64, Ordering::Relaxed);
        shared.worker_jobs[worker].fetch_add(1, Ordering::Relaxed);
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Claims the job, then advances it slice by slice until it finishes,
/// fails, times out, is cancelled, or the server drains.
fn run_job(shared: &Shared, id: u64) {
    let (spec, cancel, cache, counter, mut checkpoint) = {
        let mut jobs = shared.jobs.lock().expect(POISONED);
        let Some(job) = jobs.get_mut(&id) else { return };
        if !matches!(job.state, JobState::Queued) {
            // Cancelled between pop and claim.
            return;
        }
        job.state = JobState::Running;
        shared.state_cv.notify_all();
        (
            job.spec.clone(),
            Arc::clone(&job.cancel),
            job.cache.clone(),
            job.counter.clone(),
            job.checkpoint.clone(),
        )
    };

    let task = match spec.task.resolve() {
        Ok(task) => task,
        Err(e) => return fail(shared, id, format!("task does not resolve: {e}")),
    };
    let (method, budget) = spec.resolved_method();
    let mut opt = match method.build(&task) {
        Ok(opt) => opt,
        Err(e) => return fail(shared, id, format!("method does not build: {e}")),
    };
    // A resumed run takes its budget from the checkpoint's tracker, so
    // the override must reach it there too.
    if let (Some(max_evals), Some(ckpt)) = (spec.max_evals, checkpoint.as_mut()) {
        ckpt.tracker.max_evals = max_evals;
    }
    let driver = Driver::new(budget)
        .with_shared_cache(cache.clone())
        .with_counter(counter.clone())
        .with_clock(shared.clock.clone());
    let slice = spec.slice_evals.unwrap_or(shared.cfg.slice_evals).max(1);
    // Wall clock spent on this job: what earlier servers/workers banked in
    // the checkpoint, plus a real `Instant` spanning this worker's slices.
    // Reading the *last checkpoint's* elapsed_ms instead (as this loop once
    // did) is wrong twice over: it stays 0 until the first slice
    // checkpoints — so a job whose first slice alone blows the budget is
    // never timed out at that boundary — and per-slice truncation to whole
    // milliseconds lets many fast slices accumulate no time at all.
    let base_elapsed_ms = checkpoint.as_ref().map_or(0, |c| c.elapsed_ms);
    let claimed = shared.clock.now();

    loop {
        // All preemption is observed here, at a quiescent point between
        // slices; the driver itself is never interrupted mid-evaluation.
        if cancel.load(Ordering::SeqCst) {
            let resumable = checkpoint.is_some();
            finish(shared, id, JobState::Cancelled { resumable }, None);
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            requeue(shared, id);
            return;
        }
        if let Some(limit) = spec.timeout_ms {
            let running = shared.clock.now().duration_since(claimed);
            let spent = base_elapsed_ms + running.as_millis() as u64;
            if spent >= limit {
                // A timeout is not a failure: the latest slice-boundary
                // checkpoint stays behind, resumable like a cancellation.
                let resumable = checkpoint.is_some();
                finish(shared, id, JobState::TimedOut { resumable }, None);
                return;
            }
        }
        // The slice is the only code here that runs user-configurable
        // optimizer logic, so it is the panic boundary: a panicking slice
        // must fail *its* job, not take down the worker thread (a dead
        // worker strands every queued job behind it). No engine lock is
        // held across the slice, so nothing can be poisoned by the unwind.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(FaultAction::Fail { what }) = breaksym_testkit::fault::hit(FAIL_SLICE) {
                return Err(PlaceError::BadConfig {
                    reason: format!("injected slice failure: {what}"),
                });
            }
            match &checkpoint {
                None => driver.run_slice(&task, opt.as_mut(), slice),
                Some(ckpt) => driver.resume_slice(&task, opt.as_mut(), ckpt, slice),
            }
        }));
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                // Terminal Failed, checkpoint retained (set_terminal never
                // clears it): the client sees the failure and can still
                // fetch the last good checkpoint.
                shared.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                return fail(
                    shared,
                    id,
                    format!("optimizer panicked mid-slice: {}", panic_message(&*payload)),
                );
            }
        };
        match outcome {
            Err(e) => return fail(shared, id, e.to_string()),
            Ok(SliceOutcome::Finished(report)) => {
                let status = RunStatus {
                    evals: report.evaluations,
                    best_cost: report.best_cost,
                    elapsed_ms: report.elapsed_ms,
                    cache: cache.snapshot(&counter),
                };
                finish(shared, id, JobState::Done, Some((report, status)));
                return;
            }
            Ok(SliceOutcome::Paused(ckpt)) => {
                let status = RunStatus {
                    evals: ckpt.evals,
                    best_cost: ckpt.tracker.best_cost,
                    elapsed_ms: ckpt.elapsed_ms,
                    cache: cache.snapshot(&counter),
                };
                {
                    let mut jobs = shared.jobs.lock().expect(POISONED);
                    if let Some(job) = jobs.get_mut(&id) {
                        job.status = Some(status);
                        job.checkpoint = Some(ckpt.clone());
                    }
                    shared.state_cv.notify_all();
                }
                checkpoint = Some(ckpt);
            }
        }
    }
}

/// Best-effort human-readable panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Ends a running job in the given terminal state (worker side).
fn finish(
    shared: &Shared,
    id: u64,
    state: JobState,
    completion: Option<(Box<RunReport>, RunStatus)>,
) {
    shared.set_terminal(&mut shared.jobs.lock().expect(POISONED), id, state, completion);
}

fn fail(shared: &Shared, id: u64, error: String) {
    finish(shared, id, JobState::Failed { error }, None);
}

/// Drain path: the job goes back to the queue *front* (it already made
/// progress) in [`JobState::Queued`], its checkpoint already persisted at
/// the last slice boundary.
fn requeue(shared: &Shared, id: u64) {
    {
        let mut jobs = shared.jobs.lock().expect(POISONED);
        if let Some(job) = jobs.get_mut(&id) {
            job.state = JobState::Queued;
        }
        shared.state_cv.notify_all();
    }
    shared.queue.lock().expect(POISONED).push_front(id);
}
