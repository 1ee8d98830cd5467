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
//! # One lock
//!
//! Everything the engine's threads share — the queue, the job table, the
//! drain flag, the id counter, the retired accumulator and the `/stats`
//! counters — is one registry behind one mutex. A job transition and the
//! counter it moves change in one critical section, and every flag a
//! thread parks on is set under that mutex, so no wake-up is lost between
//! a check and the wait. Workers park on one condvar for a queued job or
//! a drain; [`ServeHandle::wait`] parks on another, notified at every job
//! transition and eviction. No slice runs under the lock.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use breaksym_core::{Driver, PlaceError, PlacementTask, RunCheckpoint, RunReport, SliceOutcome};
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
/// `catch_unwind` and runs outside the lock, so an optimizer panic cannot
/// poison it — only a panic inside the engine's own bookkeeping can.
const POISONED: &str = "serve: a worker panicked while holding the engine lock";

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
/// job-local. The cache goes when the job settles, its final snapshot
/// kept in `settled`; `/stats` sums the per-job snapshots.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    /// The task, resolved once at submission, that the worker runs;
    /// dropped when the job settles.
    task: Option<Arc<PlacementTask>>,
    state: JobState,
    status: Option<RunStatus>,
    /// Netlist health warnings captured when the submission resolved,
    /// echoed verbatim in every [`StatusResponse`] for the job.
    warnings: Vec<String>,
    report: Option<Box<RunReport>>,
    checkpoint: Option<Box<RunCheckpoint>>,
    /// Set by a cancel while the job runs; its worker reads it at the next
    /// slice boundary.
    cancel: bool,
    cache: Option<EvalCache>,
    counter: SimCounter,
    settled: StatsSnapshot,
    /// When the job reached a terminal state — the retention clock.
    terminal_at: Option<Instant>,
}

impl JobRecord {
    fn new(mut spec: JobSpec, task: PlacementTask, warnings: Vec<String>) -> Self {
        // A spec that carries a checkpoint (a coordinator moving a dead
        // node's job here) starts from it: the worker's slice loop resumes
        // from `JobRecord::checkpoint` whenever one is present. Moved out
        // of the spec, so the job holds it once.
        let checkpoint = spec.checkpoint.take();
        JobRecord {
            spec,
            task: Some(Arc::new(task)),
            state: JobState::Queued,
            status: None,
            warnings,
            report: None,
            checkpoint,
            cancel: false,
            cache: Some(EvalCache::default()),
            counter: SimCounter::new(),
            settled: StatsSnapshot::default(),
            terminal_at: None,
        }
    }

    /// The job's cache accounting: live until it settles, folded after.
    fn cache_stats(&self) -> StatsSnapshot {
        self.cache.as_ref().map_or(self.settled, |cache| cache.snapshot(&self.counter))
    }

    fn response(&self, id: JobId) -> StatusResponse {
        StatusResponse {
            id,
            state: self.state.clone(),
            status: self.status,
            warnings: self.warnings.clone(),
        }
    }
}

/// All the engine's shared state, behind its one mutex (see the module
/// docs).
#[derive(Debug)]
struct Registry {
    jobs: HashMap<u64, JobRecord>,
    /// FIFO of exactly the [`JobState::Queued`] jobs; a job a drain
    /// requeues goes back at the front.
    queue: VecDeque<u64>,
    draining: bool,
    /// The last id assigned; ids are dense from 1.
    next_id: u64,
    /// The `/stats` counters in their wire shape. `cache` is the retired
    /// accumulator: the statistics of evicted jobs, so totals stay exact
    /// however many records the retention policy drops. `queue_depth` and
    /// `uptime_ms` are filled in when [`ServeHandle::stats`] reads it.
    stats: ServerStats,
}

impl Registry {
    /// The job `id`, or the error for an id absent from the table.
    fn job(&self, id: JobId) -> Result<&JobRecord, ServeError> {
        self.jobs.get(&id.0).ok_or_else(|| self.missing(id))
    }

    /// The error for an id absent from the table: ids this server
    /// assigned were evicted; anything else was never known.
    fn missing(&self, id: JobId) -> ServeError {
        if (1..=self.next_id).contains(&id.0) {
            ServeError::JobEvicted { id }
        } else {
            ServeError::UnknownJob { id }
        }
    }
}

#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    /// Time source for timeouts, TTLs, uptime, and wait deadlines. The
    /// real clock in production; a `TestClock` in deterministic tests.
    clock: SharedClock,
    started: Instant,
    registry: Mutex<Registry>,
    /// Workers park here for a queued job or a drain.
    work: Condvar,
    /// Notified on every job transition and eviction;
    /// [`ServeHandle::wait`] parks here instead of busy-polling.
    settled: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect(POISONED)
    }

    /// Evicts terminal jobs the retention policy no longer keeps: every
    /// one past its TTL, plus the oldest beyond the max-retained cap.
    /// Each evicted job's statistics are folded into the retired
    /// accumulator first, so server-wide totals never regress.
    fn evict_terminal(&self, reg: &mut Registry) {
        let now = self.clock.now();
        let mut terminal: Vec<(u64, Instant)> = reg
            .jobs
            .iter()
            .filter_map(|(&id, job)| job.terminal_at.map(|at| (id, at)))
            .collect();
        // Ties (jobs ending at one instant of a frozen test clock) go by id,
        // so the map's hash order never picks the evicted job.
        terminal.sort_by_key(|&(id, at)| (at, id));
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
        for id in doomed {
            if let Some(job) = reg.jobs.remove(&id) {
                reg.stats.cache = reg.stats.cache.merged(job.cache_stats());
                reg.stats.jobs_retired += 1;
            }
        }
        // Waiters on an evicted id must wake to observe JobEvicted.
        self.settled.notify_all();
    }

    /// The one writer of job state: the claim (→ `Running`), a drain's
    /// requeue (→ `Queued`, at the queue front) and every terminal state.
    /// It keeps the queue holding exactly the queued jobs, counts a
    /// terminal outcome in its `/stats` counter, stamps the retention
    /// clock (folding the cache's accounting, then dropping it and the
    /// resolved task), and wakes waiters, all in the caller's critical
    /// section, so a waiter that sees a state also sees it counted. Nothing
    /// is evicted here: the next submission or `stats()` beat applies the
    /// retention policy, so the waiters read the state first. The latest checkpoint
    /// is deliberately retained for cancelled, timed-out and failed jobs —
    /// that is what makes them resumable. A done job's is dropped: its
    /// report supersedes it, and nothing resumes a finished run.
    fn transition(
        &self,
        reg: &mut Registry,
        id: u64,
        state: JobState,
        completion: Option<(Box<RunReport>, RunStatus)>,
    ) {
        let Some(job) = reg.jobs.get_mut(&id) else {
            return;
        };
        if job.state == JobState::Queued {
            if let Some(at) = reg.queue.iter().position(|&queued| queued == id) {
                reg.queue.remove(at);
            }
        }
        match state {
            JobState::Queued => reg.queue.push_front(id),
            JobState::Running => {}
            JobState::Done => {
                reg.stats.jobs_done += 1;
                job.checkpoint = None;
            }
            JobState::Failed { .. } => reg.stats.jobs_failed += 1,
            JobState::TimedOut { .. } => reg.stats.jobs_timed_out += 1,
            JobState::Cancelled { .. } => reg.stats.jobs_cancelled += 1,
        }
        if state.is_terminal() {
            job.terminal_at = Some(self.clock.now());
            job.settled = job.cache_stats();
            (job.task, job.cache) = (None, None);
        }
        if let Some((report, status)) = completion {
            job.report = Some(report);
            job.status = Some(status);
        }
        job.state = state;
        self.settled.notify_all();
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
    /// advancing the test clock wakes the engine's waiters (via the
    /// clock's waker hook) so they re-evaluate their deadlines
    /// immediately.
    pub fn start_with_clock(cfg: ServeConfig, clock: SharedClock) -> Self {
        let workers = cfg.workers.max(1);
        let stats = ServerStats {
            queue_cap: cfg.queue_cap,
            workers,
            worker_jobs: vec![0; workers],
            worker_busy_ms: vec![0; workers],
            ..ServerStats::default()
        };
        let shared = Arc::new(Shared {
            cfg: ServeConfig { workers, ..cfg },
            started: clock.now(),
            clock,
            registry: Mutex::new(Registry {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                draining: false,
                next_id: 0,
                stats,
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
        });
        // Advancing a test clock must wake every deadline-blocked waiter so
        // it re-reads virtual time. Notified under the lock, so a waiter
        // that checked its deadline but has not parked yet cannot miss it.
        // The weak reference keeps a forgotten clock from leaking a dead
        // engine.
        let weak = Arc::downgrade(&shared);
        shared.clock.register_waker(Arc::new(move || {
            if let Some(shared) = weak.upgrade() {
                let _reg = shared.lock();
                shared.settled.notify_all();
            }
        }));
        let workers = (0..workers)
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
        let handle = self.handle();
        handle.request_drain();
        for worker in self.workers {
            let _ = worker.join();
        }
        handle
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
        let (task, warnings) = spec.task.resolve_with_warnings()?;
        let mut reg = self.shared.lock();
        if reg.draining {
            return Err(ServeError::ShuttingDown);
        }
        if reg.queue.len() >= self.shared.cfg.queue_cap {
            return Err(ServeError::QueueFull { capacity: self.shared.cfg.queue_cap });
        }
        reg.next_id += 1;
        let id = reg.next_id;
        reg.jobs.insert(id, JobRecord::new(spec, task, warnings));
        // Submission is the natural beat of a busy server — enforce
        // retention here so the registry never outgrows the policy.
        self.shared.evict_terminal(&mut reg);
        reg.queue.push_back(id);
        reg.stats.jobs_submitted += 1;
        self.shared.work.notify_one();
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
        Ok(self.shared.lock().job(id)?.response(id))
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
        let reg = self.shared.lock();
        let job = reg.job(id)?;
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
        Ok(self.shared.lock().job(id)?.checkpoint.as_deref().cloned())
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
        let mut reg = self.shared.lock();
        let missing = reg.missing(id);
        let job = reg.jobs.get_mut(&id.0).ok_or(missing)?;
        let mut response = job.response(id);
        match job.state {
            JobState::Queued => {
                response.state = JobState::Cancelled { resumable: job.checkpoint.is_some() };
                self.shared.transition(&mut reg, id.0, response.state.clone(), None);
            }
            JobState::Running => job.cancel = true,
            _ => {}
        }
        Ok(response)
    }

    /// A point-in-time snapshot of the whole server: queue depth,
    /// per-worker utilization, and the summed per-job cache/simulation
    /// accounting.
    pub fn stats(&self) -> ServerStats {
        let mut reg = self.shared.lock();
        // A stats poll is also a retention beat, so an idle server's TTL
        // takes effect without waiting for the next submission.
        self.shared.evict_terminal(&mut reg);
        let live = reg.jobs.values().map(JobRecord::cache_stats);
        ServerStats {
            queue_depth: reg.queue.len(),
            uptime_ms: self.uptime_ms(),
            cache: live.fold(reg.stats.cache, StatsSnapshot::merged),
            ..reg.stats.clone()
        }
    }

    /// A cheap liveness probe: no retention beat, no cache folding — just
    /// queue depth, worker busyness, and uptime. This is what a load
    /// balancer or a cluster coordinator polls every heartbeat.
    pub fn healthz(&self) -> Healthz {
        let reg = self.shared.lock();
        Healthz {
            ok: !reg.draining,
            draining: reg.draining,
            uptime_ms: self.uptime_ms(),
            queue_depth: reg.queue.len(),
            workers: self.shared.cfg.workers,
            busy_workers: reg.stats.busy_workers,
        }
    }

    fn uptime_ms(&self) -> u64 {
        self.shared.clock.now().duration_since(self.shared.started).as_millis() as u64
    }

    /// Exports every live job's replicable state — id, lifecycle state,
    /// latest progress and latest slice-boundary checkpoint — sorted by
    /// id. One call per heartbeat is how a coordinator keeps its
    /// replicated checkpoint store fresh enough to resume this node's jobs
    /// elsewhere if it dies. No job's eval cache is read: a resumed job
    /// starts with an empty one.
    pub fn export_jobs(&self) -> Vec<JobExport> {
        let reg = self.shared.lock();
        let mut out: Vec<JobExport> = reg
            .jobs
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
        let mut reg = self.shared.lock();
        reg.draining = true;
        self.shared.work.notify_all();
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.lock().draining
    }

    /// Blocks until the job reaches a terminal state or `timeout` elapses
    /// — the in-process counterpart of an HTTP poll loop. Sleeps on the
    /// engine's condvar woken at every job transition rather than
    /// busy-polling.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] on timeout; [`ServeError::UnknownJob`] /
    /// [`ServeError::JobEvicted`] for an unknown or evicted id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<StatusResponse, ServeError> {
        let deadline = self.shared.clock.now() + timeout;
        let mut reg = self.shared.lock();
        loop {
            let job = reg.job(id)?;
            if job.state.is_terminal() {
                return Ok(job.response(id));
            }
            let Some(remaining) = deadline.checked_duration_since(self.shared.clock.now()) else {
                return Err(ServeError::NotReady {
                    reason: format!("job still {} after {timeout:?}", job.state.label()),
                });
            };
            // Spurious wakeups and unrelated transitions loop back to the
            // state check; the deadline re-arms the wait each time.
            reg = self.shared.settled.wait_timeout(reg, remaining).expect(POISONED).0;
        }
    }
}

// --------------------------------------------------------- the worker side

fn worker_loop(shared: &Shared, worker: usize) {
    let mut reg = shared.lock();
    loop {
        // Checked before claiming so a drain leaves queued jobs queued
        // (with their checkpoints) instead of starting them.
        if reg.draining {
            return;
        }
        let Some(&id) = reg.queue.front() else {
            reg = shared.work.wait(reg).expect(POISONED);
            continue;
        };
        reg.stats.busy_workers += 1;
        let claimed_at = shared.clock.now();
        reg = run_job(shared, reg, id);
        // Counted in the critical section of the job's last transition.
        let busy = shared.clock.now().duration_since(claimed_at);
        reg.stats.busy_workers -= 1;
        reg.stats.worker_jobs[worker] += 1;
        reg.stats.worker_busy_ms[worker] += busy.as_millis() as u64;
    }
}

/// Claims the job at the queue front, then advances it slice by slice
/// until it finishes, fails, times out, is cancelled, or the server
/// drains. Takes the worker's registry guard and hands it back holding
/// the job's last transition. The lock is released only while the
/// optimiser builds and while a slice runs, so each slice-boundary
/// decision is made and carried out in one critical section.
fn run_job<'a>(
    shared: &'a Shared,
    mut reg: MutexGuard<'a, Registry>,
    id: u64,
) -> MutexGuard<'a, Registry> {
    shared.transition(&mut reg, id, JobState::Running, None);
    let job = &reg.jobs[&id];
    let (task, cache, counter) = (job.task.clone(), job.cache.clone(), job.counter.clone());
    let (task, cache) = task.zip(cache).expect("only an unsettled job is claimed");
    let (spec, mut checkpoint) = (job.spec.clone(), job.checkpoint.clone());
    drop(reg);
    let end = |mut reg: MutexGuard<'a, Registry>, state, completion| {
        shared.transition(&mut reg, id, state, completion);
        reg
    };
    let failed = |error: String| JobState::Failed { error };

    let (method, budget) = spec.resolved_method();
    let mut opt = match method.build(&task) {
        Ok(opt) => opt,
        Err(e) => return end(shared.lock(), failed(format!("method does not build: {e}")), None),
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

    let mut reg = shared.lock();
    loop {
        // All preemption is observed here, at a quiescent point between
        // slices; the driver itself is never interrupted mid-evaluation.
        let resumable = checkpoint.is_some();
        if reg.jobs[&id].cancel {
            return end(reg, JobState::Cancelled { resumable }, None);
        }
        if reg.draining {
            return end(reg, JobState::Queued, None);
        }
        if let Some(limit) = spec.timeout_ms {
            let running = shared.clock.now().duration_since(claimed);
            let spent = base_elapsed_ms + running.as_millis() as u64;
            if spent >= limit {
                // A timeout is not a failure: the latest slice-boundary
                // checkpoint stays behind, resumable like a cancellation.
                return end(reg, JobState::TimedOut { resumable }, None);
            }
        }
        drop(reg);
        // The slice is the only code here that runs user-configurable
        // optimizer logic, so it is the panic boundary: a panicking slice
        // must fail *its* job, not take down the worker thread (a dead
        // worker strands every queued job behind it). The engine lock is
        // not held across the slice, so nothing can be poisoned by the
        // unwind.
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
        reg = shared.lock();
        match outcome {
            Err(payload) => {
                // Terminal Failed, checkpoint retained (only Done clears
                // it): the client sees the failure and can still fetch the
                // last good checkpoint.
                reg.stats.jobs_panicked += 1;
                let error = format!("optimizer panicked mid-slice: {}", panic_message(&*payload));
                return end(reg, failed(error), None);
            }
            Ok(Err(e)) => return end(reg, failed(e.to_string()), None),
            Ok(Ok(SliceOutcome::Finished(report))) => {
                let status = RunStatus {
                    evals: report.evaluations,
                    best_cost: report.best_cost,
                    elapsed_ms: report.elapsed_ms,
                    cache: cache.snapshot(&counter),
                };
                return end(reg, JobState::Done, Some((report, status)));
            }
            Ok(Ok(SliceOutcome::Paused(ckpt))) => {
                if let Some(job) = reg.jobs.get_mut(&id) {
                    job.status = Some(RunStatus {
                        evals: ckpt.tracker.evals,
                        best_cost: ckpt.tracker.best_cost,
                        elapsed_ms: ckpt.elapsed_ms,
                        cache: cache.snapshot(&counter),
                    });
                    job.checkpoint = Some(ckpt.clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TaskSpec;
    use breaksym_core::{MethodSpec, MlmaConfig};

    /// A settled job keeps its cache accounting, not its cache, and
    /// `/stats` reads the same whether retention has dropped the record
    /// or not.
    #[test]
    fn a_settled_job_holds_no_cache() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            slice_evals: 25,
            retain_max: 1,
            ..ServeConfig::default()
        });
        let handle = engine.handle();
        let cfg = MlmaConfig {
            episodes: 4,
            steps_per_episode: 10,
            max_evals: 120,
            seed: 9,
            ..MlmaConfig::default()
        };
        let spec = JobSpec::new(TaskSpec::benchmark("cm", 7), MethodSpec::Mlma(cfg));
        let first = handle.submit(spec.clone()).unwrap();
        assert_eq!(handle.wait(first, Duration::from_secs(120)).unwrap().state, JobState::Done);
        let one = handle.stats();
        assert!(one.cache.entries > 0 && one.cache.sims > 0, "{one:?}");
        assert!(
            engine.shared.lock().jobs[&first.0].cache.is_none(),
            "the cache outlived its job"
        );

        // The same job again: settling it puts the first past the cap, so
        // the next stats beat retires that one.
        let second = handle.submit(spec).unwrap();
        assert_eq!(handle.wait(second, Duration::from_secs(120)).unwrap().state, JobState::Done);
        let two = handle.stats();
        assert_eq!(two.jobs_retired, 1);
        assert_eq!(two.cache, one.cache.merged(one.cache));
        engine.shutdown();
    }
}
