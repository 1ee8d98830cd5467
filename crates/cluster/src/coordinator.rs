//! The coordinator: routes jobs across N `breaksym-serve` nodes,
//! replicates their checkpoints, detects node death by heartbeat, and
//! resumes a dead node's jobs on survivors — bit-identically, because
//! resume rides the driver's proven checkpoint path.
//!
//! # Routing
//!
//! Every accepted job gets a cluster-wide id and is routed by consistent
//! hashing on that id ([`HashRing`]): deterministic, stable across
//! coordinator restarts, and with a fixed per-key fallback order when
//! nodes are down. Backpressure is each node's own: its bounded queue
//! answers 429 (or 503 while draining), and when that node is the
//! ring's first choice the answer is propagated to the client verbatim,
//! so the end-to-end semantics are exactly the single-node ones.
//! Transport errors (a node that cannot be reached at all) walk the
//! fallback order instead — every such detour is counted in
//! [`ClusterStats::reroutes`].
//!
//! # Replication, failure, and rejoin
//!
//! A heartbeat thread probes each node's `/healthz` every
//! [`ClusterConfig::heartbeat_interval`] (measured on the injected
//! [`Clock`](breaksym_testkit::Clock), so tests drive it virtually) and,
//! on each healthy beat, pulls the node's bulk `/checkpoints` export into
//! the coordinator's in-memory replicas; a job the export shows done has
//! its final report copied too, once, so a report outlives the node it
//! finished on. A job resumes from its replica, else from the checkpoint
//! it was submitted with, else from scratch. A node that misses
//! [`ClusterConfig::failure_threshold`] consecutive probes is declared
//! dead — exactly once — and every non-terminal job mapped to it is
//! resubmitted to the ring's next surviving node with that resume point
//! attached; the receiving node resumes from it through the same code
//! path a drain-requeue uses. Forward failures deliberately do *not*
//! count toward node death: only the heartbeat kills, which keeps death
//! decisions on one thread and the whole coordinator's behaviour a
//! deterministic function of its inputs.
//!
//! Dead nodes keep being probed. One that answers
//! [`ClusterConfig::failure_threshold`] consecutive probes (hysteresis —
//! a flapping node must re-earn its place) is revived. Before it is
//! marked alive, every unfinished copy it still runs that no job maps to
//! any more is cancelled: a node declared dead may have kept running the
//! jobs that moved off it. Then every unfinished job whose *home* ring
//! position is the revived node moves back exactly as a death-resume
//! moves a job, and once that move is committed the copy left on the
//! survivor gets one fire-and-forget cancel. A move home is offered to
//! the home node only; if it does not take the job, the job stays where
//! it is. The home node repeats what the survivor ran since the last
//! replicated checkpoint (about one heartbeat of progress); resume is
//! bit-identical, so the report is the same. Every move counts as one
//! resume and `1 + detours` reroutes, so the `reroutes == detours +
//! resumes` accounting identity survives rejoin.
//!
//! # Durability
//!
//! Durable state is the coordinator's decisions — the job table, the
//! dead-node set and the node-event counters — in one [`CoordState`];
//! the job counters and the next id are folded from the table. It
//! changes in exactly one way: a decision (submit, state change, report
//! adoption, move, cancel request, node death or revival) builds one
//! [`WalRecord`], appends it to the write-ahead log when the coordinator
//! was started durable ([`Coordinator::start_durable`]), and then applies
//! it with [`CoordState::apply`] — the function recovery replays the log
//! through. A live coordinator and one recovered from its log therefore
//! agree by construction. Observations a live fleet repeats are not
//! logged: a job's progress under an unchanged state, from a heartbeat
//! or a client poll alike, stays in memory beside its replica until the
//! next state change commits it, so the log grows by state changes only.
//! A restart over the same state directory replays the log, presumes
//! every node alive, and re-adopts the fleet — probing every node once,
//! adopting live exports (which refills the replicas and the progress),
//! resuming orphans, declaring the unreachable dead — before accepting
//! traffic. See the [`wal`](crate::wal) module docs for the format. Only
//! ephemeral state lives beside `CoordState`: the replicas and progress,
//! liveness and probe counters, the id reservation counter, the `/stats`
//! fallback snapshots and the heartbeat's stop flag.
//!
//! # One lock
//!
//! All of the coordinator's state — the `CoordState`, the WAL and the
//! ephemeral state — is behind one mutex (`inner`), so the log's record
//! order is the apply order. The heartbeat thread parks on one condvar
//! paired with it, and [`ClusterHandle::wait`] on another, notified on
//! every committed record. Each node client has a mutex of its own, held
//! for one RPC, and no RPC runs under `inner`, so an RPC stall never
//! serialises the control plane.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use breaksym_core::{RunCheckpoint, RunReport};
use breaksym_serve::protocol::{
    JobExport, JobId, JobSpec, JobState, RunStatus, ServeError, ServerStats, StatusResponse,
    SubmitResponse,
};
use breaksym_serve::JobApi;
use breaksym_testkit::{fault, real_clock, FaultAction, SharedClock};
use serde::de::DeserializeOwned;

use crate::client::NodeClient;
use crate::protocol::{fold_stats, ClusterHealthz, ClusterStats, JobInspect, NodeReport};
use crate::ring::{HashRing, VNODES};
use crate::wal::{CoordState, PersistedJob, WalRecord, WalStore};

/// Failpoint hit once per forward attempt (submit, death-resume and move
/// home alike), before the RPC goes out. `Fail` and `Drop` actions
/// simulate a transport failure to that node, sending the forward down
/// the ring's fallback order — or, for a move home, skipping the move.
pub const FAIL_FORWARD: &str = "cluster::forward";

/// Failpoint hit exactly once per node per heartbeat — alive or dead, so
/// the hit cadence is always `nodes` per beat and triggers can target a
/// node by index arithmetic. `Fail` and `Drop` actions count as a missed
/// heartbeat (for a dead node: a failed revival probe).
pub const FAIL_HEARTBEAT: &str = "cluster::heartbeat";

/// Failpoint hit once per node per healthy heartbeat, before the
/// `/checkpoints` replication pull. `Fail` and `Drop` actions skip the
/// pull for this beat (stale replicas, not missed heartbeats).
pub const FAIL_REPLICATE: &str = "cluster::replicate";

/// Failpoint hit once per rebalance candidate, before its move home.
/// `Fail` and `Drop` actions skip the move — the job simply finishes on
/// its survivor, which is always safe.
pub const FAIL_REBALANCE: &str = "cluster::rebalance";

/// Failpoint hit once per node per [`ClusterHandle::stats`] call, before
/// the per-node `/stats` fetch. `Fail` and `Drop` actions simulate the
/// fetch failing — the fold falls back to the node's last-known
/// snapshot.
pub const FAIL_STATS: &str = "cluster::stats";

const POISONED: &str = "cluster: a thread panicked while holding a coordinator lock";

/// Tuning of one coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Time between heartbeats, on the injected clock.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeats before a node is declared dead, and
    /// consecutive healthy probes before a dead node is revived.
    pub failure_threshold: u32,
    /// Socket timeout for every coordinator→node RPC.
    pub rpc_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(1000),
            failure_threshold: 3,
            rpc_timeout: Duration::from_secs(5),
        }
    }
}

/// The mutable registry behind the `inner` lock.
#[derive(Debug)]
struct Inner {
    /// Durable job table and counters, changed only through [`commit`].
    /// Jobs are in ascending id order, so every iteration — replication
    /// matching, death-resume order, exports — is deterministic.
    state: CoordState,
    /// The freshest checkpoint replicated per unreported job.
    replicas: HashMap<u64, Box<RunCheckpoint>>,
    /// Progress observed since the job's last state change, per unsettled
    /// job; the next state change commits it.
    progress: HashMap<u64, RunStatus>,
    alive: Vec<bool>,
    /// Consecutive missed heartbeats per node.
    misses: Vec<u32>,
    /// Consecutive healthy probes per *dead* node — the revival
    /// hysteresis counter.
    revive_hits: Vec<u32>,
    /// Last id `submit` reserved. A reserved id enters `state` only once
    /// its forward succeeds.
    next_id: u64,
    /// The write-ahead log, when started durable; only [`commit`] writes
    /// it.
    wal: Option<WalStore>,
    /// Last successful per-node `/stats` snapshot — what the fold falls
    /// back to when a node is dead or a fetch races its death.
    last_stats: Vec<Option<ServerStats>>,
    /// Tells the heartbeat thread to exit.
    stop: bool,
}

impl Inner {
    /// Whether `node` is alive. An index this fleet does not have (a job
    /// recovered from a larger, older fleet) counts as dead.
    fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    fn job(&self, id: JobId) -> Result<&PersistedJob, ServeError> {
        self.state.job(id.0).ok_or(ServeError::UnknownJob { id })
    }

    /// The job's freshest progress: observed since its last state change,
    /// else as of that change.
    fn progress(&self, job: &PersistedJob) -> Option<RunStatus> {
        self.progress.get(&job.id).copied().or(job.status)
    }

    /// The coordinator's settled view of a job.
    fn response(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        let job = self.job(id)?;
        let (state, status) = (job.state.clone(), self.progress(job));
        Ok(StatusResponse { id, state, status, warnings: Vec::new() })
    }

    /// Where the job resumes: its replica, else its submitted checkpoint.
    fn resume_point(&self, id: u64) -> Option<&RunCheckpoint> {
        let submitted = || self.state.job(id)?.spec.checkpoint.as_deref();
        self.replicas.get(&id).map(Box::as_ref).or_else(submitted)
    }
}

#[derive(Debug)]
struct CoordShared {
    cfg: ClusterConfig,
    clock: SharedClock,
    ring: HashRing,
    addrs: Vec<String>,
    clients: Vec<Mutex<NodeClient>>,
    inner: Mutex<Inner>,
    /// Notified on every committed record; pairs with `inner`.
    state_cv: Condvar,
    /// The heartbeat thread parks here between beats; pairs with `inner`.
    beat_cv: Condvar,
    draining: AtomicBool,
    started: Instant,
}

/// A running coordinator: owns the heartbeat thread. Talk to it through
/// [`Coordinator::handle`]; stop it with [`Coordinator::shutdown`] (the
/// nodes it fronts are never touched).
#[derive(Debug)]
pub struct Coordinator {
    shared: Arc<CoordShared>,
    beat: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Starts a coordinator over `addrs` on the real clock.
    pub fn start(addrs: Vec<String>, cfg: ClusterConfig) -> Self {
        Self::start_with_clock(addrs, cfg, real_clock())
    }

    /// As [`Coordinator::start`] with an explicit time source: every
    /// heartbeat and timeout decision reads this clock, so a
    /// [`TestClock`](breaksym_testkit::TestClock) drives failure
    /// detection deterministically.
    pub fn start_with_clock(addrs: Vec<String>, cfg: ClusterConfig, clock: SharedClock) -> Self {
        Self::build(addrs, cfg, clock, None, None)
    }

    /// Starts a *durable* coordinator: state is write-ahead logged to
    /// `state_dir`, and if the directory already holds state (a previous
    /// coordinator ran here — cleanly shut down or SIGKILLed), the fleet
    /// is re-adopted before this call returns: the job table is
    /// recovered, every node is probed once, live exports are adopted,
    /// orphaned jobs are resumed from their resume points, and
    /// unreachable nodes are declared dead with their jobs moved to
    /// survivors.
    ///
    /// # Errors
    ///
    /// I/O failures opening the state directory or reading a corrupt
    /// snapshot — a coordinator asked to be durable must not start
    /// half-durable.
    pub fn start_durable(
        addrs: Vec<String>,
        cfg: ClusterConfig,
        state_dir: impl Into<PathBuf>,
    ) -> io::Result<Self> {
        Self::start_durable_with_clock(addrs, cfg, state_dir, real_clock())
    }

    /// As [`Coordinator::start_durable`] with an explicit time source.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::start_durable`].
    pub fn start_durable_with_clock(
        addrs: Vec<String>,
        cfg: ClusterConfig,
        state_dir: impl Into<PathBuf>,
        clock: SharedClock,
    ) -> io::Result<Self> {
        let mut wal = WalStore::open(state_dir)?;
        let recovered = wal.load()?;
        // Compact immediately: recovery already paid for the replay;
        // starting from a fresh snapshot bounds the next one.
        if let Some(state) = &recovered {
            wal.compact(state)?;
        }
        Ok(Self::build(addrs, cfg, clock, Some(wal), recovered))
    }

    fn build(
        addrs: Vec<String>,
        cfg: ClusterConfig,
        clock: SharedClock,
        wal: Option<WalStore>,
        recovered: Option<CoordState>,
    ) -> Self {
        let nodes = addrs.len();
        let started = clock.now();
        let adopted = recovered.is_some();
        let state = recovered.unwrap_or_default();
        let shared = Arc::new(CoordShared {
            ring: HashRing::new(nodes, VNODES),
            clients: addrs
                .iter()
                .map(|addr| Mutex::new(NodeClient::new(addr.clone(), cfg.rpc_timeout)))
                .collect(),
            addrs,
            cfg,
            clock,
            inner: Mutex::new(Inner {
                next_id: state.last_id(),
                state,
                replicas: HashMap::new(),
                progress: HashMap::new(),
                alive: vec![true; nodes],
                misses: vec![0; nodes],
                revive_hits: vec![0; nodes],
                wal,
                last_stats: vec![None; nodes],
                stop: false,
            }),
            state_cv: Condvar::new(),
            beat_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            started,
        });
        // A test-clock advance must wake the heartbeat thread and every
        // wait() deadline so they re-read virtual time. Notified under the
        // lock, so a checker that has not parked yet cannot miss it.
        let weak = Arc::downgrade(&shared);
        shared.clock.register_waker(Arc::new(move || {
            if let Some(shared) = weak.upgrade() {
                let _inner = shared.inner.lock().expect(POISONED);
                shared.beat_cv.notify_all();
                shared.state_cv.notify_all();
            }
        }));
        // Re-adopt the fleet before the heartbeat thread exists and
        // before the caller can submit: reconciliation is synchronous
        // and single-threaded.
        if adopted {
            reconcile(&shared);
        }
        let beat = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("breaksym-cluster-heartbeat".into())
                .spawn(move || heartbeat_loop(&shared))
                .expect("heartbeat thread spawns")
        };
        Coordinator { shared, beat: Some(beat) }
    }

    /// A clonable client of this coordinator.
    pub fn handle(&self) -> ClusterHandle {
        ClusterHandle { shared: Arc::clone(&self.shared) }
    }

    /// Stops the heartbeat thread and returns a handle for post-mortem
    /// queries. The nodes keep running — a coordinator is a frontman,
    /// not an owner.
    pub fn shutdown(mut self) -> ClusterHandle {
        self.halt();
        ClusterHandle { shared: Arc::clone(&self.shared) }
    }

    fn halt(&mut self) {
        // Reached from `Drop`, so a poisoned lock is recovered instead of
        // panicking: raising the stop flag is sound in any state.
        let mut inner = self.shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.stop = true;
        self.shared.beat_cv.notify_all();
        drop(inner);
        if let Some(beat) = self.beat.take() {
            let _ = beat.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Clonable client of a [`Coordinator`] — the same operations a
/// [`ServeHandle`](breaksym_serve::ServeHandle) offers, so the HTTP
/// front-end (and therefore every existing client) works unchanged
/// against a cluster.
#[derive(Debug, Clone)]
pub struct ClusterHandle {
    shared: Arc<CoordShared>,
}

impl ClusterHandle {
    /// Submits a job: assigns a cluster id, routes it by consistent
    /// hashing, and forwards it to the chosen node.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the ring's first-choice node
    /// answers 429 (end-to-end backpressure: that node's queue is full);
    /// [`ServeError::ShuttingDown`] when draining, when that node is
    /// draining, or when no node is reachable;
    /// [`ServeError::BadRequest`] when that node refuses the spec (a task
    /// that does not resolve, say).
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let id = {
            let mut inner = self.shared.inner.lock().expect(POISONED);
            inner.next_id += 1;
            inner.next_id
        };
        let placed = forward(&self.shared, id, None, &spec, true)?;
        let job = PersistedJob {
            id,
            spec,
            node: placed.node,
            node_job_id: placed.node_job_id,
            state: JobState::Queued,
            status: None,
            cancel_requested: false,
            detours: placed.detours,
            resumes: 0,
            report: None,
        };
        let mut inner = self.shared.inner.lock().expect(POISONED);
        commit(&self.shared, &mut inner, WalRecord::Routed { job: Box::new(job) });
        Ok(JobId(id))
    }

    /// The job's state: live from its node when reachable, otherwise the
    /// coordinator's replicated view (which is also what a dead node's
    /// jobs show while their move is pending). The answer is always the
    /// coordinator's *settled* view — a live poll is folded through the
    /// same sticky-terminal observation every other path uses first.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this coordinator never
    /// routed.
    pub fn status(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        let ((node, node_job_id), poll_live) = {
            let inner = self.shared.inner.lock().expect(POISONED);
            let job = inner.job(id)?;
            (
                (job.node, job.node_job_id),
                !job.state.is_terminal() && inner.is_alive(job.node),
            )
        };
        // An unreachable node or a node-side eviction answers nothing: the
        // replicated view is the answer until the heartbeat sorts the node out.
        let live = poll_live.then(|| fetch(&self.shared, node, &format!("/jobs/{node_job_id}")));
        self.settle_poll(id, (node, node_job_id), live.flatten())
    }

    /// The final report of a completed job: the replica once a heartbeat
    /// has copied it off the job's node, otherwise fetched from the node.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] while the job is unfinished, its node is
    /// unreachable, or the node no longer knows it mid-death — all three
    /// answer the same retryable "resumes on a survivor" shape, never a
    /// raw transport error (a dead node's jobs become fetchable again
    /// once resumed and finished elsewhere) — and for a job that finished
    /// on a node that died before its report was replicated; the node's
    /// own error otherwise, with ids rewritten to cluster ids.
    pub fn report(&self, id: JobId) -> Result<RunReport, ServeError> {
        let (node, node_job_id, alive, terminal) = {
            let inner = self.shared.inner.lock().expect(POISONED);
            let job = inner.job(id)?;
            if let Some(report) = &job.report {
                return Ok(RunReport::clone(report));
            }
            (job.node, job.node_job_id, inner.is_alive(job.node), job.state.is_terminal())
        };
        let resuming = |reason: String| ServeError::NotReady { reason };
        if !alive && terminal {
            return Err(resuming(format!(
                "node {node} died before the job's report was replicated; \
                 it returns if the node rejoins"
            )));
        }
        if !alive {
            return Err(resuming(format!("node {node} is dead; the job resumes on a survivor")));
        }
        let fetched = {
            let mut client = self.shared.clients[node].lock().expect(POISONED);
            client.get(&format!("/jobs/{node_job_id}/report"))
        };
        match fetched {
            Ok(resp) if resp.status == 200 => resp.json::<RunReport>(),
            Ok(resp) => {
                let err = rewrite_id(resp.error(), id);
                // A node that answers but no longer knows an unfinished
                // job is mid-death or mid-move from the cluster's point
                // of view: the client gets the same retryable answer as
                // for a declared-dead node, not the node's raw error.
                if !terminal
                    && matches!(err, ServeError::UnknownJob { .. } | ServeError::JobEvicted { .. })
                {
                    Err(resuming(format!(
                        "node {node} no longer holds the job; it resumes on a survivor"
                    )))
                } else {
                    Err(err)
                }
            }
            Err(_) => {
                Err(resuming(format!("node {node} is unreachable; the job resumes on a survivor")))
            }
        }
    }

    /// The job's latest checkpoint: live from its node when possible,
    /// otherwise its resume point.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this coordinator never
    /// routed.
    pub fn checkpoint(&self, id: JobId) -> Result<Option<RunCheckpoint>, ServeError> {
        let (node, node_job_id, alive, resume_point) = {
            let inner = self.shared.inner.lock().expect(POISONED);
            let job = inner.job(id)?;
            let resume_point = inner.resume_point(id.0).cloned();
            (job.node, job.node_job_id, inner.is_alive(job.node), resume_point)
        };
        let live =
            alive.then(|| fetch(&self.shared, node, &format!("/jobs/{node_job_id}/checkpoint")));
        Ok(live.flatten().or(resume_point))
    }

    /// Cancels a job wherever it lives. On a live node the node decides
    /// (its usual slice-boundary semantics); on a dead node the job is
    /// cancelled locally instead of being resumed. The request is
    /// recorded first, so a move committed after it cancels the copy it
    /// places too.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this coordinator never
    /// routed.
    pub fn cancel(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        let (node, node_job_id, alive, terminal) = {
            let mut inner = self.shared.inner.lock().expect(POISONED);
            let job = inner.job(id)?;
            let (node, node_job_id, terminal) =
                (job.node, job.node_job_id, job.state.is_terminal());
            if !terminal && !job.cancel_requested {
                commit(&self.shared, &mut inner, WalRecord::CancelRequested { id: id.0 });
            }
            (node, node_job_id, inner.is_alive(node), terminal)
        };
        if terminal {
            return self.cached_status(id);
        }
        if !alive {
            // Pending a death-resume: cancel it here instead.
            let mut inner = self.shared.inner.lock().expect(POISONED);
            cancel_in_place(&self.shared, &mut inner, id.0);
            drop(inner);
            return self.cached_status(id);
        }
        let fetched = {
            let mut client = self.shared.clients[node].lock().expect(POISONED);
            client.request("POST", &format!("/jobs/{node_job_id}/cancel"), None)
        };
        // Without an answer the recorded cancel flag still holds: if the
        // node later dies, the job is cancelled instead of resumed.
        let live = fetched.ok().filter(|resp| resp.status == 200).and_then(|resp| resp.json().ok());
        self.settle_poll(id, (node, node_job_id), live)
    }

    /// Folds a node's answer to a client poll, if any, into the settled
    /// view and answers that. The answer is bound to `placement`, the
    /// `(node, node_job_id)` the poll went to: if the job has moved
    /// since, the answer describes a copy the coordinator no longer owns
    /// (typically one it cancelled), so nothing is observed. Otherwise it
    /// is observed like a heartbeat's export, so reads, however often a
    /// client polls, append to the WAL only when a job changes state.
    fn settle_poll(
        &self,
        id: JobId,
        placement: (usize, u64),
        live: Option<StatusResponse>,
    ) -> Result<StatusResponse, ServeError> {
        let mut inner = self.shared.inner.lock().expect(POISONED);
        let job = inner.job(id)?;
        if let Some(live) = live.filter(|_| (job.node, job.node_job_id) == placement) {
            observe(&self.shared, &mut inner, id.0, live.state, live.status);
        }
        inner.response(id)
    }

    fn cached_status(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        self.shared.inner.lock().expect(POISONED).response(id)
    }

    /// Cluster-wide statistics: per-node `/stats` polled live where
    /// possible, folded together with each unreachable node's last-known
    /// snapshot (marked [`NodeReport::stale`]) — a node dying between
    /// its jobs finishing and this poll must not make finished work
    /// vanish from the fold — plus the coordinator's own routing
    /// counters, folded from its job table.
    pub fn stats(&self) -> ClusterStats {
        let alive = self.shared.inner.lock().expect(POISONED).alive.clone();
        let fetched: Vec<Option<ServerStats>> = (0..self.shared.addrs.len())
            .map(|node| {
                let injected = matches!(
                    fault::hit(FAIL_STATS),
                    Some(FaultAction::Fail { .. }) | Some(FaultAction::Drop)
                );
                if !alive[node] || injected {
                    return None;
                }
                fetch(&self.shared, node, "/stats")
            })
            .collect();
        let mut inner = self.shared.inner.lock().expect(POISONED);
        let mut nodes = Vec::with_capacity(fetched.len());
        for (node, fetched) in fetched.into_iter().enumerate() {
            let stale = fetched.is_none();
            if fetched.is_some() {
                inner.last_stats[node] = fetched;
            }
            nodes.push(NodeReport {
                addr: self.shared.addrs[node].clone(),
                alive: alive[node],
                missed_heartbeats: inner.misses[node],
                stale,
                stats: inner.last_stats[node].clone(),
            });
        }
        let routing = inner.state.routing_stats();
        drop(inner);
        ClusterStats {
            nodes_total: self.shared.addrs.len(),
            nodes_alive: alive.iter().filter(|&&a| a).count(),
            fold: fold_stats(nodes.iter().filter_map(|node| node.stats.as_ref())),
            nodes,
            ..routing
        }
    }

    /// Coordinator liveness: ok while not draining and at least one node
    /// is alive.
    pub fn healthz(&self) -> ClusterHealthz {
        let alive = {
            let inner = self.shared.inner.lock().expect(POISONED);
            inner.alive.iter().filter(|&&a| a).count()
        };
        let draining = self.shared.draining.load(Ordering::SeqCst);
        ClusterHealthz {
            ok: !draining && alive > 0,
            draining,
            uptime_ms: self.shared.clock.now().duration_since(self.shared.started).as_millis()
                as u64,
            nodes_total: self.shared.addrs.len(),
            nodes_alive: alive,
        }
    }

    /// Every job with its resume point, in the same `JobExport` shape a
    /// node's `/checkpoints` uses — ids are cluster ids. A coordinator fronting
    /// a coordinator would replicate through this, and it makes the
    /// replica auditable over plain HTTP.
    pub fn export_jobs(&self) -> Vec<JobExport> {
        let inner = self.shared.inner.lock().expect(POISONED);
        inner
            .state
            .jobs
            .iter()
            .map(|job| JobExport {
                id: JobId(job.id),
                state: job.state.clone(),
                status: inner.progress(job),
                checkpoint: inner.resume_point(job.id).cloned().map(Box::new),
            })
            .collect()
    }

    /// Per-job routing introspection for tests and the chaos harness.
    pub fn inspect(&self) -> Vec<JobInspect> {
        let inner = self.shared.inner.lock().expect(POISONED);
        inner
            .state
            .jobs
            .iter()
            .map(|job| JobInspect {
                id: job.id,
                node: job.node,
                node_job_id: job.node_job_id,
                state: job.state.label().to_string(),
                has_checkpoint: inner.resume_point(job.id).is_some(),
                has_report: job.report.is_some(),
                detours: job.detours,
                resumes: job.resumes,
                cancel_requested: job.cancel_requested,
            })
            .collect()
    }

    /// Whether the node at `index` is currently considered alive.
    pub fn node_alive(&self, index: usize) -> bool {
        let inner = self.shared.inner.lock().expect(POISONED);
        inner.alive.get(index).copied().unwrap_or(false)
    }

    /// Stop accepting submissions; routed jobs keep running on their
    /// nodes and stay queryable.
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses on the injected clock. Wakes on every committed record
    /// (a state change the heartbeat saw included) and re-polls the node
    /// in between.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] on timeout; [`ServeError::UnknownJob`]
    /// for an unrouted id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<StatusResponse, ServeError> {
        let deadline = self.shared.clock.now() + timeout;
        loop {
            let resp = self.status(id)?;
            if resp.state.is_terminal() {
                return Ok(resp);
            }
            if self.shared.clock.now() >= deadline {
                return Err(ServeError::NotReady {
                    reason: format!("job still {} after {timeout:?}", resp.state.label()),
                });
            }
            // Short real-time poll: progress mostly arrives via our own
            // RPCs, which no condvar observes.
            let guard = self.shared.inner.lock().expect(POISONED);
            let _ = self
                .shared
                .state_cv
                .wait_timeout(guard, Duration::from_millis(25))
                .expect(POISONED);
        }
    }
}

/// The coordinator behind the same HTTP front-end a node uses — this is
/// what makes `examples/serve_client.rs` and every curl script work
/// unchanged against a cluster.
impl JobApi for ClusterHandle {
    fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        ClusterHandle::submit(self, spec)
    }

    fn status(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        ClusterHandle::status(self, id)
    }

    fn report(&self, id: JobId) -> Result<RunReport, ServeError> {
        ClusterHandle::report(self, id)
    }

    fn checkpoint(&self, id: JobId) -> Result<Option<RunCheckpoint>, ServeError> {
        ClusterHandle::checkpoint(self, id)
    }

    fn cancel(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        ClusterHandle::cancel(self, id)
    }

    fn stats_value(&self) -> serde_json::Value {
        serde_json::to_value(self.stats()).unwrap_or(serde_json::Value::Null)
    }

    fn healthz_value(&self) -> serde_json::Value {
        serde_json::to_value(self.healthz()).unwrap_or(serde_json::Value::Null)
    }

    fn checkpoints_value(&self) -> serde_json::Value {
        serde_json::to_value(self.export_jobs()).unwrap_or(serde_json::Value::Null)
    }

    fn request_drain(&self) {
        ClusterHandle::request_drain(self);
    }
}

// ------------------------------------------------------------ durability

/// The one way durable state changes, live or recovered: appends
/// `record` to the WAL (when durable), applies it with
/// [`CoordState::apply`] — the function recovery replays the log through
/// — compacts from the applied state when due, and wakes waiters.
/// Callers hold the `inner` lock, so the log's record order is the order
/// the records were applied.
fn commit(shared: &CoordShared, inner: &mut Inner, record: WalRecord) {
    if let Some(wal) = &mut inner.wal {
        wal.append(&record);
    }
    inner.state.apply(record);
    if let Some(wal) = inner.wal.as_mut().filter(|wal| wal.wants_compaction()) {
        if let Err(e) = wal.compact(&inner.state) {
            eprintln!("breaksym-cluster: WAL compaction failed: {e}");
        }
    }
    shared.state_cv.notify_all();
}

/// Restart reconciliation, run synchronously before the heartbeat thread
/// exists: probe every node once (ascending, deterministically), adopt
/// live exports (which refills the replicas), resume jobs the live nodes
/// no longer hold, and declare the unreachable dead — their jobs move to
/// survivors through the usual death path. A node the recovered state
/// lists as dead that answers again counts as a revival — its stale
/// copies are cancelled first, as on a live rejoin — and after the whole
/// fleet is adopted its home-keyed jobs are rebalanced back exactly as a
/// live rejoin would. The probes and adoption consult no failpoints, so
/// chaos hit cadences stay beat-aligned; the rebalance moves still
/// consume their usual [`FAIL_REBALANCE`] hits.
fn reconcile(shared: &CoordShared) {
    let mut revived = Vec::new();
    for node in 0..shared.addrs.len() {
        let healthy = {
            let mut client = shared.clients[node].lock().expect(POISONED);
            matches!(client.get("/healthz"), Ok(resp) if resp.status == 200)
        };
        if !healthy {
            declare_dead(shared, node);
            continue;
        }
        let exports: Vec<JobExport> = fetch(shared, node, "/checkpoints").unwrap_or_default();
        if shared.inner.lock().expect(POISONED).state.dead_nodes.contains(&node) {
            cancel_stale_copies(shared, node, &exports);
            let mut inner = shared.inner.lock().expect(POISONED);
            commit(shared, &mut inner, WalRecord::NodeRevived { node });
            revived.push(node);
        }
        let exported: HashSet<u64> = exports.iter().map(|export| export.id.0).collect();
        adopt_exports(shared, node, exports);
        // Non-terminal jobs the coordinator maps to this node but the
        // node does not hold (it restarted, or evicted them while the
        // coordinator was down).
        let orphans =
            unfinished_jobs(shared, |job| job.node == node && !exported.contains(&job.node_job_id));
        resume_orphans(shared, orphans);
    }
    // Jobs recovered on a node index this fleet does not have are
    // orphans too.
    let nodes = shared.addrs.len();
    resume_orphans(shared, unfinished_jobs(shared, |job| job.node >= nodes));
    // Rebalance after the whole fleet is adopted, so moves see final
    // liveness and the freshest replicas.
    for node in revived {
        rebalance(shared, node);
    }
}

/// Ids of the non-terminal jobs matching `filter`, ascending.
fn unfinished_jobs(shared: &CoordShared, filter: impl Fn(&PersistedJob) -> bool) -> Vec<u64> {
    let inner = shared.inner.lock().expect(POISONED);
    let unfinished = inner.state.jobs.iter().filter(|job| !job.state.is_terminal());
    unfinished.filter(|job| filter(job)).map(|job| job.id).collect()
}

/// Resumes jobs that no node holds any more from their resume points,
/// like any other move; one that no node accepts fails. A
/// cancel-requested orphan is cancelled in place instead.
fn resume_orphans(shared: &CoordShared, orphans: Vec<u64>) {
    for id in orphans {
        let cancelled = {
            let mut inner = shared.inner.lock().expect(POISONED);
            let requested = inner.state.job(id).is_some_and(|job| job.cancel_requested);
            if requested {
                cancel_in_place(shared, &mut inner, id);
            }
            requested
        };
        if cancelled {
            continue;
        }
        if let Err(e) = resume_job(shared, id, None) {
            let failed = JobState::Failed { error: format!("resume after a move failed: {e}") };
            observe(shared, &mut shared.inner.lock().expect(POISONED), id, failed, None);
        }
    }
}

/// Cancels a job the coordinator cannot reach on any node, keeping its
/// resume point resumable.
fn cancel_in_place(shared: &CoordShared, inner: &mut Inner, id: u64) {
    let resumable = inner.resume_point(id).is_some();
    observe(shared, inner, id, JobState::Cancelled { resumable }, None);
}

/// Sends one fire-and-forget cancel to the copy `node_job_id` on `node`
/// — a copy the coordinator no longer owns (left behind by a move, or
/// placed by a move that lost a race to the job's end), or the new
/// placement of a cancel-requested job. The answer is ignored: the
/// heartbeat observes only each job's current placement. Called outside
/// the `inner` lock.
fn cancel_copy(shared: &CoordShared, node: usize, node_job_id: u64) {
    let mut client = shared.clients[node].lock().expect(POISONED);
    let _ = client.request("POST", &format!("/jobs/{node_job_id}/cancel"), None);
}

/// Cancels every unfinished copy in a reviving node's export that no
/// coordinator job maps to: the copies its jobs left there when they
/// moved off a node that was declared dead but kept running (a
/// partition, or scripted heartbeat misses). Runs before the node is
/// marked alive, so no forward can place a copy there meanwhile, and
/// consults no failpoint.
fn cancel_stale_copies(shared: &CoordShared, node: usize, exports: &[JobExport]) {
    let stale: Vec<u64> = {
        let inner = shared.inner.lock().expect(POISONED);
        let mapped: HashSet<u64> = inner
            .state
            .jobs
            .iter()
            .filter(|job| job.node == node)
            .map(|job| job.node_job_id)
            .collect();
        exports
            .iter()
            .filter(|export| !export.state.is_terminal() && !mapped.contains(&export.id.0))
            .map(|export| export.id.0)
            .collect()
    };
    for node_job_id in stale {
        cancel_copy(shared, node, node_job_id);
    }
}

// ------------------------------------------------------------ forwarding

/// Where a forward landed.
struct Placed {
    node: usize,
    node_job_id: u64,
    detours: u32,
}

/// Rewrites node-local ids inside a node's error to the cluster id the
/// client knows.
fn rewrite_id(err: ServeError, id: JobId) -> ServeError {
    match err {
        ServeError::UnknownJob { .. } => ServeError::UnknownJob { id },
        ServeError::JobEvicted { .. } => ServeError::JobEvicted { id },
        other => other,
    }
}

/// The ring's full fallback order for `key` over the live nodes.
fn fallback_order(ring: &HashRing, key: u64, alive: &[bool]) -> Vec<usize> {
    let mut alive = alive.to_vec();
    let mut order = Vec::new();
    while let Some(node) = ring.route(key, &alive) {
        order.push(node);
        alive[node] = false;
    }
    order
}

/// Forwards a spec down `key`'s fallback order until a node accepts it,
/// or to `only` that node when one is given (a move home).
///
/// Backpressure (429/503 from the node's own bounded queue) is
/// propagated to the caller when `reject_when_full` and the rejection
/// came from the ring's first choice — that is the end-to-end 429/503
/// contract. Transport errors always walk on to the next candidate; a
/// death-resume (`reject_when_full == false`) walks past backpressure
/// too, because it must land somewhere.
fn forward(
    shared: &CoordShared,
    key: u64,
    only: Option<usize>,
    spec: &JobSpec,
    reject_when_full: bool,
) -> Result<Placed, ServeError> {
    let order = match only {
        Some(node) => vec![node],
        None => {
            let inner = shared.inner.lock().expect(POISONED);
            fallback_order(&shared.ring, key, &inner.alive)
        }
    };
    if order.is_empty() {
        return Err(ServeError::ShuttingDown);
    }
    let mut detours: u32 = 0;
    for (rank, &node) in order.iter().enumerate() {
        if !shared.inner.lock().expect(POISONED).alive[node] {
            detours += 1;
            continue;
        }
        let injected = matches!(
            fault::hit(FAIL_FORWARD),
            Some(FaultAction::Fail { .. }) | Some(FaultAction::Drop)
        );
        let outcome = if injected {
            Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected forward failure"))
        } else {
            let mut client = shared.clients[node].lock().expect(POISONED);
            client.post_json("/jobs", spec)
        };
        match outcome {
            Ok(resp) if resp.status == 200 => match resp.json::<SubmitResponse>() {
                Ok(sub) => return Ok(Placed { node, node_job_id: sub.id.0, detours }),
                Err(_) => detours += 1,
            },
            Ok(resp) => {
                let err = resp.error();
                let backpressure =
                    matches!(err, ServeError::QueueFull { .. } | ServeError::ShuttingDown);
                if backpressure && !(reject_when_full && rank == 0) {
                    detours += 1;
                } else {
                    return Err(err);
                }
            }
            Err(_) => detours += 1,
        }
    }
    Err(ServeError::ShuttingDown)
}

// ------------------------------------------------------------ observation

/// Records an observation of a job under the `inner` lock. Terminal is
/// sticky: nothing a node says later can resurrect a settled job or move
/// its progress. Callers pass only what the job's current placement said
/// (the heartbeat matches exports by the job's node, and client polls go
/// through `ClusterHandle::settle_poll`), so a copy a move left behind
/// never settles the job. A state change is committed as one `Observed`
/// record carrying the freshest progress known; progress under an
/// unchanged state is kept in memory until then.
fn observe(
    shared: &CoordShared,
    inner: &mut Inner,
    id: u64,
    state: JobState,
    status: Option<RunStatus>,
) {
    let Some(job) = inner.state.job(id).filter(|job| !job.state.is_terminal()) else {
        return;
    };
    if state == job.state {
        if let Some(status) = status {
            inner.progress.insert(id, status);
        }
        return;
    }
    let fresher = inner.progress.remove(&id);
    commit(shared, inner, WalRecord::Observed { id, state, status: status.or(fresher) });
}

// ------------------------------------------------------------ heartbeat

fn heartbeat_loop(shared: &CoordShared) {
    let interval = shared.cfg.heartbeat_interval;
    let mut next = shared.clock.now() + interval;
    loop {
        let inner = shared.inner.lock().expect(POISONED);
        if inner.stop {
            return;
        }
        let now = shared.clock.now();
        if now < next {
            // Park until roughly the next beat. On a real clock the timeout
            // fires it; on a frozen test clock the timeout just re-checks
            // (a no-op) and the clock's waker delivers the actual wakeups.
            let remaining = (next - now).max(Duration::from_millis(1));
            let _ = shared.beat_cv.wait_timeout(inner, remaining).expect(POISONED);
            continue;
        }
        drop(inner);
        beat(shared);
        next = shared.clock.now() + interval;
    }
}

/// One heartbeat: probe every node — live ones toward death counting and
/// replication, dead ones toward revival — in index order. Every node
/// consumes exactly one [`FAIL_HEARTBEAT`] hit per beat, alive or dead,
/// so the hit cadence is `nodes` per beat and a trigger's target node is
/// `(hit - 1) % nodes`, deterministically.
fn beat(shared: &CoordShared) {
    for node in 0..shared.addrs.len() {
        let injected_miss = matches!(
            fault::hit(FAIL_HEARTBEAT),
            Some(FaultAction::Fail { .. }) | Some(FaultAction::Drop)
        );
        let was_alive = {
            let inner = shared.inner.lock().expect(POISONED);
            inner.alive[node]
        };
        let healthy = !injected_miss && {
            let mut client = shared.clients[node].lock().expect(POISONED);
            matches!(client.get("/healthz"), Ok(resp) if resp.status == 200)
        };
        if !was_alive {
            // A dead node re-earns its place with `failure_threshold`
            // consecutive healthy probes — hysteresis, so a flapping
            // node cannot bounce its jobs back and forth every beat.
            let revived = {
                let mut inner = shared.inner.lock().expect(POISONED);
                if healthy {
                    inner.revive_hits[node] += 1;
                    inner.revive_hits[node] >= shared.cfg.failure_threshold
                } else {
                    inner.revive_hits[node] = 0;
                    false
                }
            };
            if revived {
                revive(shared, node);
            }
            continue;
        }
        if !healthy {
            let dead_now = {
                let mut inner = shared.inner.lock().expect(POISONED);
                inner.misses[node] += 1;
                inner.misses[node] >= shared.cfg.failure_threshold
            };
            if dead_now {
                declare_dead(shared, node);
            }
            continue;
        }
        {
            let mut inner = shared.inner.lock().expect(POISONED);
            inner.misses[node] = 0;
        }
        replicate(shared, node);
    }
}

/// `GET path` on `node`, parsed: `None` on a transport error, an answer
/// other than 200, or a body that is not a `T`.
fn fetch<T: DeserializeOwned>(shared: &CoordShared, node: usize, path: &str) -> Option<T> {
    let resp = shared.clients[node].lock().expect(POISONED).get(path).ok()?;
    (resp.status == 200).then(|| resp.json().ok()).flatten()
}

/// Adopts one node's export: a checkpoint fresher (by evaluation count)
/// than the job's resume point becomes its replica, and states and
/// progress flow through the usual observation. A job the export
/// shows done gets its final report fetched and replicated, once, so the
/// report outlives the node.
fn adopt_exports(shared: &CoordShared, node: usize, exports: Vec<JobExport>) {
    let mut unreported = Vec::new();
    let mut inner = shared.inner.lock().expect(POISONED);
    let by_node_id: HashMap<u64, u64> = inner
        .state
        .jobs
        .iter()
        .filter(|job| job.node == node)
        .map(|job| (job.node_job_id, job.id))
        .collect();
    for export in exports {
        let Some(&id) = by_node_id.get(&export.id.0) else {
            continue;
        };
        if let Some(checkpoint) = export.checkpoint {
            // A replicated report supersedes any checkpoint (a node from
            // before done jobs dropped theirs still exports one).
            let unreported = inner.state.job(id).is_some_and(|job| job.report.is_none());
            let fresher = |old: &RunCheckpoint| checkpoint.tracker.evals > old.tracker.evals;
            if unreported && inner.resume_point(id).is_none_or(fresher) {
                inner.replicas.insert(id, checkpoint);
            }
        }
        let done = matches!(export.state, JobState::Done);
        observe(shared, &mut inner, id, export.state, export.status);
        let unreported_done = inner
            .state
            .job(id)
            .is_some_and(|job| matches!(job.state, JobState::Done) && job.report.is_none());
        if done && unreported_done {
            unreported.push((id, export.id.0));
        }
    }
    drop(inner);
    for (id, node_job_id) in unreported {
        if let Some(report) = fetch(shared, node, &format!("/jobs/{node_job_id}/report")) {
            let mut inner = shared.inner.lock().expect(POISONED);
            inner.replicas.remove(&id);
            commit(shared, &mut inner, WalRecord::Reported { id, report: Box::new(report) });
        }
    }
}

/// Pulls one node's `/checkpoints` export into the replicas.
fn replicate(shared: &CoordShared, node: usize) {
    if matches!(
        fault::hit(FAIL_REPLICATE),
        Some(FaultAction::Fail { .. }) | Some(FaultAction::Drop)
    ) {
        return;
    }
    let Some(exports) = fetch(shared, node, "/checkpoints") else {
        return;
    };
    adopt_exports(shared, node, exports);
}

/// Moves one non-terminal job — death-resume, rejoin rebalance, or
/// restart reconciliation: forwards its spec with its resume point
/// attached (to `only` that node when given, else down the ring's
/// fallback order), then commits the move (`+1` resume, `1 + detours`
/// reroutes). Returns the `(node, node_job_id)` the job left when the
/// move committed, and the forward's error when no node took the job.
/// The forward runs without the `inner` lock, so the job may settle
/// meanwhile — a client cancel on a dead node does exactly that. Then no
/// move is committed: the terminal state stands, and the copy just placed
/// is cancelled. A cancel requested before the move commits is sent on to
/// the new placement.
fn resume_job(
    shared: &CoordShared,
    id: u64,
    only: Option<usize>,
) -> Result<Option<(usize, u64)>, ServeError> {
    let spec = {
        let inner = shared.inner.lock().expect(POISONED);
        let Some(job) = inner.state.job(id).filter(|job| !job.state.is_terminal()) else {
            return Ok(None);
        };
        let mut spec = job.spec.clone();
        spec.checkpoint = inner.resume_point(id).cloned().map(Box::new);
        spec
    };
    let placed = forward(shared, id, only, &spec, false)?;
    let mut inner = shared.inner.lock().expect(POISONED);
    let Some(job) = inner.state.job(id).filter(|job| !job.state.is_terminal()) else {
        drop(inner);
        cancel_copy(shared, placed.node, placed.node_job_id);
        return Ok(None);
    };
    let left = (job.node, job.node_job_id);
    let record = WalRecord::Moved {
        id,
        node: placed.node,
        node_job_id: placed.node_job_id,
        detours_added: placed.detours,
    };
    commit(shared, &mut inner, record);
    let cancel_requested = inner.state.job(id).is_some_and(|job| job.cancel_requested);
    drop(inner);
    if cancel_requested {
        cancel_copy(shared, placed.node, placed.node_job_id);
    }
    Ok(Some(left))
}

/// Declares a node dead — exactly once — and moves its unfinished jobs:
/// cancel-requested ones are cancelled in place; the rest are
/// resubmitted, in ascending cluster-id order, to the ring's surviving
/// fallback with their resume points attached.
fn declare_dead(shared: &CoordShared, node: usize) {
    {
        let mut inner = shared.inner.lock().expect(POISONED);
        if !inner.alive[node] {
            return;
        }
        inner.alive[node] = false;
        inner.revive_hits[node] = 0;
        commit(shared, &mut inner, WalRecord::NodeDead { node });
    }
    resume_orphans(shared, unfinished_jobs(shared, |job| job.node == node));
}

// ------------------------------------------------------------ rejoin

/// Revives a dead node — cancelling the copies it still runs of jobs
/// that moved away — and moves its home-keyed jobs back.
fn revive(shared: &CoordShared, node: usize) {
    let exports: Vec<JobExport> = fetch(shared, node, "/checkpoints").unwrap_or_default();
    cancel_stale_copies(shared, node, &exports);
    {
        let mut inner = shared.inner.lock().expect(POISONED);
        if inner.alive[node] {
            return;
        }
        inner.alive[node] = true;
        inner.misses[node] = 0;
        inner.revive_hits[node] = 0;
        commit(shared, &mut inner, WalRecord::NodeRevived { node });
    }
    rebalance(shared, node);
}

/// Moves every unfinished job whose *home* ring position (the route with
/// the whole fleet up) is the revived node back onto it, in ascending
/// cluster-id order, each by a [`resume_job`] to the home node only (a
/// walk down the fallback order would land it back on a survivor,
/// restarted from its resume point); once a move commits, the copy left
/// on the survivor is cancelled. Each candidate consumes one
/// [`FAIL_REBALANCE`] hit; an injected fault, or a forward the home node
/// does not take, skips that job's move — it finishes on its survivor.
fn rebalance(shared: &CoordShared, home: usize) {
    let candidates = unfinished_jobs(shared, |job| {
        !job.cancel_requested && job.node != home && shared.ring.preferred(job.id) == Some(home)
    });
    for id in candidates {
        if matches!(
            fault::hit(FAIL_REBALANCE),
            Some(FaultAction::Fail { .. }) | Some(FaultAction::Drop)
        ) {
            continue;
        }
        if let Ok(Some((survivor, node_job_id))) = resume_job(shared, id, Some(home)) {
            cancel_copy(shared, survivor, node_job_id);
        }
    }
}
