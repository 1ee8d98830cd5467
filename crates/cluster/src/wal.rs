//! Coordinator durability: a serde-JSON snapshot plus an append-only
//! write-ahead log, so `repro coord --state-dir D` survives a SIGKILL
//! and re-adopts its fleet on restart.
//!
//! # Format
//!
//! A state directory holds two files:
//!
//! - `snapshot.json` — one [`CoordState`]: the full job table, the id
//!   counter, and the routing counters, written atomically
//!   (`snapshot.tmp` + rename) at every compaction;
//! - `wal.jsonl` — one [`WalRecord`] per line, appended (and flushed)
//!   on every state transition since the snapshot.
//!
//! Recovery reads the snapshot (if any) and replays the log over it
//! ([`WalStore::load`]). A torn trailing line — the crash interrupted
//! the write — ends the replay; everything before it was flushed whole.
//! The live coordinator changes its durable state only by appending a
//! record and then applying it with [`CoordState::apply`], and replay
//! applies the same records with the same function. So the recovered
//! job table and counters equal the live ones as of the last flushed
//! record, and restart accounting is indistinguishable from an
//! uninterrupted run.
//!
//! Durability is process-crash durability: every append is written and
//! flushed to the OS before the state transition is visible to clients,
//! which survives SIGKILL. Surviving power loss would need fsync on
//! every append; the coordinator's job table is reconstructible enough
//! (reconciliation re-probes the fleet) that the cheaper guarantee is
//! the right trade.
//!
//! The [`FAIL_WAL`] failpoint drops individual appends, simulating a
//! crash that lost the tail of the log: restart then reconciles from an
//! older state, which must still converge.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;

use breaksym_core::{RunCheckpoint, RunReport};
use breaksym_serve::protocol::{JobSpec, JobState, RunStatus};
use breaksym_testkit::{fault, FaultAction};
use serde::{Deserialize, Serialize};

/// Failpoint hit once per WAL append. `Fail` and `Drop` actions discard
/// the record — the in-memory transition proceeds, but a restart will
/// not see it, exactly like a crash between the transition and the
/// write.
pub const FAIL_WAL: &str = "cluster::wal";

const SNAPSHOT: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const LOG: &str = "wal.jsonl";

/// Appends between automatic compactions ([`WalStore::wants_compaction`]).
const COMPACT_EVERY: u64 = 256;

/// One routed job: the coordinator's durable record of it. What is
/// rebuilt at recovery (liveness) lives outside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedJob {
    /// The cluster-wide job id.
    pub id: u64,
    /// The spec as submitted, minus its checkpoint: a submitted
    /// checkpoint becomes the replica below, and every move attaches the
    /// replica (older logs that still carry one here load the same).
    pub spec: JobSpec,
    /// Node responsible at write time.
    pub node: usize,
    /// The job's id on that node.
    pub node_job_id: u64,
    /// Last observed lifecycle state.
    pub state: JobState,
    /// Last observed progress.
    #[serde(default)]
    pub status: Option<RunStatus>,
    /// Replicated checkpoint; `None` once the report is replicated (older
    /// logs that hold both load the same).
    #[serde(default)]
    pub checkpoint: Option<Box<RunCheckpoint>>,
    /// Whether a cancel was requested through the coordinator.
    #[serde(default)]
    pub cancel_requested: bool,
    /// Submit-time fallback detours.
    #[serde(default)]
    pub detours: u32,
    /// Times the job was moved (death-resumes plus rebalances).
    #[serde(default)]
    pub resumes: u32,
    /// The final report, replicated from the node once the job is done,
    /// so it outlives that node.
    #[serde(default)]
    pub report: Option<Box<RunReport>>,
}

/// The coordinator's routing counters, as persisted and as re-derived by
/// replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct PersistedCounters {
    pub jobs_routed: u64,
    pub reroutes: u64,
    pub node_deaths: u64,
    pub jobs_resumed: u64,
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_timed_out: u64,
    pub jobs_cancelled: u64,
    #[serde(default)]
    pub node_revivals: u64,
}

/// Everything durable about a coordinator: what a snapshot holds and
/// what [`WalStore::load`] returns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoordState {
    /// The cluster-wide id counter (ids survive restarts).
    pub next_id: u64,
    /// Every routed job, ascending id.
    pub jobs: Vec<PersistedJob>,
    /// Routing counters at write time.
    #[serde(default)]
    pub counters: PersistedCounters,
    /// Nodes that were declared dead and have not been revived — what a
    /// restarted coordinator's reconciliation turns into revivals (the
    /// node answers again) or fresh death handling (it does not).
    #[serde(default)]
    pub dead_nodes: Vec<usize>,
}

/// One logged state transition. The live coordinator and replay both
/// apply these through [`CoordState::apply`], so a recovered
/// coordinator's state matches an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum WalRecord {
    /// A job was accepted and forwarded.
    Routed {
        /// The job as routed (boxed: it dwarfs every other record).
        job: Box<PersistedJob>,
    },
    /// A job changed state (polls, heartbeats, cancels), or a heartbeat
    /// replicated new progress.
    Observed {
        /// Cluster job id.
        id: u64,
        /// The job's state after the observation.
        state: JobState,
        /// Progress observed alongside, if any.
        #[serde(default)]
        status: Option<RunStatus>,
    },
    /// A fresher checkpoint was replicated.
    Checkpoint {
        /// Cluster job id.
        id: u64,
        /// The replicated checkpoint.
        checkpoint: Box<RunCheckpoint>,
    },
    /// The job moved to another node (death-resume, rebalance, or
    /// restart reconciliation).
    Moved {
        /// Cluster job id.
        id: u64,
        /// The node now responsible.
        node: usize,
        /// The job's id on that node.
        node_job_id: u64,
        /// Fallback detours the move itself took.
        #[serde(default)]
        detours_added: u32,
    },
    /// A done job's final report was replicated. It supersedes the job's
    /// replicated checkpoint, which applying the record frees.
    Reported {
        /// Cluster job id.
        id: u64,
        /// The report as its node served it.
        report: Box<RunReport>,
    },
    /// A cancel was requested through the coordinator.
    CancelRequested {
        /// Cluster job id.
        id: u64,
    },
    /// A node was declared dead.
    NodeDead {
        /// Node index.
        node: usize,
    },
    /// A dead node rejoined.
    NodeRevived {
        /// Node index.
        node: usize,
    },
}

impl CoordState {
    /// The job with cluster id `id`, found by binary search (ids only
    /// grow, so `jobs` stays sorted).
    pub(crate) fn job(&self, id: u64) -> Option<&PersistedJob> {
        self.jobs.binary_search_by_key(&id, |job| job.id).ok().map(|at| &self.jobs[at])
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut PersistedJob> {
        let at = self.jobs.binary_search_by_key(&id, |job| job.id).ok()?;
        Some(&mut self.jobs[at])
    }

    /// Applies one record — the only way a coordinator's durable state
    /// changes, live or replayed. Terminal states are sticky (a move of a
    /// terminal job changes nothing), terminal counters bump exactly once
    /// per job, every move counts one resume and `1 + detours`
    /// reroutes, and a replicated report frees the job's checkpoint.
    pub fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::Routed { job } => {
                self.next_id = self.next_id.max(job.id);
                // A replayed duplicate — the crash fell between the
                // snapshot rename and the log truncation, so the snapshot
                // already accounts for this job.
                let Err(at) = self.jobs.binary_search_by_key(&job.id, |existing| existing.id)
                else {
                    return;
                };
                self.counters.jobs_routed += 1;
                self.counters.reroutes += u64::from(job.detours);
                self.jobs.insert(at, *job);
            }
            WalRecord::Observed { id, state, status } => {
                let mut bump: Option<fn(&mut PersistedCounters) -> &mut u64> = None;
                if let Some(job) = self.job_mut(id) {
                    if let Some(status) = status {
                        job.status = Some(status);
                    }
                    if !job.state.is_terminal() {
                        job.state = state;
                        bump = match job.state {
                            JobState::Done => Some(|c| &mut c.jobs_done),
                            JobState::Failed { .. } => Some(|c| &mut c.jobs_failed),
                            JobState::TimedOut { .. } => Some(|c| &mut c.jobs_timed_out),
                            JobState::Cancelled { .. } => Some(|c| &mut c.jobs_cancelled),
                            _ => None,
                        };
                    }
                }
                if let Some(bump) = bump {
                    *bump(&mut self.counters) += 1;
                }
            }
            WalRecord::Checkpoint { id, checkpoint } => {
                if let Some(job) = self.job_mut(id) {
                    job.checkpoint = Some(checkpoint);
                }
            }
            WalRecord::Reported { id, report } => {
                if let Some(job) = self.job_mut(id) {
                    job.report = Some(report);
                    job.checkpoint = None;
                }
            }
            WalRecord::Moved { id, node, node_job_id, detours_added } => {
                let Some(job) = self.job_mut(id).filter(|job| !job.state.is_terminal()) else {
                    return;
                };
                job.node = node;
                job.node_job_id = node_job_id;
                job.state = JobState::Queued;
                job.detours += detours_added;
                job.resumes += 1;
                self.counters.jobs_resumed += 1;
                self.counters.reroutes += 1 + u64::from(detours_added);
            }
            WalRecord::CancelRequested { id } => {
                if let Some(job) = self.job_mut(id) {
                    job.cancel_requested = true;
                }
            }
            WalRecord::NodeDead { node } => {
                self.counters.node_deaths += 1;
                if !self.dead_nodes.contains(&node) {
                    self.dead_nodes.push(node);
                    self.dead_nodes.sort_unstable();
                }
            }
            WalRecord::NodeRevived { node } => {
                self.counters.node_revivals += 1;
                self.dead_nodes.retain(|&dead| dead != node);
            }
        }
    }
}

/// The on-disk store: owns the state directory and the open log handle.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    log: Option<File>,
    appended: u64,
}

impl WalStore {
    /// Opens (creating if needed) a state directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures — a coordinator asked to
    /// be durable must not start without its store.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(WalStore { dir, log: None, appended: 0 })
    }

    /// The state directory this store writes to.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Recovers the persisted state: snapshot first, then the log
    /// replayed over it. `None` when the directory holds neither — a
    /// first start.
    ///
    /// # Errors
    ///
    /// I/O failures reading either file, or a corrupt *snapshot* (a
    /// snapshot is written atomically, so corruption is a real problem);
    /// a torn trailing log line is expected crash debris and ends the
    /// replay silently.
    pub fn load(&self) -> io::Result<Option<CoordState>> {
        let mut state: Option<CoordState> = match fs::read(self.dir.join(SNAPSHOT)) {
            Ok(bytes) => Some(serde_json::from_slice(&bytes).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("corrupt snapshot: {e}"))
            })?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        match File::open(self.dir.join(LOG)) {
            Ok(file) => {
                for line in BufReader::new(file).lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let Ok(record) = serde_json::from_str::<WalRecord>(&line) else {
                        break;
                    };
                    state.get_or_insert_with(CoordState::default).apply(record);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(state)
    }

    /// Appends one record to the log and flushes it. Write failures past
    /// `open` are logged and swallowed — a full disk degrades durability,
    /// it must not take the live control plane down. The [`FAIL_WAL`]
    /// failpoint drops the record the same way a crash-before-write
    /// would.
    pub fn append(&mut self, record: &WalRecord) {
        if matches!(fault::hit(FAIL_WAL), Some(FaultAction::Fail { .. }) | Some(FaultAction::Drop))
        {
            return;
        }
        if let Err(e) = self.try_append(record) {
            eprintln!("breaksym-cluster: WAL append failed ({}): {e}", self.dir.display());
        }
    }

    fn try_append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.log.is_none() {
            self.log = Some(OpenOptions::new().create(true).append(true).open(self.dir.join(LOG))?);
        }
        let mut line = serde_json::to_vec(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        line.push(b'\n');
        let log = self.log.as_mut().expect("log just opened");
        log.write_all(&line)?;
        log.flush()?;
        self.appended += 1;
        Ok(())
    }

    /// Whether enough appends have accumulated that the caller should
    /// [`compact`](WalStore::compact) with a fresh state.
    pub fn wants_compaction(&self) -> bool {
        self.appended >= COMPACT_EVERY
    }

    /// Replaces the snapshot with `state` (atomically, via a temp file
    /// and rename) and truncates the log.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming; on error the old snapshot and
    /// log are still intact and recovery still works.
    pub fn compact(&mut self, state: &CoordState) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let bytes = serde_json::to_vec(state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT))?;
        // Truncate only after the snapshot rename landed: a crash between
        // the two replays the old log over the new snapshot. Routed
        // duplicates are rejected by id; the residual risk (a re-counted
        // Moved/Observed in that one-syscall window) costs counter drift,
        // never job state, and the next compaction heals it.
        self.log = None;
        fs::write(self.dir.join(LOG), b"")?;
        self.appended = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_core::{Driver, MethodSpec, MlmaConfig, SliceOutcome};
    use breaksym_serve::protocol::TaskSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("breaksym-wal-{tag}-{}-{n}", std::process::id()))
    }

    fn sample_job(id: u64) -> PersistedJob {
        let cfg = MlmaConfig {
            episodes: 1,
            steps_per_episode: 2,
            max_evals: 8,
            seed: id,
            ..MlmaConfig::default()
        };
        PersistedJob {
            id,
            spec: JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(cfg)),
            node: (id % 2) as usize,
            node_job_id: id + 10,
            state: JobState::Queued,
            status: None,
            checkpoint: None,
            cancel_requested: false,
            detours: 0,
            resumes: 0,
            report: None,
        }
    }

    #[test]
    fn replay_rebuilds_jobs_and_counters() {
        let dir = tempdir("replay");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(2)) });
        wal.append(&WalRecord::Observed { id: 1, state: JobState::Running, status: None });
        wal.append(&WalRecord::NodeDead { node: 0 });
        wal.append(&WalRecord::Moved { id: 1, node: 1, node_job_id: 77, detours_added: 1 });
        wal.append(&WalRecord::Observed { id: 1, state: JobState::Done, status: None });
        // Sticky terminal: a late Running or move must not resurrect job
        // 1, move it, or bump a counter.
        wal.append(&WalRecord::Observed { id: 1, state: JobState::Running, status: None });
        wal.append(&WalRecord::Moved { id: 1, node: 0, node_job_id: 78, detours_added: 0 });

        let state = wal.load().unwrap().expect("state recovered");
        assert_eq!(state.next_id, 2);
        assert_eq!(state.jobs.len(), 2);
        let job1 = &state.jobs[0];
        assert_eq!(job1.id, 1);
        assert_eq!(job1.node, 1);
        assert_eq!(job1.node_job_id, 77);
        assert!(matches!(job1.state, JobState::Done));
        assert_eq!(job1.resumes, 1);
        assert_eq!(job1.detours, 1);
        assert_eq!(state.counters.jobs_routed, 2);
        assert_eq!(state.counters.jobs_done, 1);
        assert_eq!(state.counters.node_deaths, 1);
        assert_eq!(state.counters.jobs_resumed, 1);
        assert_eq!(state.counters.reroutes, 2, "1 move + 1 detour");
        assert_eq!(state.dead_nodes, vec![0], "node 0 died and never rejoined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicated_reports_replay_and_older_jobs_parse_without_one() {
        let dir = tempdir("report");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        wal.append(&WalRecord::Observed { id: 1, state: JobState::Done, status: None });
        let spec = sample_job(1).spec;
        let task = spec.task.resolve().unwrap();
        let (method, budget) = spec.resolved_method();
        let report = Driver::new(budget).run(&task, method.build(&task).unwrap().as_mut()).unwrap();
        wal.append(&WalRecord::Reported { id: 1, report: Box::new(report.clone()) });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs[0].report.as_deref(), Some(&report));

        // A job written before reports were replicated has none.
        let mut old = serde_json::to_value(sample_job(2)).unwrap();
        assert!(old.as_object_mut().unwrap().remove("report").is_some());
        let back: PersistedJob = serde_json::from_value(old).unwrap();
        assert_eq!(back, sample_job(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replicated_report_frees_the_checkpoint() {
        let dir = tempdir("report-frees");
        let mut wal = WalStore::open(&dir).unwrap();
        let spec = sample_job(1).spec;
        let task = spec.task.resolve().unwrap();
        let (method, budget) = spec.resolved_method();
        let driver = Driver::new(budget);
        let mut opt = method.build(&task).unwrap();
        let Ok(SliceOutcome::Paused(checkpoint)) = driver.run_slice(&task, opt.as_mut(), 4) else {
            panic!("a 4-eval slice of an 8-eval job pauses");
        };
        let report = driver.resume(&task, opt.as_mut(), &checkpoint).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        wal.append(&WalRecord::Checkpoint { id: 1, checkpoint: checkpoint.clone() });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs[0].checkpoint.as_ref(), Some(&checkpoint));

        wal.append(&WalRecord::Observed { id: 1, state: JobState::Done, status: None });
        wal.append(&WalRecord::Reported { id: 1, report: Box::new(report.clone()) });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs[0].checkpoint, None, "the report supersedes the checkpoint");
        assert_eq!(state.jobs[0].report.as_deref(), Some(&report));

        // A snapshot written before reports freed checkpoints holds both,
        // and still loads.
        let mut old = state.clone();
        old.jobs[0].checkpoint = Some(checkpoint);
        wal.compact(&old).unwrap();
        assert_eq!(wal.load().unwrap(), Some(old));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let dir = tempdir("compact");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(5)) });
        let state = wal.load().unwrap().expect("pre-compaction state");
        wal.compact(&state).unwrap();
        assert_eq!(fs::read(dir.join(LOG)).unwrap(), b"", "log truncated");

        // Post-compaction appends land in the fresh log and replay over
        // the snapshot.
        wal.append(&WalRecord::Observed { id: 5, state: JobState::Done, status: None });
        let recovered = wal.load().unwrap().expect("recovered");
        assert_eq!(recovered.counters.jobs_routed, 1);
        assert_eq!(recovered.counters.jobs_done, 1);
        assert!(matches!(recovered.jobs[0].state, JobState::Done));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_ends_replay_cleanly() {
        let dir = tempdir("torn");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(2)) });
        // Simulate a crash mid-append: garbage tail after the good lines.
        let mut log = OpenOptions::new().append(true).open(dir.join(LOG)).unwrap();
        log.write_all(b"{\"op\":\"routed\",\"job\":{\"id\":3").unwrap();
        drop(log);

        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs.len(), 2, "the torn record is dropped, not fatal");
        assert_eq!(state.counters.jobs_routed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_none() {
        let dir = tempdir("fresh");
        let wal = WalStore::open(&dir).unwrap();
        assert!(wal.load().unwrap().is_none(), "a first start has no state");
        let _ = fs::remove_dir_all(&dir);
    }
}
