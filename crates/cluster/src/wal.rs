//! Coordinator durability: a serde-JSON snapshot plus an append-only
//! write-ahead log, so `repro coord --state-dir D` survives a SIGKILL
//! and re-adopts its fleet on restart.
//!
//! # Format
//!
//! A state directory holds two files:
//!
//! - `snapshot.json` — one [`CoordState`]: the job table, the dead-node
//!   set and the node-event counters, written atomically (a temporary
//!   file, then a rename) at every compaction;
//! - `wal.jsonl` — one [`WalRecord`] per line, appended (and flushed)
//!   on every decision since the snapshot.
//!
//! Both hold decisions only, never observations a live fleet repeats:
//! the checkpoints and progress a heartbeat pulls stay in coordinator
//! memory (a lost replica costs rework, never a different report, and a
//! restart re-reads both from the nodes' exports). Nothing derivable
//! from the job table is stored either: the job counters and the next id
//! are folded from it ([`CoordState::routing_stats`]).
//!
//! The snapshot and every log line carry [`FORMAT`] under `format` and a
//! sequence number under `seq`. [`WalStore::load`] refuses any other
//! format, or none, with [`io::ErrorKind::InvalidData`]: nothing migrates
//! older state. Recovery reads the snapshot (if any) and replays the log
//! lines it does not cover, so a crash between a compaction's snapshot
//! rename and its log truncation replays nothing twice. Only the last
//! line may be torn (a crash interrupted its write): a failed append is
//! cut back off the log, and a bad line anywhere else is refused. The
//! live coordinator changes its durable state only by appending a record
//! and then applying it with [`CoordState::apply`], and replay applies the
//! same records with the same function. So the recovered job table and
//! counters equal the live ones as of the last flushed record, and
//! restart accounting is indistinguishable from an uninterrupted run.
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
use std::io::{self, Write};
use std::path::PathBuf;

use breaksym_core::{RunReport, FORMAT};
use breaksym_serve::protocol::{JobSpec, JobState, RunStatus};
use breaksym_testkit::{fault, FaultAction};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::protocol::ClusterStats;

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

/// One routed job: the coordinator's durable record of it. Liveness and
/// replicated checkpoints live outside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedJob {
    /// The cluster-wide job id.
    pub id: u64,
    /// The spec exactly as submitted. A submitted checkpoint is client
    /// input no rework can rebuild, so it stays here, and a move with no
    /// fresher replica resumes from it; a replicated report clears it.
    pub spec: JobSpec,
    /// Node responsible at write time.
    pub node: usize,
    /// The job's id on that node.
    pub node_job_id: u64,
    /// Last observed lifecycle state.
    pub state: JobState,
    /// Progress as of the last state change. Fresher progress lives in
    /// coordinator memory only.
    pub status: Option<RunStatus>,
    /// Whether a cancel was requested through the coordinator.
    pub cancel_requested: bool,
    /// Submit-time fallback detours.
    pub detours: u32,
    /// Times the job was moved (death-resumes plus rebalances).
    pub resumes: u32,
    /// The final report, replicated from the node once the job is done,
    /// so it outlives that node.
    pub report: Option<Box<RunReport>>,
}

/// The node-event counters: the two routing counters the job table
/// cannot rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct PersistedCounters {
    pub node_deaths: u64,
    pub node_revivals: u64,
}

/// Everything durable about a coordinator: what a snapshot holds and
/// what [`WalStore::load`] returns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoordState {
    /// Every routed job, ascending id.
    pub jobs: Vec<PersistedJob>,
    /// Node deaths and revivals so far.
    pub counters: PersistedCounters,
    /// Nodes that were declared dead and have not been revived — what a
    /// restarted coordinator's reconciliation turns into revivals (the
    /// node answers again) or fresh death handling (it does not).
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
    /// A job changed state (polls, heartbeats, cancels).
    Observed {
        /// Cluster job id.
        id: u64,
        /// The job's state after the observation.
        state: JobState,
        /// The freshest progress known at the change, if any.
        status: Option<RunStatus>,
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
        detours_added: u32,
    },
    /// A done job's final report was replicated. It supersedes the spec's
    /// checkpoint, which applying the record frees.
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

    /// The newest routed job's id (0 before the first): ids only grow,
    /// so the next one is above it.
    pub fn last_id(&self) -> u64 {
        self.jobs.last().map_or(0, |job| job.id)
    }

    /// The coordinator's routing counters, as a [`ClusterStats`] with no
    /// node detail: the job counts folded from the table, the node events
    /// as counted. Every move adds one resume, plus its own detours, to
    /// its job, so `reroutes` — Σ detours + Σ resumes — keeps the
    /// accounting identity by construction.
    pub fn routing_stats(&self) -> ClusterStats {
        let PersistedCounters { node_deaths, node_revivals } = self.counters;
        let mut stats = ClusterStats { node_deaths, node_revivals, ..ClusterStats::default() };
        for job in &self.jobs {
            stats.jobs_routed += 1;
            stats.jobs_resumed += u64::from(job.resumes);
            stats.reroutes += u64::from(job.resumes + job.detours);
            *match job.state {
                JobState::Queued | JobState::Running => &mut stats.jobs_inflight,
                JobState::Done => &mut stats.jobs_done,
                JobState::Failed { .. } => &mut stats.jobs_failed,
                JobState::TimedOut { .. } => &mut stats.jobs_timed_out,
                JobState::Cancelled { .. } => &mut stats.jobs_cancelled,
            } += 1;
        }
        stats
    }

    /// Applies one record — the only way a coordinator's durable state
    /// changes, live or replayed. Terminal states are sticky (a move of a
    /// terminal job changes nothing), every move counts one resume, and a
    /// replicated report frees the spec's checkpoint.
    pub fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::Routed { job } => {
                let at = self.jobs.partition_point(|existing| existing.id < job.id);
                self.jobs.insert(at, *job);
            }
            WalRecord::Observed { id, state, status } => {
                if let Some(job) = self.job_mut(id) {
                    job.status = status.or(job.status);
                    if !job.state.is_terminal() {
                        job.state = state;
                    }
                }
            }
            WalRecord::Reported { id, report } => {
                if let Some(job) = self.job_mut(id) {
                    job.report = Some(report);
                    job.spec.checkpoint = None;
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
    /// Bytes of whole lines in the log: where the next line starts.
    whole: u64,
    appended: u64,
    /// The last sequence number written or loaded: the next line gets
    /// the one after it, and a snapshot covers every line up to it.
    seq: u64,
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
        let whole = fs::metadata(dir.join(LOG)).map_or(0, |meta| meta.len());
        Ok(WalStore { dir, log: None, whole, appended: 0, seq: 0 })
    }

    /// The state directory this store writes to.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Recovers the persisted state: snapshot first, then the log lines
    /// it does not cover replayed over it. `None` when the directory
    /// holds neither — a first start. Also picks up the sequence numbers
    /// where the directory left them, so on a directory that already
    /// holds state, call it before the first append.
    ///
    /// # Errors
    ///
    /// I/O failures reading either file, and [`io::ErrorKind::InvalidData`]
    /// for a snapshot or a whole log line that does not parse or is not of
    /// this build's [`FORMAT`]. A torn trailing log line — one with no
    /// newline — is expected crash debris and ends the replay silently.
    pub fn load(&mut self) -> io::Result<Option<CoordState>> {
        let (mut state, covered) = match fs::read(self.dir.join(SNAPSHOT)) {
            Ok(bytes) => {
                let (state, seq) = unstamp::<CoordState>(&bytes)
                    .map_err(|e| invalid(format!("{SNAPSHOT}: {e}")))?;
                (Some(state), seq)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (None, 0),
            Err(e) => return Err(e),
        };
        // The next append reopens the log and cuts any torn tail.
        (self.seq, self.log, self.whole) = (covered, None, 0);
        let log = match fs::read(self.dir.join(LOG)) {
            Ok(log) => log,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        for (n, line) in log.split_inclusive(|&b| b == b'\n').enumerate() {
            let Some(line) = line.strip_suffix(b"\n") else {
                break;
            };
            let (record, seq) = unstamp::<WalRecord>(line)
                .map_err(|e| invalid(format!("{LOG} line {}: {e}", n + 1)))?;
            self.whole += line.len() as u64 + 1;
            // Already in the snapshot: the crash fell between a
            // compaction's snapshot rename and its log truncation.
            if seq <= covered {
                continue;
            }
            self.seq = self.seq.max(seq);
            state.get_or_insert_with(CoordState::default).apply(record);
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

    /// Writes one line, or on failure cuts the log back to its last whole
    /// line, so only a crash can leave a partial line, and only last.
    fn try_append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut line = stamped(record, self.seq + 1)?;
        line.push(b'\n');
        if self.log.is_none() {
            let log = OpenOptions::new().create(true).append(true).open(self.dir.join(LOG))?;
            // Drops a torn tail a crash left behind.
            log.set_len(self.whole)?;
            self.log = Some(log);
        }
        let log = self.log.as_mut().expect("log just opened");
        let written = log.write_all(&line).and_then(|()| log.flush());
        if written.is_err() && log.set_len(self.whole).is_err() {
            self.log = None; // the next append reopens the log and cuts it
        }
        written?;
        self.whole += line.len() as u64;
        self.seq += 1;
        self.appended += 1;
        Ok(())
    }

    /// Whether enough appends have accumulated that the caller should
    /// [`compact`](WalStore::compact) with a fresh state.
    pub fn wants_compaction(&self) -> bool {
        self.appended >= COMPACT_EVERY
    }

    /// Replaces the snapshot with `state` (atomically, via a temp file
    /// and rename), stamped with the last sequence number it covers, and
    /// truncates the log.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming; on error the old snapshot and
    /// log are still intact and recovery still works.
    pub fn compact(&mut self, state: &CoordState) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        fs::write(&tmp, stamped(state, self.seq)?)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT))?;
        // Truncate only after the snapshot rename landed. A crash between
        // the two leaves the old log behind, and its stamps tell `load`
        // to skip it.
        (self.log, self.whole, self.appended) = (None, 0, 0);
        fs::write(self.dir.join(LOG), b"")
    }
}

fn invalid(message: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// `value` as one JSON object with [`FORMAT`] under `format` and its
/// sequence number under `seq`.
fn stamped(value: &impl Serialize, seq: u64) -> io::Result<Vec<u8>> {
    let mut json = serde_json::to_value(value).map_err(invalid)?;
    let object = json.as_object_mut().expect("persisted state is a JSON object");
    object.insert("format".into(), FORMAT.into());
    object.insert("seq".into(), seq.into());
    serde_json::to_vec(&json).map_err(invalid)
}

/// A JSON object [`stamped`] wrote, and its sequence number. Refuses one
/// of another format, or with no format or sequence number.
fn unstamp<T: DeserializeOwned>(bytes: &[u8]) -> io::Result<(T, u64)> {
    let json: serde_json::Value = serde_json::from_slice(bytes).map_err(invalid)?;
    let stamp = |key| json.get(key).and_then(serde_json::Value::as_u64);
    let (format, seq) = (stamp("format"), stamp("seq"));
    if format != Some(u64::from(FORMAT)) {
        let found = format.map_or_else(|| "no format".into(), |f| format!("format {f}"));
        return Err(invalid(format!(
            "found {found}, this build reads format {FORMAT}: \
             start from an empty state directory"
        )));
    }
    let seq = seq.ok_or_else(|| invalid("no seq"))?;
    Ok((serde_json::from_value(json).map_err(invalid)?, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_core::{Driver, MethodSpec, MlmaConfig, RunCheckpoint, SliceOutcome};
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
            cancel_requested: false,
            detours: 0,
            resumes: 0,
            report: None,
        }
    }

    /// A paused checkpoint of `sample_job(1)` and the report resuming it
    /// gives.
    fn paused_checkpoint() -> (Box<RunCheckpoint>, RunReport) {
        let spec = sample_job(1).spec;
        let task = spec.task.resolve().unwrap();
        let (method, budget) = spec.resolved_method();
        let driver = Driver::new(budget);
        let mut opt = method.build(&task).unwrap();
        let Ok(SliceOutcome::Paused(checkpoint)) = driver.run_slice(&task, opt.as_mut(), 4) else {
            panic!("a 4-eval slice of an 8-eval job pauses");
        };
        let report = driver.resume(&task, opt.as_mut(), &checkpoint).unwrap();
        (checkpoint, report)
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
        assert_eq!(state.last_id(), 2);
        assert_eq!(state.jobs.len(), 2);
        let job1 = &state.jobs[0];
        assert_eq!(job1.id, 1);
        assert_eq!(job1.node, 1);
        assert_eq!(job1.node_job_id, 77);
        assert!(matches!(job1.state, JobState::Done));
        assert_eq!(job1.resumes, 1);
        assert_eq!(job1.detours, 1);
        let stats = state.routing_stats();
        assert_eq!(stats.jobs_routed, 2);
        assert_eq!(stats.jobs_done, 1);
        assert_eq!(stats.node_deaths, 1);
        assert_eq!(stats.jobs_resumed, 1);
        assert_eq!(stats.reroutes, 2, "1 move + 1 detour");
        assert_eq!(state.dead_nodes, vec![0], "node 0 died and never rejoined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicated_reports_replay() {
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
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replicated_report_frees_the_checkpoint() {
        let dir = tempdir("report-frees");
        let mut wal = WalStore::open(&dir).unwrap();
        let (checkpoint, report) = paused_checkpoint();
        let mut job = sample_job(1);
        job.spec.checkpoint = Some(checkpoint.clone());
        wal.append(&WalRecord::Routed { job: Box::new(job) });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs[0].spec.checkpoint.as_ref(), Some(&checkpoint));

        wal.append(&WalRecord::Observed { id: 1, state: JobState::Done, status: None });
        wal.append(&WalRecord::Reported { id: 1, report: Box::new(report.clone()) });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs[0].spec.checkpoint, None, "the report supersedes the checkpoint");
        assert_eq!(state.jobs[0].report.as_deref(), Some(&report));
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
        assert_eq!(recovered.routing_stats().jobs_routed, 1);
        assert_eq!(recovered.routing_stats().jobs_done, 1);
        assert!(matches!(recovered.jobs[0].state, JobState::Done));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash between a compaction's snapshot rename and its log
    /// truncation leaves the old log beside the new snapshot. Loading
    /// skips every line the snapshot covers, so nothing applies twice.
    #[test]
    fn a_log_the_snapshot_covers_replays_nothing() {
        let dir = tempdir("compact-window");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        wal.append(&WalRecord::NodeDead { node: 1 });
        wal.append(&WalRecord::Moved { id: 1, node: 0, node_job_id: 50, detours_added: 1 });
        wal.append(&WalRecord::Observed { id: 1, state: JobState::Running, status: None });
        let live = wal.load().unwrap().expect("state");
        let old_log = fs::read(dir.join(LOG)).unwrap();
        wal.compact(&live).unwrap();
        fs::write(dir.join(LOG), &old_log).unwrap();

        let recovered = wal.load().unwrap().expect("recovered");
        assert_eq!(recovered, live);
        let stats = recovered.routing_stats();
        assert_eq!((stats.node_deaths, stats.jobs_resumed, stats.reroutes), (1, 1, 2));
        // Appends after that load continue past the covered lines.
        wal.append(&WalRecord::Observed { id: 1, state: JobState::Done, status: None });
        assert_eq!(wal.load().unwrap().expect("recovered").jobs[0].state, JobState::Done);
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
        assert_eq!(state.routing_stats().jobs_routed, 2);

        // The next append replaces the torn tail instead of landing
        // behind it.
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(3)) });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.last_id(), 3);
        assert_eq!(state.jobs.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    /// An append that fails part-way leaves no partial line for the next
    /// one to land behind.
    #[test]
    fn a_failed_append_is_cut_off_the_log() {
        let dir = tempdir("failed-append");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        // What a short write leaves, through a handle that then refuses
        // the rest.
        let mut log = OpenOptions::new().append(true).open(dir.join(LOG)).unwrap();
        log.write_all(b"{\"op\":\"routed\",\"job\":{\"id\":2").unwrap();
        wal.log = Some(File::open(dir.join(LOG)).unwrap());
        assert!(wal.try_append(&WalRecord::Routed { job: Box::new(sample_job(2)) }).is_err());

        wal.append(&WalRecord::Routed { job: Box::new(sample_job(3)) });
        let state = wal.load().unwrap().expect("recovered");
        assert_eq!(state.jobs.iter().map(|job| job.id).collect::<Vec<_>>(), [1, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Only the last line may be torn: a line that does not parse
    /// anywhere before it is corruption, and every record after it would
    /// be lost, so `load` refuses the log.
    #[test]
    fn a_corrupt_line_mid_log_is_refused() {
        let dir = tempdir("mid-log");
        let mut wal = WalStore::open(&dir).unwrap();
        for id in 1..=3 {
            wal.append(&WalRecord::Routed { job: Box::new(sample_job(id)) });
        }
        let mut log = fs::read(dir.join(LOG)).unwrap();
        let middle = log.iter().position(|&b| b == b'\n').unwrap() + 1;
        log[middle] ^= 1;
        fs::write(dir.join(LOG), log).unwrap();

        let err = wal.load().expect_err("a corrupt line mid-log");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// State of another format is refused, not migrated: a snapshot with
    /// another `format`, and a log line with none.
    #[test]
    fn state_of_another_format_is_refused() {
        let dir = tempdir("format");
        let mut wal = WalStore::open(&dir).unwrap();
        wal.append(&WalRecord::Routed { job: Box::new(sample_job(1)) });
        let state = wal.load().unwrap().expect("state");
        wal.compact(&state).unwrap();
        let mut snapshot: serde_json::Value =
            serde_json::from_slice(&fs::read(dir.join(SNAPSHOT)).unwrap()).unwrap();
        assert_eq!(snapshot["format"], u64::from(FORMAT));
        snapshot.as_object_mut().unwrap().insert("format".into(), (FORMAT + 1).into());
        fs::write(dir.join(SNAPSHOT), serde_json::to_vec(&snapshot).unwrap()).unwrap();
        let err = wal.load().expect_err("another format");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let message = err.to_string();
        assert!(message.contains(&format!("found format {}", FORMAT + 1)), "{message}");
        assert!(message.contains(&format!("reads format {FORMAT}")), "{message}");

        fs::remove_file(dir.join(SNAPSHOT)).unwrap();
        let mut line = serde_json::to_value(WalRecord::NodeDead { node: 0 }).unwrap();
        line.as_object_mut().unwrap().insert("seq".into(), 1.into());
        fs::write(dir.join(LOG), serde_json::to_string(&line).unwrap() + "\n").unwrap();
        let err = wal.load().expect_err("no format");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("found no format"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_none() {
        let dir = tempdir("fresh");
        let mut wal = WalStore::open(&dir).unwrap();
        assert!(wal.load().unwrap().is_none(), "a first start has no state");
        let _ = fs::remove_dir_all(&dir);
    }
}
