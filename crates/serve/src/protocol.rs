//! The wire protocol of the placement service: serde-JSON request and
//! response types shared by the in-process [`ServeHandle`] client, the
//! HTTP front-end, and external callers.
//!
//! Every type round-trips through JSON. The task side reuses the
//! workspace's own serde formats — [`MethodSpec`] (externally tagged, e.g.
//! `{"Mlma": {...}}`, with all config fields defaulting), [`LdeModel`],
//! and the reports/checkpoints of `breaksym-core` — so a service response
//! can be fed straight back into library calls.
//!
//! [`ServeHandle`]: crate::engine::ServeHandle

use std::fmt;

use breaksym_core::{Budget, MethodSpec, PlacementTask, RunCheckpoint, StatsSnapshot};
use breaksym_lde::LdeModel;
use breaksym_netlist::circuits;
use serde::{Deserialize, Serialize};

/// Identifier of one submitted job, unique within a server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The placement problem of a job: a named built-in benchmark or an
/// inline SPICE netlist, plus the LDE regime it is evaluated under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TaskSpec {
    /// One of the built-in benchmark circuits (see
    /// [`TaskSpec::BENCHMARKS`]).
    Benchmark {
        /// Benchmark name, canonical or aliased — e.g. `"cm"` /
        /// `"current_mirror"`, `"comp"` / `"comparator"`, `"ota"`.
        name: String,
        /// Seed of the default non-linear LDE field (ignored when `lde`
        /// is set).
        #[serde(default)]
        lde_seed: u64,
        /// Explicit LDE model overriding the seeded default.
        #[serde(default)]
        lde: Option<LdeModel>,
    },
    /// An inline netlist in the SPICE subset `breaksym_netlist::spice`
    /// parses.
    Spice {
        /// The netlist source text.
        netlist: String,
        /// Square grid side length in cells.
        grid: i32,
        /// Seed of the default non-linear LDE field (ignored when `lde`
        /// is set).
        #[serde(default)]
        lde_seed: u64,
        /// Explicit LDE model overriding the seeded default.
        #[serde(default)]
        lde: Option<LdeModel>,
    },
}

impl TaskSpec {
    /// Canonical names of every built-in benchmark.
    pub const BENCHMARKS: [&'static str; 6] =
        ["cm", "comp", "ota", "ota5", "two_stage", "diff_pair"];

    /// A benchmark spec with the default seeded LDE field.
    pub fn benchmark(name: impl Into<String>, lde_seed: u64) -> Self {
        TaskSpec::Benchmark { name: name.into(), lde_seed, lde: None }
    }

    /// Resolves the spec into a runnable [`PlacementTask`], discarding the
    /// netlist health warnings [`TaskSpec::resolve_with_warnings`] reports.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on an unknown benchmark name or an
    /// unparsable netlist.
    pub fn resolve(&self) -> Result<PlacementTask, ServeError> {
        self.resolve_with_warnings().map(|(task, _)| task)
    }

    /// Resolves the spec into a runnable [`PlacementTask`] plus the
    /// warnings a caller should surface. Benchmarks get the same grid
    /// sides the `repro` figures use and never warn.
    ///
    /// For [`TaskSpec::Spice`] the netlist is linted
    /// ([`breaksym_netlist::lint`]); when it carries no symmetry
    /// annotations at all, groups are derived automatically
    /// ([`breaksym_symmetry::extract`]) instead of silently placing the
    /// circuit unconstrained, and missing testbench wiring (ports,
    /// supply/bias sources) is completed by [`breaksym_sim::autowire`].
    /// Every derivation step is reported as a warning so the submitter
    /// can audit what was assumed.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on an unknown benchmark name or an
    /// unparsable netlist.
    pub fn resolve_with_warnings(&self) -> Result<(PlacementTask, Vec<String>), ServeError> {
        match self {
            TaskSpec::Benchmark { name, lde_seed, lde } => {
                let (circuit, side) = match name.as_str() {
                    "cm" | "current_mirror" => (circuits::current_mirror_medium(), 16),
                    "comp" | "comparator" => (circuits::comparator(), 16),
                    "ota" | "ota_folded_cascode" => (circuits::folded_cascode_ota(), 18),
                    "ota5" | "five_transistor_ota" => (circuits::five_transistor_ota(), 14),
                    "two_stage" | "two_stage_miller" => (circuits::two_stage_miller(), 18),
                    "diff_pair" => (circuits::diff_pair(), 10),
                    other => {
                        return Err(ServeError::BadRequest {
                            reason: format!(
                                "unknown benchmark `{other}` (known: {:?})",
                                Self::BENCHMARKS
                            ),
                        })
                    }
                };
                Ok((PlacementTask::new(circuit, side, lde_for(lde, *lde_seed)), Vec::new()))
            }
            TaskSpec::Spice { netlist, grid, lde_seed, lde } => {
                let mut circuit = breaksym_netlist::spice::parse(netlist).map_err(|e| {
                    ServeError::BadRequest { reason: format!("netlist does not parse: {e}") }
                })?;
                let mut warnings: Vec<String> =
                    breaksym_netlist::lint::lint(&circuit).iter().map(|w| w.to_string()).collect();
                if !circuit.has_symmetry_annotations() {
                    let extraction = breaksym_symmetry::extract::extract_groups(&circuit);
                    warnings.extend(extraction.notes.iter().map(|n| format!("extract: {n}")));
                    warnings.push(format!(
                        "derived {} symmetry groups automatically; add `.group` \
                         annotations to override",
                        extraction.groups.len()
                    ));
                    circuit = extraction.apply(&circuit).map_err(|e| ServeError::BadRequest {
                        reason: format!("derived symmetry groups do not apply: {e}"),
                    })?;
                }
                let wired = breaksym_sim::autowire(&circuit).map_err(|e| {
                    ServeError::BadRequest { reason: format!("netlist cannot be auto-wired: {e}") }
                })?;
                warnings.extend(wired.actions.iter().map(|a| format!("autowire: {a}")));
                Ok((PlacementTask::new(wired.circuit, *grid, lde_for(lde, *lde_seed)), warnings))
            }
        }
    }
}

fn lde_for(explicit: &Option<LdeModel>, seed: u64) -> LdeModel {
    explicit.clone().unwrap_or_else(|| LdeModel::nonlinear(1.0, seed))
}

/// A job submission: what to place, how to search, and the serving knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The placement problem.
    pub task: TaskSpec,
    /// The search method and its full configuration.
    pub method: MethodSpec,
    /// Replaces the method configuration's RNG seed when set.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Overrides the method configuration's evaluation budget when set.
    #[serde(default)]
    pub max_evals: Option<u64>,
    /// Per-job cap on *running* wall-clock milliseconds (queue wait
    /// excluded), enforced at slice boundaries. `None` means unlimited.
    #[serde(default)]
    pub timeout_ms: Option<u64>,
    /// Evaluations per resumable slice — the granularity at which status,
    /// cancellation, and drain are observed. `None` uses the server's
    /// default.
    #[serde(default)]
    pub slice_evals: Option<u64>,
    /// A mid-run checkpoint to resume from instead of starting fresh.
    /// This is how a coordinator moves a dead node's job to a survivor:
    /// resubmit the original spec carrying the last replicated
    /// checkpoint, and the run continues bit-identically from it. The job
    /// starts with an empty eval cache, as every job does.
    #[serde(default)]
    pub checkpoint: Option<Box<RunCheckpoint>>,
}

impl JobSpec {
    /// A job with every serving knob left at the server's defaults.
    pub fn new(task: TaskSpec, method: MethodSpec) -> Self {
        JobSpec {
            task,
            method,
            seed: None,
            max_evals: None,
            timeout_ms: None,
            slice_evals: None,
            checkpoint: None,
        }
    }

    /// The method with this job's `seed` override applied, and the budget
    /// it runs under with this job's `max_evals` override applied — how
    /// every harness turns a spec into a run.
    pub fn resolved_method(&self) -> (MethodSpec, Budget) {
        let method = match self.seed {
            Some(seed) => self.method.clone().with_seed(seed),
            None => self.method.clone(),
        };
        let mut budget = method.budget();
        if let Some(max_evals) = self.max_evals {
            budget.max_evals = max_evals;
        }
        (method, budget)
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "state", rename_all = "snake_case")]
pub enum JobState {
    /// Waiting in the queue — fresh, or requeued with a checkpoint by a
    /// draining server.
    Queued,
    /// Claimed by a worker and advancing slice by slice.
    Running,
    /// Finished; the final `RunReport` is fetchable.
    Done,
    /// The job errored.
    Failed {
        /// What went wrong.
        error: String,
    },
    /// The job exceeded its wall-clock timeout. Like cancellation, the
    /// latest slice-boundary checkpoint is retained, so a timed-out job
    /// can be resumed with a larger allowance.
    TimedOut {
        /// Whether a mid-run checkpoint was captured to resume from.
        resumable: bool,
    },
    /// Cancelled by request.
    Cancelled {
        /// Whether a mid-run checkpoint was captured to resume from.
        resumable: bool,
    },
}

impl JobState {
    /// Whether the job will make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done
                | JobState::Failed { .. }
                | JobState::TimedOut { .. }
                | JobState::Cancelled { .. }
        )
    }

    /// The state's wire tag, for human-readable messages.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed { .. } => "failed",
            JobState::TimedOut { .. } => "timed_out",
            JobState::Cancelled { .. } => "cancelled",
        }
    }
}

/// Live progress of a job, refreshed at every slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStatus {
    /// Oracle evaluations spent so far.
    pub evals: u64,
    /// Best objective cost reached so far.
    pub best_cost: f64,
    /// Running wall-clock milliseconds, accumulated across slices and
    /// requeues (queue wait excluded).
    pub elapsed_ms: u64,
    /// The job's private eval-cache and simulation accounting.
    pub cache: StatsSnapshot,
}

/// Answer to a status poll.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// The job being described.
    pub id: JobId,
    /// Lifecycle state (flattened: `{"state": "running", ...}`).
    #[serde(flatten)]
    pub state: JobState,
    /// Live progress, present once at least one slice has completed.
    #[serde(default)]
    pub status: Option<RunStatus>,
    /// Netlist health warnings recorded at submission: lint findings,
    /// automatically derived symmetry groups, and auto-wiring actions.
    /// Empty for built-in benchmarks and fully annotated netlists.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<String>,
}

/// Answer to a successful submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// The assigned job id; poll `/jobs/{id}` with it.
    pub id: JobId,
}

/// A `/stats` snapshot of the whole server.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_cap: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Workers currently running a job.
    pub busy_workers: usize,
    /// Jobs completed per worker — utilization by job count.
    pub worker_jobs: Vec<u64>,
    /// Milliseconds each worker has spent running jobs since start.
    pub worker_busy_ms: Vec<u64>,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Jobs accepted into the queue, lifetime total.
    pub jobs_submitted: u64,
    /// Jobs finished with a report.
    pub jobs_done: u64,
    /// Jobs that errored.
    pub jobs_failed: u64,
    /// Subset of [`ServerStats::jobs_failed`] whose optimizer slice
    /// *panicked* (caught at the worker's panic boundary) rather than
    /// returning an error.
    #[serde(default)]
    pub jobs_panicked: u64,
    /// Jobs that hit their wall-clock timeout.
    #[serde(default)]
    pub jobs_timed_out: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Terminal jobs evicted from the registry by the retention policy
    /// (TTL or max-retained cap); their cache accounting lives on in
    /// [`ServerStats::cache`].
    #[serde(default)]
    pub jobs_retired: u64,
    /// Aggregate cache effectiveness and simulations served: the
    /// field-wise sum of every live job's snapshot plus the retired
    /// accumulator, so totals stay exact across evictions.
    pub cache: StatsSnapshot,
}

impl ServerStats {
    /// Mean fraction of server uptime the workers spent running jobs.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.uptime_ms == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ms.iter().sum();
        busy as f64 / (self.workers as f64 * self.uptime_ms as f64)
    }
}

/// A `/healthz` liveness probe answer — cheap enough for a load balancer
/// or a cluster coordinator to poll every heartbeat.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Healthz {
    /// Whether the node accepts new work (false once draining).
    pub ok: bool,
    /// Whether a drain has been requested.
    #[serde(default)]
    pub draining: bool,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Workers currently running a job — worker liveness at a glance.
    pub busy_workers: usize,
}

/// One job's replicable state, as returned by the bulk `/checkpoints`
/// export: everything a coordinator needs to resume the job elsewhere if
/// this node dies. Reports are deliberately excluded — they are final
/// artifacts, not resume state; a coordinator fetches a done job's report
/// once, on its own. So is the job's eval cache: a search needs each verdict before its
/// next move, so a moved job could reuse only the placements it revisits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobExport {
    /// The node-local job id.
    pub id: JobId,
    /// Lifecycle state (flattened, as in [`StatusResponse`]).
    #[serde(flatten)]
    pub state: JobState,
    /// Live progress, when at least one slice has completed.
    #[serde(default)]
    pub status: Option<RunStatus>,
    /// The latest slice-boundary checkpoint, when one exists. A done job
    /// has none: its report supersedes it.
    #[serde(default)]
    pub checkpoint: Option<Box<RunCheckpoint>>,
}

/// Service-level request failures, serialised on the wire as a tagged
/// `{"error": "...", ...}` object with a matching HTTP status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "error", rename_all = "snake_case")]
pub enum ServeError {
    /// The bounded queue is full — backpressure; retry later (HTTP 429).
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// No job with the given id exists (HTTP 404).
    UnknownJob {
        /// The id that failed to resolve.
        id: JobId,
    },
    /// The job existed, reached a terminal state, and was evicted by the
    /// retention policy — distinct from an id that was never assigned
    /// (HTTP 410).
    JobEvicted {
        /// The evicted job's id.
        id: JobId,
    },
    /// The request is malformed (HTTP 400).
    BadRequest {
        /// What was wrong with it.
        reason: String,
    },
    /// The resource exists but is not available in the job's current
    /// state — e.g. a report requested before completion (HTTP 409).
    NotReady {
        /// What to wait for.
        reason: String,
    },
    /// The server is draining and accepts no new work (HTTP 503).
    ShuttingDown,
}

impl ServeError {
    /// The HTTP status code this error maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::QueueFull { .. } => 429,
            ServeError::UnknownJob { .. } => 404,
            ServeError::JobEvicted { .. } => 410,
            ServeError::BadRequest { .. } => 400,
            ServeError::NotReady { .. } => 409,
            ServeError::ShuttingDown => 503,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs waiting); retry later")
            }
            ServeError::UnknownJob { id } => write!(f, "no job with id {id}"),
            ServeError::JobEvicted { id } => {
                write!(f, "job {id} finished and was evicted by the retention policy")
            }
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::NotReady { reason } => write!(f, "not ready: {reason}"),
            ServeError::ShuttingDown => write!(f, "server is draining; no new work accepted"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_core::MlmaConfig;

    #[test]
    fn every_benchmark_name_resolves() {
        for name in TaskSpec::BENCHMARKS {
            let task = TaskSpec::benchmark(name, 7).resolve().unwrap();
            assert!(!task.circuit.units().is_empty(), "{name}");
        }
        assert!(TaskSpec::benchmark("nope", 7).resolve().is_err());
    }

    #[test]
    fn benchmarks_resolve_without_warnings() {
        let (_, warnings) = TaskSpec::benchmark("cm", 7).resolve_with_warnings().unwrap();
        assert!(warnings.is_empty(), "benchmarks are curated: {warnings:?}");
    }

    #[test]
    fn bare_spice_submissions_surface_derivation_warnings() {
        // No `.group` lines, no ports, no sources: the server must derive
        // symmetry groups and wire a testbench rather than silently
        // placing the circuit unconstrained — and say so.
        let bare = "
.title bare_mirror
M1 nref nref vss vss NMOS W=2 L=0.4 UNITS=2
M2 iout0 nref vss vss NMOS W=2 L=0.4 UNITS=2
.end
";
        let spec = TaskSpec::Spice { netlist: bare.to_string(), grid: 10, lde_seed: 3, lde: None };
        let (task, warnings) = spec.resolve_with_warnings().unwrap();
        assert!(task.circuit.has_symmetry_annotations(), "resolution applies the derived groups");
        assert!(
            warnings.iter().any(|w| w.contains("derived") && w.contains("symmetry")),
            "missing derived-groups warning in {warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.starts_with("autowire: ")),
            "missing autowire actions in {warnings:?}"
        );
        // Same spec, same warnings — resolution is deterministic.
        assert_eq!(warnings, spec.resolve_with_warnings().unwrap().1);
    }

    #[test]
    fn job_spec_round_trips_and_defaults_apply() {
        let spec = JobSpec::new(
            TaskSpec::benchmark("cm", 7),
            MethodSpec::Mlma(MlmaConfig { max_evals: 50, ..MlmaConfig::default() }),
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);

        // A minimal hand-written body parses: omitted config fields take
        // their defaults, omitted knobs stay None.
        let terse: JobSpec = serde_json::from_str(
            r#"{"task": {"kind": "benchmark", "name": "cm"},
                "method": {"Mlma": {"max_evals": 50, "seed": 3}}}"#,
        )
        .unwrap();
        assert_eq!(terse.task, TaskSpec::benchmark("cm", 0));
        match terse.method {
            MethodSpec::Mlma(cfg) => {
                assert_eq!(cfg.max_evals, 50);
                assert_eq!(cfg.seed, 3);
                assert_eq!(cfg.episodes, MlmaConfig::default().episodes);
            }
            other => panic!("wrong method: {other:?}"),
        }
        assert!(terse.seed.is_none() && terse.timeout_ms.is_none());
    }

    #[test]
    fn status_response_flattens_the_state_tag() {
        let s = StatusResponse {
            id: JobId(3),
            state: JobState::Cancelled { resumable: true },
            status: None,
            warnings: Vec::new(),
        };
        let v = serde_json::to_value(&s).unwrap();
        assert_eq!(v["id"], 3u64);
        assert_eq!(v["state"], "cancelled");
        assert_eq!(v["resumable"], true);
        let back: StatusResponse = serde_json::from_value(v).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn errors_carry_http_statuses() {
        assert_eq!(ServeError::QueueFull { capacity: 4 }.http_status(), 429);
        assert_eq!(ServeError::UnknownJob { id: JobId(9) }.http_status(), 404);
        assert_eq!(ServeError::JobEvicted { id: JobId(9) }.http_status(), 410);
        assert_eq!(ServeError::BadRequest { reason: "x".into() }.http_status(), 400);
        assert_eq!(ServeError::NotReady { reason: "x".into() }.http_status(), 409);
        assert_eq!(ServeError::ShuttingDown.http_status(), 503);
        let v = serde_json::to_value(ServeError::QueueFull { capacity: 4 }).unwrap();
        assert_eq!(v["error"], "queue_full");
        let v = serde_json::to_value(ServeError::JobEvicted { id: JobId(9) }).unwrap();
        assert_eq!(v["error"], "job_evicted");
    }

    #[test]
    fn timed_out_is_terminal_and_round_trips() {
        let state = JobState::TimedOut { resumable: true };
        assert!(state.is_terminal());
        assert_eq!(state.label(), "timed_out");
        let v = serde_json::to_value(&state).unwrap();
        assert_eq!(v["state"], "timed_out");
        assert_eq!(v["resumable"], true);
        let back: JobState = serde_json::from_value(v).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn server_stats_retention_fields_default_for_old_payloads() {
        // A pre-retention /stats payload (no jobs_timed_out/jobs_retired)
        // still parses, with the new counters defaulting to zero.
        let old = serde_json::json!({
            "queue_depth": 0, "queue_cap": 16, "workers": 2, "busy_workers": 0,
            "worker_jobs": [0, 0], "worker_busy_ms": [0, 0], "uptime_ms": 1,
            "jobs_submitted": 0, "jobs_done": 0, "jobs_failed": 0,
            "jobs_cancelled": 0,
            "cache": {"hits": 0, "misses": 0, "entries": 0, "sims": 0}
        });
        let stats: ServerStats = serde_json::from_value(old).unwrap();
        assert_eq!(stats.jobs_timed_out, 0);
        assert_eq!(stats.jobs_retired, 0);
    }
}
