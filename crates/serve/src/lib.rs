//! `breaksym-serve` — placement as a service: a bounded job queue, a
//! worker-thread pool, and a JSON wire protocol over the workspace's
//! step-driven search [`Driver`](breaksym_core::Driver).
//!
//! Long placement searches become *jobs*: submitted with a
//! [`JobSpec`] (benchmark name or inline SPICE netlist + a fully
//! configured [`MethodSpec`](breaksym_core::MethodSpec)), queued with
//! backpressure, executed in resumable slices by a fixed worker pool, and
//! observable while they run — live best-cost, evaluation count, and
//! cache statistics at every slice boundary. Jobs can be cancelled
//! mid-run (keeping a resumable checkpoint), time out at slice
//! boundaries (also keeping their checkpoint), and a draining server
//! requeues in-flight work with its checkpoint instead of discarding it.
//! Terminal jobs are retained under a configurable TTL and cap
//! ([`ServeConfig::retain_ttl`] / [`ServeConfig::retain_max`]); evicted
//! jobs keep their statistics in `/stats` and answer
//! [`ServeError::JobEvicted`] (HTTP 410). Because slicing rides the
//! driver's checkpoint/resume path, a served run's report is
//! bit-identical to the same run executed directly.
//!
//! Three layers, one per module:
//!
//! - [`protocol`] — the serde-JSON request/response types (the wire
//!   format);
//! - [`engine`] — the queue, the workers, and the in-process
//!   [`ServeHandle`] client;
//! - [`http`] — a minimal std-only HTTP/1.1 front-end
//!   ([`HttpServer`]) exposing the same operations to external callers
//!   (`repro serve` wires it to a CLI): one accept thread feeding a
//!   bounded pool of connection handlers, so a stalled client occupies
//!   one handler slot instead of blocking every request behind it.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//!
//! use breaksym_core::{MethodSpec, MlmaConfig};
//! use breaksym_serve::{JobSpec, JobState, ServeConfig, ServeEngine, TaskSpec};
//!
//! let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
//! let handle = engine.handle();
//!
//! let cfg = MlmaConfig {
//!     episodes: 2,
//!     steps_per_episode: 6,
//!     max_evals: 60,
//!     ..MlmaConfig::default()
//! };
//! let id = handle.submit(JobSpec::new(
//!     TaskSpec::benchmark("diff_pair", 7),
//!     MethodSpec::Mlma(cfg),
//! ))?;
//!
//! let done = handle.wait(id, Duration::from_secs(120))?;
//! assert!(matches!(done.state, JobState::Done));
//! let report = handle.report(id)?;
//! assert!(report.best_cost <= report.initial_cost);
//!
//! engine.shutdown();
//! # Ok::<(), breaksym_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod http;
pub mod protocol;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport, InvariantResult};
pub use engine::{ServeConfig, ServeEngine, ServeHandle, FAIL_SLICE};
pub use http::{HttpServer, JobApi, DEFAULT_CONN_WORKERS, FAIL_HTTP_RESPOND, KEEP_ALIVE_IDLE};
pub use protocol::{
    Healthz, JobExport, JobId, JobSpec, JobState, RunStatus, ServeError, ServerStats,
    StatusResponse, SubmitResponse, TaskSpec,
};
