//! `breaksym-core` — objective-driven analog placement with multi-level,
//! multi-agent tabular Q-learning (the paper's contribution).
//!
//! The framework of Fig. 2(c):
//!
//! - a **top-level agent** learns to translate whole groups — its state is
//!   the group-level configuration ([`LayoutEnv::group_state_key`]), its
//!   actions are `(group, direction)` pairs;
//! - one **bottom-level agent per group** learns to rearrange the units
//!   *inside* its group — its state is the group's translation-invariant
//!   internal arrangement ([`LayoutEnv::local_state_key`]), its actions
//!   `(unit, direction)` pairs;
//! - agents act in an **interleaved, conflict-free** round-robin; every
//!   action's quality is checked with the simulator, whose call count is
//!   the framework's cost metric;
//! - all Q-tables follow the Bellman update of Eqs. (1)–(2):
//!   `Q(s,a) ← (1−α)·Q(s,a) + α·[R + γ·max_a' Q(s',a')]`.
//!
//! A single-level, single-agent [`FlatQPlacer`] over the monolithic state
//! space is included for the scalability ablation, and
//! [`runner`] wires Q-learning, simulated annealing, and the symmetric
//! baselines to the same [`PlacementTask`] so Fig. 3 can be regenerated
//! end to end.
//!
//! Every method is step-driven behind the [`Optimizer`] trait; the generic
//! [`runner::Driver`] owns budgets ([`runner::Budget`]), the checkpoints a
//! sliced run pauses at ([`runner::RunCheckpoint`]), and report assembly,
//! and [`run_portfolio`]
//! fans seeds × methods across threads with bit-identical-to-sequential
//! trajectories.
//!
//! # Examples
//!
//! ```
//! use breaksym_core::{MlmaConfig, PlacementTask};
//! use breaksym_lde::LdeModel;
//! use breaksym_netlist::circuits;
//!
//! let task = PlacementTask::new(circuits::diff_pair(), 10, LdeModel::nonlinear(1.0, 1));
//! let cfg = MlmaConfig { episodes: 3, steps_per_episode: 10, max_evals: 200, ..MlmaConfig::default() };
//! let report = breaksym_core::runner::run_mlma(&task, &cfg)?;
//! assert!(report.best_cost <= report.initial_cost);
//! # Ok::<(), breaksym_core::PlaceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod flat;
mod mlma;
mod objective;
mod optimizer;
mod portfolio;
mod qtable;
mod report;
pub mod runner;
mod task;

pub use breaksym_anneal::rng_serde;
pub use config::{EpsilonSchedule, Exploration, MlmaConfig, QParams, SoftmaxSchedule};
pub use error::PlaceError;
pub use flat::FlatQPlacer;
pub use mlma::{MultiLevelPlacer, RunTracker, Sample};
pub use objective::{Fom, FomSpec, Objective};
pub use optimizer::{Optimizer, OptimizerStatus, Proposal};
pub use portfolio::{run_portfolio, MethodSpec};
pub use qtable::{AgentTable, QTable};
pub use report::RunReport;
pub use runner::{Budget, Driver, RunCheckpoint, SliceOutcome, FORMAT};
pub use task::PlacementTask;

// The vocabulary callers need alongside this crate.
pub use breaksym_layout::LayoutEnv;
pub use breaksym_lde::LdeModel;
pub use breaksym_sim::{CacheStats, EvalCache, Evaluator, Metrics, SimCounter, StatsSnapshot};
