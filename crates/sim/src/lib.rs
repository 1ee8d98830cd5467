//! A small analog circuit simulator: DC operating point, small-signal AC,
//! and the metric extraction the placement objective consumes.
//!
//! This crate substitutes for the paper's Virtuoso/Spectre + Calibre stack.
//! The optimisation loop only needs a deterministic oracle
//! `placement → metrics` whose mismatch/offset responds to LDE-induced
//! parameter shifts the way a real circuit does; that is exactly what is
//! built here, from scratch:
//!
//! - [`Complex`] / dense [`lu_solve_in_place`] — no external linear algebra;
//! - square-law MOS large-signal model with analytic derivatives
//!   ([`mos`]), perturbed per device by [`ParamShift`]s from the LDE model;
//! - damped-Newton **DC** solver over the full MNA system ([`DcSolver`]);
//! - complex **AC** solver at the DC operating point ([`AcSolver`]);
//! - class-specific testbenches ([`Testbench`]) producing [`Metrics`] for
//!   the paper's three circuit classes (CM, COMP, OTA);
//! - testbench auto-wiring ([`autowire`]) that completes bare user
//!   netlists: ports inferred by net kind/name, missing supply/reference/
//!   bias sources injected deterministically;
//! - a per-circuit [`SolverWorkspace`] arena so repeated evaluations
//!   allocate nothing after warmup, bit-identically to fresh solves;
//! - a shared [`SimCounter`] — the "#simulations" column of Fig. 3;
//! - a Monte-Carlo engine ([`MonteCarlo`]) separating *random* from
//!   *systematic* variation, mirroring the paper's introduction.
//!
//! # Examples
//!
//! ```
//! use breaksym_geometry::GridSpec;
//! use breaksym_layout::LayoutEnv;
//! use breaksym_lde::LdeModel;
//! use breaksym_netlist::circuits;
//! use breaksym_sim::Evaluator;
//!
//! let env = LayoutEnv::sequential(circuits::current_mirror_medium(), GridSpec::square(16))?;
//! let eval = Evaluator::new(LdeModel::nonlinear(1.0, 7));
//! let metrics = eval.evaluate(&env)?;
//! assert!(metrics.mismatch_pct.expect("CM reports mismatch") >= 0.0);
//! assert_eq!(eval.counter().count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod autowire;
mod cache;
mod complex;
mod counter;
mod dc;
mod error;
mod evaluator;
mod linalg;
mod metrics;
mod monte;
pub mod mos;
mod op_report;
mod stamp;
mod testbench;
mod tran;
mod workspace;

pub use ac::{AcSolver, AcSweep};
pub use autowire::{autowire, Autowired};
pub use cache::{CacheExportEntry, CacheStats, EvalCache, StatsSnapshot, DEFAULT_CACHE_CAPACITY};
pub use complex::Complex;
pub use counter::SimCounter;
pub use dc::{DcSolution, DcSolver};
pub use error::SimError;
pub use evaluator::{Evaluator, FAIL_CACHE_INSERT, FAIL_EVALUATE};
pub use linalg::lu_solve_in_place;
pub use metrics::Metrics;
pub use monte::{MismatchStats, MonteCarlo};
pub use op_report::{DeviceOp, OpReport, Region};
pub use stamp::{ExtraElement, MnaContext};
pub use testbench::{EvalOptions, Testbench};
pub use tran::{TransientResult, TransientSolver};
pub use workspace::SolverWorkspace;

// Re-export what callers need alongside this crate.
pub use breaksym_lde::{LdeModel, ParamShift};
pub use breaksym_route::{ExtractionTech, Parasitics};
