//! Reusable per-circuit solver scratch: the arena behind the oracle.
//!
//! Every evaluation of a placement solves MNA systems whose *structure*
//! (node ordering, branch layout, matrix size) is fixed by the circuit and
//! testbench and never changes across placements. Only the *values* change
//! — LDE parameter shifts and extracted parasitics move with the layout.
//! [`SolverWorkspace`] exploits that split: it owns every scratch buffer
//! the numeric path needs (dense Jacobian, complex LU matrix and RHS,
//! pivot permutation, Newton line-search state), so after the first solve
//! the refactor path in `dc`/`ac`/`tran` allocates nothing.
//!
//! # Bit-identity
//!
//! The workspace is an *arena*, not an algorithm change: every `*_ws`
//! solver entry point performs exactly the same floating-point operations
//! in exactly the same order as its allocating twin, so results are
//! bit-identical whether or not a workspace is reused. In particular a
//! factorisation never replays an earlier pivot order: partial pivoting
//! compares runtime magnitudes, so reusing a recorded permutation to skip
//! the pivot search would change which row divides which and break
//! bit-identity.

use crate::Complex;

/// Complex LU arena: matrix, RHS, solution, and the pivot permutation of
/// the most recent factorisation.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinearScratch {
    /// Row-major `n × n` system matrix.
    pub(crate) a: Vec<Complex>,
    /// Right-hand side, length `n`.
    pub(crate) b: Vec<Complex>,
    /// Solution vector of the last solve.
    pub(crate) x: Vec<Complex>,
    /// Pivot row chosen per elimination column in the last factorisation.
    pub(crate) pivots: Vec<usize>,
}

/// Real Newton arena: Jacobian, residual, and line-search trial state.
#[derive(Debug, Clone, Default)]
pub(crate) struct NewtonScratch {
    /// Dense Jacobian, row-major `n × n` — the largest allocation of a solve.
    pub(crate) jac: Vec<f64>,
    /// Residual / RHS of the Newton update system.
    pub(crate) rhs: Vec<f64>,
    /// Trial-point Jacobian for the line search.
    pub(crate) tj: Vec<f64>,
    /// Trial-point residual for the line search.
    pub(crate) tf: Vec<f64>,
    /// Line-search trial unknown vector.
    pub(crate) trial: Vec<f64>,
    /// Newton update `Δx`.
    pub(crate) delta: Vec<f64>,
}

/// Arena-allocated scratch shared across evaluations of one circuit.
///
/// Create one per circuit (or per worker thread) and thread it through the
/// `*_ws` solver entry points; the buffers grow to the circuit's MNA size
/// on first use and are reused afterwards. A workspace is valid for any
/// circuit.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// DC solution vector (node voltages then branch currents).
    pub(crate) x: Vec<f64>,
    /// Newton iteration scratch.
    pub(crate) newton: NewtonScratch,
    /// Complex LU scratch (shared by the real solve via promotion).
    pub(crate) lin: LinearScratch,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Pivot rows chosen by the most recent factorisation run through this
    /// workspace (empty before the first solve).
    pub fn last_pivots(&self) -> &[usize] {
        &self.lin.pivots
    }

    /// Splits the workspace into the disjoint parts a DC solve needs.
    pub(crate) fn dc_parts(&mut self) -> (&mut Vec<f64>, &mut NewtonScratch, &mut LinearScratch) {
        (&mut self.x, &mut self.newton, &mut self.lin)
    }
}
