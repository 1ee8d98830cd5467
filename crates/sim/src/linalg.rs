//! Dense complex LU factorisation with partial pivoting.
//!
//! MNA systems for the benchmark circuits have at most a few dozen
//! unknowns, so a dense `O(n³)` solve is the right tool; no external
//! linear-algebra crate is needed.

use crate::workspace::LinearScratch;
use crate::{Complex, SimError};

/// Solves `A·x = b` fully in place: `a` and `b` are overwritten with the
/// factorisation, the solution is written to `x` (cleared and resized),
/// and the pivot row chosen per column is recorded in `pivots`.
///
/// `a` is row-major `n × n`; `b` has length `n`. It allocates nothing once
/// `x` and `pivots` have grown: callers that hold a
/// [`SolverWorkspace`](crate::SolverWorkspace) route its buffers through
/// here.
///
/// # Errors
///
/// Returns [`SimError::SingularMatrix`] when a pivot underflows, which in
/// MNA terms means a floating node or a voltage-source loop.
///
/// # Panics
///
/// Panics if `a.len() != n*n` with `n = b.len()` (caller bug, not data).
///
/// # Examples
///
/// ```
/// use breaksym_sim::{lu_solve_in_place, Complex};
///
/// // 2x2: [[2, 1], [1, 3]] · x = [5, 10]  →  x = [1, 3]
/// let mut a = vec![
///     Complex::real(2.0), Complex::real(1.0),
///     Complex::real(1.0), Complex::real(3.0),
/// ];
/// let mut b = vec![Complex::real(5.0), Complex::real(10.0)];
/// let (mut x, mut pivots) = (Vec::new(), Vec::new());
/// lu_solve_in_place(&mut a, &mut b, &mut x, &mut pivots)?;
/// assert!((x[0] - Complex::real(1.0)).abs() < 1e-12);
/// assert!((x[1] - Complex::real(3.0)).abs() < 1e-12);
/// # Ok::<(), breaksym_sim::SimError>(())
/// ```
pub fn lu_solve_in_place(
    a: &mut [Complex],
    b: &mut [Complex],
    x: &mut Vec<Complex>,
    pivots: &mut Vec<usize>,
) -> Result<(), SimError> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix shape must match rhs length");
    const PIVOT_EPS: f64 = 1e-300;
    pivots.clear();

    for col in 0..n {
        // Partial pivot: the row with the largest magnitude in this column.
        let mut pivot_row = col;
        let mut pivot_mag = a[col * n + col].abs();
        for row in (col + 1)..n {
            let mag = a[row * n + col].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = row;
            }
        }
        if pivot_mag < PIVOT_EPS {
            return Err(SimError::SingularMatrix { column: col });
        }
        pivots.push(pivot_row);
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor.abs() == 0.0 {
                continue;
            }
            a[row * n + col] = Complex::ZERO;
            for k in (col + 1)..n {
                let sub = factor * a[col * n + k];
                a[row * n + k] -= sub;
            }
            let sub = factor * b[col];
            b[row] -= sub;
        }
    }

    // Back substitution.
    x.clear();
    x.resize(n, Complex::ZERO);
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Ok(())
}

/// Workspace-routed real solve: promotes into the arena's complex buffers
/// and writes the real solution into `out` (cleared here).
///
/// # Errors
///
/// Same as [`lu_solve_in_place`].
pub(crate) fn lu_solve_real_into(
    a: &[f64],
    b: &[f64],
    lin: &mut LinearScratch,
    out: &mut Vec<f64>,
) -> Result<(), SimError> {
    lin.a.clear();
    lin.a.extend(a.iter().map(|&v| Complex::real(v)));
    lin.b.clear();
    lin.b.extend(b.iter().map(|&v| Complex::real(v)));
    lu_solve_in_place(&mut lin.a, &mut lin.b, &mut lin.x, &mut lin.pivots)?;
    out.clear();
    out.extend(lin.x.iter().map(|z| z.re));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_testkit::check_cases;
    use rand::Rng;

    fn solve(mut a: Vec<Complex>, mut b: Vec<Complex>) -> Result<Vec<Complex>, SimError> {
        let (mut x, mut pivots) = (Vec::new(), Vec::new());
        lu_solve_in_place(&mut a, &mut b, &mut x, &mut pivots)?;
        assert_eq!(pivots.len(), x.len(), "one pivot per column");
        Ok(x)
    }

    #[test]
    fn identity_returns_rhs() {
        let n = 4;
        let mut a = vec![Complex::ZERO; n * n];
        for i in 0..n {
            a[i * n + i] = Complex::ONE;
        }
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let x = solve(a, b.clone()).unwrap();
        for i in 0..n {
            assert!((x[i] - b[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn solves_a_known_complex_system() {
        // [[1+j, 2], [3, 4-j]] x = [5, 6]
        let a = vec![
            Complex::new(1.0, 1.0),
            Complex::real(2.0),
            Complex::real(3.0),
            Complex::new(4.0, -1.0),
        ];
        let b = vec![Complex::real(5.0), Complex::real(6.0)];
        let x = solve(a.clone(), b.clone()).unwrap();
        // Check residual A·x − b.
        let r0 = a[0] * x[0] + a[1] * x[1] - b[0];
        let r1 = a[2] * x[0] + a[3] * x[1] - b[1];
        assert!(r0.abs() < 1e-12 && r1.abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] x = [2, 3] → x = [3, 2]
        let a = vec![Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO];
        let x = solve(a, vec![Complex::real(2.0), Complex::real(3.0)]).unwrap();
        assert!((x[0] - Complex::real(3.0)).abs() < 1e-15);
        assert!((x[1] - Complex::real(2.0)).abs() < 1e-15);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = vec![Complex::ONE, Complex::ONE, Complex::ONE, Complex::ONE];
        let err = solve(a, vec![Complex::ONE, Complex::ONE]).unwrap_err();
        assert!(matches!(err, SimError::SingularMatrix { .. }));
    }

    #[test]
    fn real_solve_promotes_to_complex() {
        let a = [2.0, 0.0, 0.0, 4.0];
        let mut x = Vec::new();
        lu_solve_real_into(&a, &[6.0, 8.0], &mut LinearScratch::default(), &mut x).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn reused_scratch_matches_fresh_solves_bit_for_bit() {
        let mut lin = LinearScratch::default();
        let mut out = Vec::new();
        for scale in [1.0f64, 2.0, 0.5] {
            let a = [2.0 * scale, 1.0, 1.0, 4.0 * scale];
            let b = [6.0, 8.0 * scale];
            let mut fresh = Vec::new();
            lu_solve_real_into(&a, &b, &mut LinearScratch::default(), &mut fresh).unwrap();
            lu_solve_real_into(&a, &b, &mut lin, &mut out).unwrap();
            assert_eq!(fresh.len(), out.len());
            for (f, o) in fresh.iter().zip(&out) {
                assert_eq!(f.to_bits(), o.to_bits());
            }
        }
    }

    /// Random diagonally dominant systems solve with a small residual.
    #[test]
    fn prop_dd_systems_solve() {
        check_cases(256, |rng| {
            let n = 6;
            let mut a = vec![Complex::ZERO; n * n];
            for i in 0..n {
                let mut off_sum = 0.0;
                for j in 0..n {
                    // Every entry is drawn (diagonal ones unused), as the
                    // 36-value matrix draw always was.
                    let v = rng.gen_range(-1.0f64..1.0);
                    if i != j {
                        a[i * n + j] = Complex::new(v, v * 0.5);
                        off_sum += a[i * n + j].abs();
                    }
                }
                a[i * n + i] = Complex::real(off_sum + 1.0); // strictly dominant
            }
            let b: Vec<Complex> =
                (0..n).map(|_| Complex::real(rng.gen_range(-10.0f64..10.0))).collect();
            let x = solve(a.clone(), b.clone()).unwrap();
            for i in 0..n {
                let mut acc = Complex::ZERO;
                for j in 0..n {
                    acc += a[i * n + j] * x[j];
                }
                assert!((acc - b[i]).abs() < 1e-8);
            }
        });
    }
}
