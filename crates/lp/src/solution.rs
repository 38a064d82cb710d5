//! Optimal solution returned by the solver, plus the [`Basis`] type that
//! lets one solve warm-start the next.

use crate::problem::{shifted, Problem};
use crate::simplex::TOLERANCE;
use std::fmt;
use std::ops::Range;

/// One basic variable of a simplex [`Basis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasisVar {
    /// A structural (user) variable, by column index.
    Structural(usize),
    /// The slack of an inequality row, by *original row* index.
    Slack(usize),
    /// The *starting logical* of a row, by original row index: the
    /// column a cold solve would start the row on — its artificial where
    /// the row has one (equalities, rows whose right-hand side flips
    /// sign under normalization), its slack otherwise. Never exported by
    /// a solve; written by [`Basis::extend_logical`] and
    /// [`Basis::remove_ranges`] to say "nothing covers this row yet".
    Logical(usize),
}

/// The basis of an optimal vertex: which variable is basic in each
/// constraint row, in row order.
///
/// Obtained from [`crate::Solution::basis`] and fed to
/// [`crate::Problem::solve_warm`] to restart on a related problem: a
/// parameter sweep or adaptive re-solve where only coefficients moved,
/// or — edited in step with the problem by [`Basis::extend_logical`],
/// [`Basis::remove_ranges`] and [`Basis::truncate`] — the same problem
/// with rows and columns appended or removed. An exported basis
/// never names an artificial variable; an edited one may, through
/// [`BasisVar::Logical`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Basis {
    slots: Vec<BasisVar>,
}

impl Basis {
    pub(crate) fn new(slots: Vec<BasisVar>) -> Self {
        Basis { slots }
    }

    /// Grows the basis to `rows` rows, the edit that goes with appending
    /// constraints (and any number of columns, which start nonbasic):
    /// each new row enters on its [starting logical](BasisVar::Logical).
    /// The old rows' basic values are unchanged when the new columns are
    /// zero in them or stay nonbasic, so the extended basis is as primal
    /// feasible as the old one was. No-op when `rows` is not larger.
    pub fn extend_logical(&mut self, rows: usize) {
        let old = self.slots.len();
        self.slots.extend((old..rows).map(BasisVar::Logical));
    }

    /// Drops every row with index ≥ `rows` — the undo of
    /// [`Basis::extend_logical`] when the appended rows are truncated
    /// from the problem again.
    pub fn truncate(&mut self, rows: usize) {
        self.slots.truncate(rows);
    }

    /// The edit that goes with [`Problem::remove_ranges`]: drops the
    /// rows in `rows` and the columns in `cols` (sorted, disjoint ranges)
    /// and renumbers what is left. A removed row's slot goes, and so does
    /// every removed column, slack or logical wherever it was basic. A
    /// survivor whose slot went fills a slot left empty, and each slot
    /// still empty takes the [starting logical](BasisVar::Logical) of a
    /// row nothing covers: the rows of the empty slots first, then the
    /// lowest (in a block-angular layout, the shared rows). Exact when
    /// the removed columns are basic only in the removed rows; otherwise
    /// the solver's repair and dual phase decide what survives.
    pub fn remove_ranges(&mut self, rows: &[Range<usize>], cols: &[Range<usize>]) {
        let row = |r: usize| shifted(rows, r);
        let renumbered = |v: BasisVar| match v {
            BasisVar::Structural(j) => shifted(cols, j).map(BasisVar::Structural),
            BasisVar::Slack(r) => row(r).map(BasisVar::Slack),
            BasisVar::Logical(r) => row(r).map(BasisVar::Logical),
        };
        let (mut kept, mut orphans, mut vacated) = (Vec::new(), Vec::new(), Vec::new());
        for (r, &v) in self.slots.iter().enumerate() {
            match (row(r), renumbered(v)) {
                (Some(_), Some(v)) => kept.push(v),
                (Some(r), None) => vacated.push(r),
                (None, Some(v)) => orphans.push(v),
                (None, None) => {}
            }
        }
        let rows_left = kept.len() + vacated.len();
        kept.extend(orphans);
        kept.truncate(rows_left);
        let mut covered = vec![false; rows_left];
        for v in &kept {
            if let BasisVar::Slack(r) | BasisVar::Logical(r) = *v {
                if let Some(c) = covered.get_mut(r) {
                    *c = true;
                }
            }
        }
        // Each slot still empty leaves at least one row uncovered, so the
        // search always finds one.
        let mut rows_to_try = vacated.into_iter().chain(0..rows_left);
        while kept.len() < rows_left {
            let row = rows_to_try
                .find(|&u| !covered[u])
                .expect("an uncovered row");
            covered[row] = true;
            kept.push(BasisVar::Logical(row));
        }
        self.slots = kept;
    }

    /// The basic variable of each constraint row, in row order.
    pub fn slots(&self) -> &[BasisVar] {
        &self.slots
    }

    /// Number of rows the basis spans.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the basis spans zero rows.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl fmt::Display for Basis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match s {
                BasisVar::Structural(j) => write!(f, "x{j}")?,
                BasisVar::Slack(r) => write!(f, "s{r}")?,
                BasisVar::Logical(r) => write!(f, "l{r}")?,
            }
        }
        write!(f, "]")
    }
}

/// An optimal vertex of the linear program.
///
/// Produced by [`crate::Problem::solve`]; infeasible/unbounded outcomes are
/// reported as [`crate::SolveError`] instead, so a `Solution` is always
/// optimal within the solver tolerance — except one from
/// [`crate::Problem::find_feasible_with`], which is a feasible vertex
/// only: its objective is the value at `x`, and it carries no duals.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    x: Vec<f64>,
    objective: f64,
    duals: Vec<f64>,
    iterations: usize,
    basis: Option<Basis>,
    warm: bool,
}

impl Solution {
    pub(crate) fn new(
        x: Vec<f64>,
        objective: f64,
        duals: Vec<f64>,
        iterations: usize,
        basis: Option<Basis>,
        warm: bool,
    ) -> Self {
        Solution {
            x,
            objective,
            duals,
            iterations,
            basis,
            warm,
        }
    }

    /// Optimal values of the structural variables.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Optimal objective value, in the caller's sense (minimization
    /// problems report the minimized value, not its negation).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Dual value (shadow price) per constraint row, in insertion order.
    ///
    /// For a `≤` row of a maximization problem this is the marginal
    /// objective gain per unit of extra right-hand side — e.g. extra
    /// communication quality per extra bit/s of bandwidth (paper §IX-C).
    /// Redundant rows dropped during presolve report `0`. Empty for a
    /// [`crate::Problem::find_feasible_with`] vertex.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Number of simplex pivots performed across both phases.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The optimal basis, suitable for [`crate::Problem::solve_warm`] on a
    /// related problem.
    ///
    /// `None` when the basis is not re-usable: a redundant row was dropped
    /// during presolve, or an artificial variable remained basic.
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }

    /// Whether this solve started from the caller-provided warm basis
    /// (`false` for cold solves and for warm attempts that were rejected
    /// and restarted from the all-logical basis). Starting warm does not
    /// mean phase 1 was skipped: a basis that names artificials
    /// ([`BasisVar::Logical`]) runs phase 1 *from* it, over those few.
    pub fn used_warm_start(&self) -> bool {
        self.warm
    }

    /// Moves the optimal basis out (see [`Solution::basis`]), for callers
    /// that carry it into the next solve without a copy.
    pub fn take_basis(&mut self) -> Option<Basis> {
        self.basis.take()
    }

    /// Consumes the solution and returns the variable vector.
    pub fn into_x(self) -> Vec<f64> {
        self.x
    }

    /// Certifies this solution against the problem it claims to solve:
    /// replays every [`Constraint::violation`](crate::Constraint::violation)
    /// and the objective value against the returned `x`.
    ///
    /// This is the independent half of a solve — it touches none of the
    /// solver's internal state (tableau, basis, eta file), only the raw
    /// problem rows — so a passing certificate means the reported vertex
    /// is genuinely feasible and the reported objective genuinely matches
    /// `x`, whatever path (cold, warm-started, either backend) produced
    /// it. Intended for debug builds and tests: assert it after every
    /// solve whose result feeds further computation (the fleet LP
    /// decomposition path does exactly that).
    ///
    /// Tolerances are scale-aware: a row may violate by at most
    /// `tol × scale`, where `scale = max(‖row‖∞, |rhs|)` (floored at
    /// `1e-300`) is the factor the solver equilibrates the row by, and the
    /// objective by `tol × max(1, |objective|)`, with
    /// `tol = 2 ×` [`TOLERANCE`]: what the solver promises on an
    /// equilibrated row (phase 1 accepts a residual up to the tolerance),
    /// plus an equal allowance for the extraction's roundoff.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first failure: a
    /// dimension mismatch, a negative coordinate, a violated row (with
    /// its index and violation magnitude), or an objective mismatch.
    pub fn certify(&self, problem: &Problem) -> Result<(), String> {
        check_point(problem, &self.x)?;
        let replayed = problem.objective_value(&self.x);
        let obj_scale = self.objective.abs().max(1.0);
        if (replayed - self.objective).abs() > CERTIFY_TOL * obj_scale {
            return Err(format!(
                "objective mismatch: reported {}, replayed {replayed}",
                self.objective
            ));
        }
        Ok(())
    }
}

/// Relative tolerance of [`Solution::certify`]: what the solver promises
/// on an equilibrated row, [`TOLERANCE`], plus an equal allowance for the
/// roundoff of the extraction. Phase 1 declares a problem feasible when
/// its artificials sum to at most `TOLERANCE` on the equilibrated rows,
/// so a returned vertex may miss one row by up to `TOLERANCE × scale`
/// (an empty `≥` row with a subnormal right-hand side does so, at
/// `0.97 × TOLERANCE`, in the service's property tests). The final `x` is
/// read from a fresh factorization of the final basis; its residual on
/// every row with a nonzero coefficient stayed below `1e-12 × scale`
/// over the whole test suite (debug builds certify every joint solve),
/// so doubling `TOLERANCE` leaves that roundoff more than a thousandfold
/// room while still refusing a row missed by twice what the solver
/// allows — `1e-7`, the tolerance this replaced, let a row be missed by
/// a hundred times that.
const CERTIFY_TOL: f64 = 2.0 * TOLERANCE;

/// The primal half of [`Solution::certify`]: `x` has the problem's
/// dimension, is finite and non-negative, and meets every row, within
/// the certificate's scale-aware tolerance.
pub(crate) fn check_point(problem: &Problem, x: &[f64]) -> Result<(), String> {
    if x.len() != problem.num_vars() {
        return Err(format!(
            "solution has {} variables, problem has {}",
            x.len(),
            problem.num_vars()
        ));
    }
    for (j, &v) in x.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("x[{j}] = {v} is not finite"));
        }
        if v < -CERTIFY_TOL {
            return Err(format!("x[{j}] = {v} violates x ≥ 0"));
        }
    }
    for (i, c) in problem.constraints().iter().enumerate() {
        let scale = c.scale();
        let violation = c.violation(x);
        if violation > CERTIFY_TOL * scale {
            return Err(format!(
                "row {i} ({:?}) violated by {violation:.3e} (scale {scale:.3e})",
                c.kind()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_problem() -> Problem {
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1.0, 1.0], 4.0).unwrap();
        p.add_le(vec![1.0, 0.0], 2.0).unwrap();
        p.add_eq(vec![0.0, 1.0], 1.0).unwrap();
        p
    }

    #[test]
    fn certify_accepts_a_real_solve() {
        let p = sample_problem();
        let s = p.solve(&crate::SolverOptions::default()).unwrap();
        s.certify(&p).expect("optimal solution must certify");
    }

    #[test]
    fn certify_rejects_forged_solutions() {
        let p = sample_problem();
        // Wrong dimension.
        let s = Solution::new(vec![1.0], 3.0, vec![], 0, None, false);
        assert!(s.certify(&p).unwrap_err().contains("variables"));
        // Negative coordinate.
        let s = Solution::new(vec![-1.0, 1.0], -1.0, vec![], 0, None, false);
        assert!(s.certify(&p).unwrap_err().contains("x ≥ 0"));
        // Violated inequality row (x0 = 3 > 2).
        let s = Solution::new(vec![3.0, 1.0], 11.0, vec![], 0, None, false);
        assert!(s.certify(&p).unwrap_err().contains("row 1"));
        // Violated equality row (x1 = 0 ≠ 1).
        let s = Solution::new(vec![1.0, 0.0], 3.0, vec![], 0, None, false);
        assert!(s.certify(&p).unwrap_err().contains("row 2"));
        // Feasible point, lied-about objective (true value 3·2 + 2·1 = 8).
        let s = Solution::new(vec![2.0, 1.0], 42.0, vec![], 0, None, false);
        assert!(s.certify(&p).unwrap_err().contains("objective"));
        // Non-finite coordinate.
        let s = Solution::new(vec![f64::NAN, 1.0], 0.0, vec![], 0, None, false);
        assert!(s.certify(&p).unwrap_err().contains("finite"));
    }

    /// A row is held to twice the solver's tolerance on its own scale,
    /// not to `1e-7` on a scale of at least 1.
    #[test]
    fn certify_holds_rows_to_the_solvers_tolerance_at_their_scale() {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![1.0, 0.0], 2.0).unwrap(); // scale 2
        p.add_le(vec![0.0, 1e-3], 1e-3).unwrap(); // scale 1e-3
        let at = |x: [f64; 2]| Solution::new(x.to_vec(), x[0], vec![], 0, None, false);
        at([2.0 + 2.0 * TOLERANCE, 1.0])
            .certify(&p)
            .expect("within 2·tol·2");
        let err = at([2.0 + 1e-8, 1.0]).certify(&p).unwrap_err();
        assert!(err.contains("row 0"), "{err}");
        at([2.0, 1.0 + TOLERANCE])
            .certify(&p)
            .expect("within 2·tol·1e-3");
        let err = at([2.0, 1.0 + 1e-8]).certify(&p).unwrap_err();
        assert!(err.contains("row 1"), "{err}");
    }

    #[test]
    fn certify_respects_minimization_sense() {
        let mut p = Problem::minimize(vec![1.0, 4.0]);
        p.add_ge(vec![1.0, 1.0], 2.0).unwrap();
        let s = p.solve(&crate::SolverOptions::default()).unwrap();
        s.certify(&p).expect("minimization optimum must certify");
        assert!((s.objective() - 2.0).abs() < 1e-9);
    }
}
