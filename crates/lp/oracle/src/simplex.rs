//! Two-phase primal simplex on a dense tableau.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution; phase 2 optimizes the user objective. Redundant rows
//! discovered at the end of phase 1 are dropped. Anti-cycling is handled by
//! switching from Dantzig to Bland pivoting after [`DEGENERATE_SWITCH`]
//! degenerate pivots in a row.

use dmc_lp::{ConstraintKind, Problem, ProblemError, SolveError, SolverOptions, TOLERANCE};

/// Consecutive degenerate pivots after which pricing falls back to
/// Bland's rule, which cannot cycle (the revised driver's switch too).
const DEGENERATE_SWITCH: usize = 64;

/// What the tableau found: the optimum in the caller's sense.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// The optimal point, one entry per structural variable.
    pub x: Vec<f64>,
    /// The objective at `x`, in the caller's sense (minimized or
    /// maximized).
    pub objective: f64,
    /// One dual value (shadow price) per constraint row, in the caller's
    /// sense.
    pub duals: Vec<f64>,
    /// Pivots of both phases, the drive-out of artificials excluded.
    pub iterations: usize,
}

/// The power of two at or below the objective's largest magnitude (1
/// for an all-zero or subnormal objective) — the scale `dmc-lp` prices
/// at, so reduced costs meet [`TOLERANCE`] on the same footing.
fn objective_scale(objective: &[f64]) -> f64 {
    let top = objective.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    if top.is_normal() {
        // Clearing the mantissa leaves 2^⌊log₂ top⌋.
        f64::from_bits(top.to_bits() & 0xFFF0_0000_0000_0000)
    } else {
        1.0
    }
}

/// Dense tableau: `rows` constraint rows plus one objective row, each of
/// width `cols + 1` (last column is the RHS).
struct Tableau {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Basic variable (column index) per constraint row.
    basis: Vec<usize>,
}

impl Tableau {
    fn width(&self) -> usize {
        self.cols + 1
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * (self.cols + 1) + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * (self.cols + 1) + c] = v;
    }

    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    /// The objective row is stored at index `rows`.
    fn obj(&self, c: usize) -> f64 {
        self.at(self.rows, c)
    }

    fn rhs_obj(&self) -> f64 {
        self.at(self.rows, self.cols)
    }

    /// Gauss-Jordan pivot on `(pr, pc)`, including the objective row.
    fn pivot(&mut self, pr: usize, pc: usize) {
        let w = self.width();
        let pivot = self.at(pr, pc);
        debug_assert!(pivot.abs() > 0.0, "pivot on zero element");
        let inv = 1.0 / pivot;
        let prow_start = pr * w;
        for j in 0..w {
            self.data[prow_start + j] *= inv;
        }
        // Pivot column becomes exactly the unit vector; set explicitly to
        // avoid drift.
        self.data[prow_start + pc] = 1.0;
        for r in 0..=self.rows {
            if r == pr {
                continue;
            }
            let factor = self.at(r, pc);
            // Row-elimination skip: an exactly-zero pivot-column entry leaves
            // the row unchanged.
            if factor == 0.0 {
                continue;
            }
            let row_start = r * w;
            for j in 0..w {
                let delta = factor * self.data[prow_start + j];
                self.data[row_start + j] -= delta;
            }
            self.data[row_start + pc] = 0.0;
        }
        self.basis[pr] = pc;
    }

    /// Rebuilds the objective row for cost vector `cost` (length `cols`)
    /// given the current basis: `obj[j] = c_B·B⁻¹A_j − c_j`,
    /// `obj[rhs] = c_B·B⁻¹b`.
    fn install_objective(&mut self, cost: &[f64]) {
        let w = self.width();
        // Zero the row first.
        for j in 0..w {
            self.set(self.rows, j, 0.0);
        }
        let obj_start = self.rows * w;
        for (j, &c) in cost.iter().enumerate().take(self.cols) {
            self.data[obj_start + j] = -c;
        }
        for r in 0..self.rows {
            let cb = cost[self.basis[r]];
            // Pricing skip: an exactly-zero basic cost contributes nothing to
            // the reduced costs.
            if cb == 0.0 {
                continue;
            }
            let row_start = r * w;
            for j in 0..w {
                let delta = cb * self.data[row_start + j];
                self.data[self.rows * w + j] += delta;
            }
        }
        // Basic columns must have exactly zero reduced cost.
        for r in 0..self.rows {
            let b = self.basis[r];
            self.set(self.rows, b, 0.0);
        }
    }

    /// Removes constraint row `r` (used for redundant rows after phase 1).
    fn remove_row(&mut self, r: usize) {
        let w = self.width();
        let start = r * w;
        self.data.drain(start..start + w);
        self.basis.remove(r);
        self.rows -= 1;
    }
}

/// Per-original-row bookkeeping recorded during normalization.
#[derive(Debug, Clone, Copy)]
struct RowInfo {
    /// Column holding this row's slack variable, if it is an inequality.
    slack_col: Option<usize>,
    /// Column holding this row's artificial variable, if one was created.
    art_col: Option<usize>,
    /// Whether the row was multiplied by −1 to make its RHS non-negative.
    negated: bool,
    /// Scale factor the row was divided by during equilibration.
    scale: f64,
}

/// Solves `problem` to the optimum on a fresh tableau, with the default
/// pivot cap ([`SolverOptions::max_iterations`]).
///
/// # Errors
///
/// [`SolveError::Infeasible`], [`SolveError::Unbounded`] and
/// [`SolveError::IterationLimit`] as `dmc-lp` reports them, and the
/// problem errors it validates before a solve (no variables, a
/// non-finite objective coefficient).
pub fn solve(problem: &Problem) -> Result<Optimum, SolveError> {
    let max_iterations = SolverOptions::default().max_iterations;
    solve_with(problem, max_iterations, DEGENERATE_SWITCH)
}

/// [`solve`] with Bland's rule taking over after `bland_after`
/// degenerate pivots in a row ([`DEGENERATE_SWITCH`] outside tests).
fn solve_with(
    problem: &Problem,
    max_iterations: usize,
    bland_after: usize,
) -> Result<Optimum, SolveError> {
    // Internal objective is always maximization; negation is exact, so
    // this is the problem's own stored objective bit for bit.
    let mut objective = problem.objective();
    if problem.minimizes() {
        for c in &mut objective {
            *c = -*c;
        }
    }
    if objective.is_empty() {
        return Err(ProblemError::Empty.into());
    }
    if objective.iter().any(|c| !c.is_finite()) {
        return Err(ProblemError::NonFiniteCoefficient.into());
    }
    let m = problem.num_constraints();
    let n = problem.num_vars();

    // ---- Row normalization metadata ------------------------------------
    // Equilibrate each row by its max |coeff| so tolerances are scale-free;
    // negate rows with negative RHS. Only metadata is computed here — the
    // normalized coefficients are written straight into the tableau below,
    // avoiding a per-row temporary allocation.
    let mut row_info = Vec::with_capacity(m);
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for c in problem.constraints() {
        let abs_max = c.values().iter().fold(0.0, |acc: f64, v| acc.max(v.abs()));
        let scale = abs_max.max(c.rhs().abs()).max(1e-300);
        let negated = c.rhs() / scale < 0.0;
        if c.kind() == ConstraintKind::LessEq {
            n_slack += 1;
        }
        if c.kind() == ConstraintKind::Eq || negated {
            n_art += 1;
        }
        row_info.push(RowInfo {
            slack_col: None,
            art_col: None,
            negated,
            scale,
        });
    }

    // ---- Column layout -------------------------------------------------
    // structural | slacks (one per inequality) | artificials
    let art_start = n + n_slack;
    let cols = art_start + n_art;

    let mut tab = Tableau {
        data: vec![0.0; (m + 1) * (cols + 1)],
        rows: m,
        cols,
        basis: vec![usize::MAX; m],
    };

    let mut next_slack = n;
    let mut next_art = art_start;
    for (r, c) in problem.constraints().iter().enumerate() {
        let info = &mut row_info[r];
        let sign = if info.negated { -1.0 } else { 1.0 };
        // The row's nonzeros, scattered into the zeroed tableau (divide,
        // then negate).
        for (&j, v) in c.support().iter().zip(c.values()) {
            let mut val = v / info.scale;
            if info.negated {
                val = -val;
            }
            tab.data[r * (cols + 1) + j as usize] = val;
        }
        let mut rhs = c.rhs() / info.scale;
        if info.negated {
            rhs = -rhs;
        }
        tab.data[r * (cols + 1) + cols] = rhs;
        if c.kind() == ConstraintKind::LessEq {
            // Slack carries the sign of the (possibly negated) row: for a
            // normalized row `−a·x ≤ −b` → `−a·x + s = −b` becomes, after
            // negation, `a·x − s = b`.
            tab.data[r * (cols + 1) + next_slack] = sign;
            info.slack_col = Some(next_slack);
            next_slack += 1;
        }
        if c.kind() == ConstraintKind::Eq || info.negated {
            tab.data[r * (cols + 1) + next_art] = 1.0;
            info.art_col = Some(next_art);
            tab.basis[r] = next_art;
            next_art += 1;
        } else {
            // Plain `≤` row with non-negative RHS: slack is basic.
            tab.basis[r] = info.slack_col.expect("LessEq row has a slack");
        }
    }
    debug_assert_eq!(next_art, cols);

    let mut iterations = 0usize;

    // ---- Phase 1: drive artificials to zero ----------------------------
    if n_art > 0 {
        let mut cost = vec![0.0; cols];
        for c in &mut cost[art_start..cols] {
            *c = -1.0; // maximize −Σ artificials
        }
        tab.install_objective(&cost);
        iterate(&mut tab, max_iterations, cols, &mut iterations, bland_after)?;
        let residual = -tab.rhs_obj();
        if residual > TOLERANCE {
            return Err(SolveError::Infeasible { residual });
        }
        purge_artificials(&mut tab, art_start);
    }

    // ---- Phase 2: user objective ---------------------------------------
    // Structural costs are untouched by row equilibration; they are
    // divided by the objective's power-of-two scale only.
    let mut cost = vec![0.0; cols];
    let obj_scale = objective_scale(&objective);
    for (c, &v) in cost[..n].iter_mut().zip(&objective) {
        *c = v / obj_scale;
    }
    tab.install_objective(&cost);
    // Artificials must never re-enter.
    iterate(
        &mut tab,
        max_iterations,
        art_start,
        &mut iterations,
        bland_after,
    )?;

    // ---- Extract primal solution ---------------------------------------
    let mut x = vec![0.0; n];
    for r in 0..tab.rows {
        let b = tab.basis[r];
        if b < n {
            // Clamp tiny negatives produced by roundoff.
            x[b] = tab.rhs(r).max(0.0);
        }
    }
    let objective_internal: f64 = objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    let objective_value = if problem.minimizes() {
        -objective_internal
    } else {
        objective_internal
    };

    // ---- Extract dual values -------------------------------------------
    // For row i with slack column s: y_i = obj_row[s] (phase-2 cost of the
    // slack is 0). For equality rows the artificial column plays the same
    // role. Negated rows flip the dual's sign; equilibration divides it by
    // the row scale, and the objective's scale multiplies it back.
    let mut duals = vec![0.0; m];
    for (orig, info) in row_info.iter().enumerate() {
        // For inequality rows the slack column's sign (−1 on negated rows)
        // already encodes the normalization flip, so `y = obj[slack]/scale`
        // holds in both cases. Equality rows read the dual off their
        // artificial column, which is always +1, so negated equalities flip.
        let (col, flip) = match (info.slack_col, info.art_col) {
            (Some(s), _) => (s, false),
            (None, Some(a)) => (a, info.negated),
            (None, None) => continue,
        };
        let mut y = tab.obj(col);
        if flip {
            y = -y;
        }
        y = y / info.scale * obj_scale;
        // In the caller's sense: for minimization the internal objective was
        // negated, so duals flip too.
        if problem.minimizes() {
            y = -y;
        }
        duals[orig] = y;
    }

    Ok(Optimum {
        x,
        objective: objective_value,
        duals,
        iterations,
    })
}

/// Runs simplex iterations until optimality on the current objective row.
///
/// `enter_limit` caps which columns may enter the basis (used to lock out
/// artificial columns during phase 2). Dantzig's rule picks the entering
/// column until `bland_after` degenerate pivots in a row, Bland's after.
fn iterate(
    tab: &mut Tableau,
    max_iterations: usize,
    enter_limit: usize,
    iterations: &mut usize,
    bland_after: usize,
) -> Result<(), SolveError> {
    let tol = TOLERANCE;
    let mut degenerate_run = 0usize;
    for _ in 0..max_iterations {
        let use_bland = degenerate_run >= bland_after;

        // --- entering column ---
        // Price off a contiguous slice of the objective row: one bounds
        // check instead of a `tab.obj(j)` index computation per column.
        let obj_start = tab.rows * tab.width();
        let obj_row = &tab.data[obj_start..obj_start + enter_limit];
        let enter: Option<usize> = if use_bland {
            obj_row.iter().position(|&rc| rc < -tol)
        } else {
            let mut best = -tol;
            let mut enter = None;
            for (j, &rc) in obj_row.iter().enumerate() {
                if rc < best {
                    best = rc;
                    enter = Some(j);
                }
            }
            enter
        };
        let Some(pc) = enter else {
            return Ok(()); // optimal
        };

        // --- leaving row (ratio test) ---
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..tab.rows {
            let a = tab.at(r, pc);
            if a > tol {
                let ratio = tab.rhs(r) / a;
                let better = ratio < best_ratio - tol
                    || (ratio < best_ratio + tol
                        && leave.is_some_and(|cur| tab.basis[r] < tab.basis[cur]));
                if leave.is_none() || better {
                    if ratio < best_ratio {
                        best_ratio = ratio;
                    }
                    leave = Some(r);
                }
            }
        }
        let Some(pr) = leave else {
            return Err(SolveError::Unbounded);
        };

        if best_ratio.abs() <= tol {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        tab.pivot(pr, pc);
        *iterations += 1;
    }
    Err(SolveError::IterationLimit {
        limit: max_iterations,
    })
}

/// After phase 1, pivots basic artificials out of the basis (degenerate
/// pivots) or removes their rows when linearly dependent.
///
/// `art_start` is the first artificial column; slacks and structural
/// variables live below it.
fn purge_artificials(tab: &mut Tableau, art_start: usize) {
    let mut r = 0;
    while r < tab.rows {
        if tab.basis[r] >= art_start {
            // Try to pivot in any non-artificial column with a nonzero
            // entry in this row (the RHS is ~0, so the pivot is degenerate
            // and preserves feasibility regardless of sign).
            let mut pivot_col = None;
            for j in 0..art_start {
                if tab.at(r, j).abs() > TOLERANCE.max(1e-10) {
                    pivot_col = Some(j);
                    break;
                }
            }
            match pivot_col {
                Some(pc) => {
                    tab.pivot(r, pc);
                    r += 1;
                }
                None => {
                    // Row is a linear combination of others: drop it.
                    tab.remove_row(r);
                }
            }
        } else {
            r += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_maximize() {
        // max 3x + 2y ; x + y <= 4 ; x + 3y <= 6 ; x,y >= 0 → x=4,y=0, obj 12
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1.0, 1.0], 4.0).unwrap();
        p.add_le(vec![1.0, 3.0], 6.0).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 12.0).abs() < 1e-9);
        assert!((s.x[0] - 4.0).abs() < 1e-9);
        assert!(s.x[1].abs() < 1e-9);
    }

    #[test]
    fn equality_constraint() {
        // max x + 2y ; x + y = 1 ; y <= 0.6 → x=0.4, y=0.6, obj 1.6
        let mut p = Problem::maximize(vec![1.0, 2.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 0.6).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 1.6).abs() < 1e-9);
        assert!((s.x[0] - 0.4).abs() < 1e-9);
        assert!((s.x[1] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn minimize_works() {
        // min 2x + 3y ; x + y >= 2 ; x,y >= 0 → x=2,y=0, obj 4
        let mut p = Problem::minimize(vec![2.0, 3.0]);
        p.add_ge(vec![1.0, 1.0], 2.0).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2
        let mut p = Problem::maximize(vec![1.0]);
        p.add_le(vec![1.0], 1.0).unwrap();
        p.add_ge(vec![1.0], 2.0).unwrap();
        match solve(&p) {
            Err(SolveError::Infeasible { residual }) => assert!(residual > 0.0),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![0.0, 1.0], 1.0).unwrap();
        assert!(matches!(solve(&p), Err(SolveError::Unbounded)));
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Beale's classic cycling example (cycles under pure Dantzig without
        // safeguards). The adaptive rule must terminate with the optimum.
        let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        p.add_le(vec![0.25, -60.0, -1.0 / 25.0, 9.0], 0.0).unwrap();
        p.add_le(vec![0.5, -90.0, -1.0 / 50.0, 3.0], 0.0).unwrap();
        p.add_le(vec![0.0, 0.0, 1.0, 0.0], 1.0).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 0.05).abs() < 1e-9);
    }

    #[test]
    fn bland_rule_terminates_on_beale() {
        // Beale's LP never runs `DEGENERATE_SWITCH` degenerate pivots
        // here, so Bland's rule is engaged from the first pivot.
        let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        p.add_le(vec![0.25, -60.0, -1.0 / 25.0, 9.0], 0.0).unwrap();
        p.add_le(vec![0.5, -90.0, -1.0 / 50.0, 3.0], 0.0).unwrap();
        p.add_le(vec![0.0, 0.0, 1.0, 0.0], 1.0).unwrap();
        let max_iterations = SolverOptions::default().max_iterations;
        let s = solve_with(&p, max_iterations, 0).unwrap();
        assert!((s.objective - 0.05).abs() < 1e-9);
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        // Same equality twice: rank-deficient.
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_eq(vec![2.0, 2.0], 2.0).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duals_match_known_shadow_prices() {
        // max 3x + 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18
        // classic: optimum (2,6) obj 36, duals (0, 1.5, 1).
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.add_le(vec![1.0, 0.0], 4.0).unwrap();
        p.add_le(vec![0.0, 2.0], 12.0).unwrap();
        p.add_le(vec![3.0, 2.0], 18.0).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-9);
        let d = &s.duals;
        assert!(d[0].abs() < 1e-9, "dual0 {}", d[0]);
        assert!((d[1] - 1.5).abs() < 1e-9, "dual1 {}", d[1]);
        assert!((d[2] - 1.0).abs() < 1e-9, "dual2 {}", d[2]);
    }

    #[test]
    fn badly_scaled_rows_are_equilibrated() {
        // Same geometry as simple_maximize but scaled by 1e8 (bits/sec).
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1e8, 1e8], 4e8).unwrap();
        p.add_le(vec![1e8, 3e8], 6e8).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 12.0).abs() < 1e-6);
        assert!((s.x[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_le_becomes_feasible_via_artificials() {
        // x0 - x1 <= -1  (i.e. x1 >= x0 + 1), maximize x0 with x1 <= 3.
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![1.0, -1.0], -1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 3.0).unwrap();
        let s = solve(&p).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        // Σx = 0 with x ≥ 0 forces x = 0.
        let mut p = Problem::maximize(vec![5.0, 7.0]);
        p.add_eq(vec![1.0, 1.0], 0.0).unwrap();
        let s = solve(&p).unwrap();
        assert!(s.objective.abs() < 1e-9);
    }
}
