//! Two-phase primal simplex on a dense tableau.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution; phase 2 optimizes the user objective. Redundant rows
//! discovered at the end of phase 1 are dropped. Anti-cycling is handled by
//! switching from Dantzig to Bland pivoting after a run of degenerate
//! pivots (see [`PivotRule`]).
//!
//! All scratch memory (the tableau, basis, objective rows and row
//! metadata) lives in a [`Workspace`] so repeated solves — λ/δ sweeps, an
//! adaptive sender's periodic re-solves — reuse one allocation instead of
//! reallocating per call ([`crate::Problem::solve_with`]).

use crate::error::SolveError;
use crate::problem::{ConstraintKind, Problem};
use crate::solution::{Basis, BasisVar, Solution};

/// Pivot-column selection rule.
///
/// For the revised driver ([`Backend::Revised`], [`Backend::Sparse`]) the
/// rules map onto pricing strategies: `Dantzig` prices every column each
/// iteration, `Bland` takes the first improving column, and `Adaptive`
/// uses partial (sectioned candidate-list) pricing with the same
/// automatic Bland fallback on degeneracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PivotRule {
    /// Most-negative reduced cost. Fast in practice; can cycle on
    /// degenerate problems.
    Dantzig,
    /// Smallest-index improving column (Bland). Guaranteed to terminate;
    /// slower.
    Bland,
    /// Dantzig, switching to Bland after a run of degenerate pivots.
    /// This is the default and combines speed with guaranteed termination.
    #[default]
    Adaptive,
}

/// Which simplex implementation [`Problem::solve`] runs.
///
/// `Revised` and `Sparse` are the same revised-simplex driver (phases,
/// partial pricing, ratio test, canonicalization, warm starts) on two
/// basis kernels; they differ only in how the matrix is stored and `B⁻¹`
/// is represented, and each is the faster one on its side of the
/// size/sparsity line (see the crate docs for the measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Two-phase primal simplex on a dense row-major tableau. Every pivot
    /// rewrites the whole tableau (`O(m·n)`), which is robust and simple —
    /// kept as the reference oracle the revised driver is differentially
    /// tested against.
    DenseTableau,
    /// Revised simplex on the **dense-LU kernel**: a dense LU of the
    /// basis plus a product-form (eta-file) update, over a row-major dense
    /// copy of the matrix made per solve. A pivot costs `O(m²)` plus the
    /// columns actually priced, which wins decisively on the paper's
    /// few-rows/many-columns LPs; honors warm starts
    /// ([`Problem::solve_warm`]) from exported bases. The default.
    #[default]
    Revised,
    /// Revised simplex on the **block-ordered sparse kernel**: CSC columns
    /// plus the rows' own nonzero lists, a sparse product-form basis inverse
    /// whose refactorization pivots block-local rows first (so elimination
    /// work and fill stay confined to the coupling rows plus the basic
    /// columns of active blocks), sparse eta-file FTRAN/BTRAN, and partial
    /// pricing sectioned along the declared block boundaries
    /// ([`Problem::block_starts`]). Built for the fleet layer's
    /// block-angular joint admission LPs — per-flow assignment blocks
    /// coupled only by the shared capacity rows — where it replaces the
    /// dense kernel's `O(m³)` refactorizations and `O(m·n)` pricing with
    /// work proportional to the nonzeros. Honors warm starts, including
    /// from a basis edited in step with the problem, and reports the same
    /// canonical vertex as [`Backend::Revised`], so warm and cold solves
    /// are bit-identical.
    Sparse,
}

/// Tuning knobs for [`Problem::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Feasibility/optimality tolerance (default `1e-9`).
    ///
    /// Rows are equilibrated (scaled by their largest coefficient) before
    /// solving, so this tolerance is meaningful regardless of input scale.
    pub tolerance: f64,
    /// Hard cap on pivot iterations per phase (default `50_000`).
    pub max_iterations: usize,
    /// Pivot-column selection rule (default [`PivotRule::Adaptive`]).
    pub pivot_rule: PivotRule,
    /// Number of consecutive degenerate pivots before [`PivotRule::Adaptive`]
    /// falls back to Bland's rule (default `64`).
    pub degenerate_switch: usize,
    /// Simplex implementation (default [`Backend::Revised`]).
    pub backend: Backend,
    /// Telemetry registry (default [`dmc_obs::Obs::disabled`]: every
    /// recording is a no-op branch). When enabled, each solve records
    /// `lp.solves`, `lp.pivots` (`lp.dual_pivots` of them in the dual
    /// phase), `lp.refactorizations`, `lp.phase1_early_exits`, warm-start
    /// counters, the `lp.eta_len` histogram, and a per-backend
    /// `lp.solve.*` span; the logical clock advances by one tick per
    /// pivot.
    pub obs: dmc_obs::Obs,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-9,
            max_iterations: 50_000,
            pivot_rule: PivotRule::Adaptive,
            degenerate_switch: 64,
            backend: Backend::default(),
            obs: dmc_obs::Obs::disabled(),
        }
    }
}

/// Per-solve instrumentation filled in by the revised-simplex driver and
/// its kernels and published to [`SolverOptions::obs`] by the dispatcher —
/// the solver itself never touches the registry.
#[derive(Debug, Default)]
pub(crate) struct SolveStats {
    /// Basis (re)factorizations, the cold-start build included.
    pub(crate) refactorizations: u64,
    /// Eta-file length observed at each refactorization.
    pub(crate) eta_lengths: Vec<u64>,
    /// Whether phase 1 exited as soon as the last artificial left the
    /// basis, skipping the final pricing wrap.
    pub(crate) phase1_early_exit: bool,
    /// Pivots of the dual phase that walks an infeasible warm basis back
    /// to feasibility (counted in the solve's iterations too).
    pub(crate) dual_pivots: u64,
    /// What became of the caller's warm basis — known before the solve
    /// ends, so an `Infeasible` reached from it still counts as warm.
    pub(crate) warm: WarmStart,
}

/// The fate of a caller-provided warm basis in one solve.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarmStart {
    /// None offered, or not a basis of this problem's shape.
    #[default]
    Cold,
    /// The solve started from it as given.
    Used,
    /// The solve started from it after dependent columns were dropped
    /// and the rows they left took their logicals.
    Repaired,
    /// Rejected: primal infeasible under the new right-hand side, and
    /// the dual phase gave up on restoring it.
    Infeasible,
    /// Rejected: singular (a duplicate column, or a singular
    /// factorization in a backend that does not repair).
    Singular,
}

impl WarmStart {
    /// Whether the solve started from the caller's basis.
    pub(crate) fn started(self) -> bool {
        matches!(self, WarmStart::Used | WarmStart::Repaired)
    }
}

impl SolveStats {
    /// Clears the stats at the start of a solve (buffers retained).
    pub(crate) fn reset(&mut self) {
        self.refactorizations = 0;
        self.eta_lengths.clear();
        self.phase1_early_exit = false;
        self.dual_pivots = 0;
        self.warm = WarmStart::Cold;
    }
}

/// Reusable solver scratch memory.
///
/// A `Workspace` owns the dense tableau and every auxiliary buffer one
/// solve needs. Creating one per call (what [`Problem::solve`] does) is
/// correct but pays an allocation + zeroing cost proportional to
/// `(rows + 1) × (cols + 1)`; callers that solve many similarly-shaped
/// problems — sweeps, re-solves, the planner in `dmc-core` — should hold
/// one `Workspace` and call [`Problem::solve_with`].
///
/// ```
/// use dmc_lp::{Problem, SolverOptions, Workspace};
///
/// # fn main() -> Result<(), dmc_lp::SolveError> {
/// let mut ws = Workspace::new();
/// let opts = SolverOptions::default();
/// for rhs in [1.0, 2.0, 3.0] {
///     let mut p = Problem::maximize(vec![1.0, 2.0]);
///     p.add_le(vec![1.0, 1.0], rhs)?;
///     let s = p.solve_with(&opts, &mut ws)?;
///     assert!((s.objective() - 2.0 * rhs).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Row-major tableau storage, `(rows + 1) * (cols + 1)` entries.
    data: Vec<f64>,
    /// Basic variable (column index) per constraint row.
    basis: Vec<usize>,
    /// Objective buffer shared by phase 1 and phase 2.
    cost: Vec<f64>,
    /// Per-original-row normalization metadata.
    row_info: Vec<RowInfo>,
    /// Buffers of the revised-simplex driver, shared by its two kernels.
    pub(crate) driver: crate::driver::DriverState,
    /// Factors of the dense-LU kernel ([`Backend::Revised`]).
    pub(crate) revised: crate::revised::DenseLu,
    /// View and factors of the sparse kernel ([`Backend::Sparse`]).
    pub(crate) sparse: crate::sparse::BlockPfi,
    /// Fate of the warm basis in the last solve through this workspace.
    pub(crate) last_warm: WarmStart,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow to fit the first solve and
    /// are retained afterwards.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Whether the last solve through this workspace started from the
    /// caller's warm basis — [`Solution::used_warm_start`], but also
    /// answered when that solve ended in an error (a refusal reached
    /// warm is still a warm solve).
    pub fn started_warm(&self) -> bool {
        self.last_warm.started()
    }

    /// Current tableau capacity in `f64` slots (diagnostic; useful to
    /// verify reuse in benchmarks).
    pub fn tableau_capacity(&self) -> usize {
        self.data.capacity()
    }
}

/// Dense tableau view over workspace buffers: `rows` constraint rows plus
/// one objective row, each of width `cols + 1` (last column is the RHS).
struct Tableau<'a> {
    data: &'a mut Vec<f64>,
    rows: usize,
    cols: usize,
    basis: &'a mut Vec<usize>,
}

impl Tableau<'_> {
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
            // dmc-lint: allow(float-exact) row-elimination skip: an exactly-zero pivot-column entry leaves the row unchanged
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
            // dmc-lint: allow(float-exact) pricing skip: an exactly-zero basic cost contributes nothing to the reduced costs
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
#[derive(Debug, Clone, Copy, Default)]
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

/// Entry point used by [`Problem::solve`] / [`Problem::solve_with`].
pub(crate) fn solve(
    problem: &Problem,
    options: &SolverOptions,
    ws: &mut Workspace,
) -> Result<Solution, SolveError> {
    let tol = options.tolerance;
    let m = problem.num_constraints();
    let n = problem.num_vars();

    // ---- Row normalization metadata ------------------------------------
    // Equilibrate each row by its max |coeff| so tolerances are scale-free;
    // negate rows with negative RHS. Only metadata is computed here — the
    // normalized coefficients are written straight into the tableau below,
    // avoiding a per-row temporary allocation.
    ws.row_info.clear();
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for c in problem.constraints() {
        let scale = c.abs_max().max(c.rhs().abs()).max(1e-300);
        let negated = c.rhs() / scale < 0.0;
        if c.kind() == ConstraintKind::LessEq {
            n_slack += 1;
        }
        if c.kind() == ConstraintKind::Eq || negated {
            n_art += 1;
        }
        ws.row_info.push(RowInfo {
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

    ws.data.clear();
    ws.data.resize((m + 1) * (cols + 1), 0.0);
    ws.basis.clear();
    ws.basis.resize(m, usize::MAX);
    let mut tab = Tableau {
        data: &mut ws.data,
        rows: m,
        cols,
        basis: &mut ws.basis,
    };

    let mut next_slack = n;
    let mut next_art = art_start;
    for (r, c) in problem.constraints().iter().enumerate() {
        let info = &mut ws.row_info[r];
        let sign = if info.negated { -1.0 } else { 1.0 };
        // The row's nonzeros, scattered into the zeroed tableau (divide,
        // then negate).
        for (j, v) in c.entries() {
            let mut val = v / info.scale;
            if info.negated {
                val = -val;
            }
            tab.data[r * (cols + 1) + j] = val;
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
        ws.cost.clear();
        ws.cost.resize(cols, 0.0);
        for c in &mut ws.cost[art_start..cols] {
            *c = -1.0; // maximize −Σ artificials
        }
        tab.install_objective(&ws.cost);
        iterate(&mut tab, options, cols, &mut iterations)?;
        let residual = -tab.rhs_obj();
        if residual > tol.max(1e-7) {
            return Err(SolveError::Infeasible { residual });
        }
        purge_artificials(&mut tab, art_start, tol);
    }

    // ---- Phase 2: user objective ---------------------------------------
    ws.cost.clear();
    ws.cost.resize(cols, 0.0);
    // Internal objective is always maximization (Problem negates for min).
    // Structural costs are scaled like the rows were NOT: structural
    // variables are untouched by row equilibration, so plain copy works.
    ws.cost[..n].copy_from_slice(&problem.objective);
    tab.install_objective(&ws.cost);
    // Artificials must never re-enter.
    iterate(&mut tab, options, art_start, &mut iterations)?;

    // ---- Extract primal solution ---------------------------------------
    let mut x = vec![0.0; n];
    for r in 0..tab.rows {
        let b = tab.basis[r];
        if b < n {
            // Clamp tiny negatives produced by roundoff.
            x[b] = tab.rhs(r).max(0.0);
        }
    }
    let objective_internal: f64 = problem.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    let objective = if problem.minimize {
        -objective_internal
    } else {
        objective_internal
    };

    // ---- Extract dual values -------------------------------------------
    // For row i with slack column s: y_i = obj_row[s] (phase-2 cost of the
    // slack is 0). For equality rows the artificial column plays the same
    // role. Negated rows flip the dual's sign; equilibration divides it by
    // the row scale.
    let mut duals = vec![0.0; m];
    for (orig, info) in ws.row_info.iter().enumerate() {
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
        y /= info.scale;
        // In the caller's sense: for minimization the internal objective was
        // negated, so duals flip too.
        if problem.minimize {
            y = -y;
        }
        duals[orig] = y;
    }

    // ---- Extract the final basis (for warm-start callers) ---------------
    // Only expressible when no redundant row was dropped (a shorter basis
    // cannot restart an m-row problem) and no artificial stayed basic.
    let basis = if tab.rows == m {
        let mut slots = Vec::with_capacity(m);
        for &b in tab.basis.iter() {
            if b < n {
                slots.push(BasisVar::Structural(b));
            } else if b < art_start {
                let row = ws
                    .row_info
                    .iter()
                    .position(|info| info.slack_col == Some(b))
                    .expect("slack column maps to a row");
                slots.push(BasisVar::Slack(row));
            } else {
                slots.clear();
                break;
            }
        }
        (slots.len() == m).then(|| Basis::new(slots))
    } else {
        None
    };

    Ok(Solution::new(x, objective, duals, iterations, basis, false))
}

/// Runs simplex iterations until optimality on the current objective row.
///
/// `enter_limit` caps which columns may enter the basis (used to lock out
/// artificial columns during phase 2).
fn iterate(
    tab: &mut Tableau<'_>,
    options: &SolverOptions,
    enter_limit: usize,
    iterations: &mut usize,
) -> Result<(), SolveError> {
    let tol = options.tolerance;
    let mut degenerate_run = 0usize;
    for _ in 0..options.max_iterations {
        let use_bland = match options.pivot_rule {
            PivotRule::Bland => true,
            PivotRule::Dantzig => false,
            PivotRule::Adaptive => degenerate_run >= options.degenerate_switch,
        };

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
        limit: options.max_iterations,
    })
}

/// After phase 1, pivots basic artificials out of the basis (degenerate
/// pivots) or removes their rows when linearly dependent.
///
/// `art_start` is the first artificial column; slacks and structural
/// variables live below it.
fn purge_artificials(tab: &mut Tableau<'_>, art_start: usize, tol: f64) {
    let mut r = 0;
    while r < tab.rows {
        if tab.basis[r] >= art_start {
            // Try to pivot in any non-artificial column with a nonzero
            // entry in this row (the RHS is ~0, so the pivot is degenerate
            // and preserves feasibility regardless of sign).
            let mut pivot_col = None;
            for j in 0..art_start {
                if tab.at(r, j).abs() > tol.max(1e-10) {
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
    use crate::Problem;

    fn opts() -> SolverOptions {
        // These tests exercise the dense oracle specifically.
        SolverOptions {
            backend: Backend::DenseTableau,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn simple_maximize() {
        // max 3x + 2y ; x + y <= 4 ; x + 3y <= 6 ; x,y >= 0 → x=4,y=0, obj 12
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1.0, 1.0], 4.0).unwrap();
        p.add_le(vec![1.0, 3.0], 6.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
        assert!((s.x()[0] - 4.0).abs() < 1e-9);
        assert!(s.x()[1].abs() < 1e-9);
    }

    #[test]
    fn equality_constraint() {
        // max x + 2y ; x + y = 1 ; y <= 0.6 → x=0.4, y=0.6, obj 1.6
        let mut p = Problem::maximize(vec![1.0, 2.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 0.6).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 1.6).abs() < 1e-9);
        assert!((s.x()[0] - 0.4).abs() < 1e-9);
        assert!((s.x()[1] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn minimize_works() {
        // min 2x + 3y ; x + y >= 2 ; x,y >= 0 → x=2,y=0, obj 4
        let mut p = Problem::minimize(vec![2.0, 3.0]);
        p.add_ge(vec![1.0, 1.0], 2.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-9);
        assert!((s.x()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2
        let mut p = Problem::maximize(vec![1.0]);
        p.add_le(vec![1.0], 1.0).unwrap();
        p.add_ge(vec![1.0], 2.0).unwrap();
        match p.solve(&opts()) {
            Err(SolveError::Infeasible { residual }) => assert!(residual > 0.0),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![0.0, 1.0], 1.0).unwrap();
        assert!(matches!(p.solve(&opts()), Err(SolveError::Unbounded)));
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Beale's classic cycling example (cycles under pure Dantzig without
        // safeguards). The adaptive rule must terminate with the optimum.
        let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        p.add_le(vec![0.25, -60.0, -1.0 / 25.0, 9.0], 0.0).unwrap();
        p.add_le(vec![0.5, -90.0, -1.0 / 50.0, 3.0], 0.0).unwrap();
        p.add_le(vec![0.0, 0.0, 1.0, 0.0], 1.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn bland_rule_terminates_on_beale() {
        let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        p.add_le(vec![0.25, -60.0, -1.0 / 25.0, 9.0], 0.0).unwrap();
        p.add_le(vec![0.5, -90.0, -1.0 / 50.0, 3.0], 0.0).unwrap();
        p.add_le(vec![0.0, 0.0, 1.0, 0.0], 1.0).unwrap();
        let mut o = opts();
        o.pivot_rule = PivotRule::Bland;
        let s = p.solve(&o).unwrap();
        assert!((s.objective() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        // Same equality twice: rank-deficient.
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_eq(vec![2.0, 2.0], 2.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duals_match_known_shadow_prices() {
        // max 3x + 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18
        // classic: optimum (2,6) obj 36, duals (0, 1.5, 1).
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.add_le(vec![1.0, 0.0], 4.0).unwrap();
        p.add_le(vec![0.0, 2.0], 12.0).unwrap();
        p.add_le(vec![3.0, 2.0], 18.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-9);
        let d = s.duals();
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
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-6);
        assert!((s.x()[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_le_becomes_feasible_via_artificials() {
        // x0 - x1 <= -1  (i.e. x1 >= x0 + 1), maximize x0 with x1 <= 3.
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![1.0, -1.0], -1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 3.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-9);
        assert!((s.x()[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        // Σx = 0 with x ≥ 0 forces x = 0.
        let mut p = Problem::maximize(vec![5.0, 7.0]);
        p.add_eq(vec![1.0, 1.0], 0.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!(s.objective().abs() < 1e-9);
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_solves() {
        // The same problem solved through one reused workspace and through
        // fresh per-call workspaces must agree bit-for-bit, including after
        // shape changes (growing/shrinking the tableau between calls).
        let mut ws = Workspace::new();
        let shapes: &[(usize, usize)] = &[(3, 2), (8, 5), (2, 1), (6, 9)];
        for &(n, m) in shapes {
            let mut p = Problem::maximize((0..n).map(|j| 1.0 + j as f64).collect());
            for i in 0..m {
                let row: Vec<f64> = (0..n).map(|j| ((i + j) % 3) as f64 + 0.5).collect();
                p.add_le(row, 2.0 + i as f64).unwrap();
            }
            p.add_eq(vec![1.0; n], 1.0).unwrap();
            let fresh = p.solve(&opts()).unwrap();
            let reused = p.solve_with(&opts(), &mut ws).unwrap();
            assert_eq!(fresh.x(), reused.x(), "n={n} m={m}");
            assert_eq!(fresh.objective(), reused.objective());
            assert_eq!(fresh.duals(), reused.duals());
        }
        assert!(ws.tableau_capacity() > 0);
    }

    #[test]
    fn workspace_survives_error_outcomes() {
        // Infeasible and unbounded solves must leave the workspace usable.
        let mut ws = Workspace::new();
        let mut bad = Problem::maximize(vec![1.0]);
        bad.add_le(vec![1.0], 1.0).unwrap();
        bad.add_ge(vec![1.0], 2.0).unwrap();
        assert!(matches!(
            bad.solve_with(&opts(), &mut ws),
            Err(SolveError::Infeasible { .. })
        ));
        let mut unbounded = Problem::maximize(vec![1.0, 0.0]);
        unbounded.add_le(vec![0.0, 1.0], 1.0).unwrap();
        assert!(matches!(
            unbounded.solve_with(&opts(), &mut ws),
            Err(SolveError::Unbounded)
        ));
        let mut good = Problem::maximize(vec![3.0, 2.0]);
        good.add_le(vec![1.0, 1.0], 4.0).unwrap();
        let s = good.solve_with(&opts(), &mut ws).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
    }
}
