//! Problem representation: a dense objective plus inequality/equality rows
//! stored by their nonzeros.

use crate::driver;
use crate::error::{ProblemError, SolveError};
use crate::simplex::{self, Backend, SolverOptions, WarmStart, Workspace};
use crate::solution::{Basis, Solution};

/// Whether a [`Constraint`] is `≤` or `=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `coeffs · x ≤ rhs`
    LessEq,
    /// `coeffs · x = rhs`
    Eq,
}

/// A single constraint row, stored as its nonzeros only: the strictly
/// increasing column indices ([`Constraint::support`]) and the
/// coefficient at each ([`Constraint::values`]).
///
/// An exact zero is never stored — every constructor and mutator drops
/// it — so a row costs 12 bytes per nonzero whatever the variable count,
/// appending variables touches no row, and `==` on the storage is `==` on
/// the matrix. The two readers that want dense rows (the dense-LU kernel,
/// the tableau oracle) scatter the entries into their own buffer per solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sorted column indices of the nonzero coefficients.
    pub(crate) cols: Vec<u32>,
    /// The coefficient at each of `cols`.
    pub(crate) vals: Vec<f64>,
    pub(crate) rhs: f64,
    pub(crate) kind: ConstraintKind,
}

impl Constraint {
    /// Sorted column indices of the nonzero coefficients (the row's
    /// sparsity pattern).
    pub fn support(&self) -> &[u32] {
        &self.cols
    }

    /// The nonzero coefficients, in the order of [`Constraint::support`].
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// The right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Whether the row is an inequality or an equality.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Number of nonzero coefficients.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The `(column, coefficient)` pairs in column order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cols
            .iter()
            .zip(&self.vals)
            .map(|(&j, &v)| (j as usize, v))
    }

    /// Largest coefficient magnitude (0 for an empty row).
    pub(crate) fn abs_max(&self) -> f64 {
        self.vals.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Evaluates `coeffs · x - rhs` (positive means violated for `≤` rows).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let lhs: f64 = self
            .entries()
            .filter_map(|(j, a)| x.get(j).map(|v| a * v))
            .sum();
        match self.kind {
            ConstraintKind::LessEq => lhs - self.rhs,
            ConstraintKind::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// A linear program over non-negative variables: a dense objective and
/// rows stored by their nonzeros ([`Constraint`]).
///
/// See the [crate-level documentation](crate) for the problem form and a
/// worked example.
///
/// # Incremental assembly and block structure
///
/// Callers that maintain one long-lived LP across small shape changes —
/// the fleet layer's joint admission LP grows a per-flow block on every
/// admitted flow — can mutate a `Problem` in place instead of rebuilding
/// it: [`Problem::append_block`] adds variables (no row is touched: a row
/// holds nothing for a column it is zero in), the `add_*_sparse`
/// constructors add rows from nonzero entries, and
/// [`Problem::set_row_range`] / [`Problem::set_rhs`] /
/// [`Problem::set_objective_range`] patch coefficients in place. The
/// recorded block boundaries ([`Problem::block_starts`]) tell the sparse
/// backend which columns belong together: rows whose support stays inside
/// one block are *local* rows, rows spanning blocks are *coupling* rows,
/// and the factorization/pricing exploit that split.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Objective coefficients, always stored in *maximization* sense.
    pub(crate) objective: Vec<f64>,
    /// `true` if the user asked for minimization (objective already negated);
    /// reported objective values are negated back.
    pub(crate) minimize: bool,
    pub(crate) constraints: Vec<Constraint>,
    /// Declared block boundaries: start column of each block, strictly
    /// increasing, first entry 0. Empty = no declared structure (one
    /// block).
    pub(crate) block_starts: Vec<usize>,
}

impl Problem {
    /// Creates a maximization problem `max cᵀx` with `c = objective`.
    ///
    /// The number of variables is fixed to `objective.len()`.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Problem {
            objective,
            minimize: false,
            constraints: Vec::new(),
            block_starts: Vec::new(),
        }
    }

    /// Creates a minimization problem `min cᵀx` with `c = objective`.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Problem {
            objective: objective.into_iter().map(|c| -c).collect(),
            minimize: true,
            constraints: Vec::new(),
            block_starts: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows (inequalities plus equalities).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraint rows in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective in the caller's sense (un-negated for minimization).
    pub fn objective(&self) -> Vec<f64> {
        if self.minimize {
            self.objective.iter().map(|c| -c).collect()
        } else {
            self.objective.clone()
        }
    }

    /// The one place a row is created: validates `entries` — `(column,
    /// value)` pairs with strictly increasing in-range columns and finite
    /// values — and stores the nonzero ones (negated for `≥`, with the
    /// right-hand side). The problem is unchanged on error.
    fn push_row(
        &mut self,
        entries: impl Iterator<Item = (usize, f64)> + Clone,
        rhs: f64,
        kind: ConstraintKind,
        negate: bool,
    ) -> Result<&mut Self, ProblemError> {
        let n = self.objective.len();
        if n == 0 {
            return Err(ProblemError::Empty);
        }
        let mut last: Option<usize> = None;
        for (j, v) in entries.clone() {
            if j >= n {
                return Err(ProblemError::OutOfRange {
                    what: "sparse entry column",
                    index: j,
                    limit: n,
                });
            }
            if last.is_some_and(|l| j <= l) {
                return Err(ProblemError::UnsortedSparseColumn { column: j });
            }
            if !v.is_finite() {
                return Err(ProblemError::NonFiniteCoefficient);
            }
            last = Some(j);
        }
        if !rhs.is_finite() {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        let sign = if negate { -1.0 } else { 1.0 };
        // dmc-lint: allow(float-exact) exact-zero sparsity filter: a 0.0 coefficient is structurally absent, not approximately small
        let nonzero = entries.filter(|&(_, v)| v != 0.0);
        // Sized exactly: a row holds what it stores and no more.
        let nnz = nonzero.clone().count();
        let (mut cols, mut vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        for (j, v) in nonzero {
            cols.push(j as u32);
            vals.push(sign * v);
        }
        self.constraints.push(Constraint {
            cols,
            vals,
            rhs: sign * rhs,
            kind,
        });
        Ok(self)
    }

    /// [`Problem::push_row`] for a dense row, one coefficient per variable
    /// (a problem without variables is left to it: `Empty`, whatever the row).
    fn push_dense(
        &mut self,
        coeffs: &[f64],
        rhs: f64,
        kind: ConstraintKind,
        negate: bool,
    ) -> Result<&mut Self, ProblemError> {
        let n = self.objective.len();
        if n != 0 && coeffs.len() != n {
            return Err(ProblemError::DimensionMismatch {
                expected: n,
                found: coeffs.len(),
            });
        }
        self.push_row(coeffs.iter().copied().enumerate(), rhs, kind, negate)
    }

    /// Adds an inequality `row · x ≤ rhs` from a dense row (a `Vec<f64>`
    /// or a slice: it is read, not kept).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::DimensionMismatch`] if `row` has the wrong
    /// length and [`ProblemError::NonFiniteCoefficient`] on NaN/∞ input.
    pub fn add_le(&mut self, row: impl AsRef<[f64]>, rhs: f64) -> Result<&mut Self, ProblemError> {
        self.push_dense(row.as_ref(), rhs, ConstraintKind::LessEq, false)
    }

    /// Adds an inequality `row · x ≥ rhs` (stored as `-row · x ≤ -rhs`).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le`].
    pub fn add_ge(&mut self, row: impl AsRef<[f64]>, rhs: f64) -> Result<&mut Self, ProblemError> {
        self.push_dense(row.as_ref(), rhs, ConstraintKind::LessEq, true)
    }

    /// Adds an equality `row · x = rhs`.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le`].
    pub fn add_eq(&mut self, row: impl AsRef<[f64]>, rhs: f64) -> Result<&mut Self, ProblemError> {
        self.push_dense(row.as_ref(), rhs, ConstraintKind::Eq, false)
    }

    /// Adds `entries · x ≤ rhs` from sorted sparse `(column, value)`
    /// entries (the same row [`Problem::add_le`] stores for the
    /// zero-filled dense one, without materializing the zeros at the call
    /// site).
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] on an out-of-range column,
    /// [`ProblemError::UnsortedSparseColumn`] on unsorted or duplicate
    /// columns, [`ProblemError::NonFiniteCoefficient`] on NaN/∞.
    pub fn add_le_sparse(
        &mut self,
        entries: &[(usize, f64)],
        rhs: f64,
    ) -> Result<&mut Self, ProblemError> {
        self.push_row(entries.iter().copied(), rhs, ConstraintKind::LessEq, false)
    }

    /// Adds `entries · x ≥ rhs` from sorted sparse entries (stored
    /// negated, exactly like [`Problem::add_ge`]).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le_sparse`].
    pub fn add_ge_sparse(
        &mut self,
        entries: &[(usize, f64)],
        rhs: f64,
    ) -> Result<&mut Self, ProblemError> {
        self.push_row(entries.iter().copied(), rhs, ConstraintKind::LessEq, true)
    }

    /// Adds `entries · x = rhs` from sorted sparse entries.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le_sparse`].
    pub fn add_eq_sparse(
        &mut self,
        entries: &[(usize, f64)],
        rhs: f64,
    ) -> Result<&mut Self, ProblemError> {
        self.push_row(entries.iter().copied(), rhs, ConstraintKind::Eq, false)
    }

    /// Appends `objective.len()` new variables as a **new block**: the
    /// objective grows by the given coefficients (maximization sense of
    /// the problem as created) and a block boundary is recorded at the old
    /// variable count; no row is touched. Returns the new columns' range.
    ///
    /// Incremental callers **tombstone rather than remove** departed
    /// blocks (set the block's `Σx = 1` row to `Σx = 0` via
    /// [`Problem::set_rhs`]) so every surviving column and row keeps its
    /// index; a later arrival of the same shape reclaims the dead
    /// columns in place with [`Problem::set_row_range`] /
    /// [`Problem::set_objective_range`] instead of appending. Only
    /// rollback of the **most recent** block may physically shrink the
    /// problem ([`Problem::truncate_vars`] / [`Problem::truncate_rows`]).
    ///
    /// # Errors
    ///
    /// [`ProblemError::NonFiniteCoefficient`] on NaN/∞ objective entries
    /// (the problem is left unchanged); [`ProblemError::Empty`] on an
    /// empty block.
    pub fn append_block(
        &mut self,
        objective: &[f64],
    ) -> Result<std::ops::Range<usize>, ProblemError> {
        if objective.is_empty() {
            return Err(ProblemError::Empty);
        }
        if objective.iter().any(|c| !c.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        let start = self.objective.len();
        if self.minimize {
            self.objective.extend(objective.iter().map(|c| -c));
        } else {
            self.objective.extend_from_slice(objective);
        }
        if self.block_starts.is_empty() && start > 0 {
            // Declaring structure on a previously unstructured problem:
            // everything before this block is block 0.
            self.block_starts.push(0);
        }
        if self.block_starts.is_empty() {
            self.block_starts.push(0);
        } else if *self
            .block_starts
            .last()
            .expect("else-branch: block_starts is non-empty")
            != start
        {
            self.block_starts.push(start);
        }
        Ok(start..self.objective.len())
    }

    /// Declared block boundaries (start column per block, first 0);
    /// empty when no structure was declared.
    pub fn block_starts(&self) -> &[usize] {
        &self.block_starts
    }

    /// Declares the block boundaries wholesale: strictly increasing start
    /// columns, first entry 0, all within the variable count. An empty
    /// vector clears the declared structure.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] when the boundary list is malformed.
    pub fn set_block_starts(&mut self, starts: Vec<usize>) -> Result<&mut Self, ProblemError> {
        let n = self.objective.len();
        for (i, &s) in starts.iter().enumerate() {
            let ok = s < n.max(1) && if i == 0 { s == 0 } else { s > starts[i - 1] };
            if !ok {
                return Err(ProblemError::OutOfRange {
                    what: "block start",
                    index: s,
                    limit: n,
                });
            }
        }
        self.block_starts = starts;
        Ok(self)
    }

    /// Overwrites the stored coefficients of row `row` over the column
    /// range `start..start + vals.len()`; exact zeros in `vals` leave the
    /// row's support. Writing as many nonzeros as the range held — every
    /// rescale of a block's segment after the first — moves nothing and
    /// allocates nothing.
    ///
    /// The values are written **as stored**: a row added with
    /// [`Problem::add_ge`] is stored negated, and callers patching such a
    /// row must supply the negated values themselves.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] / [`ProblemError::NonFiniteCoefficient`]
    /// on bad indices or values (the row is left unchanged).
    pub fn set_row_range(
        &mut self,
        row: usize,
        start: usize,
        vals: &[f64],
    ) -> Result<&mut Self, ProblemError> {
        let m = self.constraints.len();
        if row >= m {
            return Err(ProblemError::OutOfRange {
                what: "row",
                index: row,
                limit: m,
            });
        }
        let end = range_end(start, vals, self.objective.len(), "column range end")?;
        let c = &mut self.constraints[row];
        let lo = c.cols.partition_point(|&j| (j as usize) < start);
        let hi = c.cols.partition_point(|&j| (j as usize) < end);
        let fresh = vals
            .iter()
            .enumerate()
            // dmc-lint: allow(float-exact) exact-zero sparsity filter: a 0.0 coefficient is structurally absent, not approximately small
            .filter(|(_, &v)| v != 0.0);
        c.cols
            .splice(lo..hi, fresh.clone().map(|(o, _)| (start + o) as u32));
        c.vals.splice(lo..hi, fresh.map(|(_, &v)| v));
        Ok(self)
    }

    /// Overwrites row `row`'s right-hand side **as stored** (a
    /// [`Problem::add_ge`] row stores `-rhs`).
    ///
    /// # Tombstone invariant
    ///
    /// This is the **deactivation** op of the block-incremental idiom:
    /// setting a block's convexity row `Σx = 1` to `Σx = 0` forces every
    /// variable of the block to zero (they are non-negative and must sum
    /// to the rhs — with carry variables the balance rows telescope the
    /// same way), so the block drops out of the optimum **without any
    /// shape change** — no rows or columns move, and the tombstoned
    /// columns can later be reclaimed in place by a same-shape arrival
    /// (see [`Problem::append_block`]).
    ///
    /// A caller that carries a [`Basis`] across these edits leaves it
    /// alone on deactivation and hands the block's rows and columns back
    /// to their logicals when a new arrival reclaims them
    /// ([`Basis::release`]) — what `dmc-fleet`'s joint assembly does.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] / [`ProblemError::NonFiniteCoefficient`].
    pub fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<&mut Self, ProblemError> {
        let m = self.constraints.len();
        if row >= m {
            return Err(ProblemError::OutOfRange {
                what: "row",
                index: row,
                limit: m,
            });
        }
        if !rhs.is_finite() {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        self.constraints[row].rhs = rhs;
        Ok(self)
    }

    /// Overwrites objective coefficients over `start..start + vals.len()`
    /// in the **caller's sense** (minimization problems negate
    /// internally, matching [`Problem::minimize`]).
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] / [`ProblemError::NonFiniteCoefficient`].
    pub fn set_objective_range(
        &mut self,
        start: usize,
        vals: &[f64],
    ) -> Result<&mut Self, ProblemError> {
        let end = range_end(start, vals, self.objective.len(), "objective range end")?;
        if self.minimize {
            for (slot, &v) in self.objective[start..end].iter_mut().zip(vals) {
                *slot = -v;
            }
        } else {
            self.objective[start..end].copy_from_slice(vals);
        }
        Ok(self)
    }

    /// Drops every variable with index ≥ `n` (undoing
    /// [`Problem::append_block`]s): truncates the objective, every row's
    /// entries past `n` — the one mutator that visits every row — and the
    /// block boundaries. No-op when `n` is not smaller than the current
    /// variable count.
    pub fn truncate_vars(&mut self, n: usize) {
        if n >= self.objective.len() {
            return;
        }
        self.objective.truncate(n);
        for c in &mut self.constraints {
            let keep = c.cols.partition_point(|&j| (j as usize) < n);
            c.cols.truncate(keep);
            c.vals.truncate(keep);
        }
        let keep = self.block_starts.partition_point(|&s| s < n.max(1));
        self.block_starts.truncate(keep);
    }

    /// Drops every constraint row with index ≥ `m` (undoing appended
    /// rows). No-op when `m` is not smaller than the current row count.
    ///
    /// With [`Problem::set_rhs`] this is the **horizon-advance** pair of
    /// the time-expanded idiom: ring-indexed shared rows are *recycled*
    /// (`set_rhs` retunes or zeroes them in place, so surviving rows
    /// never move), while per-block rows past a rollback point are
    /// physically truncated. Truncating rows that an active block still
    /// references leaves the problem well-formed but semantically
    /// unconstrained — callers own that invariant.
    pub fn truncate_rows(&mut self, m: usize) {
        self.constraints.truncate(m);
    }

    /// Solves the problem with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] if no point satisfies the constraints.
    /// * [`SolveError::Unbounded`] if the objective can grow without bound.
    /// * [`SolveError::IterationLimit`] on hostile numerics (see
    ///   [`SolverOptions::max_iterations`]).
    pub fn solve(&self, options: &SolverOptions) -> Result<Solution, SolveError> {
        self.solve_with(options, &mut Workspace::new())
    }

    /// Solves the problem reusing the caller's [`Workspace`] buffers.
    ///
    /// Identical result to [`Problem::solve`]; repeated solves through one
    /// workspace skip the per-call tableau allocation, which is what makes
    /// parameter sweeps and adaptive re-solves cheap (see the
    /// `planner_reuse` benchmark).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`]. The workspace stays valid
    /// and reusable after an error.
    pub fn solve_with(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
    ) -> Result<Solution, SolveError> {
        self.dispatch(options, workspace, None)
    }

    /// Solves the problem warm-started from a [`Basis`] — a prior
    /// optimal one (obtained via [`Solution::basis`] on a related
    /// problem: a parameter sweep or adaptive re-solve where only
    /// coefficients moved), or one the caller edited in step with the
    /// problem ([`Basis::extend_logical`], [`Basis::release`],
    /// [`Basis::truncate`]) as rows and columns came and went. The
    /// basis must have one slot per row of *this* problem.
    ///
    /// The solver starts from the basis when it is primal feasible
    /// ([`Solution::used_warm_start`] reports `true`): straight into
    /// phase 2 when it names no artificial, otherwise through a phase 1
    /// that runs *from that basis* over the few artificials its
    /// [`BasisVar::Logical`](crate::BasisVar::Logical) slots name. A
    /// basis the new right-hand side made primal infeasible is first
    /// restored where it stands by a few dual-simplex pivots (the
    /// re-solve after capacity was freed); those restore feasibility
    /// only and may leave reduced costs of the wrong sign, which phase 2
    /// clears as it proves optimality. A basis that factors singular
    /// after a coefficient edit is repaired by [`Backend::Sparse`]
    /// (dependent columns dropped, the rows they leave take their
    /// logicals). A stale basis — wrong shape, a duplicate column, or
    /// one the dual pivots could not restore — silently falls back to
    /// the cold two-phase path, so `solve_warm` never returns a worse
    /// outcome than [`Problem::solve`], and phase 3 walks to the same
    /// canonical vertex either way.
    ///
    /// [`Backend::Revised`] honors exported bases only (any
    /// `Logical` slot is a clean cold solve); the dense oracle ignores
    /// the hint altogether.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`].
    pub fn solve_warm(
        &self,
        options: &SolverOptions,
        basis: &Basis,
    ) -> Result<Solution, SolveError> {
        self.solve_warm_with(options, &mut Workspace::new(), basis)
    }

    /// [`Problem::solve_warm`] reusing the caller's [`Workspace`] buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`].
    pub fn solve_warm_with(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
        basis: &Basis,
    ) -> Result<Solution, SolveError> {
        self.dispatch(options, workspace, Some(basis))
    }

    /// Validates and routes to the configured [`Backend`].
    fn dispatch(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
        warm: Option<&Basis>,
    ) -> Result<Solution, SolveError> {
        workspace.last_warm = WarmStart::Cold;
        if self.objective.is_empty() {
            return Err(ProblemError::Empty.into());
        }
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient.into());
        }
        let obs = &options.obs;
        // The span closes after the pivot-count advance below, so its
        // tick extent equals this solve's pivots.
        let span = obs.span(match options.backend {
            Backend::DenseTableau => "lp.solve.dense",
            Backend::Revised => "lp.solve.revised",
            Backend::Sparse => "lp.solve.sparse",
        });
        let result = match options.backend {
            Backend::DenseTableau => simplex::solve(self, options, workspace),
            Backend::Revised => {
                let Workspace {
                    driver, revised, ..
                } = workspace;
                driver::solve(self, options, driver, revised, warm)
            }
            Backend::Sparse => {
                let Workspace { driver, sparse, .. } = workspace;
                driver::solve(self, options, driver, sparse, warm)
            }
        };
        // The dense tableau leaves the driver's stats untouched (stale).
        let stats = (options.backend != Backend::DenseTableau).then_some(&workspace.driver.stats);
        let warm_start = stats.map_or(WarmStart::Cold, |s| s.warm);
        workspace.last_warm = warm_start;
        if obs.is_enabled() {
            obs.counter("lp.solves").inc();
            if warm.is_some() {
                obs.counter("lp.warm_attempts").inc();
            }
            match &result {
                Ok(s) => {
                    let pivots = s.iterations() as u64;
                    obs.counter("lp.pivots").add(pivots);
                    obs.advance(pivots);
                    // A part of `pivots`, so counted where they are.
                    if let Some(stats) = stats.filter(|s| s.dual_pivots > 0) {
                        obs.counter("lp.dual_pivots").add(stats.dual_pivots);
                    }
                }
                Err(_) => obs.counter("lp.errors").inc(),
            }
            // Counted from the stats, not the `Solution`: a refusal
            // (`Infeasible`) reached from the caller's basis was warm.
            match warm_start {
                WarmStart::Cold => {}
                WarmStart::Used => obs.counter("lp.warm_used").inc(),
                WarmStart::Repaired => {
                    obs.counter("lp.warm_used").inc();
                    obs.counter("lp.warm_repairs").inc();
                }
                WarmStart::Infeasible => obs.counter("lp.warm_rejected_infeasible").inc(),
                WarmStart::Singular => obs.counter("lp.warm_rejected_singular").inc(),
            }
            if let Some(stats) = stats {
                obs.counter("lp.refactorizations")
                    .add(stats.refactorizations);
                if stats.phase1_early_exit {
                    obs.counter("lp.phase1_early_exits").inc();
                }
                let eta_len = obs.histogram("lp.eta_len");
                for &len in &stats.eta_lengths {
                    eta_len.record(len);
                }
            }
        }
        drop(span);
        result
    }

    /// Checks a candidate point against every constraint and the
    /// non-negativity bounds.
    ///
    /// Returns the largest violation (`≤ tol` means feasible within `tol`).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.constraints {
            worst = worst.max(c.violation(x));
        }
        for &v in x {
            worst = worst.max(-v);
        }
        worst
    }

    /// Evaluates the objective at `x` in the caller's sense.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        let v: f64 = self.objective.iter().zip(x).map(|(c, v)| c * v).sum();
        if self.minimize {
            -v
        } else {
            v
        }
    }
}

/// `start + vals.len()` as the end of a patched range over `limit`
/// entries: in range (no overflow) and every value finite.
fn range_end(
    start: usize,
    vals: &[f64],
    limit: usize,
    what: &'static str,
) -> Result<usize, ProblemError> {
    let end = start.checked_add(vals.len()).filter(|&end| end <= limit);
    let Some(end) = end else {
        return Err(ProblemError::OutOfRange {
            what,
            index: start.saturating_add(vals.len()),
            limit,
        });
    };
    if vals.iter().any(|v| !v.is_finite()) {
        return Err(ProblemError::NonFiniteCoefficient);
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        let err = p.add_le(vec![1.0], 1.0).unwrap_err();
        assert_eq!(
            err,
            ProblemError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn non_finite_is_rejected() {
        let mut p = Problem::maximize(vec![1.0]);
        assert_eq!(
            p.add_le(vec![f64::NAN], 1.0).unwrap_err(),
            ProblemError::NonFiniteCoefficient
        );
        assert_eq!(
            p.add_le(vec![1.0], f64::INFINITY).unwrap_err(),
            ProblemError::NonFiniteCoefficient
        );
    }

    #[test]
    fn ge_is_stored_negated() {
        let mut p = Problem::maximize(vec![1.0]);
        p.add_ge(vec![2.0], 4.0).unwrap();
        let c = &p.constraints()[0];
        assert_eq!(c.support(), [0]);
        assert_eq!(c.values(), [-2.0]);
        assert_eq!(c.rhs(), -4.0);
        assert_eq!(c.kind(), ConstraintKind::LessEq);
    }

    #[test]
    fn minimize_reports_original_sense() {
        let p = Problem::minimize(vec![3.0, -1.0]);
        assert_eq!(p.objective(), vec![3.0, -1.0]);
        assert!((p.objective_value(&[2.0, 1.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_rows_match_their_dense_equivalents() {
        let mut dense = Problem::maximize(vec![1.0; 4]);
        dense.add_le(vec![0.0, 2.0, 0.0, 3.0], 5.0).unwrap();
        dense.add_ge(vec![1.0, 0.0, 0.0, 0.0], 2.0).unwrap();
        dense.add_eq(vec![0.0, 0.0, 4.0, 0.0], 1.0).unwrap();
        let mut sparse = Problem::maximize(vec![1.0; 4]);
        sparse.add_le_sparse(&[(1, 2.0), (3, 3.0)], 5.0).unwrap();
        sparse.add_ge_sparse(&[(0, 1.0)], 2.0).unwrap();
        sparse.add_eq_sparse(&[(2, 4.0)], 1.0).unwrap();
        assert_eq!(dense, sparse);
        assert_eq!(sparse.constraints()[0].support(), &[1, 3]);
        assert_eq!(sparse.constraints()[0].nnz(), 2);
    }

    #[test]
    fn a_range_past_usize_max_is_out_of_range_not_a_panic() {
        let mut p = Problem::maximize(vec![1.0; 3]);
        p.add_le(vec![1.0, 0.0, 2.0], 1.0).unwrap();
        let before = p.clone();
        for start in [usize::MAX, usize::MAX - 1, 2] {
            assert!(matches!(
                p.set_row_range(0, start, &[1.0, 1.0]).unwrap_err(),
                ProblemError::OutOfRange {
                    what: "column range end",
                    limit: 3,
                    ..
                }
            ));
            assert!(matches!(
                p.set_objective_range(start, &[1.0, 1.0]).unwrap_err(),
                ProblemError::OutOfRange {
                    what: "objective range end",
                    limit: 3,
                    ..
                }
            ));
        }
        assert_eq!(p, before);
    }

    #[test]
    fn sparse_entry_validation() {
        let mut p = Problem::maximize(vec![1.0; 3]);
        // Duplicate / backwards columns get the dedicated error.
        assert_eq!(
            p.add_le_sparse(&[(1, 1.0), (1, 2.0)], 1.0).unwrap_err(),
            ProblemError::UnsortedSparseColumn { column: 1 }
        );
        assert_eq!(
            p.add_le_sparse(&[(2, 1.0), (0, 2.0)], 1.0).unwrap_err(),
            ProblemError::UnsortedSparseColumn { column: 0 }
        );
        assert!(matches!(
            p.add_le_sparse(&[(3, 1.0)], 1.0).unwrap_err(),
            ProblemError::OutOfRange { index: 3, .. }
        ));
        assert_eq!(
            p.add_le_sparse(&[(0, f64::NAN)], 1.0).unwrap_err(),
            ProblemError::NonFiniteCoefficient
        );
        assert_eq!(p.num_constraints(), 0, "failed adds leave no rows");
    }

    #[test]
    fn horizon_advance_tombstones_recycles_and_rolls_back() {
        // The time-expanded idiom from the mutator docs, end to end on a
        // 2-slot × 1-path horizon: capacity rows first (ring-indexed, row
        // s = slot s), then per-flow [serve, blackhole] blocks with a
        // Σx = 1 convexity row each.
        let opts = SolverOptions::default();
        let mut p = Problem::maximize(vec![]);
        let a = p.append_block(&[1.0, 0.0]).unwrap();
        p.add_le_sparse(&[(a.start, 1.0)], 0.8).unwrap(); // slot 0 capacity (ring 0); A serves in it
        p.add_le_sparse(&[], 0.8).unwrap(); // slot 1 capacity (ring 1)
        p.add_eq_sparse(&[(a.start, 1.0), (a.start + 1, 1.0)], 1.0)
            .unwrap();
        let b = p.append_block(&[0.6, 0.0]).unwrap();
        p.set_row_range(1, b.start, &[1.0]).unwrap(); // B serves in slot 1
        p.add_eq_sparse(&[(b.start, 1.0), (b.start + 1, 1.0)], 1.0)
            .unwrap();
        let full = p.solve(&opts).unwrap();
        assert!((full.objective() - (0.8 + 0.6 * 0.8)).abs() < 1e-9);

        // Advance: slot 0 expired. Tombstone A (Σx = 1 → 0) and recycle
        // its ring row in place as the incoming slot 2 — here a
        // zero-capacity maintenance slot. No rows or columns move.
        p.set_rhs(2, 0.0).unwrap(); // A's convexity row
        p.set_rhs(0, 0.0).unwrap(); // ring 0 is now slot 2
        p.set_row_range(0, a.start, &[0.0]).unwrap(); // A leaves the ring row
        let advanced = p.solve(&opts).unwrap();
        // The tombstone pins the whole dead block at zero ...
        let x = advanced.x();
        assert!(x[a.start].abs() < 1e-12 && x[a.start + 1].abs() < 1e-12);
        // ... and the optimum equals a fresh build of the truncated
        // horizon (flow B alone on slots 1–2).
        let mut fresh = Problem::maximize(vec![]);
        let fb = fresh.append_block(&[0.6, 0.0]).unwrap();
        fresh.add_le_sparse(&[], 0.0).unwrap();
        fresh.add_le_sparse(&[(fb.start, 1.0)], 0.8).unwrap();
        fresh
            .add_eq_sparse(&[(fb.start, 1.0), (fb.start + 1, 1.0)], 1.0)
            .unwrap();
        let rebuilt = fresh.solve(&opts).unwrap();
        assert!((advanced.objective() - rebuilt.objective()).abs() < 1e-9);

        // Rolling back the newest block really shrinks the problem back
        // to its pre-arrival state (truncate_rows then truncate_vars).
        let before = p.clone();
        let c = p.append_block(&[0.9, 0.0]).unwrap();
        p.set_row_range(1, c.start, &[1.0]).unwrap();
        p.add_eq_sparse(&[(c.start, 1.0), (c.start + 1, 1.0)], 1.0)
            .unwrap();
        p.truncate_rows(4);
        p.set_row_range(1, c.start, &[0.0]).unwrap();
        p.truncate_vars(c.start);
        assert_eq!(p, before);
    }

    #[test]
    fn violation_measures_both_kinds() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_le(vec![1.0, 1.0], 1.0).unwrap();
        p.add_eq(vec![1.0, -1.0], 0.0).unwrap();
        // x = (1, 0): row0 lhs = 1 (ok), row1 |1 - 0| = 1 violated.
        assert!((p.max_violation(&[1.0, 0.0]) - 1.0).abs() < 1e-12);
        // x = (0.5, 0.5): both satisfied.
        assert!(p.max_violation(&[0.5, 0.5]) < 1e-12);
        // negative coordinate violates x >= 0
        assert!((p.max_violation(&[-0.25, 0.25]) - 0.5).abs() < 1e-12);
    }
}
