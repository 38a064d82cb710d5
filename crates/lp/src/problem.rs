//! Problem representation: a dense objective plus inequality/equality rows
//! stored by their nonzeros.

use crate::driver::{self, Goal};
use crate::error::{ProblemError, SolveError};
use crate::simplex::{SolverOptions, WarmStart, Workspace, DEGENERATE_SWITCH};
use crate::solution::{Basis, Solution};
use std::ops::Range;

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
/// the matrix. The one reader that wants dense rows (the tableau oracle
/// `dmc-lp-oracle`, a dev-dependency) scatters the entries into its own
/// buffer per solve.
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
/// [`Problem::set_row_range`] / [`Problem::set_objective_range`] patch
/// coefficients in place. Recorded block boundaries
/// ([`Problem::block_starts`]) tell the solver's sparse kernel
/// which columns belong together: rows whose support
/// stays inside one block are *local* rows, rows spanning blocks are
/// *coupling* rows, and the factorization/pricing exploit that split.
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

    /// Whether the objective is minimized ([`Problem::minimize`]) rather
    /// than maximized ([`Problem::maximize`]).
    pub fn minimizes(&self) -> bool {
        self.minimize
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
    /// Incremental callers take a departed block out again with
    /// [`Problem::remove_ranges`] — its columns and its own rows, every
    /// later column and row moving down — and roll back the **most
    /// recent** block with its tail case ([`Problem::truncate_vars`] /
    /// [`Problem::truncate_rows`]).
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
    /// empty when no structure was declared, which the sparse kernel
    /// treats as one block.
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
    /// row's support. Writing as many nonzeros as the range held — the
    /// same pattern with new values — moves nothing and allocates nothing.
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
    /// Setting a block's convexity row `Σx = 1` to `Σx = 0` forces every
    /// variable of the block to zero (they are non-negative and must sum
    /// to the right-hand side; with carry variables the balance rows
    /// telescope the same way) without a shape change. A caller that
    /// means the block to leave for good cuts it out instead
    /// ([`Problem::remove_ranges`]): a zeroed block still costs every
    /// pivot, pricing pass and factorization of the LP it sits in.
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

    /// Removes the rows in `rows` and the columns in `cols`, each given
    /// as sorted, disjoint ranges, in one pass over the stored nonzeros:
    /// every surviving column moves down past the removed ones below it,
    /// in the objective, in every row and in the block boundaries (a
    /// block whose columns are all removed loses its start). Only the
    /// entries at or past the first removed column are visited.
    /// [`Problem::truncate_vars`] and [`Problem::truncate_rows`] are its
    /// tail case.
    ///
    /// This is how an incremental caller takes a departed block out of a
    /// long-lived LP — its own rows and its columns, which leave the
    /// shared rows with them — and [`Basis::remove_ranges`] is the edit
    /// that goes with it. `dmc-fleet`'s joint assembly cuts every block
    /// whose flow left at the top of its next solve.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] when a range ends past the row or
    /// column count, or starts before the previous one ends (the problem
    /// is left unchanged).
    pub fn remove_ranges(
        &mut self,
        rows: &[Range<usize>],
        cols: &[Range<usize>],
    ) -> Result<&mut Self, ProblemError> {
        check_ranges(rows, self.constraints.len(), "removed row range")?;
        check_ranges(cols, self.objective.len(), "removed column range")?;
        let mut i = 0;
        self.constraints.retain(|_| {
            i += 1;
            shifted(rows, i - 1).is_some()
        });
        let mut j = 0;
        self.objective.retain(|_| {
            j += 1;
            shifted(cols, j - 1).is_some()
        });
        let first = cols.first().map_or(usize::MAX, |r| r.start);
        for c in &mut self.constraints {
            let lo = c.cols.partition_point(|&j| (j as usize) < first);
            let mut kept = lo;
            for k in lo..c.cols.len() {
                if let Some(to) = shifted(cols, c.cols[k] as usize) {
                    c.cols[kept] = to as u32;
                    c.vals[kept] = c.vals[k];
                    kept += 1;
                }
            }
            c.cols.truncate(kept);
            c.vals.truncate(kept);
        }
        for s in &mut self.block_starts {
            *s = cut_index(cols, *s);
        }
        self.block_starts.dedup();
        let end = self.objective.len().max(1);
        self.block_starts.retain(|&s| s < end);
        Ok(self)
    }

    /// Drops every variable with index ≥ `n` (undoing
    /// [`Problem::append_block`]s): the tail case of
    /// [`Problem::remove_ranges`]. No-op when `n` is not smaller than the
    /// current variable count.
    pub fn truncate_vars(&mut self, n: usize) {
        let all = self.objective.len();
        let tail = n.min(all)..all;
        self.remove_ranges(&[], std::slice::from_ref(&tail))
            .expect("a tail range is in range");
    }

    /// Drops every constraint row with index ≥ `m` (undoing appended
    /// rows): the tail case of [`Problem::remove_ranges`]. No-op when `m`
    /// is not smaller than the current row count.
    pub fn truncate_rows(&mut self, m: usize) {
        let all = self.constraints.len();
        let tail = m.min(all)..all;
        self.remove_ranges(std::slice::from_ref(&tail), &[])
            .expect("a tail range is in range");
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
    /// parameter sweeps and adaptive re-solves cheap.
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
        self.dispatch(options, workspace, None, Goal::Optimal)
    }

    /// Solves the problem warm-started from a [`Basis`] — a prior
    /// optimal one (obtained via [`Solution::basis`] on a related
    /// problem: a parameter sweep or adaptive re-solve where only
    /// coefficients moved), or one the caller edited in step with the
    /// problem ([`Basis::extend_logical`], [`Basis::remove_ranges`],
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
    /// after a coefficient edit is repaired (dependent columns dropped,
    /// the rows they leave take their logicals). A stale basis — wrong
    /// shape, a duplicate column, or one the dual pivots could not
    /// restore — silently falls back to the cold two-phase path, so
    /// `solve_warm` never returns a worse outcome than [`Problem::solve`],
    /// and phase 3 walks to the same canonical vertex either way.
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
        self.dispatch(options, workspace, Some(basis), Goal::Optimal)
    }

    /// Asks only whether the problem is feasible: runs the warm start
    /// from `warm` (as [`Problem::solve_warm_with`] does, or the cold
    /// start without one), the dual phase, phase 1 and the drive-out of
    /// artificials, then stops — no phase 2, no canonicalization, no
    /// extraction refactorization, no duals. An admission test needs no
    /// more: phase 1 alone refuses, so the verdict is the one
    /// [`Problem::solve_warm_with`] would give.
    ///
    /// The returned [`Solution`] is the feasible vertex phase 1 reached
    /// and its basis, ready to warm-start the next solve; its objective is
    /// the value at that vertex and [`Solution::duals`] is empty. The
    /// vertex depends on where the solve started, so it is no optimum and
    /// no canonical answer.
    ///
    /// # Errors
    ///
    /// The [`SolveError::Infeasible`] the full solve would return, and
    /// the anomalies of the stages it runs ([`SolveError::IterationLimit`],
    /// [`SolveError::Singular`]). An unbounded objective is no error:
    /// the objective is never optimized.
    pub fn find_feasible_with(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
        warm: Option<&Basis>,
    ) -> Result<Solution, SolveError> {
        self.dispatch(options, workspace, warm, Goal::Feasible)
    }

    /// Validates and runs the driver for `goal` (from `warm`, or cold
    /// without it) inside span `lp.solve.revised`, then publishes the
    /// solve's stats to [`SolverOptions::obs`]. Pricing turns to Bland's
    /// rule after [`DEGENERATE_SWITCH`] degenerate pivots in a row.
    pub(crate) fn dispatch(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
        warm: Option<&Basis>,
        goal: Goal,
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
        let span = obs.span("lp.solve.revised");
        let Workspace { driver, kernel, .. } = workspace;
        let result = driver::solve(self, options, driver, kernel, warm, DEGENERATE_SWITCH, goal);
        let stats = &workspace.driver.stats;
        let warm_start = stats.warm;
        workspace.last_warm = warm_start;
        if obs.is_enabled() {
            obs.counter("lp.solves").inc();
            if goal == Goal::Feasible {
                obs.counter("lp.feasibility_solves").inc();
            }
            if warm.is_some() {
                obs.counter("lp.warm_attempts").inc();
            }
            match &result {
                Ok(s) => {
                    let pivots = s.iterations() as u64;
                    obs.counter("lp.pivots").add(pivots);
                    // A size-weighted pivot count: what a pivot costs
                    // grows with the rows it updates.
                    obs.counter("lp.pivot_rows")
                        .add(pivots * self.num_constraints() as u64);
                    obs.advance(pivots);
                    // The parts of `pivots`, so counted where they are.
                    let parts = [
                        ("lp.dual_pivots", stats.dual_pivots),
                        ("lp.phase1_pivots", stats.phase1_pivots),
                        ("lp.phase2_pivots", stats.phase2_pivots),
                        ("lp.phase3_pivots", stats.phase3_pivots),
                    ];
                    for (name, n) in parts.into_iter().filter(|&(_, n)| n > 0) {
                        obs.counter(name).add(n);
                    }
                }
                Err(e) => {
                    obs.counter("lp.errors").inc();
                    // Counted apart too: a refusal is an answer, not a
                    // numerical failure.
                    if matches!(e, SolveError::Infeasible { .. }) {
                        obs.counter("lp.infeasible").inc();
                    }
                }
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
            obs.counter("lp.refactorizations")
                .add(stats.refactorizations);
            if stats.factor_eta_visits > 0 {
                obs.counter("lp.factor_eta_visits")
                    .add(stats.factor_eta_visits);
            }
            if stats.phase1_early_exit {
                obs.counter("lp.phase1_early_exits").inc();
            }
            let eta_len = obs.histogram("lp.eta_len");
            for &len in &stats.eta_lengths {
                eta_len.record(len);
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

/// Index `i` once the sorted, disjoint `ranges` are cut out: the count
/// of surviving indices below it — its own new index, or the next
/// survivor's when a range holds it.
pub(crate) fn cut_index(ranges: &[Range<usize>], i: usize) -> usize {
    i - ranges
        .iter()
        .map(|r| r.end.min(i).saturating_sub(r.start))
        .sum::<usize>()
}

/// `i`'s index once the sorted, disjoint `ranges` are cut out, `None`
/// when a range holds it.
pub(crate) fn shifted(ranges: &[Range<usize>], i: usize) -> Option<usize> {
    let cut = ranges.iter().any(|r| r.contains(&i));
    (!cut).then(|| cut_index(ranges, i))
}

/// Checks that `ranges` are sorted, disjoint and end within `limit`
/// (empty ranges are allowed anywhere in order).
fn check_ranges(
    ranges: &[Range<usize>],
    limit: usize,
    what: &'static str,
) -> Result<(), ProblemError> {
    let mut floor = 0;
    for r in ranges {
        if r.start < floor || r.end < r.start || r.end > limit {
            let index = if r.start < floor { r.start } else { r.end };
            return Err(ProblemError::OutOfRange { what, index, limit });
        }
        floor = r.end;
    }
    Ok(())
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
        let mut full = p.solve(&opts).unwrap();
        assert!((full.objective() - (0.8 + 0.6 * 0.8)).abs() < 1e-9);

        // Advance: slot 0 expired. A tombstone (Σx = 1 → 0) pins the
        // whole dead block at zero without moving anything ...
        let mut tombstoned = p.clone();
        tombstoned.set_rhs(2, 0.0).unwrap();
        let x = tombstoned.solve(&opts).unwrap().x().to_vec();
        assert!(x[a.start].abs() < 1e-12 && x[a.start + 1].abs() < 1e-12);
        // ... but a block that leaves for good is cut out: its convexity
        // row and its columns, which leave the ring row with them. Its
        // ring row is recycled in place as the incoming slot 2, here a
        // zero-capacity maintenance slot. The carried basis is cut in
        // step.
        let a_rows = 2..3;
        let (rows, cols) = (std::slice::from_ref(&a_rows), std::slice::from_ref(&a));
        p.remove_ranges(rows, cols).unwrap();
        p.set_rhs(0, 0.0).unwrap(); // ring 0 is now slot 2
        let mut basis = full.take_basis().expect("exportable");
        basis.remove_ranges(rows, cols);
        assert_eq!(basis.len(), p.num_constraints());
        // The result *is* a fresh build of the advanced horizon (flow B
        // alone on slots 1–2, its columns first) ...
        let mut fresh = Problem::maximize(vec![]);
        let fb = fresh.append_block(&[0.6, 0.0]).unwrap();
        fresh.add_le_sparse(&[], 0.0).unwrap();
        fresh.add_le_sparse(&[(fb.start, 1.0)], 0.8).unwrap();
        fresh
            .add_eq_sparse(&[(fb.start, 1.0), (fb.start + 1, 1.0)], 1.0)
            .unwrap();
        assert_eq!(p, fresh);
        // ... and solves from the cut basis to the cold solve's bits.
        let warm = p.solve_warm(&opts, &basis).unwrap();
        let cold = fresh.solve(&opts).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!((warm.x(), warm.duals()), (cold.x(), cold.duals()));
        assert!((warm.objective() - 0.6 * 0.8).abs() < 1e-9);

        // Rolling back the newest block really shrinks the problem back
        // to its pre-arrival state (truncate_rows then truncate_vars).
        let before = p.clone();
        let c = p.append_block(&[0.9, 0.0]).unwrap();
        p.set_row_range(1, c.start, &[1.0]).unwrap();
        p.add_eq_sparse(&[(c.start, 1.0), (c.start + 1, 1.0)], 1.0)
            .unwrap();
        p.truncate_rows(3);
        p.truncate_vars(c.start);
        assert_eq!(p, before);
    }

    #[test]
    fn removed_ranges_renumber_columns_rows_and_block_starts() {
        let mut p = Problem::maximize(vec![]);
        for width in [2, 3, 1, 2] {
            let cols = p.append_block(&vec![1.0; width]).unwrap();
            let ones: Vec<(usize, f64)> = cols.map(|j| (j, 1.0)).collect();
            p.add_eq_sparse(&ones, 1.0).unwrap();
        }
        let all: Vec<(usize, f64)> = (0..8).map(|j| (j, j as f64 + 1.0)).collect();
        p.add_le_sparse(&all, 9.0).unwrap();
        assert_eq!(p.block_starts(), [0, 2, 5, 6]);
        // Blocks 1 and 3 (columns 2..5 and 6..8, rows 1 and 3) go.
        let mut cut = p.clone();
        cut.remove_ranges(&[1..2, 3..4], &[2..5, 6..8]).unwrap();
        assert_eq!(cut.num_vars(), 3);
        assert_eq!(cut.block_starts(), [0, 2]);
        let rows: Vec<(&[u32], &[f64])> = cut
            .constraints()
            .iter()
            .map(|c| (c.support(), c.values()))
            .collect();
        let expected: [(&[u32], &[f64]); 3] = [
            (&[0, 1], &[1.0, 1.0]),
            (&[2], &[1.0]),
            (&[0, 1, 2], &[1.0, 2.0, 6.0]),
        ];
        assert_eq!(rows, expected);
        // Malformed lists are refused and leave the problem as it was.
        for (rows, cols) in [
            (vec![3..4, 1..2], vec![]),
            (vec![0..1, 4..6], vec![]),
            (vec![], vec![2..5, 4..6]),
            (vec![], vec![0..1, 7..9]),
        ] {
            let before = p.clone();
            assert!(matches!(
                p.remove_ranges(&rows, &cols),
                Err(ProblemError::OutOfRange { .. })
            ));
            assert_eq!(p, before);
        }
        // The tail case is a truncation; past the end it is a no-op.
        let mut tail = p.clone();
        tail.truncate_vars(9);
        tail.truncate_rows(9);
        assert_eq!(tail, p);
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
