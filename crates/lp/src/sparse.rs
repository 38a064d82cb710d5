//! The block-ordered sparse product-form kernel of
//! [`Backend::Sparse`](crate::Backend).
//!
//! The simplex method itself is [`crate::driver`]; this file is the
//! storage and factorization it runs on for the fleet layer's joint
//! admission LP, which is *block-angular*: one assignment block per
//! admitted flow (its `Σx = 1` row, optional cost and quality-floor rows,
//! and its columns), coupled to every other block only through the handful
//! of shared per-path capacity rows. A dense LU of that basis is `O(m³)`
//! in the total row count and dense row passes price in `O(m·n)` — cubic
//! exactly where a fleet needs admission cheapest. This kernel exploits
//! the structure instead:
//!
//! * **Sparse storage, both orientations.** A [`Constraint`] *is* its
//!   sorted `(column, value)` pairs; per solve the kernel assembles the
//!   other orientation, a CSC copy (column pointers + row indices +
//!   values), so pricing streams the rows' pairs as they are stored and
//!   column operations (FTRAN of the entering column, factorization)
//!   gather only actual entries.
//! * **Sparse product-form basis inverse.** The basis "factorization" is
//!   itself an eta file: one sparse Gauss–Jordan eta per basic column,
//!   built in *block order* — logical singletons first, then each block's
//!   structural columns pivoting on that block's own rows, and only the
//!   columns that cannot pivot locally fall through to the coupling
//!   rows. A block column's eliminated vector only ever touches its own
//!   block's rows plus the coupling rows, so elimination work and fill
//!   stay confined to the coupling rows plus the basic columns of active
//!   blocks instead of the full `m×m` matrix. Iteration pivots append
//!   further sparse etas to the same file; FTRAN applies it forward,
//!   BTRAN backward, each skipping etas whose pivot entry is zero.
//! * **Block-aligned pricing sections.** The sections handed to the
//!   driver follow the declared block boundaries
//!   ([`Problem::block_starts`]), so a pricing chunk scans per-flow blocks
//!   independently: per-flow rows contribute only to their own block's
//!   section and the bulk reduced-cost fill costs `O(nnz)` per full wrap
//!   instead of `O(m·n)`.
//! * **Set-ordered, repairing factorization.** The pivot order is a
//!   function of the basis *set*, and under `repair` a dependent column is
//!   dropped and the row it leaves takes its logical — which is what lets
//!   this kernel accept a [`Basis`](crate::Basis) edited in step with the
//!   problem ([`Kernel::WARM_LOGICALS`]).
//!
//! Without declared blocks the kernel degrades gracefully to a plain
//! sparse product form (one block, uniform pricing sections), which on
//! dense inputs costs more than [`crate::revised`] does (the CSC assembly
//! and index chasing buy nothing there); its value is proportional to the
//! sparsity it is given.

use std::ops::Range;

use crate::driver::{uniform_sections, DriverState, Kernel, Layout, MIN_SECTION, SINGULAR_TOL};
use crate::problem::{Constraint, Problem};
use crate::simplex::WarmStart;

/// A block-local pivot is accepted when it is at least this fraction of
/// the best available pivot anywhere in the column (threshold pivoting:
/// sparsity-preserving but never numerically reckless).
const LOCAL_PIVOT_THRESHOLD: f64 = 0.01;

/// Sentinel block id for coupling rows (support spans several blocks).
const COUPLING: u32 = u32::MAX;

/// Matrix view, eta file and factorization scratch of the sparse kernel,
/// owned by [`Workspace`](crate::Workspace).
#[derive(Debug, Default)]
pub(crate) struct BlockPfi {
    // --- CSC view of the structural columns (raw values) ---
    col_ptr: Vec<usize>,
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    // --- block structure ---
    /// Block id per structural column.
    col_block: Vec<u32>,
    /// Block id of a row when its support stays within one block,
    /// [`COUPLING`] otherwise.
    row_local: Vec<u32>,
    // --- sparse eta file: factorization etas then iteration etas ---
    eta_pivot: Vec<u32>,
    eta_pivot_val: Vec<f64>,
    eta_ptr: Vec<usize>,
    eta_rows: Vec<u32>,
    eta_vals: Vec<f64>,
    /// Number of etas belonging to the current factorization (iteration
    /// etas beyond this count trigger a refactorization).
    factor_etas: usize,
    // --- factorization scratch ---
    work: Vec<f64>,
    touched: Vec<u32>,
    mark: Vec<bool>,
    order: Vec<usize>,
    deferred: Vec<usize>,
    new_basis: Vec<usize>,
    pivoted: Vec<bool>,
}

impl Kernel for BlockPfi {
    const WARM_LOGICALS: bool = true;

    /// Assembles the CSC view, classifies rows and columns by block and
    /// lays the pricing sections along the block boundaries.
    fn prepare(&mut self, problem: &Problem, lay: &Layout, sections: &mut Vec<(usize, usize)>) {
        let (n, art_start) = (lay.n, lay.art_start);

        // ---- CSC view over the structural columns (raw values) ----------
        self.col_ptr.clear();
        self.col_ptr.resize(n + 1, 0);
        for c in problem.constraints() {
            for &j in c.support() {
                self.col_ptr[j as usize + 1] += 1;
            }
        }
        for j in 0..n {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        let nnz = self.col_ptr[n];
        self.col_rows.clear();
        self.col_rows.resize(nnz, 0);
        self.col_vals.clear();
        self.col_vals.resize(nnz, 0.0);
        let mut fill = self.col_ptr.clone(); // next free slot per column
        for (r, c) in problem.constraints().iter().enumerate() {
            for (j, v) in c.entries() {
                let slot = fill[j];
                fill[j] += 1;
                self.col_rows[slot] = r as u32;
                self.col_vals[slot] = v;
            }
        }

        // ---- Block classification --------------------------------------
        let declared = problem.block_starts();
        self.col_block.clear();
        self.col_block.resize(n, 0);
        let n_blocks = if declared.len() >= 2
            && declared[0] == 0
            && *declared.last().expect("declared.len() >= 2 checked above") < n
        {
            for (bi, w) in declared.windows(2).enumerate() {
                for cb in &mut self.col_block[w[0]..w[1]] {
                    *cb = bi as u32;
                }
            }
            let last = declared.len() - 1;
            for cb in &mut self.col_block[declared[last]..n] {
                *cb = last as u32;
            }
            declared.len()
        } else {
            1
        };
        self.row_local.clear();
        for c in problem.constraints() {
            let local = match c.support().first() {
                None => COUPLING, // an empty row constrains nothing structural
                Some(&j0) => {
                    let b0 = self.col_block[j0 as usize];
                    if c.support()
                        .iter()
                        .all(|&j| self.col_block[j as usize] == b0)
                    {
                        b0
                    } else {
                        COUPLING
                    }
                }
            };
            self.row_local.push(local);
        }

        // ---- Pricing sections over 0..art_start -------------------------
        if n_blocks > 1 {
            // Block-aligned: merge consecutive blocks into ≥ MIN_SECTION
            // chunks so each section prices whole per-flow blocks.
            let mut lo = 0usize;
            for w in declared.windows(2) {
                if w[1] - lo >= MIN_SECTION {
                    sections.push((lo, w[1]));
                    lo = w[1];
                }
            }
            if n > lo {
                sections.push((lo, n));
            }
            if art_start > n {
                sections.push((n, art_start)); // logical columns
            }
        } else {
            uniform_sections(art_start, sections);
        }
    }

    /// Scatters the column's actual nonzeros through the CSC view.
    fn gather_col(&self, row_factor: &[f64], j: usize, out: &mut [f64]) {
        out.fill(0.0);
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            let r = self.col_rows[idx] as usize;
            out[r] = self.col_vals[idx] * row_factor[r];
        }
    }

    /// Streams each row's support restricted to the range — `O(nnz in
    /// range)` instead of the dense kernel's `O(m·|cols|)`.
    fn fill_rc(
        &self,
        rows: &[Constraint],
        row_factor: &[f64],
        weight: &[f64],
        y: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
    ) {
        out[cols.clone()].copy_from_slice(&weight[cols.clone()]);
        for (r, c) in rows.iter().enumerate() {
            let mult = y[r] * row_factor[r];
            // dmc-lint: allow(float-exact) axpy skip: an exactly-zero multiplier contributes nothing; a tolerance here would change results
            if mult != 0.0 {
                let sup = c.support();
                let start = sup.partition_point(|&j| (j as usize) < cols.start);
                for (&j, &v) in sup[start..].iter().zip(&c.values()[start..]) {
                    let j = j as usize;
                    if j >= cols.end {
                        break;
                    }
                    out[j] -= mult * v;
                }
            }
        }
    }

    #[inline]
    fn col_dot(&self, yf: &[f64], j: usize) -> f64 {
        let mut dot = 0.0;
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            dot += yf[self.col_rows[idx] as usize] * self.col_vals[idx];
        }
        dot
    }

    fn col_mass(&self, row_factor: &[f64], out: &mut [f64]) {
        for (j, mass) in out.iter_mut().enumerate() {
            for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                *mass += row_factor[self.col_rows[idx] as usize].abs() * self.col_vals[idx].abs();
            }
        }
    }

    /// Sparse product-form factorization of the current basis, built in
    /// block order; re-permutes `state.basis` so slot `k` holds the column
    /// pivoted at row `k`. Under `repair` (a warm basis whose coefficients
    /// were edited under it) a column with no pivot left is dropped as
    /// dependent, every row left unpivoted takes its starting logical, and
    /// the result is a nonsingular basis again.
    ///
    /// The pivot ordering is a function of the basis *set* only (logical
    /// singletons by row, then structural columns grouped by block in
    /// column order, deferrals appended in that same order), so two solves
    /// landing on the same final basis factorize identically — the
    /// keystone of the bit-identical warm/cold guarantee.
    fn factor(&mut self, state: &mut DriverState, repair: bool) -> bool {
        let lay = &state.lay;
        let m = lay.m;
        state.stats.refactorizations += 1;
        state
            .stats
            .eta_lengths
            .push(self.eta_ptr.len().saturating_sub(1) as u64);
        self.eta_pivot.clear();
        self.eta_pivot_val.clear();
        self.eta_rows.clear();
        self.eta_vals.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.factor_etas = 0;
        if m == 0 {
            return true;
        }
        debug_assert_eq!(state.basis.len(), m);

        self.pivoted.clear();
        self.pivoted.resize(m, false);
        self.new_basis.clear();
        self.new_basis.resize(m, usize::MAX);
        self.work.clear();
        self.work.resize(m, 0.0);
        self.mark.clear();
        self.mark.resize(m, false);
        self.touched.clear();

        // Deterministic block-local elimination order.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend_from_slice(&state.basis);
        order.sort_unstable_by_key(|&c| {
            if c >= lay.n {
                (0u8, lay.logical_row[c - lay.n], c)
            } else {
                (1u8, self.col_block[c] as usize, c)
            }
        });

        let mut deferred = std::mem::take(&mut self.deferred);
        deferred.clear();
        for &col in &order {
            if !self.eliminate_column(lay, col, true) {
                deferred.push(col);
            }
        }
        let mut ok = true;
        for &col in &deferred {
            if !self.eliminate_column(lay, col, false) {
                if !repair {
                    ok = false;
                    break;
                }
                state.in_basis[col] = false;
                state.stats.warm = WarmStart::Repaired;
            }
        }
        self.deferred = deferred;
        self.order = order;
        if !ok {
            return false;
        }
        for r in 0..m {
            if !self.pivoted[r] {
                // Only reachable under `repair`. Neither logical of an
                // unpivoted row is basic (a basic one pivots on its own row
                // or was just dropped), and a singleton on an unpivoted row
                // passes through the etas built so far unchanged.
                let c = lay.starting_logical(r);
                debug_assert!(!state.in_basis[c]);
                state.in_basis[c] = true;
                let placed = self.eliminate_column(lay, c, false);
                debug_assert!(placed);
            }
        }
        debug_assert!(self.pivoted.iter().all(|&p| p));
        std::mem::swap(&mut state.basis, &mut self.new_basis);
        self.factor_etas = self.eta_pivot.len();
        true
    }

    /// The sparse eta file applied in append order, skipping etas whose
    /// pivot entry is zero.
    fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.eta_pivot.len() {
            let r = self.eta_pivot[k] as usize;
            let vr = v[r];
            // dmc-lint: allow(float-exact) eta transform skip: an exactly-zero pivot component leaves the vector unchanged
            if vr != 0.0 {
                for idx in self.eta_ptr[k]..self.eta_ptr[k + 1] {
                    v[self.eta_rows[idx] as usize] += self.eta_vals[idx] * vr;
                }
                v[r] = self.eta_pivot_val[k] * vr;
            }
        }
    }

    /// The sparse eta file applied in reverse.
    fn btran(&self, v: &mut [f64]) {
        for k in (0..self.eta_pivot.len()).rev() {
            let r = self.eta_pivot[k] as usize;
            let mut s = self.eta_pivot_val[k] * v[r];
            for idx in self.eta_ptr[k]..self.eta_ptr[k + 1] {
                s += self.eta_vals[idx] * v[self.eta_rows[idx] as usize];
            }
            v[r] = s;
        }
    }

    fn push_eta(&mut self, r: usize, d: &[f64]) {
        let inv = 1.0 / d[r];
        self.eta_pivot.push(r as u32);
        self.eta_pivot_val.push(inv);
        for (i, &di) in d.iter().enumerate() {
            // dmc-lint: allow(float-exact) the eta column stores exact nonzeros only: a zero entry is structurally absent
            if i != r && di != 0.0 {
                self.eta_rows.push(i as u32);
                self.eta_vals.push(-di * inv);
            }
        }
        self.eta_ptr.push(self.eta_rows.len());
    }

    fn iteration_etas(&self) -> usize {
        self.eta_pivot.len() - self.factor_etas
    }
}

impl BlockPfi {
    /// One factorization step: FTRANs column `col` through the etas built so
    /// far and pivots it at the best eligible row. With `local_only` the
    /// pivot must sit on the column's home rows (its own block for
    /// structural columns, its own row for logicals) *and* pass the
    /// threshold test against the best pivot anywhere; otherwise any
    /// unpivoted row qualifies. Returns `false` when no acceptable pivot
    /// exists (the caller defers or declares the basis singular).
    fn eliminate_column(&mut self, lay: &Layout, col: usize, local_only: bool) -> bool {
        // Gather the column and apply the existing etas, tracking touched
        // rows so the dense work vector is cleared in O(nnz).
        let mut work = std::mem::take(&mut self.work);
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        if col < lay.n {
            for idx in self.col_ptr[col]..self.col_ptr[col + 1] {
                let r = self.col_rows[idx] as usize;
                work[r] = self.col_vals[idx] * lay.row_factor[r];
                if !self.mark[r] {
                    self.mark[r] = true;
                    touched.push(r as u32);
                }
            }
        } else {
            let l = col - lay.n;
            let r = lay.logical_row[l];
            work[r] = lay.logical_val[l];
            if !self.mark[r] {
                self.mark[r] = true;
                touched.push(r as u32);
            }
        }
        for k in 0..self.eta_pivot.len() {
            let r = self.eta_pivot[k] as usize;
            let vr = work[r];
            // dmc-lint: allow(float-exact) eta transform skip: an exactly-zero pivot component leaves the vector unchanged
            if vr != 0.0 {
                for idx in self.eta_ptr[k]..self.eta_ptr[k + 1] {
                    let i = self.eta_rows[idx] as usize;
                    work[i] += self.eta_vals[idx] * vr;
                    if !self.mark[i] {
                        self.mark[i] = true;
                        touched.push(i as u32);
                    }
                }
                work[r] = self.eta_pivot_val[k] * vr;
            }
        }

        // Pick the pivot row: best local vs. best anywhere, lowest row index
        // breaking ties deterministically.
        let home = if col < lay.n {
            self.col_block[col]
        } else {
            COUPLING // logicals: home is their own row, matched below
        };
        let logical_home = if col >= lay.n {
            Some(lay.logical_row[col - lay.n])
        } else {
            None
        };
        let mut best_any = 0.0f64;
        let mut best_local = 0.0f64;
        let mut local_row = usize::MAX;
        let mut any_row = usize::MAX;
        for &t in &touched {
            let r = t as usize;
            if self.pivoted[r] {
                continue;
            }
            let a = work[r].abs();
            if a > best_any || (a == best_any && r < any_row) {
                best_any = a;
                any_row = r;
            }
            let is_home = match logical_home {
                Some(lr) => r == lr,
                None => self.row_local[r] == home,
            };
            if is_home && (a > best_local || (a == best_local && r < local_row)) {
                best_local = a;
                local_row = r;
            }
        }
        let pivot_row = if local_only {
            if local_row != usize::MAX
                && best_local >= SINGULAR_TOL
                && best_local >= LOCAL_PIVOT_THRESHOLD * best_any
            {
                local_row
            } else {
                usize::MAX
            }
        } else if any_row != usize::MAX && best_any >= SINGULAR_TOL {
            any_row
        } else {
            usize::MAX
        };

        let accepted = pivot_row != usize::MAX;
        if accepted {
            let inv = 1.0 / work[pivot_row];
            self.eta_pivot.push(pivot_row as u32);
            self.eta_pivot_val.push(inv);
            for &t in &touched {
                let i = t as usize;
                // dmc-lint: allow(float-exact) elimination skip: an exactly-zero work entry produces no fill
                if i != pivot_row && work[i] != 0.0 {
                    self.eta_rows.push(t);
                    self.eta_vals.push(-work[i] * inv);
                }
            }
            self.eta_ptr.push(self.eta_rows.len());
            self.pivoted[pivot_row] = true;
            self.new_basis[pivot_row] = col;
        }
        // Clear the work vector for the next column.
        for &t in &touched {
            work[t as usize] = 0.0;
            self.mark[t as usize] = false;
        }
        self.work = work;
        self.touched = touched;
        accepted
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::contract::block_angular;
    use crate::{Backend, Problem, SolveError, SolverOptions, Workspace};
    use dmc_obs::Obs;

    crate::driver::contract::contract_tests!(Backend::Sparse);

    fn opts() -> SolverOptions {
        SolverOptions {
            backend: Backend::Sparse,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn block_angular_matches_revised_backend() {
        for (blocks, width) in [(1usize, 9usize), (4, 9), (16, 5), (24, 9)] {
            let p = block_angular(blocks, width);
            let sparse = p.solve(&opts()).unwrap();
            let revised = p
                .solve(&SolverOptions {
                    backend: Backend::Revised,
                    ..SolverOptions::default()
                })
                .unwrap();
            assert!(
                (sparse.objective() - revised.objective()).abs() < 1e-9,
                "{blocks}x{width}: {} vs {}",
                sparse.objective(),
                revised.objective()
            );
            for (j, (a, b)) in sparse.x().iter().zip(revised.x()).enumerate() {
                assert!((a - b).abs() < 1e-9, "{blocks}x{width} x[{j}]: {a} vs {b}");
            }
            assert!(p.max_violation(sparse.x()) < 1e-7);
        }
    }

    #[test]
    fn block_angular_warm_start_is_bit_identical_to_cold() {
        let p = block_angular(12, 9);
        let o = opts();
        let cold = p.solve(&o).unwrap();
        let basis = cold.basis().expect("exportable").clone();
        let warm = p.solve_warm(&o, &basis).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.duals(), cold.duals());
    }

    #[test]
    fn tombstoned_block_forces_zero_and_stays_warm_startable() {
        // The fleet's departure pattern: a block's Σx row drops to 0 and
        // its objective is zeroed; the shape (and a cached basis of the
        // shape) survives.
        let mut p = block_angular(6, 5);
        let o = opts();
        let before = p.solve(&o).unwrap();
        let basis = before.basis().expect("exportable").clone();
        let dead = 2usize; // tombstone block 2
        p.set_rhs(2 + dead, 0.0).unwrap(); // its Σx row (after 2 coupling rows)
        p.set_objective_range(dead * 5, &[0.0; 5]).unwrap();
        let warm = p.solve_warm(&o, &basis).unwrap();
        let cold = p.solve(&o).unwrap();
        assert_eq!(warm.x(), cold.x());
        for j in dead * 5..(dead + 1) * 5 {
            assert!(cold.x()[j].abs() <= 1e-12, "zombie var x[{j}] nonzero");
        }
        assert!(p.max_violation(cold.x()) < 1e-7);
    }

    /// Appends one fleet-shaped block to `p` — `width` columns, a floor
    /// row `Σ c_j x_j ≥ floor` and a `Σx = 1` row — with its segment of
    /// the two coupling rows filled in.
    fn append_block(p: &mut Problem, width: usize, floor: f64) {
        let obj: Vec<f64> = (0..width).map(|j| 0.4 + 0.1 * j as f64).collect();
        let cols = p.append_block(&obj).unwrap();
        for k in 0..2usize {
            let seg: Vec<f64> = (0..width).map(|j| 0.2 + 0.1 * (j + k) as f64).collect();
            p.set_row_range(k, cols.start, &seg).unwrap();
        }
        let floor_row: Vec<(usize, f64)> = cols.clone().zip(obj).collect();
        p.add_ge_sparse(&floor_row, floor).unwrap();
        let ones: Vec<(usize, f64)> = cols.map(|j| (j, 1.0)).collect();
        p.add_eq_sparse(&ones, 1.0).unwrap();
    }

    #[test]
    fn phase_one_runs_from_a_partly_artificial_basis() {
        // The fleet's admission edit: a block is appended to a solved LP
        // and the incumbent basis grows by the new rows' logicals — two
        // artificials (floor, Σx = 1) among 14 rows already at their
        // optimum. Phase 1 starts there, not from the all-artificial
        // basis, and the answer is the cold solve's bit for bit.
        let obs = Obs::enabled();
        let o = SolverOptions {
            obs: obs.clone(),
            ..opts()
        };
        let mut ws = Workspace::new();
        let mut p = block_angular(12, 9);
        let mut basis = p
            .solve_with(&o, &mut ws)
            .unwrap()
            .take_basis()
            .expect("exportable");
        append_block(&mut p, 4, 0.45);
        basis.extend_logical(p.num_constraints());
        assert_eq!(basis.len(), 16);
        let warm = p.solve_warm_with(&o, &mut ws, &basis).unwrap();
        assert!(warm.used_warm_start() && ws.started_warm());
        let cold = p.solve(&opts()).unwrap();
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.duals(), cold.duals());
        assert!(
            2 * warm.iterations() < cold.iterations(),
            "warm {} vs cold {} pivots",
            warm.iterations(),
            cold.iterations()
        );
        // A candidate whose floor cannot be met is refused *from* the
        // incumbent basis: the verdict is phase 1's, reached warm, and
        // counted as such although no `Solution` came back.
        p.truncate_rows(14);
        p.truncate_vars(12 * 9);
        append_block(&mut p, 4, 0.9);
        let refused = p.solve_warm_with(&o, &mut ws, &basis);
        assert!(matches!(refused, Err(SolveError::Infeasible { .. })));
        assert!(ws.started_warm());
        assert!(matches!(
            p.solve(&opts()),
            Err(SolveError::Infeasible { .. })
        ));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("lp.warm_attempts"), Some(2));
        assert_eq!(snap.counter("lp.warm_used"), Some(2));
        assert_eq!(snap.counter("lp.warm_repairs"), None);
    }

    #[test]
    fn released_rows_restart_on_their_logicals() {
        // The take-over edit: a tombstoned block's rows go back to their
        // logicals and its columns leave the basis, then the block is
        // rewritten for a new occupant.
        let o = opts();
        let mut p = block_angular(6, 5);
        let dead = 2usize;
        p.set_rhs(2 + dead, 0.0).unwrap();
        p.set_objective_range(dead * 5, &[0.0; 5]).unwrap();
        p.set_row_range(0, dead * 5, &[0.0; 5]).unwrap();
        p.set_row_range(1, dead * 5, &[0.0; 5]).unwrap();
        let mut basis = p.solve(&o).unwrap().take_basis().expect("exportable");
        p.set_rhs(2 + dead, 1.0).unwrap();
        p.set_objective_range(dead * 5, &[0.9, 0.5, 0.7, 0.6, 0.8])
            .unwrap();
        p.set_row_range(0, dead * 5, &[0.3, 0.1, 0.2, 0.4, 0.5])
            .unwrap();
        p.set_row_range(1, dead * 5, &[0.2, 0.6, 0.1, 0.3, 0.2])
            .unwrap();
        basis.release([2 + dead], dead * 5..(dead + 1) * 5);
        let warm = p.solve_warm(&o, &basis).unwrap();
        let cold = p.solve(&o).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.duals(), cold.duals());
        assert!(warm.iterations() < cold.iterations());
    }

    #[test]
    fn singular_warm_basis_is_repaired_not_discarded() {
        let obs = Obs::enabled();
        let o = SolverOptions {
            obs: obs.clone(),
            ..opts()
        };
        let build = |second: [f64; 2]| {
            let mut p = Problem::maximize(vec![2.0, 1.0]);
            p.add_le(vec![1.0, 0.0], 1.0).unwrap();
            p.add_le(second, 1.0).unwrap();
            p.add_le(vec![1.0, 1.0], 3.0).unwrap();
            p
        };
        // Optimal basis {x0, x1, s2}. Rewriting row 1 from `x1 ≤ 1` to
        // `x0 ≤ 1` leaves x1's column equal to s2's: singular.
        let before = build([0.0, 1.0]).solve(&o).unwrap();
        assert_eq!(before.x(), [1.0, 1.0]);
        let basis = before.basis().expect("exportable").clone();
        let edited = build([1.0, 0.0]);
        let mut ws = Workspace::new();
        let warm = edited.solve_warm_with(&o, &mut ws, &basis).unwrap();
        let cold = edited.solve(&opts()).unwrap();
        assert!(warm.used_warm_start() && ws.started_warm());
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.x(), [1.0, 2.0]);
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.duals(), cold.duals());
        // The edit vocabulary, down to every row on its logical — which
        // is the cold start spelled out, and a warm start all the same.
        let mut logicals = basis.clone();
        logicals.release([0], 0..0);
        assert_eq!(logicals.to_string(), "[l0, x1, s2]");
        logicals.release([], 1..2);
        logicals.truncate(2);
        logicals.extend_logical(3);
        assert_eq!(logicals.to_string(), "[l0, l1, l2]");
        let spelled_out = edited.solve_warm_with(&o, &mut ws, &logicals).unwrap();
        assert!(spelled_out.used_warm_start());
        assert_eq!(spelled_out.x(), cold.x());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("lp.warm_repairs"), Some(1));
        assert_eq!(snap.counter("lp.warm_rejected_singular"), None);
        assert_eq!(snap.counter("lp.warm_rejected_infeasible"), None);
    }

    #[test]
    fn a_restored_basis_counts_as_a_warm_start() {
        // A departure that frees capacity under the carried basis: the
        // dual phase restores it, and the telemetry says warm, with the
        // dual pivots a part of the solve's pivots.
        let obs = Obs::enabled();
        let mut p = block_angular(6, 5);
        let basis = p.solve(&opts()).unwrap().take_basis().expect("exportable");
        let dead = 3usize;
        p.set_rhs(2 + dead, 0.0).unwrap();
        p.set_objective_range(dead * 5, &[0.0; 5]).unwrap();
        let o = SolverOptions {
            obs: obs.clone(),
            ..opts()
        };
        let warm = p.solve_warm(&o, &basis).unwrap();
        assert!(warm.used_warm_start());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("lp.warm_attempts"), Some(1));
        assert_eq!(snap.counter("lp.warm_used"), Some(1));
        assert_eq!(snap.counter("lp.warm_rejected_infeasible"), None);
        let dual = snap
            .counter("lp.dual_pivots")
            .expect("the basis was infeasible");
        assert!(dual >= 1 && Some(dual) <= snap.counter("lp.pivots"));
        assert_eq!(snap.counter("lp.pivots"), Some(warm.iterations() as u64));
    }
}
