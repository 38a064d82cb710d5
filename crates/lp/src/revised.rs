//! The dense-LU basis kernel of [`Backend::Revised`](crate::Backend).
//!
//! The simplex method itself is [`crate::driver`]; this file is the
//! storage and factorization it runs on for the paper's own LPs — a
//! handful of rows (bandwidth, cost, quality, Σx = 1), hundreds of columns,
//! every column meeting nearly every row:
//!
//! * **A row-major dense copy per solve.** The problem stores its rows by
//!   their nonzeros; [`Kernel::prepare`] scatters the raw coefficients
//!   into one `m × n` buffer the workspace keeps. Bulk pricing streams
//!   its rows (`m` vectorized axpy passes per scan), while the occasional
//!   per-column access — the entering column's FTRAN, basis factorization
//!   — gathers `m` strided elements. With `m` at most a dozen and dense
//!   rows this beats both a dense tableau and index-chasing sparse
//!   storage, and the copy is one pass over `m · n` values.
//! * **Dense LU + dense eta file.** `B_0⁻¹` is a dense LU factorization
//!   (partial pivoting) of the basis matrix in *slot order*, `O(m³)`; each
//!   pivot appends one dense `m`-vector eta. Cheap at `m ≤ 12`, cubic in
//!   the row count beyond — which is where [`crate::sparse`] takes over.
//!
//! The LU neither repairs a singular basis nor orders its pivots by the
//! basis set, so this kernel declines warm bases that name
//! [`BasisVar::Logical`](crate::BasisVar::Logical) slots
//! ([`Kernel::WARM_LOGICALS`]).

use std::ops::Range;

use crate::driver::{uniform_sections, DriverState, Kernel, Layout, SINGULAR_TOL};
use crate::problem::{Constraint, Problem};

/// Factors and eta file of the dense-LU kernel, owned by
/// [`Workspace`](crate::Workspace).
#[derive(Debug, Default)]
pub(crate) struct DenseLu {
    /// The raw coefficient matrix, row-major `m × n`.
    a: Vec<f64>,
    /// Structural columns: the row stride of `a`, never 0 in a solve.
    n: usize,
    /// Rows of the factored basis.
    m: usize,
    // --- dense LU of the basis matrix (row-major m×m) ---
    lu: Vec<f64>,
    lu_piv: Vec<usize>,
    // --- eta file: one row index + m-vector per pivot since refactor ---
    eta_rows: Vec<usize>,
    eta_data: Vec<f64>,
}

impl Kernel for DenseLu {
    const WARM_LOGICALS: bool = false;

    /// Scatters the rows' nonzeros into the dense copy. Sections are
    /// uniform.
    fn prepare(&mut self, problem: &Problem, lay: &Layout, sections: &mut Vec<(usize, usize)>) {
        self.n = lay.n;
        self.a.clear();
        self.a.resize(lay.m * lay.n, 0.0);
        for (row, c) in self.a.chunks_exact_mut(lay.n).zip(problem.constraints()) {
            for (j, v) in c.entries() {
                row[j] = v;
            }
        }
        uniform_sections(lay.art_start, sections);
    }

    /// `m` strided reads; rare enough (one per pivot) that no
    /// column-major copy pays for itself.
    fn gather_col(&self, row_factor: &[f64], j: usize, out: &mut [f64]) {
        for (r, (o, f)) in out.iter_mut().zip(row_factor).enumerate() {
            *o = self.a[r * self.n + j] * f;
        }
    }

    /// One vectorized axpy pass per row — the fast path that makes bulk
    /// pricing cheap despite `n` being large.
    fn fill_rc(
        &self,
        _: &[Constraint],
        row_factor: &[f64],
        weight: &[f64],
        y: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
    ) {
        let out = &mut out[cols.clone()];
        out.copy_from_slice(&weight[cols.clone()]);
        for (r, row) in self.a.chunks_exact(self.n).enumerate() {
            let mult = y[r] * row_factor[r];
            // dmc-lint: allow(float-exact) axpy skip: an exactly-zero multiplier contributes nothing; a tolerance here would change results
            if mult != 0.0 {
                for (acc, &v) in out.iter_mut().zip(&row[cols.clone()]) {
                    *acc -= mult * v;
                }
            }
        }
    }

    #[inline]
    fn col_dot(&self, yf: &[f64], j: usize) -> f64 {
        let mut dot = 0.0;
        for (r, y) in yf.iter().enumerate() {
            dot += y * self.a[r * self.n + j];
        }
        dot
    }

    /// One vectorized `|A|` pass per row, like the pricing fills.
    fn col_mass(&self, row_factor: &[f64], out: &mut [f64]) {
        for (row, f) in self.a.chunks_exact(self.n).zip(row_factor) {
            let fac = f.abs();
            for (acc, &v) in out.iter_mut().zip(row) {
                *acc += fac * v.abs();
            }
        }
    }

    /// Dense LU factorization (partial pivoting) of the basis matrix in
    /// slot order; `repair` is not supported (a singular basis is
    /// reported as such).
    fn factor(&mut self, state: &mut DriverState, _repair: bool) -> bool {
        let lay = &state.lay;
        let m = lay.m;
        state.stats.refactorizations += 1;
        state.stats.eta_lengths.push(self.eta_rows.len() as u64);
        self.eta_rows.clear();
        self.eta_data.clear();
        self.m = m;
        let lu = &mut self.lu;
        lu.clear();
        lu.resize(m * m, 0.0);
        self.lu_piv.clear();
        self.lu_piv.resize(m, 0);
        for (k, &bcol) in state.basis.iter().enumerate() {
            if bcol < lay.n {
                for (r, &f) in lay.row_factor.iter().enumerate() {
                    lu[r * m + k] = self.a[r * lay.n + bcol] * f;
                }
            } else {
                let l = bcol - lay.n;
                lu[lay.logical_row[l] * m + k] = lay.logical_val[l];
            }
        }
        for k in 0..m {
            // Partial pivot: largest magnitude in column k at or below the
            // diagonal.
            let mut p = k;
            let mut best = lu[k * m + k].abs();
            for i in k + 1..m {
                let v = lu[i * m + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < SINGULAR_TOL {
                return false;
            }
            self.lu_piv[k] = p;
            if p != k {
                for j in 0..m {
                    lu.swap(k * m + j, p * m + j);
                }
            }
            let inv = 1.0 / lu[k * m + k];
            for i in k + 1..m {
                let f = lu[i * m + k] * inv;
                lu[i * m + k] = f;
                // dmc-lint: allow(float-exact) an exactly-zero LU factor generates no eta entry; the skip is lossless
                if f != 0.0 {
                    for j in k + 1..m {
                        lu[i * m + j] -= f * lu[k * m + j];
                    }
                }
            }
        }
        true
    }

    /// LU solve, then the eta file in append order.
    fn ftran(&self, v: &mut [f64]) {
        let m = self.m;
        lu_solve(&self.lu, &self.lu_piv, m, v);
        for (k, &r) in self.eta_rows.iter().enumerate() {
            let eta = &self.eta_data[k * m..(k + 1) * m];
            let vr = v[r];
            // dmc-lint: allow(float-exact) eta transform skip: an exactly-zero pivot component leaves the vector unchanged
            if vr != 0.0 {
                for i in 0..m {
                    if i == r {
                        v[i] = eta[r] * vr;
                    } else {
                        v[i] += eta[i] * vr;
                    }
                }
            }
        }
    }

    /// The eta file in reverse order, then the transposed LU solve.
    fn btran(&self, v: &mut [f64]) {
        let m = self.m;
        for (k, &r) in self.eta_rows.iter().enumerate().rev() {
            let eta = &self.eta_data[k * m..(k + 1) * m];
            let mut s = 0.0;
            for i in 0..m {
                s += v[i] * eta[i];
            }
            v[r] = s;
        }
        lu_solve_t(&self.lu, &self.lu_piv, m, v);
    }

    /// Dense eta column: `E` replaces column `r` of the identity.
    fn push_eta(&mut self, r: usize, d: &[f64]) {
        let inv = 1.0 / d[r];
        self.eta_rows.push(r);
        self.eta_data.extend(
            d.iter()
                .enumerate()
                .map(|(i, &di)| if i == r { inv } else { -di * inv }),
        );
    }

    fn iteration_etas(&self) -> usize {
        self.eta_rows.len()
    }
}

/// Solves `B₀ z = v` in place using the LU factors (`PA = LU` layout:
/// interchanges forward, then `L`, then `U`).
fn lu_solve(lu: &[f64], piv: &[usize], m: usize, v: &mut [f64]) {
    for (k, &p) in piv.iter().enumerate().take(m) {
        v.swap(k, p);
    }
    for i in 1..m {
        let mut s = v[i];
        for j in 0..i {
            s -= lu[i * m + j] * v[j];
        }
        v[i] = s;
    }
    for i in (0..m).rev() {
        let mut s = v[i];
        for j in i + 1..m {
            s -= lu[i * m + j] * v[j];
        }
        v[i] = s / lu[i * m + i];
    }
}

/// Solves `B₀ᵀ y = v` in place (`Uᵀ`, then `Lᵀ`, then interchanges in
/// reverse).
fn lu_solve_t(lu: &[f64], piv: &[usize], m: usize, v: &mut [f64]) {
    for i in 0..m {
        let mut s = v[i];
        for j in 0..i {
            s -= lu[j * m + i] * v[j];
        }
        v[i] = s / lu[i * m + i];
    }
    for i in (0..m).rev() {
        let mut s = v[i];
        for j in i + 1..m {
            s -= lu[j * m + i] * v[j];
        }
        v[i] = s;
    }
    for k in (0..m).rev() {
        v.swap(k, piv[k]);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Backend, Problem, SolverOptions, Workspace};

    crate::driver::contract::contract_tests!(Backend::Revised);

    fn opts() -> SolverOptions {
        SolverOptions {
            backend: Backend::Revised,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn an_edited_basis_is_declined_whole_never_mis_mapped() {
        // `Logical` rows are the sparse backend's vocabulary: here the
        // whole basis is a clean cold solve, the same bits as one.
        let o = opts();
        let mut p = Problem::maximize(vec![1.0, 2.0]);
        p.add_le(vec![1.0, 0.0], 1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 1.0).unwrap();
        let mut basis = p.solve(&o).unwrap().take_basis().expect("exportable");
        let cols = p.append_block(&[3.0]).unwrap();
        p.add_eq_sparse(&[(cols.start, 1.0)], 1.0).unwrap();
        basis.extend_logical(p.num_constraints());
        let mut ws = Workspace::new();
        let warm = p.solve_warm_with(&o, &mut ws, &basis).unwrap();
        let cold = p.solve(&o).unwrap();
        assert!(!warm.used_warm_start() && !ws.started_warm());
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.x(), [1.0, 1.0, 1.0]);
        assert_eq!(warm.duals(), cold.duals());
    }
}
