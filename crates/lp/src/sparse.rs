//! Block-structured sparse revised simplex.
//!
//! The fleet layer's joint admission LP is *block-angular*: one
//! assignment block per admitted flow (its `Σx = 1` row, optional cost
//! and quality-floor rows, and its columns), coupled to every other block
//! only through the handful of shared per-path capacity rows. The dense
//! backends ignore that shape — [`Backend::Revised`](crate::Backend)
//! refactorizes a dense LU every few dozen pivots (`O(m³)` in the total
//! row count) and prices with `O(m·n)` row passes — so admission cost
//! grows cubically exactly where a fleet needs it cheapest. This backend
//! exploits the structure end to end:
//!
//! * **Sparse storage, both orientations.** Each [`Constraint`] carries
//!   its sorted nonzero support; per solve the backend assembles a CSC
//!   view (column pointers + row indices) over the same coefficients, so
//!   pricing streams rows by their nonzeros and column operations
//!   (FTRAN of the entering column, factorization) gather only actual
//!   entries.
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
//! * **Block-sectioned partial pricing.** The candidate-list pricing of
//!   the revised backend is kept, but the pricing sections follow the
//!   declared block boundaries ([`Problem::block_starts`]), so a pricing
//!   chunk scans per-flow blocks independently: per-flow rows contribute
//!   only to their own block's section and the bulk reduced-cost fill
//!   costs `O(nnz)` per full wrap instead of `O(m·n)`.
//! * **Same determinism contract.** Phase 2 is followed by the same
//!   least-capacity-vertex canonicalization as the revised backend
//!   (secondary weights decreasing in column mass, index jitter,
//!   duplicate-column pruning), and the final solution is extracted from
//!   a fresh factorization of the final basis — so warm and cold solves
//!   of one problem return **bit-identical** results, and results agree
//!   with the dense oracles to 1e-9 (`tests/proptest_backends.rs`).
//!
//! Without declared blocks the backend degrades gracefully to a plain
//! sparse revised simplex (one block, generic pricing sections), which on
//! dense inputs costs about what [`Backend::Revised`](crate::Backend)
//! does; its value is proportional to the sparsity it is given.

use crate::error::SolveError;
use crate::problem::{Constraint, ConstraintKind, Problem};
use crate::simplex::{PivotRule, SolverOptions, WarmStart, Workspace};
use crate::solution::{Basis, BasisVar, Solution};

/// Iteration etas accumulated beyond the factorization before the basis
/// is refactorized from scratch.
const REFACTOR_INTERVAL: usize = 64;

/// Number of pricing sections when no block structure is declared.
const PRICE_SECTIONS: usize = 8;

/// Minimum section width, so tiny problems/blocks degrade to full
/// pricing.
const MIN_SECTION: usize = 32;

/// Cap on the pricing candidate list banked during a section scan.
const CANDIDATE_LIMIT: usize = 24;

/// Pivot magnitude below which a factorization counts as singular.
const SINGULAR_TOL: f64 = 1e-12;

/// A block-local pivot is accepted when it is at least this fraction of
/// the best available pivot anywhere in the column (threshold pivoting:
/// sparsity-preserving but never numerically reckless).
const LOCAL_PIVOT_THRESHOLD: f64 = 0.01;

/// Sentinel for "row has no slack/artificial column".
const NONE_COL: usize = usize::MAX;

/// Sentinel block id for coupling rows (support spans several blocks).
const COUPLING: u32 = u32::MAX;

/// Reusable buffers of the sparse backend, owned by
/// [`Workspace`](crate::Workspace).
#[derive(Debug, Default)]
pub(crate) struct SparseWorkspace {
    // --- per-solve normalization and layout (same math as revised) ---
    row_factor: Vec<f64>,
    b: Vec<f64>,
    slack_col: Vec<usize>,
    art_col: Vec<usize>,
    logical_row: Vec<usize>,
    logical_val: Vec<f64>,
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
    /// Pricing sections (column ranges over `0..art_start`), block
    /// aligned when blocks are declared.
    sections: Vec<(usize, usize)>,
    // --- basis state (slot k ↔ pivot row k after factorization) ---
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    x_basic: Vec<f64>,
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
    // --- phase state (mirrors the revised backend) ---
    cost: Vec<f64>,
    rc: Vec<f64>,
    cursor: usize,
    candidates: Vec<usize>,
    yf_scratch: Vec<f64>,
    face: Vec<usize>,
    face_fresh: bool,
    face_w2: Vec<f64>,
    w2: Vec<f64>,
    /// Per-solve telemetry, published by the dispatcher.
    pub(crate) stats: crate::simplex::SolveStats,
}

/// Column layout of the assembled matrix.
#[derive(Debug, Clone, Copy)]
struct Dims {
    m: usize,
    n: usize,
    art_start: usize,
    ncols: usize,
}

/// Entry point used by `Problem::{solve, solve_with, solve_warm}` when
/// [`Backend::Sparse`](crate::Backend::Sparse) is selected.
pub(crate) fn solve(
    problem: &Problem,
    options: &SolverOptions,
    workspace: &mut Workspace,
    warm: Option<&Basis>,
) -> Result<Solution, SolveError> {
    let ws = &mut workspace.sparse;
    ws.stats.reset();
    let rows = problem.constraints();
    let dims = build(problem, ws);
    let tol = options.tolerance;
    let mut iterations = 0usize;

    let mut y = vec![0.0; dims.m];
    let mut y2 = vec![0.0; dims.m];
    let mut d = vec![0.0; dims.m];

    // ---- Start: the caller's basis if it stands, the logicals if not ----
    let warm_ok = warm.is_some_and(|basis| try_warm_basis(ws, &dims, basis, tol));
    if !warm_ok {
        install_initial_basis(ws, &dims);
        if !factor(ws, &dims, false) {
            return Err(SolveError::Singular);
        }
        load_x_basic(ws, dims.m);
    }

    // ---- Phase 1: drive the basic artificials to zero -------------------
    // Every artificial on a cold start; on a warm one only those the
    // caller's basis names (rows appended or recycled since it was
    // optimal), and none at all when it names none.
    if ws.basis.iter().any(|&c| c >= dims.art_start) {
        ws.cost.clear();
        ws.cost.resize(dims.ncols, 0.0);
        for r in 0..dims.m {
            if ws.art_col[r] != NONE_COL {
                ws.cost[ws.art_col[r]] = -1.0; // maximize −Σ artificials
            }
        }
        run_phase(
            rows,
            ws,
            &dims,
            options,
            Phase::One,
            &mut y,
            &mut d,
            &mut iterations,
        )?;
        let residual: f64 = (0..dims.m)
            .filter(|&i| ws.basis[i] >= dims.art_start)
            .map(|i| ws.x_basic[i].max(0.0))
            .sum();
        if residual > tol.max(1e-7) {
            return Err(SolveError::Infeasible { residual });
        }
        drive_out_artificials(ws, &dims, tol, &mut y, &mut d, &mut iterations);
    }

    // ---- Phase 2: user objective ----------------------------------------
    ws.cost.clear();
    ws.cost.resize(dims.ncols, 0.0);
    ws.cost[..dims.n].copy_from_slice(&problem.objective);
    run_phase(
        rows,
        ws,
        &dims,
        options,
        Phase::Two,
        &mut y,
        &mut d,
        &mut iterations,
    )?;

    // ---- Phase 3: canonicalize over the optimal face --------------------
    canonicalize(
        rows,
        ws,
        &dims,
        options,
        &mut y,
        &mut y2,
        &mut d,
        &mut iterations,
    );

    // ---- Extraction from a fresh factorization of the final basis -------
    // The factorization order depends only on the basis *set* and the
    // problem, so any pivot path (warm or cold) reaching the same basis
    // yields bit-identical primal values, objective and duals.
    if !factor(ws, &dims, false) {
        return Err(SolveError::Singular);
    }
    load_x_basic(ws, dims.m);

    let mut x = vec![0.0; dims.n];
    for i in 0..dims.m {
        let bcol = ws.basis[i];
        if bcol < dims.n {
            // Clamp tiny negatives produced by roundoff.
            x[bcol] = ws.x_basic[i].max(0.0);
        }
    }
    let objective_internal: f64 = problem.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    let objective = if problem.minimize {
        -objective_internal
    } else {
        objective_internal
    };

    // Duals: y = c_B·B⁻¹ in the normalized row space, un-normalized per
    // row (identical algebra to the dense backends).
    for (yi, &b) in y.iter_mut().zip(&ws.basis) {
        *yi = ws.cost[b];
    }
    btran(ws, &mut y);
    let mut duals = vec![0.0; dims.m];
    for (dual, (&yr, &f)) in duals.iter_mut().zip(y.iter().zip(&ws.row_factor)) {
        let mut v = yr * f;
        if problem.minimize {
            v = -v;
        }
        *dual = v;
    }

    let basis = export_basis(ws, &dims);

    Ok(Solution::new(
        x, objective, duals, iterations, basis, warm_ok,
    ))
}

/// Computes normalization, the CSC view and the block classification.
fn build(problem: &Problem, ws: &mut SparseWorkspace) -> Dims {
    let m = problem.num_constraints();
    let n = problem.num_vars();

    ws.row_factor.clear();
    ws.slack_col.clear();
    ws.art_col.clear();
    ws.b.clear();
    ws.logical_row.clear();
    ws.logical_val.clear();

    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for c in problem.constraints() {
        // Identical normalization arithmetic to the dense backends (zeros
        // cannot be the running max, so folding the support only is
        // exact).
        let scale = c
            .support()
            .iter()
            .fold(c.rhs().abs(), |acc, &j| {
                acc.max(c.coeffs()[j as usize].abs())
            })
            .max(1e-300);
        let negated = c.rhs() / scale < 0.0;
        if c.kind() == ConstraintKind::LessEq {
            n_slack += 1;
        }
        if c.kind() == ConstraintKind::Eq || negated {
            n_art += 1;
        }
        let sign = if negated { -1.0 } else { 1.0 };
        ws.row_factor.push(sign / scale);
        ws.slack_col.push(NONE_COL);
        ws.art_col.push(NONE_COL);
        ws.b.push(sign * c.rhs() / scale);
    }
    let art_start = n + n_slack;
    let ncols = art_start + n_art;

    for (r, c) in problem.constraints().iter().enumerate() {
        if c.kind() == ConstraintKind::LessEq {
            ws.slack_col[r] = n + ws.logical_row.len();
            ws.logical_row.push(r);
            ws.logical_val
                .push(if ws.row_factor[r] < 0.0 { -1.0 } else { 1.0 });
        }
    }
    for (r, c) in problem.constraints().iter().enumerate() {
        if c.kind() == ConstraintKind::Eq || ws.row_factor[r] < 0.0 {
            ws.art_col[r] = n + ws.logical_row.len();
            ws.logical_row.push(r);
            ws.logical_val.push(1.0);
        }
    }
    debug_assert_eq!(n + ws.logical_row.len(), ncols);

    // ---- CSC view over the structural columns (raw values) --------------
    ws.col_ptr.clear();
    ws.col_ptr.resize(n + 1, 0);
    for c in problem.constraints() {
        for &j in c.support() {
            ws.col_ptr[j as usize + 1] += 1;
        }
    }
    for j in 0..n {
        ws.col_ptr[j + 1] += ws.col_ptr[j];
    }
    let nnz = ws.col_ptr[n];
    ws.col_rows.clear();
    ws.col_rows.resize(nnz, 0);
    ws.col_vals.clear();
    ws.col_vals.resize(nnz, 0.0);
    let mut fill = ws.col_ptr.clone(); // next free slot per column
    for (r, c) in problem.constraints().iter().enumerate() {
        for &j in c.support() {
            let slot = fill[j as usize];
            fill[j as usize] += 1;
            ws.col_rows[slot] = r as u32;
            ws.col_vals[slot] = c.coeffs()[j as usize];
        }
    }

    // ---- Block classification ------------------------------------------
    let declared = problem.block_starts();
    ws.col_block.clear();
    ws.col_block.resize(n, 0);
    let n_blocks = if declared.len() >= 2
        && declared[0] == 0
        && *declared.last().expect("declared.len() >= 2 checked above") < n
    {
        for (bi, w) in declared.windows(2).enumerate() {
            for cb in &mut ws.col_block[w[0]..w[1]] {
                *cb = bi as u32;
            }
        }
        let last = declared.len() - 1;
        for cb in &mut ws.col_block[declared[last]..n] {
            *cb = last as u32;
        }
        declared.len()
    } else {
        1
    };
    ws.row_local.clear();
    for c in problem.constraints() {
        let local = match c.support().first() {
            None => COUPLING, // an empty row constrains nothing structural
            Some(&j0) => {
                let b0 = ws.col_block[j0 as usize];
                if c.support().iter().all(|&j| ws.col_block[j as usize] == b0) {
                    b0
                } else {
                    COUPLING
                }
            }
        };
        ws.row_local.push(local);
    }

    // ---- Pricing sections over 0..art_start -----------------------------
    ws.sections.clear();
    if art_start > 0 {
        if n_blocks > 1 {
            // Block-aligned: merge consecutive blocks into ≥ MIN_SECTION
            // chunks so each section prices whole per-flow blocks.
            let mut lo = 0usize;
            for w in declared.windows(2) {
                if w[1] - lo >= MIN_SECTION {
                    ws.sections.push((lo, w[1]));
                    lo = w[1];
                }
            }
            if n > lo {
                ws.sections.push((lo, n));
            }
            if art_start > n {
                ws.sections.push((n, art_start)); // logical columns
            }
        } else {
            let section = (art_start.div_ceil(PRICE_SECTIONS)).max(MIN_SECTION);
            let mut lo = 0usize;
            while lo < art_start {
                let hi = (lo + section).min(art_start);
                ws.sections.push((lo, hi));
                lo = hi;
            }
        }
    }

    ws.face_fresh = false;
    Dims {
        m,
        n,
        art_start,
        ncols,
    }
}

/// Gathers the normalized column `j` into the dense buffer `out` via the
/// CSC view (only actual nonzeros are written; `out` must be zeroed).
fn gather_col(ws: &SparseWorkspace, dims: &Dims, j: usize, out: &mut [f64]) {
    if j < dims.n {
        for idx in ws.col_ptr[j]..ws.col_ptr[j + 1] {
            let r = ws.col_rows[idx] as usize;
            out[r] = ws.col_vals[idx] * ws.row_factor[r];
        }
    } else {
        let l = j - dims.n;
        out[ws.logical_row[l]] = ws.logical_val[l];
    }
}

/// FTRAN: `v ← B⁻¹ v` — the sparse eta file applied in append order,
/// skipping etas whose pivot entry is zero.
fn ftran(ws: &SparseWorkspace, v: &mut [f64]) {
    for k in 0..ws.eta_pivot.len() {
        let r = ws.eta_pivot[k] as usize;
        let vr = v[r];
        // dmc-lint: allow(float-exact) eta transform skip: an exactly-zero pivot component leaves the vector unchanged
        if vr != 0.0 {
            for idx in ws.eta_ptr[k]..ws.eta_ptr[k + 1] {
                v[ws.eta_rows[idx] as usize] += ws.eta_vals[idx] * vr;
            }
            v[r] = ws.eta_pivot_val[k] * vr;
        }
    }
}

/// BTRAN: `v ← vᵀ B⁻¹` — the sparse eta file applied in reverse.
fn btran(ws: &SparseWorkspace, v: &mut [f64]) {
    for k in (0..ws.eta_pivot.len()).rev() {
        let r = ws.eta_pivot[k] as usize;
        let mut s = ws.eta_pivot_val[k] * v[r];
        for idx in ws.eta_ptr[k]..ws.eta_ptr[k + 1] {
            s += ws.eta_vals[idx] * v[ws.eta_rows[idx] as usize];
        }
        v[r] = s;
    }
}

/// Loads `x_basic = B⁻¹ b` (slot `k` holds the value of `basis[k]`,
/// which after factorization is the column pivoted at row `k`).
fn load_x_basic(ws: &mut SparseWorkspace, m: usize) {
    ws.x_basic.clear();
    ws.x_basic.extend_from_slice(&ws.b);
    let mut xb = std::mem::take(&mut ws.x_basic);
    ftran(ws, &mut xb);
    for v in &mut xb {
        *v = v.max(0.0);
    }
    debug_assert_eq!(xb.len(), m);
    ws.x_basic = xb;
}

/// The column a cold solve starts row `r` on: its artificial where it
/// has one, its slack otherwise.
fn starting_logical(ws: &SparseWorkspace, r: usize) -> usize {
    let c = if ws.art_col[r] != NONE_COL {
        ws.art_col[r]
    } else {
        ws.slack_col[r]
    };
    debug_assert_ne!(c, NONE_COL);
    c
}

/// Every row on its starting logical (`B = I` up to sign).
fn install_initial_basis(ws: &mut SparseWorkspace, dims: &Dims) {
    ws.basis.clear();
    ws.in_basis.clear();
    ws.in_basis.resize(dims.ncols, false);
    for r in 0..dims.m {
        let c = starting_logical(ws, r);
        ws.basis.push(c);
        ws.in_basis[c] = true;
    }
}

/// Validates and installs a caller-provided warm [`Basis`]; returns
/// `true` when the solve can start from it — well-formed, nonsingular
/// (after repair if need be) and primal feasible — and records its fate
/// in `ws.stats.warm` either way. The basis may name artificials
/// ([`BasisVar::Logical`]); the caller runs phase 1 over those.
fn try_warm_basis(ws: &mut SparseWorkspace, dims: &Dims, basis: &Basis, tol: f64) -> bool {
    if basis.len() != dims.m {
        return false;
    }
    ws.basis.clear();
    ws.in_basis.clear();
    ws.in_basis.resize(dims.ncols, false);
    for slot in basis.slots() {
        let c = match *slot {
            BasisVar::Structural(j) if j < dims.n => j,
            BasisVar::Slack(r) if r < dims.m && ws.slack_col[r] != NONE_COL => ws.slack_col[r],
            BasisVar::Logical(r) if r < dims.m => starting_logical(ws, r),
            _ => return false,
        };
        if ws.in_basis[c] {
            ws.stats.warm = WarmStart::Singular; // duplicate column
            return false;
        }
        ws.basis.push(c);
        ws.in_basis[c] = true;
    }
    ws.stats.warm = WarmStart::Used; // `factor` downgrades it to `Repaired`
    let repaired = factor(ws, dims, true);
    debug_assert!(repaired, "a repairing factorization always completes");
    ws.x_basic.clear();
    ws.x_basic.extend_from_slice(&ws.b);
    let mut xb = std::mem::take(&mut ws.x_basic);
    ftran(ws, &mut xb);
    ws.x_basic = xb;
    if ws.x_basic.iter().any(|&v| v < -tol) {
        ws.stats.warm = WarmStart::Infeasible; // for the new RHS
        return false;
    }
    for v in &mut ws.x_basic {
        *v = v.max(0.0);
    }
    true
}

/// Sparse product-form factorization of the current basis, built in
/// block order; clears the eta file and re-permutes `ws.basis` so slot
/// `k` holds the column pivoted at row `k`. Returns `false` on a
/// numerically singular basis — unless `repair` is set (a warm basis
/// whose coefficients were edited under it): then a column with no
/// pivot left is dropped as dependent, every row left unpivoted takes
/// its starting logical, and the result is a nonsingular basis again.
///
/// The pivot ordering is a function of the basis *set* only (logical
/// singletons by row, then structural columns grouped by block in column
/// order, deferrals appended in that same order), so two solves landing
/// on the same final basis factorize identically — the keystone of the
/// bit-identical warm/cold guarantee.
fn factor(ws: &mut SparseWorkspace, dims: &Dims, repair: bool) -> bool {
    let m = dims.m;
    ws.stats.refactorizations += 1;
    ws.stats
        .eta_lengths
        .push(ws.eta_ptr.len().saturating_sub(1) as u64);
    ws.eta_pivot.clear();
    ws.eta_pivot_val.clear();
    ws.eta_rows.clear();
    ws.eta_vals.clear();
    ws.eta_ptr.clear();
    ws.eta_ptr.push(0);
    ws.factor_etas = 0;
    if m == 0 {
        return true;
    }
    debug_assert_eq!(ws.basis.len(), m);

    ws.pivoted.clear();
    ws.pivoted.resize(m, false);
    ws.new_basis.clear();
    ws.new_basis.resize(m, usize::MAX);
    ws.work.clear();
    ws.work.resize(m, 0.0);
    ws.mark.clear();
    ws.mark.resize(m, false);
    ws.touched.clear();
    ws.deferred.clear();

    // Deterministic block-local elimination order.
    ws.order.clear();
    ws.order.extend_from_slice(&ws.basis);
    let (n, logical_row, col_block) = (dims.n, &ws.logical_row, &ws.col_block);
    ws.order.sort_unstable_by_key(|&c| {
        if c >= n {
            (0u8, logical_row[c - n], c)
        } else {
            (1u8, col_block[c] as usize, c)
        }
    });

    let mut order = std::mem::take(&mut ws.order);
    let mut deferred = std::mem::take(&mut ws.deferred);
    for &col in &order {
        if !eliminate_column(ws, dims, col, true) {
            deferred.push(col);
        }
    }
    let mut ok = true;
    for &col in &deferred {
        if !eliminate_column(ws, dims, col, false) {
            if !repair {
                ok = false;
                break;
            }
            ws.in_basis[col] = false;
            ws.stats.warm = WarmStart::Repaired;
        }
    }
    deferred.clear();
    ws.deferred = deferred;
    order.clear();
    ws.order = order;
    if !ok {
        return false;
    }
    for r in 0..m {
        if !ws.pivoted[r] {
            // Only reachable under `repair`. Neither logical of an
            // unpivoted row is basic (a basic one pivots on its own row
            // or was just dropped), and a singleton on an unpivoted row
            // passes through the etas built so far unchanged.
            let c = starting_logical(ws, r);
            debug_assert!(!ws.in_basis[c]);
            ws.in_basis[c] = true;
            let placed = eliminate_column(ws, dims, c, false);
            debug_assert!(placed);
        }
    }
    debug_assert!(ws.pivoted.iter().all(|&p| p));
    std::mem::swap(&mut ws.basis, &mut ws.new_basis);
    ws.factor_etas = ws.eta_pivot.len();
    true
}

/// One factorization step: FTRANs column `col` through the etas built so
/// far and pivots it at the best eligible row. With `local_only` the
/// pivot must sit on the column's home rows (its own block for
/// structural columns, its own row for logicals) *and* pass the
/// threshold test against the best pivot anywhere; otherwise any
/// unpivoted row qualifies. Returns `false` when no acceptable pivot
/// exists (the caller defers or declares the basis singular).
fn eliminate_column(ws: &mut SparseWorkspace, dims: &Dims, col: usize, local_only: bool) -> bool {
    // Gather the column and apply the existing etas, tracking touched
    // rows so the dense work vector is cleared in O(nnz).
    let mut work = std::mem::take(&mut ws.work);
    let mut touched = std::mem::take(&mut ws.touched);
    touched.clear();
    if col < dims.n {
        for idx in ws.col_ptr[col]..ws.col_ptr[col + 1] {
            let r = ws.col_rows[idx] as usize;
            work[r] = ws.col_vals[idx] * ws.row_factor[r];
            if !ws.mark[r] {
                ws.mark[r] = true;
                touched.push(r as u32);
            }
        }
    } else {
        let l = col - dims.n;
        let r = ws.logical_row[l];
        work[r] = ws.logical_val[l];
        if !ws.mark[r] {
            ws.mark[r] = true;
            touched.push(r as u32);
        }
    }
    for k in 0..ws.eta_pivot.len() {
        let r = ws.eta_pivot[k] as usize;
        let vr = work[r];
        // dmc-lint: allow(float-exact) eta transform skip: an exactly-zero pivot component leaves the vector unchanged
        if vr != 0.0 {
            for idx in ws.eta_ptr[k]..ws.eta_ptr[k + 1] {
                let i = ws.eta_rows[idx] as usize;
                work[i] += ws.eta_vals[idx] * vr;
                if !ws.mark[i] {
                    ws.mark[i] = true;
                    touched.push(i as u32);
                }
            }
            work[r] = ws.eta_pivot_val[k] * vr;
        }
    }

    // Pick the pivot row: best local vs. best anywhere, lowest row index
    // breaking ties deterministically.
    let home = if col < dims.n {
        ws.col_block[col]
    } else {
        COUPLING // logicals: home is their own row, matched below
    };
    let logical_home = if col >= dims.n {
        Some(ws.logical_row[col - dims.n])
    } else {
        None
    };
    let mut best_any = 0.0f64;
    let mut best_local = 0.0f64;
    let mut local_row = usize::MAX;
    let mut any_row = usize::MAX;
    for &t in &touched {
        let r = t as usize;
        if ws.pivoted[r] {
            continue;
        }
        let a = work[r].abs();
        if a > best_any || (a == best_any && r < any_row) {
            best_any = a;
            any_row = r;
        }
        let is_home = match logical_home {
            Some(lr) => r == lr,
            None => ws.row_local[r] == home,
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
        ws.eta_pivot.push(pivot_row as u32);
        ws.eta_pivot_val.push(inv);
        for &t in &touched {
            let i = t as usize;
            // dmc-lint: allow(float-exact) elimination skip: an exactly-zero work entry produces no fill
            if i != pivot_row && work[i] != 0.0 {
                ws.eta_rows.push(t);
                ws.eta_vals.push(-work[i] * inv);
            }
        }
        ws.eta_ptr.push(ws.eta_rows.len());
        ws.pivoted[pivot_row] = true;
        ws.new_basis[pivot_row] = col;
    }
    // Clear the work vector for the next column.
    for &t in &touched {
        work[t as usize] = 0.0;
        ws.mark[t as usize] = false;
    }
    ws.work = work;
    ws.touched = touched;
    accepted
}

/// Premultiplies `y[r]·row_factor[r]` into the reusable scratch buffer.
#[inline]
fn premultiply<'a>(buf: &'a mut Vec<f64>, y: &[f64], row_factor: &[f64]) -> &'a [f64] {
    buf.clear();
    buf.extend(y.iter().zip(row_factor).map(|(a, b)| a * b));
    buf
}

/// Reduced cost of a single column via the CSC view (`yf` is the
/// premultiplied `y[r]·row_factor[r]` vector).
#[inline]
fn reduced_cost_col(ws: &SparseWorkspace, dims: &Dims, yf: &[f64], y: &[f64], j: usize) -> f64 {
    if j < dims.n {
        let mut dot = 0.0;
        for idx in ws.col_ptr[j]..ws.col_ptr[j + 1] {
            dot += yf[ws.col_rows[idx] as usize] * ws.col_vals[idx];
        }
        ws.cost[j] - dot
    } else {
        let l = j - dims.n;
        ws.cost[j] - y[ws.logical_row[l]] * ws.logical_val[l]
    }
}

/// Fills `rc[lo..hi]` (`hi ≤ n`) with reduced costs by streaming each
/// row's support restricted to the range — `O(nnz in range)` instead of
/// the dense backends' `O(m·(hi−lo))`.
fn fill_rc_structural(
    rows: &[Constraint],
    row_factor: &[f64],
    cost: &[f64],
    y: &[f64],
    lo: usize,
    hi: usize,
    rc: &mut [f64],
) {
    rc[lo..hi].copy_from_slice(&cost[lo..hi]);
    for (r, c) in rows.iter().enumerate() {
        let mult = y[r] * row_factor[r];
        // dmc-lint: allow(float-exact) axpy skip: an exactly-zero multiplier contributes nothing; a tolerance here would change results
        if mult != 0.0 {
            let sup = c.support();
            let start = sup.partition_point(|&j| (j as usize) < lo);
            for &j in &sup[start..] {
                let j = j as usize;
                if j >= hi {
                    break;
                }
                rc[j] -= mult * c.coeffs()[j];
            }
        }
    }
}

/// Pricing mode for one iteration.
#[derive(Clone, Copy, PartialEq)]
enum Pricing {
    Bland,
    Full,
    Partial,
}

/// Which phase [`run_phase`] is executing.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    One,
    Two,
}

/// Selects the entering column, or `None` when the current basis is
/// optimal for the phase objective. Mirrors the revised backend's
/// candidate-list partial pricing, with sections aligned to the declared
/// blocks; face collection semantics are identical.
#[allow(clippy::too_many_arguments)]
fn price(
    rows: &[Constraint],
    ws: &mut SparseWorkspace,
    dims: &Dims,
    y: &[f64],
    tol: f64,
    mode: Pricing,
    collect_face: bool,
) -> Option<usize> {
    let enter_limit = dims.art_start;
    if enter_limit == 0 {
        ws.face.clear();
        ws.face_fresh = collect_face;
        return None;
    }
    // Candidate re-pricing only applies to Partial mode.
    if mode == Pricing::Partial && !ws.candidates.is_empty() {
        let mut yf_buf = std::mem::take(&mut ws.yf_scratch);
        let yf = premultiply(&mut yf_buf, y, &ws.row_factor);
        let mut best = tol;
        let mut pick = None;
        let candidates = std::mem::take(&mut ws.candidates);
        for &j in &candidates {
            if j >= enter_limit || ws.in_basis[j] {
                continue;
            }
            let rc = reduced_cost_col(ws, dims, yf, y, j);
            if rc > best {
                best = rc;
                pick = Some(j);
            }
        }
        ws.candidates = candidates;
        ws.yf_scratch = yf_buf;
        if pick.is_some() {
            return pick;
        }
        ws.candidates.clear();
    }

    let mut face = std::mem::take(&mut ws.face);
    let mut rc_buf = std::mem::take(&mut ws.rc);
    if rc_buf.len() < enter_limit {
        rc_buf.resize(enter_limit, 0.0);
    }
    let n_sections = ws.sections.len();
    let start_section = if mode == Pricing::Partial {
        ws.cursor % n_sections
    } else {
        0
    };
    let mut scanned = 0usize;
    let mut best = tol;
    let mut pick = None;
    if collect_face && face.len() < enter_limit {
        // Branchless face collection into a pre-sized buffer (truncated
        // below), exactly like the revised backend.
        face.resize(enter_limit, 0);
    }
    let mut face_w = 0usize;
    'sections: for step in 0..n_sections {
        let s = (start_section + step) % n_sections;
        let (lo, hi) = ws.sections[s];
        let s_hi = hi.min(dims.n);
        if lo < s_hi {
            fill_rc_structural(rows, &ws.row_factor, &ws.cost, y, lo, s_hi, &mut rc_buf);
        }
        for (j, rc) in rc_buf.iter_mut().enumerate().take(hi).skip(lo.max(dims.n)) {
            let l = j - dims.n;
            *rc = ws.cost[j] - y[ws.logical_row[l]] * ws.logical_val[l];
        }
        for (j, &rc) in rc_buf.iter().enumerate().take(hi).skip(lo) {
            let nonbasic = !ws.in_basis[j];
            if collect_face {
                face[face_w] = j;
                face_w += (nonbasic & (rc.abs() <= tol)) as usize;
            }
            if nonbasic && rc > best {
                best = rc;
                pick = Some(j);
                if mode == Pricing::Bland {
                    scanned += hi - lo;
                    break 'sections;
                }
            }
            if nonbasic
                && rc > tol
                && mode == Pricing::Partial
                && ws.candidates.len() < CANDIDATE_LIMIT
            {
                ws.candidates.push(j);
            }
        }
        scanned += hi - lo;
        if mode == Pricing::Partial && pick.is_some() {
            ws.cursor = (s + 1) % n_sections;
            break;
        }
    }
    face.truncate(face_w);
    ws.rc = rc_buf;
    ws.face_fresh = collect_face && pick.is_none() && scanned == enter_limit;
    ws.face = face;
    pick
}

/// Ratio test, identical to the revised backend's (smallest basic column
/// index on near-ties; zero-valued basic artificials forced out on any
/// nonzero direction component).
fn ratio_test(ws: &SparseWorkspace, dims: &Dims, d: &[f64], tol: f64) -> Option<(usize, f64)> {
    let mut leave: Option<usize> = None;
    let mut best_ratio = f64::INFINITY;
    for (i, &a) in d.iter().enumerate().take(dims.m) {
        let candidate = if a > tol {
            Some(ws.x_basic[i].max(0.0) / a)
        } else if ws.basis[i] >= dims.art_start && a < -tol && ws.x_basic[i] <= tol {
            Some(0.0)
        } else {
            None
        };
        if let Some(ratio) = candidate {
            let better = ratio < best_ratio - tol
                || (ratio < best_ratio + tol
                    && leave.is_some_and(|cur| ws.basis[i] < ws.basis[cur]));
            if leave.is_none() || better {
                if ratio < best_ratio {
                    best_ratio = ratio;
                }
                leave = Some(i);
            }
        }
    }
    leave.map(|r| (r, best_ratio.max(0.0)))
}

/// Applies the pivot: updates basic values, appends a sparse eta, and
/// refactorizes once the iteration-eta budget is spent. Returns `false`
/// when a due refactorization found the basis singular.
fn pivot(ws: &mut SparseWorkspace, dims: &Dims, q: usize, r: usize, d: &[f64], t: f64) -> bool {
    for (i, (xb, &di)) in ws.x_basic.iter_mut().zip(d).enumerate() {
        if i != r {
            *xb = (*xb - t * di).max(0.0);
        }
    }
    ws.x_basic[r] = t;

    let leaving = ws.basis[r];
    ws.in_basis[leaving] = false;
    ws.in_basis[q] = true;
    ws.basis[r] = q;

    let inv = 1.0 / d[r];
    ws.eta_pivot.push(r as u32);
    ws.eta_pivot_val.push(inv);
    for (i, &di) in d.iter().enumerate().take(dims.m) {
        // dmc-lint: allow(float-exact) the eta column stores exact nonzeros only: a zero entry is structurally absent
        if i != r && di != 0.0 {
            ws.eta_rows.push(i as u32);
            ws.eta_vals.push(-di * inv);
        }
    }
    ws.eta_ptr.push(ws.eta_rows.len());

    if ws.eta_pivot.len() - ws.factor_etas >= REFACTOR_INTERVAL {
        if !factor(ws, dims, false) {
            return false;
        }
        // Recompute basic values from scratch to shed accumulated drift
        // (and to follow the refactorization's slot re-permutation).
        load_x_basic(ws, dims.m);
    }
    true
}

/// Runs simplex iterations on the phase objective in `ws.cost` until
/// optimality, unboundedness or the iteration limit (same control flow
/// as the revised backend).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    rows: &[Constraint],
    ws: &mut SparseWorkspace,
    dims: &Dims,
    options: &SolverOptions,
    phase: Phase,
    y: &mut [f64],
    d: &mut [f64],
    iterations: &mut usize,
) -> Result<(), SolveError> {
    let tol = options.tolerance;
    let collect_face = phase == Phase::Two;
    let mut degenerate_run = 0usize;
    ws.cursor = 0;
    ws.candidates.clear();
    let mut basic_arts = if phase == Phase::One {
        (0..dims.m)
            .filter(|&i| ws.basis[i] >= dims.art_start)
            .count()
    } else {
        0
    };
    if phase == Phase::One && basic_arts == 0 {
        ws.stats.phase1_early_exit = true;
        return Ok(());
    }
    for _ in 0..options.max_iterations {
        let mode = match options.pivot_rule {
            PivotRule::Bland => Pricing::Bland,
            PivotRule::Dantzig => Pricing::Full,
            PivotRule::Adaptive => {
                if degenerate_run >= options.degenerate_switch {
                    Pricing::Bland
                } else {
                    Pricing::Partial
                }
            }
        };
        for (yi, &b) in y.iter_mut().zip(&ws.basis) {
            *yi = ws.cost[b];
        }
        btran(ws, y);
        let Some(q) = price(rows, ws, dims, y, tol, mode, collect_face) else {
            return Ok(()); // optimal
        };
        d.fill(0.0);
        gather_col(ws, dims, q, d);
        ftran(ws, d);
        let Some((r, step)) = ratio_test(ws, dims, d, tol) else {
            return Err(SolveError::Unbounded);
        };
        if step.abs() <= tol {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        let leaving_art = ws.basis[r] >= dims.art_start;
        if !pivot(ws, dims, q, r, d, step) {
            return Err(SolveError::Singular);
        }
        *iterations += 1;
        if phase == Phase::One && leaving_art {
            basic_arts -= 1;
            if basic_arts == 0 {
                ws.stats.phase1_early_exit = true;
                return Ok(());
            }
        }
    }
    Err(SolveError::IterationLimit {
        limit: options.max_iterations,
    })
}

/// After phase 1, pivots basic artificials out where possible; rows
/// whose artificial cannot leave are linearly dependent and keep it
/// basic at zero (identical semantics to the revised backend).
#[allow(clippy::too_many_arguments)]
fn drive_out_artificials(
    ws: &mut SparseWorkspace,
    dims: &Dims,
    tol: f64,
    e: &mut [f64],
    d: &mut [f64],
    iterations: &mut usize,
) {
    let pivot_tol = tol.max(1e-10);
    for r in 0..dims.m {
        if ws.basis[r] < dims.art_start {
            continue;
        }
        e.fill(0.0);
        e[r] = 1.0;
        btran(ws, e);
        let mut ef_buf = std::mem::take(&mut ws.yf_scratch);
        let ef = premultiply(&mut ef_buf, e, &ws.row_factor);
        let entering = (0..dims.art_start).find(|&j| {
            !ws.in_basis[j] && {
                let dot = if j < dims.n {
                    (ws.col_ptr[j]..ws.col_ptr[j + 1])
                        .map(|idx| ef[ws.col_rows[idx] as usize] * ws.col_vals[idx])
                        .sum::<f64>()
                } else {
                    let l = j - dims.n;
                    e[ws.logical_row[l]] * ws.logical_val[l]
                };
                dot.abs() > pivot_tol
            }
        });
        ws.yf_scratch = ef_buf;
        if let Some(q) = entering {
            d.fill(0.0);
            gather_col(ws, dims, q, d);
            ftran(ws, d);
            if d[r].abs() <= SINGULAR_TOL {
                continue; // numerically vanished; treat as dependent
            }
            let step = ws.x_basic[r] / d[r];
            if !pivot(ws, dims, q, r, d, step) {
                return; // refactorization breakdown; extraction refactors anyway
            }
            *iterations += 1;
        }
    }
}

/// Phase 3: walks the optimal face to the least-capacity canonical
/// vertex — the same secondary objective, jitter, duplicate pruning and
/// candidate queue as the revised backend, with the bulk passes running
/// over row supports and CSC columns instead of dense rows.
#[allow(clippy::too_many_arguments)]
fn canonicalize(
    rows: &[Constraint],
    ws: &mut SparseWorkspace,
    dims: &Dims,
    options: &SolverOptions,
    y: &mut [f64],
    y2: &mut [f64],
    d: &mut [f64],
    iterations: &mut usize,
) {
    let tol = options.tolerance;
    let mut face = std::mem::take(&mut ws.face);
    if !ws.face_fresh {
        // Fallback: recompute the face from the phase-2 duals.
        for (yi, &b) in y.iter_mut().zip(&ws.basis) {
            *yi = ws.cost[b];
        }
        btran(ws, y);
        let mut yf_buf = std::mem::take(&mut ws.yf_scratch);
        let yf = premultiply(&mut yf_buf, y, &ws.row_factor);
        face.clear();
        for j in 0..dims.art_start {
            if !ws.in_basis[j] && reduced_cost_col(ws, dims, yf, y, j).abs() <= tol {
                face.push(j);
            }
        }
        ws.yf_scratch = yf_buf;
    }
    if face.is_empty() {
        ws.face = face;
        return;
    }
    // Secondary weights: prefer the least-capacity optimal vertex.
    ws.w2.clear();
    ws.w2.resize(dims.art_start, 0.0);
    for j in 0..dims.n {
        let mut mass = 0.0;
        for idx in ws.col_ptr[j]..ws.col_ptr[j + 1] {
            mass += ws.row_factor[ws.col_rows[idx] as usize].abs() * ws.col_vals[idx].abs();
        }
        ws.w2[j] = mass;
    }
    for l in 0..dims.art_start - dims.n {
        ws.w2[dims.n + l] = ws.logical_val[l].abs();
    }
    let jitter_step = 1e-6 / (dims.art_start + 1) as f64;
    let mut jitter = 1e-6;
    for w in ws.w2.iter_mut() {
        *w = 1.0 / (1.0 + *w) + jitter;
        jitter -= jitter_step;
    }
    let mut rc2 = std::mem::take(&mut ws.face_w2);
    let mut queue: Vec<(usize, f64)> = Vec::new();
    let mut table: Vec<(u64, u32)> = Vec::new();
    let refill = |ws: &SparseWorkspace,
                  face: &[usize],
                  y2: &[f64],
                  rc2: &mut Vec<f64>,
                  queue: &mut Vec<(usize, f64)>,
                  table: &mut Vec<(u64, u32)>| {
        if rc2.len() < dims.art_start {
            rc2.resize(dims.art_start, 0.0);
        }
        rc2[..dims.art_start].copy_from_slice(&ws.w2[..dims.art_start]);
        for (r, c) in rows.iter().enumerate() {
            let mult = y2[r] * ws.row_factor[r];
            // dmc-lint: allow(float-exact) axpy skip: an exactly-zero multiplier contributes nothing; a tolerance here would change results
            if mult != 0.0 {
                for &j in c.support() {
                    let j = j as usize;
                    rc2[j] -= mult * c.coeffs()[j];
                }
            }
        }
        for l in 0..dims.art_start - dims.n {
            rc2[dims.n + l] -= y2[ws.logical_row[l]] * ws.logical_val[l];
        }
        queue.clear();
        // Dedup table keyed by the dot bits (w2 − rc2), as in the revised
        // backend: duplicate columns produce identical dots.
        let cap = (face.len().max(1) * 2).next_power_of_two();
        let mask = cap - 1;
        table.clear();
        table.resize(cap, (0, u32::MAX));
        for &j in face {
            if ws.in_basis[j] || rc2[j] <= tol {
                continue;
            }
            let key = (ws.w2[j] - rc2[j]).to_bits().max(1);
            let mut slot = ((key >> 3) as usize) & mask;
            loop {
                let (sk, si) = table[slot];
                if sk == 0 {
                    table[slot] = (key, j as u32);
                    break;
                }
                if sk == key {
                    if ws.w2[j] > ws.w2[si as usize] {
                        table[slot] = (key, j as u32);
                    }
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        for &(sk, si) in table.iter() {
            if sk != 0 {
                let j = si as usize;
                queue.push((j, rc2[j]));
            }
        }
        queue.sort_unstable_by_key(|&(j, _)| j);
    };
    let mut degenerate_run = 0usize;
    let mut stale = true;
    for _ in 0..options.max_iterations {
        for (y2i, &b) in y2.iter_mut().zip(&ws.basis) {
            *y2i = if b < dims.art_start { ws.w2[b] } else { 0.0 };
        }
        btran(ws, y2);
        let bland = degenerate_run >= options.degenerate_switch;
        let mut pick: Option<usize> = None;
        let mut best = tol;
        if !stale {
            let mut yf_buf = std::mem::take(&mut ws.yf_scratch);
            let yf = premultiply(&mut yf_buf, y2, &ws.row_factor);
            for &(j, _) in &queue {
                if ws.in_basis[j] {
                    continue;
                }
                let rc2j = if j < dims.n {
                    let mut dot = 0.0;
                    for idx in ws.col_ptr[j]..ws.col_ptr[j + 1] {
                        dot += yf[ws.col_rows[idx] as usize] * ws.col_vals[idx];
                    }
                    ws.w2[j] - dot
                } else {
                    let l = j - dims.n;
                    ws.w2[j] - y2[ws.logical_row[l]] * ws.logical_val[l]
                };
                if rc2j > best {
                    best = rc2j;
                    pick = Some(j);
                }
            }
            ws.yf_scratch = yf_buf;
        }
        if pick.is_none() {
            refill(ws, &face, y2, &mut rc2, &mut queue, &mut table);
            stale = false;
            for &(j, rc2j) in &queue {
                if rc2j > best {
                    best = rc2j;
                    pick = Some(j);
                    if bland {
                        break;
                    }
                }
            }
        }
        let Some(q) = pick else {
            break; // canonical vertex reached
        };
        d.fill(0.0);
        gather_col(ws, dims, q, d);
        ftran(ws, d);
        let Some((r, step)) = ratio_test(ws, dims, d, tol) else {
            break; // face unbounded in the secondary direction: keep x
        };
        if step.abs() <= tol {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        let leaving = ws.basis[r];
        let pivot_ok = pivot(ws, dims, q, r, d, step);
        *iterations += 1;
        if leaving < dims.art_start && !face.contains(&leaving) {
            face.push(leaving);
        }
        if !pivot_ok {
            break; // refactorization breakdown: keep the current optimum
        }
    }
    face.clear();
    ws.face = face;
    ws.face_w2 = rc2;
}

/// Maps the final basis to the public [`Basis`] type (`None` when an
/// artificial stayed basic).
fn export_basis(ws: &SparseWorkspace, dims: &Dims) -> Option<Basis> {
    let mut slots = Vec::with_capacity(dims.m);
    for &c in &ws.basis {
        if c < dims.n {
            slots.push(BasisVar::Structural(c));
        } else if c < dims.art_start {
            slots.push(BasisVar::Slack(ws.logical_row[c - dims.n]));
        } else {
            return None;
        }
    }
    Some(Basis::new(slots))
}

#[cfg(test)]
mod tests {
    use crate::{Backend, PivotRule, Problem, SolveError, SolverOptions, Workspace};
    use dmc_obs::Obs;

    fn opts() -> SolverOptions {
        SolverOptions {
            backend: Backend::Sparse,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn simple_maximize() {
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1.0, 1.0], 4.0).unwrap();
        p.add_le(vec![1.0, 3.0], 6.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
        assert!((s.x()[0] - 4.0).abs() < 1e-9);
        assert!(s.x()[1].abs() < 1e-9);
        assert!(s.basis().is_some());
        assert!(!s.used_warm_start());
    }

    #[test]
    fn equality_constraint() {
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
        let mut p = Problem::minimize(vec![2.0, 3.0]);
        p.add_ge(vec![1.0, 1.0], 2.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-9);
        assert!((s.x()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
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
    fn beale_cycling_guard_all_rules() {
        for rule in [PivotRule::Adaptive, PivotRule::Bland, PivotRule::Dantzig] {
            let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
            p.add_le(vec![0.25, -60.0, -1.0 / 25.0, 9.0], 0.0).unwrap();
            p.add_le(vec![0.5, -90.0, -1.0 / 50.0, 3.0], 0.0).unwrap();
            p.add_le(vec![0.0, 0.0, 1.0, 0.0], 1.0).unwrap();
            let mut o = opts();
            o.pivot_rule = rule;
            let s = p.solve(&o).unwrap();
            assert!((s.objective() - 0.05).abs() < 1e-9, "{rule:?}");
        }
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_eq(vec![2.0, 2.0], 2.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
        assert!(s.basis().is_none());
    }

    #[test]
    fn duals_match_known_shadow_prices() {
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
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1e8, 1e8], 4e8).unwrap();
        p.add_le(vec![1e8, 3e8], 6e8).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-6);
        assert!((s.x()[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_le_becomes_feasible_via_artificials() {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![1.0, -1.0], -1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 3.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-9);
        assert!((s.x()[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        let mut p = Problem::maximize(vec![5.0, 7.0]);
        p.add_eq(vec![1.0, 1.0], 0.0).unwrap();
        let s = p.solve(&opts()).unwrap();
        assert!(s.objective().abs() < 1e-9);
    }

    #[test]
    fn eta_refactorization_survives_many_pivots() {
        let n = 120usize;
        let c: Vec<f64> = (0..n)
            .map(|j| 1.0 + (j as f64 * 0.37).sin().abs())
            .collect();
        let mut p = Problem::maximize(c.clone());
        for i in 0..n / 2 {
            let mut row = vec![0.0; n];
            row[2 * i] = 1.0;
            row[2 * i + 1] = 1.0;
            p.add_le(row, 1.0 + i as f64 * 0.01).unwrap();
        }
        let s = p.solve(&opts()).unwrap();
        assert!(p.max_violation(s.x()) < 1e-7);
        let mut want = 0.0;
        for i in 0..n / 2 {
            want += (1.0 + i as f64 * 0.01) * c[2 * i].max(c[2 * i + 1]);
        }
        assert!((s.objective() - want).abs() < 1e-7, "{}", s.objective());
    }

    #[test]
    fn warm_start_skips_phase_one_and_matches_cold_bitwise() {
        let o = opts();
        let make = |rhs: f64| {
            let mut p = Problem::maximize(vec![3.0, 2.0]);
            p.add_le(vec![1.0, 1.0], rhs).unwrap();
            p.add_le(vec![1.0, 3.0], rhs + 2.0).unwrap();
            p.add_eq(vec![1.0, 1.0], rhs).unwrap();
            p
        };
        let first = make(4.0).solve(&o).unwrap();
        let basis = first.basis().expect("exportable basis").clone();
        let p2 = make(5.0);
        let warm = p2.solve_warm(&o, &basis).unwrap();
        let cold = p2.solve(&o).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.duals(), cold.duals());
        assert!(warm.iterations() <= cold.iterations());
    }

    #[test]
    fn infeasible_warm_basis_falls_back_to_phase_one() {
        let o = opts();
        let mut loose = Problem::maximize(vec![2.0, 1.0]);
        loose.add_le(vec![1.0, 0.0], 10.0).unwrap();
        loose.add_le(vec![0.0, 1.0], 10.0).unwrap();
        loose.add_eq(vec![1.0, 1.0], 12.0).unwrap();
        let basis = loose.solve(&o).unwrap().basis().unwrap().clone();
        let mut tight = Problem::maximize(vec![2.0, 1.0]);
        tight.add_le(vec![1.0, 0.0], 2.0).unwrap();
        tight.add_le(vec![0.0, 1.0], 2.0).unwrap();
        tight.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        let warm = tight.solve_warm(&o, &basis).unwrap();
        let cold = tight.solve(&o).unwrap();
        assert!(!warm.used_warm_start(), "stale basis must fall back");
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert!((warm.objective() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_solves() {
        let o = opts();
        let mut ws = Workspace::new();
        let shapes: &[(usize, usize)] = &[(3, 2), (8, 5), (2, 1), (6, 9)];
        for &(n, m) in shapes {
            let mut p = Problem::maximize((0..n).map(|j| 1.0 + j as f64).collect());
            for i in 0..m {
                let row: Vec<f64> = (0..n).map(|j| ((i + j) % 3) as f64 + 0.5).collect();
                p.add_le(row, 2.0 + i as f64).unwrap();
            }
            p.add_eq(vec![1.0; n], 1.0).unwrap();
            let fresh = p.solve(&o).unwrap();
            let reused = p.solve_with(&o, &mut ws).unwrap();
            assert_eq!(fresh.x(), reused.x(), "n={n} m={m}");
            assert_eq!(fresh.objective(), reused.objective());
            assert_eq!(fresh.duals(), reused.duals());
        }
    }

    #[test]
    fn no_constraint_rows() {
        let p = Problem::minimize(vec![1.0, 2.0]);
        let s = p.solve(&opts()).unwrap();
        assert!(s.objective().abs() < 1e-12);
        let p = Problem::maximize(vec![1.0]);
        assert!(matches!(p.solve(&opts()), Err(SolveError::Unbounded)));
    }

    /// A block-angular LP in the exact fleet shape: per-block `Σx = 1`
    /// and floor rows, two coupling capacity rows over everything.
    fn block_angular(blocks: usize, width: usize) -> Problem {
        let n = blocks * width;
        let mut c = Vec::with_capacity(n);
        for j in 0..n {
            c.push(0.3 + 0.6 * ((j as f64 * 0.7389).sin() * 0.5 + 0.5));
        }
        let mut p = Problem::maximize(c);
        for k in 0..2usize {
            let row: Vec<f64> = (0..n)
                .map(|j| 0.1 + ((j + 7 * k) as f64 * 0.4243).cos().abs())
                .collect();
            p.add_le(row, 0.4 * blocks as f64 + k as f64 * 0.2).unwrap();
        }
        for f in 0..blocks {
            let mut row = vec![0.0; n];
            for v in &mut row[f * width..(f + 1) * width] {
                *v = 1.0;
            }
            p.add_eq(row, 1.0).unwrap();
        }
        p.set_block_starts((0..blocks).map(|f| f * width).collect())
            .unwrap();
        p
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
            p.add_le(second.to_vec(), 1.0).unwrap();
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
}
