//! Revised simplex with partial pricing and warm starts.
//!
//! The paper's LPs (Eq. 10/12, 20–23, 28/34) have one variable per
//! path×retransmission combination but only a handful of rows (bandwidth,
//! cost, quality, Σx = 1) — few rows, many columns. A dense tableau pivot
//! rewrites all `n` columns (`O(m·n)`); the revised method instead keeps
//! the constraint matrix fixed and maintains only a representation of
//! `B⁻¹`:
//!
//! * **The matrix is used in place.** Row equilibration and sign flips
//!   are absorbed into per-row multipliers (`row_factor`), so no
//!   normalized copy is ever materialized: bulk pricing streams the
//!   problem's own row-major coefficient rows (`m` vectorized axpy
//!   passes per scan), while the occasional per-column access — the
//!   entering column's FTRAN, basis factorization — gathers `m` strided
//!   elements. With `m` at most a dozen this beats both a dense tableau
//!   and index-chasing sparse storage.
//! * **Eta file / product form**: each pivot appends one eta vector
//!   (`B_k⁻¹ = E_k · … · E_1 · B_0⁻¹`); `B_0⁻¹` is a dense LU
//!   factorization of the basis matrix, rebuilt after
//!   [`REFACTOR_INTERVAL`] etas for numerical stability (and the eta file
//!   reset).
//! * **Partial pricing with a candidate list**: a pricing pass scans the
//!   columns section by section from a rotating cursor and banks every
//!   improving column it sees; subsequent iterations re-price only the
//!   banked candidates until the bank runs dry, so most iterations touch
//!   a few dozen columns instead of all `n`. Optimality still requires a
//!   clean full wrap. [`PivotRule::Dantzig`] forces full pricing and
//!   [`PivotRule::Bland`] first-index pricing; the default
//!   [`PivotRule::Adaptive`] uses the candidate list with the usual Bland
//!   fallback after a run of degenerate pivots.
//! * **Warm starts**: [`Problem::solve_warm`](crate::Problem::solve_warm)
//!   re-enters phase 2 directly from a caller-provided [`Basis`] when that
//!   basis is still primal feasible (a λ/δ sweep or an adaptive re-solve
//!   moves only objective/RHS coefficients); an infeasible or singular
//!   warm basis silently falls back to the cold two-phase path.
//!
//! # Determinism and the canonical vertex
//!
//! Many of the paper's LPs have *alternate optima* (whole faces of equally
//! good vertices). A warm-started solve would naturally stop at whichever
//! optimal vertex is closest to its starting basis, making results depend
//! on solve history. To keep the solver a pure function of the problem,
//! phase 2 is followed by a cheap canonicalization phase: among the
//! zero-reduced-cost columns (moves that stay on the optimal face), it
//! maximizes a secondary objective that prefers **the vertex using the
//! least capacity** (weights decreasing in column mass, with a tiny
//! deterministic jitter for strictness), walking every optimal start to
//! the same canonical vertex. Preferring light columns is not only
//! deterministic but operationally sensible: of two equally good
//! assignments, the one sending less traffic builds smaller queues. The
//! final solution is then extracted from a fresh factorization of the
//! final basis, so identical bases yield bit-identical results
//! regardless of the pivot path taken.

use crate::error::SolveError;
use crate::problem::{Constraint, ConstraintKind, Problem};
use crate::simplex::{PivotRule, SolverOptions, WarmStart, Workspace};
use crate::solution::{Basis, BasisVar, Solution};

/// Etas accumulated before the basis is refactorized from scratch.
const REFACTOR_INTERVAL: usize = 64;

/// Number of pricing sections for partial pricing (a full scan is split
/// into this many chunks; optimality still requires a clean full wrap).
const PRICE_SECTIONS: usize = 8;

/// Minimum section width, so tiny problems degrade to full pricing.
const MIN_SECTION: usize = 32;

/// Cap on the pricing candidate list banked during a section scan.
const CANDIDATE_LIMIT: usize = 24;

/// Pivot magnitude below which an LU factorization counts as singular.
const SINGULAR_TOL: f64 = 1e-12;

/// Sentinel for "row has no slack/artificial column".
const NONE_COL: usize = usize::MAX;

/// Reusable buffers of the revised backend, owned by
/// [`Workspace`](crate::Workspace).
#[derive(Debug, Default)]
pub(crate) struct RevisedWorkspace {
    /// Per-row normalization multiplier `sign/scale` — bulk pricing uses
    /// the problem's own row storage in place, scaled by this on the fly.
    row_factor: Vec<f64>,
    /// Canonicalization weights per column, refilled per solve: among
    /// equally optimal vertices the solver prefers the one using the
    /// least capacity, so `w2[j] = 1/(1 + Σᵣ|Aᵣⱼ|)` plus a tiny
    /// index-hash jitter that makes the preference generically strict.
    w2: Vec<f64>,
    /// Row/value of each logical (slack or artificial) singleton column,
    /// indexed by `column − n`.
    logical_row: Vec<usize>,
    logical_val: Vec<f64>,
    /// Normalized right-hand side (non-negative).
    b: Vec<f64>,
    // --- per-row layout metadata ---
    slack_col: Vec<usize>,
    art_col: Vec<usize>,
    // --- basis state ---
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    x_basic: Vec<f64>,
    // --- dense LU of the basis matrix (row-major m×m) ---
    lu: Vec<f64>,
    lu_piv: Vec<usize>,
    // --- eta file: one row index + m-vector per pivot since refactor ---
    eta_rows: Vec<usize>,
    eta_data: Vec<f64>,
    /// Cost vector over all columns for the running phase.
    cost: Vec<f64>,
    /// Reduced-cost scratch for bulk pricing passes.
    rc: Vec<f64>,
    /// Rotating partial-pricing cursor.
    cursor: usize,
    /// Banked improving columns from the last section scan.
    candidates: Vec<usize>,
    /// Scratch for premultiplied row vectors (`y[r]·row_factor[r]`).
    yf_scratch: Vec<f64>,
    /// Zero-reduced-cost columns collected during the final (optimal)
    /// pricing wrap — the optimal face, consumed by canonicalization.
    face: Vec<usize>,
    /// Whether `face` was completed by a full optimality wrap.
    face_fresh: bool,
    /// Bulk secondary-reduced-cost buffer for canonicalization.
    face_w2: Vec<f64>,
    /// Per-solve telemetry, published by the dispatcher.
    pub(crate) stats: crate::simplex::SolveStats,
}

/// Column layout of the assembled matrix.
#[derive(Debug, Clone, Copy)]
struct Dims {
    /// Rows.
    m: usize,
    /// Structural variables.
    n: usize,
    /// First artificial column (slacks live in `n..art_start`).
    art_start: usize,
    /// Total columns.
    ncols: usize,
    /// Number of artificial columns.
    n_art: usize,
}

/// Entry point used by `Problem::{solve, solve_with, solve_warm}` when
/// [`Backend::Revised`](crate::Backend::Revised) is selected.
pub(crate) fn solve(
    problem: &Problem,
    options: &SolverOptions,
    workspace: &mut Workspace,
    warm: Option<&Basis>,
) -> Result<Solution, SolveError> {
    let ws = &mut workspace.revised;
    ws.stats.reset();
    let rows = problem.constraints();
    let dims = build(problem, ws);
    let tol = options.tolerance;
    let mut iterations = 0usize;

    // Per-solve dense scratch (length m — negligible next to the matrix).
    let mut y = vec![0.0; dims.m];
    let mut y2 = vec![0.0; dims.m];
    let mut d = vec![0.0; dims.m];

    // ---- Warm start: try to re-enter phase 2 directly -------------------
    let warm_ok = warm.is_some_and(|basis| try_warm_basis(rows, ws, &dims, basis, tol));

    if !warm_ok {
        // Cold start: slack basis where possible, artificials elsewhere.
        install_initial_basis(ws, &dims);
        if !factor(rows, ws, &dims) {
            return Err(SolveError::Singular);
        }
        ws.x_basic.clear();
        ws.x_basic.extend_from_slice(&ws.b);

        // ---- Phase 1: drive artificials to zero -------------------------
        if dims.n_art > 0 {
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
            drive_out_artificials(rows, ws, &dims, tol, &mut y, &mut d, &mut iterations);
        }
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
    // Refactorizing here makes the result a function of the final basis
    // alone: any pivot path (warm or cold) reaching the same basis yields
    // bit-identical primal values, objective and duals.
    if !factor(rows, ws, &dims) {
        return Err(SolveError::Singular);
    }
    ws.x_basic.clear();
    ws.x_basic.extend_from_slice(&ws.b);
    let xb: &mut [f64] = &mut ws.x_basic;
    lu_solve(&ws.lu, &ws.lu_piv, dims.m, xb);

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
    // row (the same sign/scale algebra as the dense backend).
    for (yi, &b) in y.iter_mut().zip(&ws.basis) {
        *yi = ws.cost[b];
    }
    lu_solve_t(&ws.lu, &ws.lu_piv, dims.m, &mut y);
    let mut duals = vec![0.0; dims.m];
    for (dual, (&yr, &f)) in duals.iter_mut().zip(y.iter().zip(&ws.row_factor)) {
        let mut v = yr * f;
        if problem.minimize {
            v = -v;
        }
        *dual = v;
    }

    // Exported basis (artificial-free bases only).
    let basis = export_basis(ws, &dims);

    Ok(Solution::new(
        x, objective, duals, iterations, basis, warm_ok,
    ))
}

/// Computes the row normalization and column layout; the matrix itself
/// stays in the problem's row storage.
fn build(problem: &Problem, ws: &mut RevisedWorkspace) -> Dims {
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
        // Identical normalization arithmetic to the dense backend: scale
        // by the row max, negate rows with negative RHS. The factor
        // `sign/scale` multiplies the raw row on every access.
        let scale = c
            .coeffs()
            .iter()
            .fold(c.rhs().abs(), |acc, v| acc.max(v.abs()))
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

    // Slack singletons, in row order; the slack carries the row's sign
    // (−1 on negated rows), exactly like the dense layout.
    for (r, c) in problem.constraints().iter().enumerate() {
        if c.kind() == ConstraintKind::LessEq {
            ws.slack_col[r] = n + ws.logical_row.len();
            ws.logical_row.push(r);
            ws.logical_val
                .push(if ws.row_factor[r] < 0.0 { -1.0 } else { 1.0 });
        }
    }
    // Artificial singletons (+1), in row order.
    for (r, c) in problem.constraints().iter().enumerate() {
        if c.kind() == ConstraintKind::Eq || ws.row_factor[r] < 0.0 {
            ws.art_col[r] = n + ws.logical_row.len();
            ws.logical_row.push(r);
            ws.logical_val.push(1.0);
        }
    }
    debug_assert_eq!(n + ws.logical_row.len(), ncols);

    ws.face_fresh = false;
    Dims {
        m,
        n,
        art_start,
        ncols,
        n_art,
    }
}

/// Gathers (normalized) column `j` into the dense buffer `out` — `m`
/// strided reads from the original rows; rare enough (one per pivot plus
/// factorizations) that no column-major copy pays for itself.
fn gather_col(rows: &[Constraint], ws: &RevisedWorkspace, dims: &Dims, j: usize, out: &mut [f64]) {
    if j < dims.n {
        for (r, c) in rows.iter().enumerate() {
            out[r] = c.coeffs()[j] * ws.row_factor[r];
        }
    } else {
        out.fill(0.0);
        let l = j - dims.n;
        out[ws.logical_row[l]] = ws.logical_val[l];
    }
}

/// Premultiplies `y[r]·row_factor[r]` into the reusable scratch buffer,
/// so per-column dots read the original rows with one multiply per
/// element.
#[inline]
fn premultiply<'a>(buf: &'a mut Vec<f64>, y: &[f64], row_factor: &[f64]) -> &'a [f64] {
    buf.clear();
    buf.extend(y.iter().zip(row_factor).map(|(a, b)| a * b));
    buf
}

/// Reduced cost of a single column (used for candidate re-pricing; bulk
/// scans go through [`fill_rc_structural`] instead). `yf` is the
/// premultiplied `y[r]·row_factor[r]` vector, so the original rows are
/// read directly.
#[inline]
fn reduced_cost_col(
    rows: &[Constraint],
    ws: &RevisedWorkspace,
    dims: &Dims,
    yf: &[f64],
    y: &[f64],
    j: usize,
) -> f64 {
    if j < dims.n {
        let mut dot = 0.0;
        for (r, c) in rows.iter().enumerate() {
            dot += yf[r] * c.coeffs()[j];
        }
        ws.cost[j] - dot
    } else {
        let l = j - dims.n;
        ws.cost[j] - y[ws.logical_row[l]] * ws.logical_val[l]
    }
}

/// Fills `rc[lo..hi]` (absolute structural indices, `hi ≤ n`) with the
/// reduced costs `c_j − y·A_j` via one vectorized axpy pass per row —
/// the fast path that makes bulk pricing cheap despite `n` being large.
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
            let seg = &c.coeffs()[lo..hi];
            for (acc, &v) in rc[lo..hi].iter_mut().zip(seg) {
                *acc -= mult * v;
            }
        }
    }
}

/// Pricing mode for one iteration.
#[derive(Clone, Copy, PartialEq)]
enum Pricing {
    /// First improving column (anti-cycling).
    Bland,
    /// Full Dantzig scan: most positive reduced cost.
    Full,
    /// Candidate list backed by sectioned partial scans.
    Partial,
}

/// Which phase [`run_phase`] is executing.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Feasibility: artificials priced out, early exit once none is
    /// basic, no face collection.
    One,
    /// Optimality: structural + slack columns, face collected on the
    /// final wrap.
    Two,
}

/// Selects the entering column among `0..enter_limit`, or `None` when the
/// current basis is optimal for the phase objective.
///
/// When `collect_face` is set and a call completes a full wrap without
/// finding an improving column (the optimality proof), it leaves the
/// zero-reduced-cost columns in `ws.face` with `ws.face_fresh = true` —
/// the canonicalization phase consumes them without re-scanning the
/// matrix.
#[allow(clippy::too_many_arguments)]
fn price(
    rows: &[Constraint],
    ws: &mut RevisedWorkspace,
    dims: &Dims,
    enter_limit: usize,
    y: &[f64],
    tol: f64,
    mode: Pricing,
    collect_face: bool,
) -> Option<usize> {
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
            let rc = reduced_cost_col(rows, ws, dims, yf, y, j);
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

    // Section scan (Partial) or one full section (Bland/Full), driven by
    // bulk rc fills. Each chunk is a contiguous range clamped at the end
    // of the column space; the cursor wraps between chunks, so a clean
    // full wrap visits every column exactly once.
    let mut face = std::mem::take(&mut ws.face);
    let mut rc_buf = std::mem::take(&mut ws.rc);
    if rc_buf.len() < enter_limit {
        rc_buf.resize(enter_limit, 0.0);
    }
    let section = match mode {
        Pricing::Partial => (enter_limit.div_ceil(PRICE_SECTIONS)).max(MIN_SECTION),
        Pricing::Bland | Pricing::Full => enter_limit,
    };
    let mut scanned = 0usize;
    let mut pos = if mode == Pricing::Partial {
        ws.cursor % enter_limit
    } else {
        0
    };
    let mut best = tol;
    let mut pick = None;
    if collect_face && face.len() < enter_limit {
        // Branchless face collection writes unconditionally into a
        // pre-sized buffer (truncated below): the ~50 % taken-rate of the
        // on-face test would otherwise cost a mispredict per column.
        // Slots are always written before being counted, so the buffer
        // only ever grows and is never re-zeroed.
        face.resize(enter_limit, 0);
    }
    let mut face_w = 0usize;
    while scanned < enter_limit {
        let span = section.min(enter_limit - scanned).min(enter_limit - pos);
        let (lo, hi) = (pos, pos + span);
        // Bulk-fill reduced costs for the chunk: the structural part via
        // vectorized row passes, logical singletons directly.
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
                    break;
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
        if mode == Pricing::Bland && pick.is_some() {
            break;
        }
        scanned += span;
        pos = hi;
        if pos == enter_limit {
            pos = 0;
        }
        if mode == Pricing::Partial && pick.is_some() {
            ws.cursor = pos;
            break;
        }
    }
    face.truncate(face_w);
    ws.rc = rc_buf;
    // The face is complete only when the scan visited every column and
    // found nothing improving (the optimality proof).
    ws.face_fresh = collect_face && pick.is_none() && scanned == enter_limit;
    ws.face = face;
    pick
}

/// Ratio test: picks the leaving row for entering direction `d`, mirroring
/// the dense backend's tie-break (smallest basic column index on
/// near-ties). Basic artificials sitting at zero are forced out on any
/// nonzero direction component so they cannot turn positive.
///
/// Returns `None` when the direction is unbounded.
fn ratio_test(ws: &RevisedWorkspace, dims: &Dims, d: &[f64], tol: f64) -> Option<(usize, f64)> {
    let mut leave: Option<usize> = None;
    let mut best_ratio = f64::INFINITY;
    for (i, &a) in d.iter().enumerate().take(dims.m) {
        let candidate = if a > tol {
            Some(ws.x_basic[i].max(0.0) / a)
        } else if ws.basis[i] >= dims.art_start && a < -tol && ws.x_basic[i] <= tol {
            // Degenerate exit of a zero-valued artificial: the pivot keeps
            // all basic values unchanged, so a negative direction
            // component is acceptable.
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

/// Slack basis where available, artificial basis elsewhere (`B = I`).
fn install_initial_basis(ws: &mut RevisedWorkspace, dims: &Dims) {
    ws.basis.clear();
    ws.in_basis.clear();
    ws.in_basis.resize(dims.ncols, false);
    for r in 0..dims.m {
        let c = if ws.art_col[r] != NONE_COL {
            ws.art_col[r]
        } else {
            ws.slack_col[r]
        };
        debug_assert_ne!(c, NONE_COL);
        ws.basis.push(c);
        ws.in_basis[c] = true;
    }
}

/// Validates and installs a caller-provided warm [`Basis`]; returns
/// `true` when the basis is well-formed, nonsingular and primal feasible
/// (in which case `x_basic` is loaded and phase 1 can be skipped), and
/// records its fate in `ws.stats.warm`. This backend only re-enters
/// phase 2: a basis naming a [`BasisVar::Logical`] is declined whole.
fn try_warm_basis(
    rows: &[Constraint],
    ws: &mut RevisedWorkspace,
    dims: &Dims,
    basis: &Basis,
    tol: f64,
) -> bool {
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
            BasisVar::Structural(_) | BasisVar::Slack(_) | BasisVar::Logical(_) => return false,
        };
        if ws.in_basis[c] {
            ws.stats.warm = WarmStart::Singular; // duplicate column
            return false;
        }
        ws.basis.push(c);
        ws.in_basis[c] = true;
    }
    if !factor(rows, ws, dims) {
        ws.stats.warm = WarmStart::Singular; // under the new coefficients
        return false;
    }
    ws.x_basic.clear();
    ws.x_basic.extend_from_slice(&ws.b);
    let xb: &mut [f64] = &mut ws.x_basic;
    lu_solve(&ws.lu, &ws.lu_piv, dims.m, xb);
    if ws.x_basic.iter().any(|&v| v < -tol) {
        ws.stats.warm = WarmStart::Infeasible; // for the new RHS
        return false;
    }
    for v in &mut ws.x_basic {
        *v = v.max(0.0);
    }
    ws.stats.warm = WarmStart::Used;
    true
}

/// Dense LU factorization (partial pivoting) of the current basis matrix;
/// clears the eta file. Returns `false` on a numerically singular basis.
fn factor(rows: &[Constraint], ws: &mut RevisedWorkspace, dims: &Dims) -> bool {
    let m = dims.m;
    ws.stats.refactorizations += 1;
    ws.stats.eta_lengths.push(ws.eta_rows.len() as u64);
    ws.eta_rows.clear();
    ws.eta_data.clear();
    ws.lu.clear();
    ws.lu.resize(m * m, 0.0);
    ws.lu_piv.clear();
    ws.lu_piv.resize(m, 0);
    for k in 0..m {
        let bcol = ws.basis[k];
        if bcol < dims.n {
            for (r, c) in rows.iter().enumerate() {
                ws.lu[r * m + k] = c.coeffs()[bcol] * ws.row_factor[r];
            }
        } else {
            let l = bcol - dims.n;
            ws.lu[ws.logical_row[l] * m + k] = ws.logical_val[l];
        }
    }
    for k in 0..m {
        // Partial pivot: largest magnitude in column k at or below the
        // diagonal.
        let mut p = k;
        let mut best = ws.lu[k * m + k].abs();
        for i in k + 1..m {
            let v = ws.lu[i * m + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < SINGULAR_TOL {
            return false;
        }
        ws.lu_piv[k] = p;
        if p != k {
            for j in 0..m {
                ws.lu.swap(k * m + j, p * m + j);
            }
        }
        let inv = 1.0 / ws.lu[k * m + k];
        for i in k + 1..m {
            let f = ws.lu[i * m + k] * inv;
            ws.lu[i * m + k] = f;
            // dmc-lint: allow(float-exact) an exactly-zero LU factor generates no eta entry; the skip is lossless
            if f != 0.0 {
                for j in k + 1..m {
                    ws.lu[i * m + j] -= f * ws.lu[k * m + j];
                }
            }
        }
    }
    true
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

/// FTRAN: `v ← B⁻¹ v` (LU solve, then the eta file in append order).
fn ftran(ws: &RevisedWorkspace, m: usize, v: &mut [f64]) {
    lu_solve(&ws.lu, &ws.lu_piv, m, v);
    for (k, &r) in ws.eta_rows.iter().enumerate() {
        let eta = &ws.eta_data[k * m..(k + 1) * m];
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

/// BTRAN: `v ← vᵀ B⁻¹` (eta file in reverse order, then the transposed LU
/// solve).
fn btran(ws: &RevisedWorkspace, m: usize, v: &mut [f64]) {
    for (k, &r) in ws.eta_rows.iter().enumerate().rev() {
        let eta = &ws.eta_data[k * m..(k + 1) * m];
        let mut s = 0.0;
        for i in 0..m {
            s += v[i] * eta[i];
        }
        v[r] = s;
    }
    lu_solve_t(&ws.lu, &ws.lu_piv, m, v);
}

/// Applies the pivot `(entering q, leaving row r, direction d, step t)`:
/// updates the basic values, appends the eta vector and refactorizes when
/// the eta file is full. Returns `false` when a due refactorization found
/// the basis numerically singular — the factors are then unusable and the
/// caller must stop iterating.
fn pivot(
    rows: &[Constraint],
    ws: &mut RevisedWorkspace,
    dims: &Dims,
    q: usize,
    r: usize,
    d: &[f64],
    t: f64,
) -> bool {
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

    // Eta column: E replaces column r of the identity.
    let inv = 1.0 / d[r];
    ws.eta_rows.push(r);
    let base = ws.eta_data.len();
    ws.eta_data.reserve(dims.m);
    for (i, &di) in d.iter().enumerate().take(dims.m) {
        ws.eta_data.push(if i == r { inv } else { -di * inv });
    }
    debug_assert_eq!(ws.eta_data.len(), base + dims.m);

    if ws.eta_rows.len() >= REFACTOR_INTERVAL {
        if !factor(rows, ws, dims) {
            return false;
        }
        // Recompute the basic values from scratch to shed accumulated
        // floating-point drift.
        ws.x_basic.clear();
        ws.x_basic.extend_from_slice(&ws.b);
        let xb: &mut [f64] = &mut ws.x_basic;
        lu_solve(&ws.lu, &ws.lu_piv, dims.m, xb);
        for v in &mut ws.x_basic {
            *v = v.max(0.0);
        }
    }
    true
}

/// Runs simplex iterations on the phase objective in `ws.cost` until
/// optimality, unboundedness or the iteration limit.
///
/// Phase 1 never prices artificial columns (they start basic and only
/// leave) and exits as soon as no artificial is basic — the phase-1
/// objective is then exactly zero, its optimum, with no need for a final
/// pricing wrap. Phase 2 locks artificials out via the same enter limit
/// and collects the optimal face on its final wrap.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    rows: &[Constraint],
    ws: &mut RevisedWorkspace,
    dims: &Dims,
    options: &SolverOptions,
    phase: Phase,
    y: &mut [f64],
    d: &mut [f64],
    iterations: &mut usize,
) -> Result<(), SolveError> {
    let tol = options.tolerance;
    let enter_limit = dims.art_start;
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
        btran(ws, dims.m, y);
        let Some(q) = price(rows, ws, dims, enter_limit, y, tol, mode, collect_face) else {
            return Ok(()); // optimal
        };
        gather_col(rows, ws, dims, q, d);
        ftran(ws, dims.m, d);
        let Some((r, step)) = ratio_test(ws, dims, d, tol) else {
            return Err(SolveError::Unbounded);
        };
        if step.abs() <= tol {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        let leaving_art = ws.basis[r] >= dims.art_start;
        if !pivot(rows, ws, dims, q, r, d, step) {
            return Err(SolveError::Singular);
        }
        *iterations += 1;
        if phase == Phase::One && leaving_art {
            basic_arts -= 1;
            if basic_arts == 0 {
                // All artificials are nonbasic (at zero): Σ artificials is
                // 0, the unimprovable phase-1 optimum.
                ws.stats.phase1_early_exit = true;
                return Ok(());
            }
        }
    }
    Err(SolveError::IterationLimit {
        limit: options.max_iterations,
    })
}

/// After phase 1, pivots basic artificials out where possible (degenerate
/// pivots on any nonzero direction component). Rows whose artificial
/// cannot leave are linearly dependent; their artificial stays basic at
/// zero and — its row being a combination of the others — never moves
/// again.
#[allow(clippy::too_many_arguments)]
fn drive_out_artificials(
    rows: &[Constraint],
    ws: &mut RevisedWorkspace,
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
        // Row r of B⁻¹A, probed column by column: e = eᵣᵀB⁻¹, then a
        // short dot per candidate column.
        e.fill(0.0);
        e[r] = 1.0;
        btran(ws, dims.m, e);
        let mut ef_buf = std::mem::take(&mut ws.yf_scratch);
        let ef = premultiply(&mut ef_buf, e, &ws.row_factor);
        let entering = (0..dims.art_start).find(|&j| {
            !ws.in_basis[j] && {
                let dot = if j < dims.n {
                    rows.iter()
                        .enumerate()
                        .map(|(ri, c)| ef[ri] * c.coeffs()[j])
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
            gather_col(rows, ws, dims, q, d);
            ftran(ws, dims.m, d);
            if d[r].abs() <= SINGULAR_TOL {
                continue; // numerically vanished; treat as dependent
            }
            let step = ws.x_basic[r] / d[r];
            if !pivot(rows, ws, dims, q, r, d, step) {
                // Refactorization broke down; stop driving out — the
                // remaining artificials stay basic at zero and the final
                // extraction refactorizes from scratch anyway.
                return;
            }
            *iterations += 1;
        }
    }
}

/// Phase 3: walks the optimal face (columns with zero phase-2 reduced
/// cost) to the vertex maximizing the secondary weights (least total
/// capacity use, jitter-broken ties), so every optimal start — warm or
/// cold — reports the same vertex. A determinism device with a sensible
/// bias: it never changes the phase-2 objective value, and
/// bails out (keeping the current optimum) on an unbounded face direction
/// or when the iteration budget is exhausted.
///
/// Pivoting on a zero-reduced-cost column leaves the duals `y` unchanged
/// (`y' = y + (rc_q/d_r)·eᵣB⁻¹` with `rc_q = 0`), so the face — the set
/// of zero-reduced-cost columns — is **fixed** for the whole phase; the
/// final pricing wrap of phase 2 collected it (`ws.face`). Secondary
/// reduced costs are computed in bulk (one vectorized axpy pass per row)
/// and improving candidates are **deduplicated by their dot-product bit
/// pattern**: these LPs carry many identical columns (every
/// blackhole-truncated combination shares one), duplicates produce
/// bit-identical `y₂·A_j`, and only the highest-weight representative of
/// a duplicate group can ever enter. The pruning is deterministic, so
/// warm and cold solves still agree. A candidate queue then keeps full
/// re-scans to the occasional refill. When the phase-2 endpoint is
/// already canonical (every warm re-solve after the first), the whole
/// phase is one bulk pass that finds nothing.
#[allow(clippy::too_many_arguments)]
fn canonicalize(
    rows: &[Constraint],
    ws: &mut RevisedWorkspace,
    dims: &Dims,
    options: &SolverOptions,
    y: &mut [f64],
    y2: &mut [f64],
    d: &mut [f64],
    iterations: &mut usize,
) {
    let tol = options.tolerance;
    let m = dims.m;
    let mut face = std::mem::take(&mut ws.face);
    if !ws.face_fresh {
        // Fallback (phase 2 normally ends on an optimality wrap that
        // collected the face): recompute it from the phase-2 duals.
        for (yi, &b) in y.iter_mut().zip(&ws.basis) {
            *yi = ws.cost[b];
        }
        btran(ws, m, y);
        let mut yf_buf = std::mem::take(&mut ws.yf_scratch);
        let yf = premultiply(&mut yf_buf, y, &ws.row_factor);
        face.clear();
        for j in 0..dims.art_start {
            if !ws.in_basis[j] && reduced_cost_col(rows, ws, dims, yf, y, j).abs() <= tol {
                face.push(j);
            }
        }
        ws.yf_scratch = yf_buf;
    }
    if face.is_empty() {
        ws.face = face;
        return;
    }
    // Secondary weights: prefer the optimal vertex that uses the least
    // capacity — `w2[j]` decreases with the column's total (normalized)
    // mass — with a tiny deterministic jitter for strictness. One
    // vectorized |A| pass per row, like the pricing fills.
    ws.w2.clear();
    ws.w2.resize(dims.art_start, 0.0);
    for (r, c) in rows.iter().enumerate() {
        let fac = ws.row_factor[r].abs();
        for (acc, &v) in ws.w2[..dims.n].iter_mut().zip(c.coeffs()) {
            *acc += fac * v.abs();
        }
    }
    for l in 0..dims.art_start - dims.n {
        ws.w2[dims.n + l] = ws.logical_val[l].abs();
    }
    // Jitter strictly decreasing in the column index: among equally
    // light columns the lowest index wins, deterministically.
    let jitter_step = 1e-6 / (dims.art_start + 1) as f64;
    let mut jitter = 1e-6;
    for w in ws.w2.iter_mut() {
        *w = 1.0 / (1.0 + *w) + jitter;
        jitter -= jitter_step;
    }
    let mut rc2 = std::mem::take(&mut ws.face_w2); // reused buffer
    let mut queue: Vec<(usize, f64)> = Vec::new();
    let mut table: Vec<(u64, u32)> = Vec::new();
    // Refill: bulk secondary reduced costs over all columns (rc2 = w2 −
    // y₂ᵀA via vectorized row passes), then collect the improving face
    // members deduplicated by dot-product bits (keep max weight, then
    // lowest index).
    let refill = |ws: &RevisedWorkspace,
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
                for (acc, &v) in rc2[..dims.n].iter_mut().zip(c.coeffs()) {
                    *acc -= mult * v;
                }
            }
        }
        for l in 0..dims.art_start - dims.n {
            rc2[dims.n + l] -= y2[ws.logical_row[l]] * ws.logical_val[l];
        }
        queue.clear();
        // Dedup table keyed by the dot bits (w2 − rc2): duplicates of a
        // column produce identical dots; 0 is the empty sentinel.
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
                    // Duplicate group: keep the higher weight (ties: the
                    // lower index, which was seen first).
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
        // Table order depends on hashing; sort for a deterministic queue.
        queue.sort_unstable_by_key(|&(j, _)| j);
    };
    let mut degenerate_run = 0usize;
    let mut stale = true; // queue needs a refill
    for _ in 0..options.max_iterations {
        for (y2i, &b) in y2.iter_mut().zip(&ws.basis) {
            // Basic artificials (redundant rows) never move in this
            // phase; any fixed weight works — use zero.
            *y2i = if b < dims.art_start { ws.w2[b] } else { 0.0 };
        }
        btran(ws, m, y2);
        let bland = degenerate_run >= options.degenerate_switch;
        let mut pick: Option<usize> = None;
        let mut best = tol;
        if !stale {
            // Re-price the queued candidates (strided dots on the few
            // survivors) before paying for a bulk refill.
            let mut yf_buf = std::mem::take(&mut ws.yf_scratch);
            let yf = premultiply(&mut yf_buf, y2, &ws.row_factor);
            for &(j, _) in &queue {
                if ws.in_basis[j] {
                    continue;
                }
                let rc2j = if j < dims.n {
                    let mut dot = 0.0;
                    for (r, c) in rows.iter().enumerate() {
                        dot += yf[r] * c.coeffs()[j];
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
        gather_col(rows, ws, dims, q, d);
        ftran(ws, m, d);
        let Some((r, step)) = ratio_test(ws, dims, d, tol) else {
            break; // face unbounded in the secondary direction: keep x
        };
        if step.abs() <= tol {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        // The leaving variable keeps zero reduced cost (it left on a
        // zero-rc pivot), so it joins the face.
        let leaving = ws.basis[r];
        let pivot_ok = pivot(rows, ws, dims, q, r, d, step);
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
/// artificial stayed basic — such a basis cannot restart another solve).
fn export_basis(ws: &RevisedWorkspace, dims: &Dims) -> Option<Basis> {
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

    fn opts() -> SolverOptions {
        SolverOptions {
            backend: Backend::Revised,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn simple_maximize() {
        // max 3x + 2y ; x + y <= 4 ; x + 3y <= 6 → x=4,y=0, obj 12
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
        // An artificial stays basic for the dependent row, so no basis is
        // exported.
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
        // A problem needing well over REFACTOR_INTERVAL pivots: a long
        // assignment chain forces the solver through many bases.
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
        // Optimum: each pair contributes its bound times its best cost.
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
        // Unique optimum x=10, y=2: basis {x, y, slack of the y-row}, with
        // the x-bound row binding (its slack nonbasic).
        let mut loose = Problem::maximize(vec![2.0, 1.0]);
        loose.add_le(vec![1.0, 0.0], 10.0).unwrap();
        loose.add_le(vec![0.0, 1.0], 10.0).unwrap();
        loose.add_eq(vec![1.0, 1.0], 12.0).unwrap();
        let basis = loose.solve(&o).unwrap().basis().unwrap().clone();
        // New RHS: the carried basis forces x = 2 (binding x-row), hence
        // y = 1 − 2 < 0 — primal infeasible, so the solver must fall back
        // to phase 1. The problem itself is feasible (x=1, y=0).
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
    fn wrong_shape_warm_basis_falls_back() {
        let o = opts();
        let mut small = Problem::maximize(vec![1.0]);
        small.add_le(vec![1.0], 1.0).unwrap();
        let basis = small.solve(&o).unwrap().basis().unwrap().clone();
        let mut big = Problem::maximize(vec![1.0, 2.0]);
        big.add_le(vec![1.0, 0.0], 1.0).unwrap();
        big.add_le(vec![0.0, 1.0], 1.0).unwrap();
        let warm = big.solve_warm(&o, &basis).unwrap();
        assert!(!warm.used_warm_start());
        assert!((warm.objective() - 3.0).abs() < 1e-9);
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
    fn workspace_survives_error_outcomes() {
        let o = opts();
        let mut ws = Workspace::new();
        let mut bad = Problem::maximize(vec![1.0]);
        bad.add_le(vec![1.0], 1.0).unwrap();
        bad.add_ge(vec![1.0], 2.0).unwrap();
        assert!(matches!(
            bad.solve_with(&o, &mut ws),
            Err(SolveError::Infeasible { .. })
        ));
        let mut unbounded = Problem::maximize(vec![1.0, 0.0]);
        unbounded.add_le(vec![0.0, 1.0], 1.0).unwrap();
        assert!(matches!(
            unbounded.solve_with(&o, &mut ws),
            Err(SolveError::Unbounded)
        ));
        let mut good = Problem::maximize(vec![3.0, 2.0]);
        good.add_le(vec![1.0, 1.0], 4.0).unwrap();
        let s = good.solve_with(&o, &mut ws).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn many_rows_solve_without_panicking() {
        // Regression: per-row scratch buffers must not be capped at a
        // fixed stack size — a 71-row LP (> 64) through the default
        // backend used to panic. Transportation-style structure keeps it
        // feasible and bounded.
        let n = 70usize;
        let mut p = Problem::maximize((0..n).map(|j| 1.0 + (j % 7) as f64).collect());
        for j in 0..n {
            let mut row = vec![0.0; n];
            row[j] = 1.0;
            p.add_le(row, 1.0 + (j % 3) as f64).unwrap();
        }
        p.add_eq(vec![1.0; n], 5.0).unwrap(); // 71 rows total
        let s = p.solve(&opts()).unwrap();
        assert!(p.max_violation(s.x()) < 1e-7);
        assert!(s.objective() > 0.0);
        // And the warm path over the same shape.
        let basis = s.basis().expect("basis").clone();
        let warm = p.solve_warm(&opts(), &basis).unwrap();
        assert_eq!(warm.x(), s.x());
        assert!(warm.used_warm_start());
    }

    #[test]
    fn no_constraint_rows() {
        // Zero rows: x = 0 is optimal for a non-positive objective and
        // unbounded otherwise.
        let p = Problem::minimize(vec![1.0, 2.0]);
        let s = p.solve(&opts()).unwrap();
        assert!(s.objective().abs() < 1e-12);
        let p = Problem::maximize(vec![1.0]);
        assert!(matches!(p.solve(&opts()), Err(SolveError::Unbounded)));
    }
}
