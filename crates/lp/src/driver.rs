//! The revised-simplex driver: the algorithm, run on the sparse basis
//! kernel ([`BlockPfi`]).
//!
//! The paper's LPs (Eq. 10/12, 20–23, 28/34) have one variable per
//! path×retransmission combination but only a handful of rows (bandwidth,
//! cost, quality, Σx = 1) — few rows, many columns. A dense tableau pivot
//! rewrites all `n` columns (`O(m·n)`); the revised method keeps the
//! constraint matrix fixed and maintains only a representation of `B⁻¹`.
//! Everything that is *the method* lives here; what the kernel
//! ([`crate::sparse`]) supplies is how a column is gathered, how a row
//! pass is streamed and how `B⁻¹` is stored and applied.
//!
//! * **Row normalization without a copy.** Row equilibration and sign
//!   flips are absorbed into per-row multipliers ([`Layout::row_factor`]),
//!   so no normalized matrix is ever materialized: the kernel's view
//!   holds the raw coefficients. Slack and artificial
//!   singletons are laid out after the structural columns
//!   (`structural | slacks | artificials`).
//! * **Product form.** Each pivot appends one eta to the kernel's file
//!   (`B_k⁻¹ = E_k · … · E_1 · B_0⁻¹`); after [`REFACTOR_INTERVAL`]
//!   iteration etas the kernel refactorizes `B_0` from scratch and the
//!   basic values are recomputed, shedding drift.
//! * **Partial pricing with a candidate list.** A pricing pass scans the
//!   columns section by section from a rotating cursor and banks every
//!   improving column it sees; later iterations re-price only the banked
//!   candidates until the bank runs dry, so most iterations touch a few
//!   dozen columns instead of all `n`. Optimality still requires a clean
//!   full wrap. The kernel lays out the sections (uniform chunks, or
//!   aligned to declared blocks). After
//!   [`DEGENERATE_SWITCH`](crate::simplex::DEGENERATE_SWITCH) degenerate
//!   pivots in a row pricing falls back to Bland's first improving
//!   column, which cannot cycle.
//! * **Warm starts.** A caller-provided [`Basis`] is validated, factored
//!   and checked for primal feasibility; when it stands the solve starts
//!   from it — straight into phase 2 when it names no artificial,
//!   otherwise through a phase 1 that runs *from that basis* over the few
//!   artificials it names. A basis the new right-hand side made primal
//!   infeasible (a departure freed capacity under it) is first walked
//!   back to feasibility where it stands by a **dual-simplex phase**
//!   ([`restore_feasibility`]). That phase restores feasibility and
//!   nothing else — it may leave reduced costs of the wrong sign, because
//!   phase 2 runs from wherever it stops and proves optimality as it does
//!   for every other start. A basis that factors singular is repaired by
//!   the kernel; one of the wrong shape, with a duplicate column, or one
//!   the dual phase gave up on falls back to the cold two-phase path. Its
//!   fate is recorded as a [`WarmStart`].
//!
//! # Two goals
//!
//! A solve is asked either for the optimum ([`Goal::Optimal`], every
//! `Problem::solve*` entry point) or for a verdict
//! ([`Goal::Feasible`], `Problem::find_feasible_with`): is there any
//! point meeting every row? The stages, and which goal runs them:
//!
//! | stage | `Optimal` | `Feasible` |
//! |---|---|---|
//! | warm start and dual phase | yes | yes |
//! | phase 1 and the drive-out of artificials | yes | yes |
//! | phase 2 (the caller's objective) | yes | — |
//! | phase 3 (the canonical vertex) | yes | — |
//! | extraction from a fresh factorization, duals | yes | — |
//!
//! Phase 1 alone decides `Infeasible`, so both goals give the same
//! verdict; phases 2 and 3 never refuse. The feasibility goal returns
//! the vertex phase 1 stopped on, read from the factors in hand, and
//! its basis. That vertex depends on the start and the pivot path, so it
//! is no answer to share — a caller that admits a sequence of candidates
//! on verdicts (the fleet's greedy admissions) ends the sequence with one
//! optimal solve. On `svc_contended` (an instrumented copy, nproc 2,
//! 2026-10-15) phases 2 and 3 and the extraction were 70 % of a
//! successful optimal solve: phase 2 17 %, phase 3 50 %, extraction 4 %.
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
//! final basis, so identical bases yield bit-identical results regardless
//! of the pivot path taken. The kernel orders its pivots by the basis
//! *set*, so the order a path left the slots in never reaches the bits,
//! and a solve that made no pivot since a clean factorization already
//! holds those factors and keeps them.

use std::ops::Range;

use crate::error::SolveError;
use crate::problem::{Constraint, ConstraintKind, Problem};
use crate::simplex::{objective_scale, SolveStats, SolverOptions, WarmStart, TOLERANCE};
use crate::solution::{Basis, BasisVar, Solution};
use crate::sparse::BlockPfi;

/// Iteration etas accumulated before the basis is refactorized from
/// scratch.
const REFACTOR_INTERVAL: usize = 64;

/// Cap on the pricing candidate list banked during a section scan.
const CANDIDATE_LIMIT: usize = 24;

/// Pivot magnitude below which a factorization counts as singular.
pub(crate) const SINGULAR_TOL: f64 = 1e-12;

/// Sentinel for "row has no slack/artificial column".
const NONE_COL: usize = usize::MAX;

/// Row normalization and column layout of one solve; the coefficients
/// themselves are the kernel's business.
#[derive(Debug, Default)]
pub(crate) struct Layout {
    /// Rows.
    pub(crate) m: usize,
    /// Structural variables.
    pub(crate) n: usize,
    /// First artificial column (slacks live in `n..art_start`).
    pub(crate) art_start: usize,
    /// Total columns.
    ncols: usize,
    /// Per-row normalization multiplier `sign/scale`, applied to the raw
    /// row on every access.
    pub(crate) row_factor: Vec<f64>,
    /// Normalized right-hand side (non-negative).
    b: Vec<f64>,
    /// Slack / artificial column of each row ([`NONE_COL`] when absent).
    slack_col: Vec<usize>,
    art_col: Vec<usize>,
    /// Row/value of each logical (slack or artificial) singleton column,
    /// indexed by `column − n`.
    pub(crate) logical_row: Vec<usize>,
    pub(crate) logical_val: Vec<f64>,
}

impl Layout {
    /// Computes the normalization and the layout for `problem`.
    pub(crate) fn build(&mut self, problem: &Problem) {
        let n = problem.num_vars();
        self.row_factor.clear();
        self.slack_col.clear();
        self.art_col.clear();
        self.b.clear();
        self.logical_row.clear();
        self.logical_val.clear();

        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for c in problem.constraints() {
            // Identical normalization arithmetic to the dense tableau:
            // scale by the row max, negate rows with negative RHS.
            let scale = c.abs_max().max(c.rhs().abs()).max(1e-300);
            let negated = c.rhs() / scale < 0.0;
            if c.kind() == ConstraintKind::LessEq {
                n_slack += 1;
            }
            if c.kind() == ConstraintKind::Eq || negated {
                n_art += 1;
            }
            let sign = if negated { -1.0 } else { 1.0 };
            self.row_factor.push(sign / scale);
            self.slack_col.push(NONE_COL);
            self.art_col.push(NONE_COL);
            self.b.push(sign * c.rhs() / scale);
        }
        self.m = problem.num_constraints();
        self.n = n;
        self.art_start = n + n_slack;
        self.ncols = self.art_start + n_art;

        // Slack singletons, in row order; the slack carries the row's sign
        // (−1 on negated rows), exactly like the dense layout.
        for (r, c) in problem.constraints().iter().enumerate() {
            if c.kind() == ConstraintKind::LessEq {
                self.slack_col[r] = n + self.logical_row.len();
                self.logical_row.push(r);
                self.logical_val
                    .push(if self.row_factor[r] < 0.0 { -1.0 } else { 1.0 });
            }
        }
        // Artificial singletons (+1), in row order.
        for (r, c) in problem.constraints().iter().enumerate() {
            if c.kind() == ConstraintKind::Eq || self.row_factor[r] < 0.0 {
                self.art_col[r] = n + self.logical_row.len();
                self.logical_row.push(r);
                self.logical_val.push(1.0);
            }
        }
        debug_assert_eq!(n + self.logical_row.len(), self.ncols);
    }

    /// The column a cold solve starts row `r` on: its artificial where it
    /// has one, its slack otherwise.
    pub(crate) fn starting_logical(&self, r: usize) -> usize {
        let c = if self.art_col[r] != NONE_COL {
            self.art_col[r]
        } else {
            self.slack_col[r]
        };
        debug_assert_ne!(c, NONE_COL);
        c
    }
}

/// Reusable buffers of the driver, owned by
/// [`Workspace`](crate::Workspace).
#[derive(Debug, Default)]
pub(crate) struct DriverState {
    pub(crate) lay: Layout,
    /// Pricing sections (column ranges over `0..art_start`), as the
    /// kernel laid them out.
    sections: Vec<(usize, usize)>,
    // --- basis state ---
    pub(crate) basis: Vec<usize>,
    pub(crate) in_basis: Vec<bool>,
    x_basic: Vec<f64>,
    /// Cost vector over all columns for the running phase.
    cost: Vec<f64>,
    /// What phase 2's `cost` was divided by ([`objective_scale`]).
    obj_scale: f64,
    /// Reduced-cost scratch for bulk pricing passes.
    rc: Vec<f64>,
    /// Rotating partial-pricing cursor (a section index).
    cursor: usize,
    /// Banked improving columns from the last section scan.
    candidates: Vec<usize>,
    /// Scratch for premultiplied row vectors (`y[r]·row_factor[r]`).
    yf: Vec<f64>,
    /// Zero-reduced-cost columns collected during the final (optimal)
    /// pricing wrap — the optimal face, consumed by canonicalization.
    face: Vec<usize>,
    /// Whether `face` was completed by a full optimality wrap.
    face_fresh: bool,
    /// Canonicalization weights per column, refilled per solve: among
    /// equally optimal vertices the solver prefers the one using the
    /// least capacity, so `w2[j] = 1/(1 + Σᵣ|Aᵣⱼ|)` plus a tiny
    /// index jitter that makes the preference generically strict.
    w2: Vec<f64>,
    /// Canonicalization's candidate queue and its scratch.
    face_queue: FaceQueue,
    /// Per-solve telemetry, published by the dispatcher.
    pub(crate) stats: SolveStats,
}

/// What a solve is asked for (see the module docs' stage table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Goal {
    /// The canonical optimum, its duals and its basis.
    Optimal,
    /// A verdict: the first feasible vertex phase 1 reaches, and its
    /// basis — or the `Infeasible` the optimal solve would return.
    Feasible,
}

/// Entry point of every `Problem` solve (through `Problem::dispatch`).
/// Pricing turns to Bland's rule after `bland_after` degenerate pivots in
/// a row: [`DEGENERATE_SWITCH`](crate::simplex::DEGENERATE_SWITCH) from
/// `dispatch`, 0 in the contract test that reaches Bland's rule from the
/// first pivot.
pub(crate) fn solve(
    problem: &Problem,
    options: &SolverOptions,
    state: &mut DriverState,
    kernel: &mut BlockPfi,
    warm: Option<&Basis>,
    bland_after: usize,
    goal: Goal,
) -> Result<Solution, SolveError> {
    state.stats.reset();
    let rows = problem.constraints();
    state.lay.build(problem);
    state.sections.clear();
    kernel.prepare(problem, &state.lay, &mut state.sections);
    state.face_fresh = false;
    let (m, art_start) = (state.lay.m, state.lay.art_start);
    let mut scratch = Scratch {
        y: vec![0.0; m],
        y2: vec![0.0; m],
        d: vec![0.0; m],
        iterations: 0,
        bland_after,
    };

    // ---- Start: the caller's basis if it stands, the logicals if not ----
    let warm_ok =
        warm.is_some_and(|basis| try_warm_basis(problem, state, kernel, basis, &mut scratch));
    if !warm_ok {
        install_initial_basis(state);
        if !kernel.factor(state, false) {
            return Err(SolveError::Singular);
        }
        load_x_basic(state, kernel, true);
    }

    // ---- Phase 1: drive the basic artificials to zero -------------------
    // Every artificial on a cold start; on a warm one only those the
    // caller's basis names (rows appended, or left uncovered by a cut,
    // since it was optimal), and none at all when it names none.
    if state.basis.iter().any(|&c| c >= art_start) {
        state.cost.clear();
        state.cost.resize(state.lay.ncols, 0.0);
        for &c in &state.lay.art_col {
            if c != NONE_COL {
                state.cost[c] = -1.0; // maximize −Σ artificials
            }
        }
        run_phase(rows, state, kernel, options, Phase::One, &mut scratch)?;
        let residual: f64 = (0..m)
            .filter(|&i| state.basis[i] >= art_start)
            .map(|i| state.x_basic[i].max(0.0))
            .sum();
        // Feasible means feasible to the tolerance: a residual let past
        // it lands on a basic variable below zero at the drive-out, which
        // the vertex clamps, missing some row by the residual.
        if residual > TOLERANCE {
            return Err(SolveError::Infeasible { residual });
        }
        drive_out_artificials(state, kernel, &mut scratch);
    }

    if goal == Goal::Feasible {
        // The verdict is in: the vertex phase 1 stopped on, from the
        // factors in hand (one FTRAN sheds the updates' drift).
        load_x_basic(state, kernel, true);
        let (x, objective) = vertex(problem, state);
        debug_assert_eq!(
            crate::solution::check_point(problem, &x),
            Ok(()),
            "the feasibility goal's vertex violates the problem"
        );
        let basis = export_basis(state);
        let solution = Solution::new(x, objective, Vec::new(), scratch.iterations, basis, warm_ok);
        return Ok(solution);
    }

    // ---- Phase 2: user objective ----------------------------------------
    load_objective(state, problem);
    run_phase(rows, state, kernel, options, Phase::Two, &mut scratch)?;

    // ---- Phase 3: canonicalize over the optimal face --------------------
    canonicalize(rows, state, kernel, options, &mut scratch);

    // ---- Extraction from a fresh factorization of the final basis -------
    // Refactorizing here makes the result a function of the final basis
    // alone: any pivot path (warm or cold) reaching the same basis yields
    // bit-identical primal values, objective and duals ("the same basis"
    // is a *set*: the kernel orders its pivots by the set, not by the
    // slots). A solve that made no pivot since its last clean
    // factorization holds those very factors already, and keeps them.
    if !kernel.factors_clean() && !kernel.factor(state, false) {
        return Err(SolveError::Singular);
    }
    load_x_basic(state, kernel, true);
    let (x, objective) = vertex(problem, state);

    // Duals: y = c_B·B⁻¹ in the normalized row space, un-normalized per
    // row and by the objective's scale (the same algebra as the dense
    // tableau).
    let y = &mut scratch.y;
    for (yi, &b) in y.iter_mut().zip(&state.basis) {
        *yi = state.cost[b];
    }
    kernel.btran(y);
    let mut duals = vec![0.0; m];
    for (dual, (&yr, &f)) in duals.iter_mut().zip(y.iter().zip(&state.lay.row_factor)) {
        let mut v = yr * f * state.obj_scale;
        if problem.minimize {
            v = -v;
        }
        *dual = v;
    }

    Ok(Solution::new(
        x,
        objective,
        duals,
        scratch.iterations,
        export_basis(state),
        warm_ok,
    ))
}

/// The structural values of the current basic solution (`x_basic`
/// loaded) and the objective there, in the caller's sense.
fn vertex(problem: &Problem, state: &DriverState) -> (Vec<f64>, f64) {
    let n = state.lay.n;
    let mut x = vec![0.0; n];
    for (&bcol, &v) in state.basis.iter().zip(&state.x_basic) {
        if bcol < n {
            x[bcol] = v;
        }
    }
    let objective_internal: f64 = problem.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    let objective = if problem.minimize {
        -objective_internal
    } else {
        objective_internal
    };
    (x, objective)
}

/// Gathers (normalized) column `j`, structural or logical, into `out`.
fn gather_col(lay: &Layout, kernel: &BlockPfi, j: usize, out: &mut [f64]) {
    if j < lay.n {
        kernel.gather_col(&lay.row_factor, j, out);
    } else {
        out.fill(0.0);
        let l = j - lay.n;
        out[lay.logical_row[l]] = lay.logical_val[l];
    }
}

/// Premultiplies `y[r]·row_factor[r]` into the reusable scratch buffer,
/// so per-column dots read the raw rows with one multiply per element.
#[inline]
fn premultiply(buf: &mut Vec<f64>, y: &[f64], row_factor: &[f64]) {
    buf.clear();
    buf.extend(y.iter().zip(row_factor).map(|(a, b)| a * b));
}

/// `y·A_j` for a single column (candidate re-pricing; bulk scans go
/// through [`fill_rc`] instead). `yf` is `y` premultiplied by the row
/// factors.
#[inline]
fn col_dot(lay: &Layout, kernel: &BlockPfi, yf: &[f64], y: &[f64], j: usize) -> f64 {
    if j < lay.n {
        kernel.col_dot(yf, j)
    } else {
        let l = j - lay.n;
        y[lay.logical_row[l]] * lay.logical_val[l]
    }
}

/// Fills `out[cols]` with `weight[j] − y·A_j`: the structural part through
/// the kernel's bulk pass, logical singletons directly.
fn fill_rc(
    rows: &[Constraint],
    lay: &Layout,
    kernel: &BlockPfi,
    weight: &[f64],
    y: &[f64],
    cols: Range<usize>,
    out: &mut [f64],
) {
    let s_hi = cols.end.min(lay.n);
    if cols.start < s_hi {
        kernel.fill_rc(rows, &lay.row_factor, weight, y, cols.start..s_hi, out);
    }
    for (j, rc) in out
        .iter_mut()
        .enumerate()
        .take(cols.end)
        .skip(cols.start.max(lay.n))
    {
        let l = j - lay.n;
        *rc = weight[j] - y[lay.logical_row[l]] * lay.logical_val[l];
    }
}

/// Per-solve dense scratch (length `m` — negligible next to the matrix),
/// the pivot counter and the Bland threshold, threaded through the phases.
struct Scratch {
    /// Duals of the running phase (and the unit-row probe of
    /// [`drive_out_artificials`]).
    y: Vec<f64>,
    /// Secondary duals of the canonicalization phase.
    y2: Vec<f64>,
    /// Entering direction.
    d: Vec<f64>,
    iterations: usize,
    /// Degenerate pivots in a row after which pricing turns to Bland's
    /// rule.
    bland_after: usize,
}

/// Pricing mode for one iteration.
#[derive(Clone, Copy, PartialEq)]
enum Pricing {
    /// First improving column (anti-cycling).
    Bland,
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

/// Selects the entering column among `0..art_start`, or `None` when the
/// current basis is optimal for the phase objective.
///
/// When `collect_face` is set and a call completes a full wrap without
/// finding an improving column (the optimality proof), it leaves the
/// zero-reduced-cost columns in `state.face` with `state.face_fresh =
/// true` — the canonicalization phase consumes them without re-scanning
/// the matrix.
fn price(
    rows: &[Constraint],
    state: &mut DriverState,
    kernel: &BlockPfi,
    y: &[f64],
    mode: Pricing,
    collect_face: bool,
) -> Option<usize> {
    let tol = TOLERANCE;
    let enter_limit = state.lay.art_start;
    if enter_limit == 0 {
        state.face.clear();
        state.face_fresh = collect_face;
        return None;
    }
    // Candidate re-pricing only applies to Partial mode.
    if mode == Pricing::Partial && !state.candidates.is_empty() {
        premultiply(&mut state.yf, y, &state.lay.row_factor);
        let mut best = tol;
        let mut pick = None;
        for &j in &state.candidates {
            if state.in_basis[j] {
                continue;
            }
            let rc = state.cost[j] - col_dot(&state.lay, kernel, &state.yf, y, j);
            if rc > best {
                best = rc;
                pick = Some(j);
            }
        }
        if pick.is_some() {
            return pick;
        }
        state.candidates.clear();
    }

    // Section scan from the cursor (Partial) or from the first section
    // (Bland), driven by bulk rc fills; a clean full wrap visits
    // every column exactly once.
    let (face, rc_buf, candidates) = (&mut state.face, &mut state.rc, &mut state.candidates);
    if rc_buf.len() < enter_limit {
        rc_buf.resize(enter_limit, 0.0);
    }
    let n_sections = state.sections.len();
    let start_section = if mode == Pricing::Partial {
        state.cursor % n_sections
    } else {
        0
    };
    let mut scanned = 0usize;
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
    'sections: for step in 0..n_sections {
        let s = (start_section + step) % n_sections;
        let (lo, hi) = state.sections[s];
        fill_rc(rows, &state.lay, kernel, &state.cost, y, lo..hi, rc_buf);
        for (j, &rc) in rc_buf.iter().enumerate().take(hi).skip(lo) {
            let nonbasic = !state.in_basis[j];
            if collect_face {
                face[face_w] = j;
                face_w += (nonbasic & (rc.abs() <= tol)) as usize;
            }
            if nonbasic && rc > best {
                best = rc;
                pick = Some(j);
                if mode == Pricing::Bland {
                    break 'sections;
                }
            }
            if nonbasic
                && rc > tol
                && mode == Pricing::Partial
                && candidates.len() < CANDIDATE_LIMIT
            {
                candidates.push(j);
            }
        }
        scanned += hi - lo;
        if mode == Pricing::Partial && pick.is_some() {
            state.cursor = (s + 1) % n_sections;
            break;
        }
    }
    face.truncate(face_w);
    // The face is complete only when the scan visited every column and
    // found nothing improving (the optimality proof).
    state.face_fresh = collect_face && pick.is_none() && scanned == enter_limit;
    pick
}

/// Ratio test: picks the leaving row for entering direction `d`, mirroring
/// the dense tableau's tie-break (smallest basic column index on
/// near-ties). Basic artificials sitting at zero are forced out on any
/// nonzero direction component so they cannot turn positive.
///
/// Returns `None` when the direction is unbounded.
fn ratio_test(state: &DriverState, d: &[f64]) -> Option<(usize, f64)> {
    let tol = TOLERANCE;
    let art_start = state.lay.art_start;
    let mut leave: Option<usize> = None;
    let mut best_ratio = f64::INFINITY;
    for (i, &a) in d.iter().enumerate().take(state.lay.m) {
        let candidate = if a > tol {
            Some(state.x_basic[i].max(0.0) / a)
        } else if state.basis[i] >= art_start && a < -tol && state.x_basic[i] <= tol {
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
                    && leave.is_some_and(|cur| state.basis[i] < state.basis[cur]));
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

/// Every row on its starting logical: slack basis where available,
/// artificial basis elsewhere (`B = I`).
fn install_initial_basis(state: &mut DriverState) {
    state.basis.clear();
    state.in_basis.clear();
    state.in_basis.resize(state.lay.ncols, false);
    for r in 0..state.lay.m {
        let c = state.lay.starting_logical(r);
        state.basis.push(c);
        state.in_basis[c] = true;
    }
}

/// Loads `x_basic = B⁻¹ b` from the current factorization and returns its
/// smallest value (how infeasible the basis is for `b`). With `clamp` the
/// tiny negatives roundoff produces are raised to zero, which is what the
/// primal phases want; the dual phase's negatives are its state.
fn load_x_basic(state: &mut DriverState, kernel: &BlockPfi, clamp: bool) -> f64 {
    state.x_basic.clear();
    state.x_basic.extend_from_slice(&state.lay.b);
    kernel.ftran(&mut state.x_basic);
    let mut least = 0.0f64;
    for v in &mut state.x_basic {
        least = least.min(*v);
        if clamp {
            *v = v.max(0.0);
        }
    }
    least
}

/// Puts the user objective, divided by its
/// [`objective_scale`], in `state.cost` (zero on every logical).
fn load_objective(state: &mut DriverState, problem: &Problem) {
    state.cost.clear();
    state.cost.resize(state.lay.ncols, 0.0);
    state.obj_scale = objective_scale(&problem.objective);
    for (c, &v) in state.cost.iter_mut().zip(&problem.objective) {
        *c = v / state.obj_scale;
    }
}

/// Validates and installs a caller-provided warm [`Basis`]; returns
/// `true` when the solve can start from it — well-formed, nonsingular
/// (after the kernel's repair) and primal feasible, as given
/// or after [`restore_feasibility`] pivoted it there — and records its
/// fate in `state.stats.warm` either way ([`WarmStart::Infeasible`]: the
/// dual phase gave up). The basis may name artificials
/// ([`BasisVar::Logical`]); the caller runs phase 1 over those.
fn try_warm_basis(
    problem: &Problem,
    state: &mut DriverState,
    kernel: &mut BlockPfi,
    basis: &Basis,
    scratch: &mut Scratch,
) -> bool {
    let lay = &state.lay;
    if basis.len() != lay.m {
        return false;
    }
    state.basis.clear();
    state.in_basis.clear();
    state.in_basis.resize(lay.ncols, false);
    for slot in basis.slots() {
        let c = match *slot {
            BasisVar::Structural(j) if j < lay.n => j,
            BasisVar::Slack(r) if r < lay.m && lay.slack_col[r] != NONE_COL => lay.slack_col[r],
            BasisVar::Logical(r) if r < lay.m => lay.starting_logical(r),
            _ => return false,
        };
        if state.in_basis[c] {
            state.stats.warm = WarmStart::Singular; // duplicate column
            return false;
        }
        state.basis.push(c);
        state.in_basis[c] = true;
    }
    state.stats.warm = WarmStart::Used; // `factor` may downgrade it to `Repaired`
    let factored = kernel.factor(state, true);
    debug_assert!(factored, "a repairing factorization always completes");
    if load_x_basic(state, kernel, false) < -TOLERANCE
        && !restore_feasibility(problem, state, kernel, scratch)
    {
        state.stats.warm = WarmStart::Infeasible; // for the new RHS, and not restored
        return false;
    }
    for v in &mut state.x_basic {
        *v = v.max(0.0);
    }
    true
}

/// The dual-simplex phase: from a factored basis whose `B⁻¹b` has entries
/// below `−tol` (the right-hand side moved under a carried basis), pivots
/// until every basic value is `≥ −tol`. Returns `false` — the caller
/// then starts cold — when a negative row has no column to pivot on
/// (which, were the reduced costs all of the right sign, would prove the
/// problem infeasible; phase 1 gets to say so), when a pivot element
/// vanishes, when a due refactorization fails, or when `2m + 16` pivots
/// did not suffice.
///
/// The leaving row is the most negative basic value. The entering column
/// is a nonbasic one with `α_rj < 0` (row `r` of `B⁻¹A`), chosen by the
/// ratio test that keeps reduced costs of the right sign where they are,
/// `min max(−rc_j, 0)/|α_rj|`, in its two-pass form: of the columns whose
/// ratio is within the smallest `(max(−rc_j, 0) + tol)/|α_rj|`, the one
/// with the largest `|α_rj|`, then the lowest index. On these LPs most
/// ratios tie near zero (the carried basis was optimal, its face is
/// wide), and picking the exact minimum among them pivots on elements of
/// 1e-9 — a few dozen such pivots and `x_basic` no longer describes the
/// basis. Columns whose reduced cost already has the wrong sign (a
/// block whose objective was zeroed) count as ratio 0:
/// this phase only restores primal feasibility, and phase 2 starts from
/// the basis it leaves and proves optimality there.
///
/// `x_basic` is not clamped until the caller does so after the phase, and
/// the phase ends on `B⁻¹b` recomputed from the factors, not on the
/// values its own updates carried there.
fn restore_feasibility(
    problem: &Problem,
    state: &mut DriverState,
    kernel: &mut BlockPfi,
    scratch: &mut Scratch,
) -> bool {
    let tol = TOLERANCE;
    let Scratch {
        y,
        y2: rho,
        d,
        iterations,
        ..
    } = scratch;
    let rows = problem.constraints();
    let (m, art_start) = (state.lay.m, state.lay.art_start);
    load_objective(state, problem);
    // Zero weights turn a bulk reduced-cost fill into `−ρᵀA`;
    // canonicalization refills `w2` before it reads it.
    state.w2.clear();
    state.w2.resize(art_start, 0.0);
    if state.rc.len() < art_start {
        state.rc.resize(art_start, 0.0);
    }
    if state.face_queue.rc2.len() < art_start {
        state.face_queue.rc2.resize(art_start, 0.0);
    }
    let budget = 2 * m + 16;
    for spent in 0..=budget {
        let mut r = least_row(&state.x_basic);
        if state.x_basic[r] >= -tol {
            if load_x_basic(state, kernel, false) >= -tol {
                return true;
            }
            r = least_row(&state.x_basic);
        }
        if spent == budget {
            break;
        }
        rho.fill(0.0);
        rho[r] = 1.0;
        kernel.btran(rho);
        let (lay, neg_alpha) = (&state.lay, &mut state.face_queue.rc2);
        fill_rc(rows, lay, kernel, &state.w2, rho, 0..art_start, neg_alpha);
        for (yi, &b) in y.iter_mut().zip(&state.basis) {
            *yi = state.cost[b];
        }
        kernel.btran(y);
        let rc = &mut state.rc;
        fill_rc(rows, lay, kernel, &state.cost, y, 0..art_start, rc);
        // `−α_rj` and `max(−rc_j, 0)` of the columns that may enter.
        let eligible = || {
            (neg_alpha.iter().zip(rc.iter()).enumerate().take(art_start))
                .filter(|&(j, (&a, _))| a > tol && !state.in_basis[j])
                .map(|(j, (&a, &rc))| (j, a, (-rc).max(0.0)))
        };
        let bound = eligible().fold(f64::INFINITY, |t, (_, a, gap)| t.min((gap + tol) / a));
        let mut pick = None;
        let mut best_alpha = 0.0f64;
        for (j, a, gap) in eligible() {
            if gap <= bound * a && a > best_alpha {
                best_alpha = a;
                pick = Some(j);
            }
        }
        let Some(q) = pick else {
            break;
        };
        gather_col(lay, kernel, q, d);
        kernel.ftran(d);
        if d[r] > -SINGULAR_TOL {
            break;
        }
        let step = state.x_basic[r] / d[r];
        if !pivot(state, kernel, (q, r), d, step, false) {
            break;
        }
        *iterations += 1;
        state.stats.dual_pivots += 1;
    }
    false
}

/// The row of the smallest basic value (the first of equals).
fn least_row(x_basic: &[f64]) -> usize {
    let mut r = 0usize;
    for (i, &v) in x_basic.iter().enumerate() {
        if v < x_basic[r] {
            r = i;
        }
    }
    r
}

/// Applies the pivot `(entering q, leaving row r, direction d, step t)`:
/// updates the basic values (clamped at zero with `clamp`, as
/// [`load_x_basic`] does), appends the eta and refactorizes when the
/// iteration-eta budget is spent. Returns `false` when a due
/// refactorization found the basis numerically singular — the factors are
/// then unusable and the caller must stop iterating.
fn pivot(
    state: &mut DriverState,
    kernel: &mut BlockPfi,
    (q, r): (usize, usize),
    d: &[f64],
    t: f64,
    clamp: bool,
) -> bool {
    let floor = if clamp { 0.0 } else { f64::NEG_INFINITY };
    for (i, (xb, &di)) in state.x_basic.iter_mut().zip(d).enumerate() {
        if i != r {
            *xb = (*xb - t * di).max(floor);
        }
    }
    state.x_basic[r] = t;

    let leaving = state.basis[r];
    state.in_basis[leaving] = false;
    state.in_basis[q] = true;
    state.basis[r] = q;

    kernel.push_eta(r, d);
    if kernel.iteration_etas() >= REFACTOR_INTERVAL {
        if !kernel.factor(state, false) {
            return false;
        }
        // Recompute the basic values from scratch to shed accumulated
        // floating-point drift (and to follow a slot re-permutation).
        load_x_basic(state, kernel, clamp);
    }
    true
}

/// Runs simplex iterations on the phase objective in `state.cost` until
/// optimality, unboundedness or the iteration limit.
///
/// Phase 1 never prices artificial columns (they start basic and only
/// leave) and exits as soon as no artificial is basic — the phase-1
/// objective is then exactly zero, its optimum, with no need for a final
/// pricing wrap. Phase 2 locks artificials out via the same enter limit
/// and collects the optimal face on its final wrap.
fn run_phase(
    rows: &[Constraint],
    state: &mut DriverState,
    kernel: &mut BlockPfi,
    options: &SolverOptions,
    phase: Phase,
    scratch: &mut Scratch,
) -> Result<(), SolveError> {
    let Scratch {
        y,
        d,
        iterations,
        bland_after,
        ..
    } = scratch;
    let art_start = state.lay.art_start;
    let collect_face = phase == Phase::Two;
    let mut degenerate_run = 0usize;
    state.cursor = 0;
    state.candidates.clear();
    let mut basic_arts = if phase == Phase::One {
        state.basis.iter().filter(|&&c| c >= art_start).count()
    } else {
        0
    };
    if phase == Phase::One && basic_arts == 0 {
        state.stats.phase1_early_exit = true;
        return Ok(());
    }
    for _ in 0..options.max_iterations {
        let mode = if degenerate_run >= *bland_after {
            Pricing::Bland
        } else {
            Pricing::Partial
        };
        for (yi, &b) in y.iter_mut().zip(&state.basis) {
            *yi = state.cost[b];
        }
        kernel.btran(y);
        let Some(q) = price(rows, state, kernel, y, mode, collect_face) else {
            return Ok(()); // optimal
        };
        gather_col(&state.lay, kernel, q, d);
        kernel.ftran(d);
        let Some((r, step)) = ratio_test(state, d) else {
            return Err(SolveError::Unbounded);
        };
        if step.abs() <= TOLERANCE {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        let leaving_art = state.basis[r] >= art_start;
        if !pivot(state, kernel, (q, r), d, step, true) {
            return Err(SolveError::Singular);
        }
        *iterations += 1;
        *match phase {
            Phase::One => &mut state.stats.phase1_pivots,
            Phase::Two => &mut state.stats.phase2_pivots,
        } += 1;
        if phase == Phase::One && leaving_art {
            basic_arts -= 1;
            if basic_arts == 0 {
                // All artificials are nonbasic (at zero): Σ artificials is
                // 0, the unimprovable phase-1 optimum.
                state.stats.phase1_early_exit = true;
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
fn drive_out_artificials(state: &mut DriverState, kernel: &mut BlockPfi, scratch: &mut Scratch) {
    let Scratch {
        y: e,
        d,
        iterations,
        ..
    } = scratch;
    let art_start = state.lay.art_start;
    let pivot_tol = TOLERANCE.max(1e-10);
    for r in 0..state.lay.m {
        if state.basis[r] < art_start {
            continue;
        }
        // Row r of B⁻¹A, probed column by column: e = eᵣᵀB⁻¹, then a
        // short dot per candidate column.
        e.fill(0.0);
        e[r] = 1.0;
        kernel.btran(e);
        premultiply(&mut state.yf, e, &state.lay.row_factor);
        let entering = (0..art_start).find(|&j| {
            !state.in_basis[j] && col_dot(&state.lay, kernel, &state.yf, e, j).abs() > pivot_tol
        });
        if let Some(q) = entering {
            gather_col(&state.lay, kernel, q, d);
            kernel.ftran(d);
            if d[r].abs() <= SINGULAR_TOL {
                continue; // numerically vanished; treat as dependent
            }
            let step = state.x_basic[r] / d[r];
            if !pivot(state, kernel, (q, r), d, step, true) {
                // Refactorization broke down; stop driving out — the
                // remaining artificials stay basic at zero and the final
                // extraction refactorizes from scratch anyway.
                return;
            }
            *iterations += 1;
            state.stats.phase1_pivots += 1;
        }
    }
}

/// Candidate queue of the canonicalization phase: the improving face
/// members of the last bulk pass, one per duplicate-column group.
#[derive(Debug, Default)]
struct FaceQueue {
    /// Bulk secondary reduced costs over `0..art_start`.
    rc2: Vec<f64>,
    /// `(column, rc2 at refill)`, ascending by column.
    queue: Vec<(usize, f64)>,
    /// Open-addressing dedup table keyed by dot-product bits.
    table: Vec<(u64, u32)>,
}

impl FaceQueue {
    /// Bulk secondary reduced costs over all columns (`rc2 = w2 − y₂ᵀA`),
    /// then the improving face members deduplicated by dot-product bits
    /// (keep max weight, then lowest index).
    fn refill(&mut self, rows: &[Constraint], state: &DriverState, kernel: &BlockPfi, y2: &[f64]) {
        let art_start = state.lay.art_start;
        let (w2, rc2) = (&state.w2, &mut self.rc2);
        if rc2.len() < art_start {
            rc2.resize(art_start, 0.0);
        }
        fill_rc(rows, &state.lay, kernel, w2, y2, 0..art_start, rc2);
        self.queue.clear();
        // Dedup table keyed by the dot bits (w2 − rc2): duplicates of a
        // column produce identical dots; 0 is the empty sentinel.
        let cap = (state.face.len().max(1) * 2).next_power_of_two();
        let mask = cap - 1;
        self.table.clear();
        self.table.resize(cap, (0, u32::MAX));
        for &j in &state.face {
            if state.in_basis[j] || rc2[j] <= TOLERANCE {
                continue;
            }
            let key = (w2[j] - rc2[j]).to_bits().max(1);
            let mut slot = ((key >> 3) as usize) & mask;
            loop {
                let (sk, si) = self.table[slot];
                if sk == 0 {
                    self.table[slot] = (key, j as u32);
                    break;
                }
                if sk == key {
                    // Duplicate group: keep the higher weight (ties: the
                    // lower index, which was seen first).
                    if w2[j] > w2[si as usize] {
                        self.table[slot] = (key, j as u32);
                    }
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        for &(sk, si) in &self.table {
            if sk != 0 {
                let j = si as usize;
                self.queue.push((j, rc2[j]));
            }
        }
        // Table order depends on hashing; sort for a deterministic queue.
        self.queue.sort_unstable_by_key(|&(j, _)| j);
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
/// final pricing wrap of phase 2 collected it (`state.face`). Secondary
/// reduced costs are computed in bulk (the kernel's row passes) and
/// improving candidates are **deduplicated by their dot-product bit
/// pattern**: these LPs carry many identical columns (every
/// blackhole-truncated combination shares one), duplicates produce
/// bit-identical `y₂·A_j`, and only the highest-weight representative of
/// a duplicate group can ever enter. The pruning is deterministic, so
/// warm and cold solves still agree. A candidate queue then keeps full
/// re-scans to the occasional refill. When the phase-2 endpoint is
/// already canonical (every warm re-solve after the first), the whole
/// phase is one bulk pass that finds nothing.
fn canonicalize(
    rows: &[Constraint],
    state: &mut DriverState,
    kernel: &mut BlockPfi,
    options: &SolverOptions,
    scratch: &mut Scratch,
) {
    let Scratch {
        y,
        y2,
        d,
        iterations,
        bland_after,
    } = scratch;
    let tol = TOLERANCE;
    let (n, art_start) = (state.lay.n, state.lay.art_start);
    if !state.face_fresh {
        // Fallback (phase 2 normally ends on an optimality wrap that
        // collected the face): recompute it from the phase-2 duals.
        for (yi, &b) in y.iter_mut().zip(&state.basis) {
            *yi = state.cost[b];
        }
        kernel.btran(y);
        premultiply(&mut state.yf, y, &state.lay.row_factor);
        state.face.clear();
        for j in 0..art_start {
            if !state.in_basis[j]
                && (state.cost[j] - col_dot(&state.lay, kernel, &state.yf, y, j)).abs() <= tol
            {
                state.face.push(j);
            }
        }
    }
    if state.face.is_empty() {
        return;
    }
    // Secondary weights: prefer the optimal vertex that uses the least
    // capacity — `w2[j]` decreases with the column's total (normalized)
    // mass — with a tiny deterministic jitter for strictness.
    state.w2.clear();
    state.w2.resize(art_start, 0.0);
    kernel.col_mass(&state.lay.row_factor, &mut state.w2[..n]);
    for (w, v) in state.w2[n..].iter_mut().zip(&state.lay.logical_val) {
        *w = v.abs();
    }
    // Jitter strictly decreasing in the column index: among equally
    // light columns the lowest index wins, deterministically.
    let jitter_step = 1e-6 / (art_start + 1) as f64;
    let mut jitter = 1e-6;
    for w in state.w2.iter_mut() {
        *w = 1.0 / (1.0 + *w) + jitter;
        jitter -= jitter_step;
    }
    let mut fq = std::mem::take(&mut state.face_queue);
    let mut degenerate_run = 0usize;
    let mut stale = true; // queue needs a refill
    for _ in 0..options.max_iterations {
        for (y2i, &b) in y2.iter_mut().zip(&state.basis) {
            // Basic artificials (redundant rows) never move in this
            // phase; any fixed weight works — use zero.
            *y2i = if b < art_start { state.w2[b] } else { 0.0 };
        }
        kernel.btran(y2);
        let bland = degenerate_run >= *bland_after;
        let mut pick: Option<usize> = None;
        let mut best = tol;
        if !stale {
            // Re-price the queued candidates (single-column dots on the
            // few survivors) before paying for a bulk refill.
            premultiply(&mut state.yf, y2, &state.lay.row_factor);
            for &(j, _) in &fq.queue {
                if state.in_basis[j] {
                    continue;
                }
                let rc2j = state.w2[j] - col_dot(&state.lay, kernel, &state.yf, y2, j);
                if rc2j > best {
                    best = rc2j;
                    pick = Some(j);
                }
            }
        }
        if pick.is_none() {
            fq.refill(rows, state, kernel, y2);
            stale = false;
            for &(j, rc2j) in &fq.queue {
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
        gather_col(&state.lay, kernel, q, d);
        kernel.ftran(d);
        let Some((r, step)) = ratio_test(state, d) else {
            break; // face unbounded in the secondary direction: keep x
        };
        if step.abs() <= tol {
            degenerate_run += 1;
        } else {
            degenerate_run = 0;
        }
        // The leaving variable keeps zero reduced cost (it left on a
        // zero-rc pivot), so it joins the face.
        let leaving = state.basis[r];
        let pivot_ok = pivot(state, kernel, (q, r), d, step, true);
        *iterations += 1;
        state.stats.phase3_pivots += 1;
        if leaving < art_start && !state.face.contains(&leaving) {
            state.face.push(leaving);
        }
        if !pivot_ok {
            break; // refactorization breakdown: keep the current optimum
        }
    }
    state.face.clear();
    state.face_queue = fq;
}

/// Maps the final basis to the public [`Basis`] type (`None` when an
/// artificial stayed basic — such a basis cannot restart another solve).
fn export_basis(state: &DriverState) -> Option<Basis> {
    let lay = &state.lay;
    let mut slots = Vec::with_capacity(lay.m);
    for &c in &state.basis {
        if c < lay.n {
            slots.push(BasisVar::Structural(c));
        } else if c < lay.art_start {
            slots.push(BasisVar::Slack(lay.logical_row[c - lay.n]));
        } else {
            return None;
        }
    }
    Some(Basis::new(slots))
}

/// What every revised solve must do, written once: each function below is
/// one unit test of the driver, parameterized by how its problems declare
/// their blocks, and [`contract_tests`] instantiates the whole table once
/// per declaration (so a failure names the declaration that broke). There
/// is one kernel either way, but the declaration sets the pricing sections
/// and the block-local pivot order, so a problem of several blocks is a
/// different run with its blocks cleared.
#[cfg(test)]
pub(crate) mod contract {
    use super::Goal;
    use crate::simplex::DEGENERATE_SWITCH;
    use crate::{Basis, Problem, SolveError, SolverOptions, Workspace};

    /// How a contract poses its problems to the driver.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Declaration {
        /// No block declaration: the whole problem is one pricing section.
        Cleared,
        /// The blocks as declared, or one block when the problem declares
        /// none — the same run as no declaration.
        Declared,
    }

    impl Declaration {
        /// `p` with its blocks declared or cleared.
        pub(crate) fn on(self, mut p: Problem) -> Problem {
            let starts = match self {
                Declaration::Cleared => Vec::new(),
                Declaration::Declared if p.block_starts().is_empty() => vec![0],
                Declaration::Declared => return p,
            };
            p.set_block_starts(starts).expect("valid block starts");
            p
        }
    }

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    /// Expands to one `#[test]` per contract function, run on `$decl`.
    macro_rules! contract_tests {
        ($decl:expr; $($name:ident),* $(,)?) => {
            $(
                #[test]
                fn $name() {
                    $crate::driver::contract::$name($decl)
                }
            )*
        };
        ($decl:expr) => {
            $crate::driver::contract::contract_tests!(
                $decl;
                simple_maximize,
                equality_constraint,
                minimize_works,
                infeasible_detected,
                unbounded_detected,
                beale_cycling_guard_all_rules,
                redundant_equality_rows_are_handled,
                duals_match_known_shadow_prices,
                badly_scaled_rows_are_equilibrated,
                negative_rhs_le_becomes_feasible_via_artificials,
                zero_rhs_equality,
                eta_refactorization_survives_many_pivots,
                warm_start_skips_phase_one_and_matches_cold_bitwise,
                infeasible_warm_basis_falls_back_to_phase_one,
                infeasible_warm_basis_is_restored_by_dual_pivots,
                dual_phase_gives_up_on_an_infeasible_problem,
                dual_phase_ends_on_degenerate_ties,
                feasibility_goal_stops_after_phase_one,
                wrong_shape_warm_basis_falls_back,
                workspace_reuse_is_equivalent_to_fresh_solves,
                workspace_survives_error_outcomes,
                many_rows_solve_without_panicking,
                no_constraint_rows,
            );
        };
    }
    pub(crate) use contract_tests;

    pub(crate) fn simple_maximize(decl: Declaration) {
        // max 3x + 2y ; x + y <= 4 ; x + 3y <= 6 → x=4,y=0, obj 12
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1.0, 1.0], 4.0).unwrap();
        p.add_le(vec![1.0, 3.0], 6.0).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
        assert!((s.x()[0] - 4.0).abs() < 1e-9);
        assert!(s.x()[1].abs() < 1e-9);
        assert!(s.basis().is_some());
        assert!(!s.used_warm_start());
    }

    pub(crate) fn equality_constraint(decl: Declaration) {
        // max x + 2y ; x + y = 1 ; y <= 0.6 → x=0.4, y=0.6, obj 1.6
        let mut p = Problem::maximize(vec![1.0, 2.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 0.6).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 1.6).abs() < 1e-9);
        assert!((s.x()[0] - 0.4).abs() < 1e-9);
        assert!((s.x()[1] - 0.6).abs() < 1e-9);
    }

    pub(crate) fn minimize_works(decl: Declaration) {
        let mut p = Problem::minimize(vec![2.0, 3.0]);
        p.add_ge(vec![1.0, 1.0], 2.0).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-9);
        assert!((s.x()[0] - 2.0).abs() < 1e-9);
    }

    pub(crate) fn infeasible_detected(decl: Declaration) {
        let mut p = Problem::maximize(vec![1.0]);
        p.add_le(vec![1.0], 1.0).unwrap();
        p.add_ge(vec![1.0], 2.0).unwrap();
        match decl.on(p).solve(&opts()) {
            Err(SolveError::Infeasible { residual }) => assert!(residual > 0.0),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    pub(crate) fn unbounded_detected(decl: Declaration) {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![0.0, 1.0], 1.0).unwrap();
        assert!(matches!(
            decl.on(p).solve(&opts()),
            Err(SolveError::Unbounded)
        ));
    }

    /// The one pricing rule, at its default switch and with Bland's rule
    /// from the first pivot: Beale's LP never runs [`DEGENERATE_SWITCH`]
    /// degenerate pivots here, so only the second run reaches Bland.
    pub(crate) fn beale_cycling_guard_all_rules(decl: Declaration) {
        for bland_after in [DEGENERATE_SWITCH, 0] {
            let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
            p.add_le(vec![0.25, -60.0, -1.0 / 25.0, 9.0], 0.0).unwrap();
            p.add_le(vec![0.5, -90.0, -1.0 / 50.0, 3.0], 0.0).unwrap();
            p.add_le(vec![0.0, 0.0, 1.0, 0.0], 1.0).unwrap();
            let p = decl.on(p);
            let Workspace { driver, kernel, .. } = &mut Workspace::new();
            let s = super::solve(
                &p,
                &opts(),
                driver,
                kernel,
                None,
                bland_after,
                Goal::Optimal,
            )
            .unwrap();
            assert!((s.objective() - 0.05).abs() < 1e-9, "{bland_after}");
        }
    }

    pub(crate) fn redundant_equality_rows_are_handled(decl: Declaration) {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        p.add_eq(vec![2.0, 2.0], 2.0).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
        // An artificial stays basic for the dependent row, so no basis is
        // exported.
        assert!(s.basis().is_none());
    }

    pub(crate) fn duals_match_known_shadow_prices(decl: Declaration) {
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.add_le(vec![1.0, 0.0], 4.0).unwrap();
        p.add_le(vec![0.0, 2.0], 12.0).unwrap();
        p.add_le(vec![3.0, 2.0], 18.0).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-9);
        let d = s.duals();
        assert!(d[0].abs() < 1e-9, "dual0 {}", d[0]);
        assert!((d[1] - 1.5).abs() < 1e-9, "dual1 {}", d[1]);
        assert!((d[2] - 1.0).abs() < 1e-9, "dual2 {}", d[2]);
    }

    pub(crate) fn badly_scaled_rows_are_equilibrated(decl: Declaration) {
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1e8, 1e8], 4e8).unwrap();
        p.add_le(vec![1e8, 3e8], 6e8).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-6);
        assert!((s.x()[0] - 4.0).abs() < 1e-6);
    }

    pub(crate) fn negative_rhs_le_becomes_feasible_via_artificials(decl: Declaration) {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.add_le(vec![1.0, -1.0], -1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 3.0).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-9);
        assert!((s.x()[1] - 3.0).abs() < 1e-9);
    }

    pub(crate) fn zero_rhs_equality(decl: Declaration) {
        let mut p = Problem::maximize(vec![5.0, 7.0]);
        p.add_eq(vec![1.0, 1.0], 0.0).unwrap();
        let s = decl.on(p).solve(&opts()).unwrap();
        assert!(s.objective().abs() < 1e-9);
    }

    pub(crate) fn eta_refactorization_survives_many_pivots(decl: Declaration) {
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
        let p = decl.on(p);
        let s = p.solve(&opts()).unwrap();
        assert!(p.max_violation(s.x()) < 1e-7);
        // Optimum: each pair contributes its bound times its best cost.
        let mut want = 0.0;
        for i in 0..n / 2 {
            want += (1.0 + i as f64 * 0.01) * c[2 * i].max(c[2 * i + 1]);
        }
        assert!((s.objective() - want).abs() < 1e-7, "{}", s.objective());
    }

    pub(crate) fn warm_start_skips_phase_one_and_matches_cold_bitwise(decl: Declaration) {
        let o = opts();
        let make = |rhs: f64| {
            let mut p = Problem::maximize(vec![3.0, 2.0]);
            p.add_le(vec![1.0, 1.0], rhs).unwrap();
            p.add_le(vec![1.0, 3.0], rhs + 2.0).unwrap();
            p.add_eq(vec![1.0, 1.0], rhs).unwrap();
            decl.on(p)
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

    /// The carried basis of the RHS-edit tests below: unique optimum
    /// x=10, y=2, basis {x, y, slack of the y-row}, with the x-bound row
    /// binding (its slack nonbasic).
    fn loose_basis(decl: Declaration) -> Basis {
        let mut loose = Problem::maximize(vec![2.0, 1.0]);
        loose.add_le(vec![1.0, 0.0], 10.0).unwrap();
        loose.add_le(vec![0.0, 1.0], 10.0).unwrap();
        loose.add_eq(vec![1.0, 1.0], 12.0).unwrap();
        decl.on(loose)
            .solve(&opts())
            .unwrap()
            .basis()
            .unwrap()
            .clone()
    }

    /// The id is from when such a basis was thrown away for a cold
    /// two-phase solve; it now starts the solve, after the dual phase.
    pub(crate) fn infeasible_warm_basis_falls_back_to_phase_one(decl: Declaration) {
        let o = opts();
        let basis = loose_basis(decl);
        // New RHS: the carried basis forces x = 2 (binding x-row), hence
        // y = 1 − 2 < 0 — primal infeasible, so the dual phase pivots y
        // out before phase 2. The problem itself is feasible (x=1, y=0).
        let mut tight = Problem::maximize(vec![2.0, 1.0]);
        tight.add_le(vec![1.0, 0.0], 2.0).unwrap();
        tight.add_le(vec![0.0, 1.0], 2.0).unwrap();
        tight.add_eq(vec![1.0, 1.0], 1.0).unwrap();
        let tight = decl.on(tight);
        let warm = tight.solve_warm(&o, &basis).unwrap();
        let cold = tight.solve(&o).unwrap();
        assert!(warm.used_warm_start(), "stale basis must be restored");
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert!((warm.objective() - 2.0).abs() < 1e-9);
    }

    /// A block-angular LP in the exact fleet shape: per-block `Σx = 1`
    /// rows, two coupling capacity rows over everything, the blocks
    /// declared.
    pub(crate) fn block_angular(blocks: usize, width: usize) -> Problem {
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

    pub(crate) fn infeasible_warm_basis_is_restored_by_dual_pivots(decl: Declaration) {
        // The fleet's departure: a block's Σx row drops to 0 and its
        // objective is zeroed under a basis that has both capacity rows
        // binding, so the capacity it frees drives a survivor negative.
        let o = opts();
        let full = decl.on(block_angular(6, 5));
        let basis = full.solve(&o).unwrap().take_basis().expect("exportable");
        let mut restored = 0;
        for dead in 0..6usize {
            let mut p = full.clone();
            p.set_rhs(2 + dead, 0.0).unwrap();
            p.set_objective_range(dead * 5, &[0.0; 5]).unwrap();
            let mut ws = Workspace::new();
            let warm = p.solve_warm_with(&o, &mut ws, &basis).unwrap();
            let dual_pivots = ws.driver.stats.dual_pivots;
            let cold = p.solve(&o).unwrap();
            assert!(warm.used_warm_start() && ws.started_warm(), "block {dead}");
            assert_eq!(warm.x(), cold.x(), "block {dead}");
            assert_eq!(warm.objective(), cold.objective());
            assert_eq!(warm.duals(), cold.duals());
            assert!(warm.iterations() <= cold.iterations());
            assert!(dual_pivots as usize <= warm.iterations());
            restored += usize::from(dual_pivots >= 1);
        }
        assert!(restored >= 1, "no departure left the basis infeasible");
    }

    pub(crate) fn dual_phase_gives_up_on_an_infeasible_problem(decl: Declaration) {
        let o = opts();
        let basis = loose_basis(decl);
        // The carried basis says x = 2, y = 3, slack of the y-row −1; its
        // row of `B⁻¹A` offers no column to pivot on, and indeed no point
        // has x + y = 5 under these bounds.
        let mut none = Problem::maximize(vec![2.0, 1.0]);
        none.add_le(vec![1.0, 0.0], 2.0).unwrap();
        none.add_le(vec![0.0, 1.0], 2.0).unwrap();
        none.add_eq(vec![1.0, 1.0], 5.0).unwrap();
        let none = decl.on(none);
        let mut ws = Workspace::new();
        assert!(matches!(
            none.solve_warm_with(&o, &mut ws, &basis),
            Err(SolveError::Infeasible { .. })
        ));
        assert!(!ws.started_warm());
        assert!(matches!(none.solve(&o), Err(SolveError::Infeasible { .. })));
        let mut good = Problem::maximize(vec![3.0, 2.0]);
        good.add_le(vec![1.0, 1.0], 4.0).unwrap();
        let s = decl.on(good).solve_with(&o, &mut ws).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
    }

    pub(crate) fn dual_phase_ends_on_degenerate_ties(decl: Declaration) {
        // Columns: x_i and a duplicate x_i' per row i, then z, then w and
        // its duplicate w'. Rows: x_i + x_i' + z = b (k of them), then
        // z + w + w' ≤ 1. With b = 2 the optimum has z = 1 and every
        // x_i = 1 basic; at b = 0.5 that basis puts all k of them at −0.5,
        // and the first negative row ties w, w' and the slack in the
        // ratio test.
        let o = opts();
        let k = 6usize;
        let build = |b: f64| {
            let mut c = Vec::new();
            for i in 0..k {
                c.extend([0.2 + 0.01 * i as f64; 2]);
            }
            c.extend([5.0, 0.0, 0.0]);
            let mut p = Problem::maximize(c);
            for i in 0..k {
                p.add_eq_sparse(&[(2 * i, 1.0), (2 * i + 1, 1.0), (2 * k, 1.0)], b)
                    .unwrap();
            }
            p.add_le_sparse(&[(2 * k, 1.0), (2 * k + 1, 1.0), (2 * k + 2, 1.0)], 1.0)
                .unwrap();
            decl.on(p)
        };
        let basis = build(2.0)
            .solve(&o)
            .unwrap()
            .take_basis()
            .expect("exportable");
        let tight = build(0.5);
        let mut ws = Workspace::new();
        let warm = tight.solve_warm_with(&o, &mut ws, &basis).unwrap();
        let dual_pivots = ws.driver.stats.dual_pivots as usize;
        let cold = tight.solve(&o).unwrap();
        assert!(
            (1..=2 * (k + 1) + 16).contains(&dual_pivots),
            "{dual_pivots}"
        );
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.duals(), cold.duals());
        assert!((warm.objective() - 2.5).abs() < 1e-9);
    }

    /// The feasibility goal runs phase 1 and stops: a feasible vertex
    /// with its basis, no phase-2 or phase-3 pivot, no duals. That basis
    /// starts the optimal solve, which lands on the cold optimum bit for
    /// bit; from a basis a departure left infeasible the dual phase is
    /// the whole solve; and an infeasible problem is refused alike.
    pub(crate) fn feasibility_goal_stops_after_phase_one(decl: Declaration) {
        let o = opts();
        let p = decl.on(block_angular(6, 5));
        let mut ws = Workspace::new();
        let feasible = p.find_feasible_with(&o, &mut ws, None).unwrap();
        let stats = &ws.driver.stats;
        assert_eq!((stats.phase2_pivots, stats.phase3_pivots), (0, 0));
        assert_eq!(stats.phase1_pivots as usize, feasible.iterations());
        assert!(feasible.iterations() > 0 && feasible.duals().is_empty());
        assert!(p.max_violation(feasible.x()) < 1e-9);
        assert_eq!(feasible.objective(), p.objective_value(feasible.x()));
        let basis = feasible.basis().expect("exportable");
        let warm = p.solve_warm_with(&o, &mut ws, basis).unwrap();
        let mut cold = p.solve(&o).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.duals(), cold.duals());

        let optimum = cold.take_basis().expect("exportable");
        let mut departed = p.clone();
        departed.set_rhs(2, 0.0).unwrap();
        departed.set_objective_range(0, &[0.0; 5]).unwrap();
        let verdict = departed
            .find_feasible_with(&o, &mut ws, Some(&optimum))
            .unwrap();
        let stats = &ws.driver.stats;
        assert!(ws.started_warm());
        assert_eq!(
            (stats.dual_pivots + stats.phase1_pivots) as usize,
            verdict.iterations()
        );
        assert!(departed.max_violation(verdict.x()) < 1e-9);

        let mut none = Problem::maximize(vec![1.0]);
        none.add_le(vec![1.0], 1.0).unwrap();
        none.add_ge(vec![1.0], 2.0).unwrap();
        assert!(matches!(
            decl.on(none).find_feasible_with(&o, &mut ws, None),
            Err(SolveError::Infeasible { .. })
        ));
    }

    pub(crate) fn wrong_shape_warm_basis_falls_back(decl: Declaration) {
        let o = opts();
        let mut small = Problem::maximize(vec![1.0]);
        small.add_le(vec![1.0], 1.0).unwrap();
        let basis = decl.on(small).solve(&o).unwrap().basis().unwrap().clone();
        let mut big = Problem::maximize(vec![1.0, 2.0]);
        big.add_le(vec![1.0, 0.0], 1.0).unwrap();
        big.add_le(vec![0.0, 1.0], 1.0).unwrap();
        let warm = decl.on(big).solve_warm(&o, &basis).unwrap();
        assert!(!warm.used_warm_start());
        assert!((warm.objective() - 3.0).abs() < 1e-9);
    }

    pub(crate) fn workspace_reuse_is_equivalent_to_fresh_solves(decl: Declaration) {
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
            let p = decl.on(p);
            let fresh = p.solve(&o).unwrap();
            let reused = p.solve_with(&o, &mut ws).unwrap();
            assert_eq!(fresh.x(), reused.x(), "n={n} m={m}");
            assert_eq!(fresh.objective(), reused.objective());
            assert_eq!(fresh.duals(), reused.duals());
        }
    }

    pub(crate) fn workspace_survives_error_outcomes(decl: Declaration) {
        let o = opts();
        let mut ws = Workspace::new();
        let mut bad = Problem::maximize(vec![1.0]);
        bad.add_le(vec![1.0], 1.0).unwrap();
        bad.add_ge(vec![1.0], 2.0).unwrap();
        assert!(matches!(
            decl.on(bad).solve_with(&o, &mut ws),
            Err(SolveError::Infeasible { .. })
        ));
        let mut unbounded = Problem::maximize(vec![1.0, 0.0]);
        unbounded.add_le(vec![0.0, 1.0], 1.0).unwrap();
        assert!(matches!(
            decl.on(unbounded).solve_with(&o, &mut ws),
            Err(SolveError::Unbounded)
        ));
        let mut good = Problem::maximize(vec![3.0, 2.0]);
        good.add_le(vec![1.0, 1.0], 4.0).unwrap();
        let s = decl.on(good).solve_with(&o, &mut ws).unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-9);
    }

    pub(crate) fn many_rows_solve_without_panicking(decl: Declaration) {
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
        let p = decl.on(p);
        let s = p.solve(&opts()).unwrap();
        assert!(p.max_violation(s.x()) < 1e-7);
        assert!(s.objective() > 0.0);
        // And the warm path over the same shape.
        let basis = s.basis().expect("basis").clone();
        let warm = p.solve_warm(&opts(), &basis).unwrap();
        assert_eq!(warm.x(), s.x());
        assert!(warm.used_warm_start());
    }

    pub(crate) fn no_constraint_rows(decl: Declaration) {
        // Zero rows: x = 0 is optimal for a non-positive objective and
        // unbounded otherwise.
        let p = decl.on(Problem::minimize(vec![1.0, 2.0]));
        let s = p.solve(&opts()).unwrap();
        assert!(s.objective().abs() < 1e-12);
        let p = decl.on(Problem::maximize(vec![1.0]));
        assert!(matches!(p.solve(&opts()), Err(SolveError::Unbounded)));
    }
}
