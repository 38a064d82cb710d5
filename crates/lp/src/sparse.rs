//! The block-ordered sparse product-form kernel: the basis storage and
//! factorization the solver runs every problem on.
//!
//! The simplex method itself is [`crate::driver`]; this file is the
//! storage and factorization it runs on. It is built for the fleet
//! layer's joint admission LP, which is *block-angular*: one assignment
//! block per admitted flow (its `Σx = 1` row, optional cost and
//! quality-floor rows, and its columns), coupled to every other block only
//! through the handful of shared per-path capacity rows. A dense LU of
//! that basis is `O(m³)` in the total row count and dense row passes price
//! in `O(m·n)` — cubic exactly where a fleet needs admission cheapest.
//! This kernel exploits the structure instead:
//!
//! * **Sparse storage, both orientations.** A [`Constraint`] *is* its
//!   sorted `(column, value)` pairs; per solve the kernel assembles the
//!   other orientation, a CSC copy (column pointers + row indices +
//!   values), so pricing streams the rows' pairs as they are stored and
//!   column operations (FTRAN of the entering column, factorization)
//!   gather only actual entries.
//! * **Sparse product-form basis inverse.** The basis "factorization" is
//!   itself an eta file: one sparse Gauss–Jordan eta per basic column
//!   (but the `+1` singletons, below), built in *block order* — logical
//!   singletons first, then each block's
//!   structural columns pivoting on that block's own rows, and only the
//!   columns that cannot pivot locally fall through to the coupling
//!   rows. A block column's eliminated vector only ever touches its own
//!   block's rows plus the coupling rows, so elimination work and fill
//!   stay confined to the coupling rows plus the basic columns of active
//!   blocks instead of the full `m×m` matrix. Elimination is hypersparse
//!   (Gilbert–Peierls reach): each factor eta pivots on its own row, so a
//!   column visits only the etas of the rows it reaches — its own
//!   nonzeros, then each row an applied eta fills in — in file order,
//!   instead of testing every eta built so far. The etas it skips are
//!   exactly those whose pivot entry is zero, which the full scan would
//!   skip as well, and rows still join the eta in the order they are
//!   first reached, so the file (and every FTRAN, BTRAN and solution bit
//!   read from it) is the full scan's. A logical on a row no eta has
//!   pivoted on yet reaches no eta, so it takes its singleton eta
//!   directly; and a **`+1` singleton** (a slack on a row the
//!   normalization kept, every artificial) appends none at all — its eta
//!   would be the identity, which FTRAN and BTRAN multiply through by
//!   exactly 1.0 and no fill passes through — and only records its row
//!   as pivoted. Iteration pivots append further sparse etas to the same
//!   file; FTRAN applies it forward, BTRAN backward, each skipping etas
//!   whose pivot entry is zero.
//! * **Block-aligned pricing sections.** The sections handed to the
//!   driver follow the declared block boundaries
//!   ([`Problem::block_starts`]), so a pricing chunk scans per-flow blocks
//!   independently. Each section carries the ascending list of the rows
//!   that can reach it — the coupling rows and the rows local to its own
//!   blocks — and its bulk reduced-cost fill streams only those: a row
//!   local to another block has no entry in the section, so leaving it
//!   out changes no bit. Every row is streamed by the sections it
//!   reaches, and a full wrap costs `O(nnz)` plus the coupling rows once
//!   per section, instead of `O(m)` rows per section. The full-range
//!   passes (the dual phase) stream every row.
//! * **Set-ordered, repairing factorization.** The pivot order is a
//!   function of the basis *set*, and under `repair` a dependent column is
//!   dropped and the row it leaves takes its logical — which is what lets
//!   the driver accept a [`Basis`](crate::Basis) edited in step with the
//!   problem, and what makes the slot order a pivot path leaves
//!   irrelevant to the answer's bits.
//!
//! A problem that declares no blocks — every single-flow LP: a handful of
//! dense rows, hundreds of columns — is one block with uniform pricing
//! sections. The CSC assembly and index chasing buy nothing on such dense
//! rows, and there is deliberately no separate path for them (the crate
//! docs give the measured cost).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::driver::{DriverState, Layout, NONE_COL, SINGULAR_TOL};
use crate::problem::{Constraint, Problem};
use crate::simplex::WarmStart;

/// Number of uniform pricing sections (a full scan is split into this many
/// chunks; optimality still requires a clean full wrap).
const PRICE_SECTIONS: usize = 8;

/// Minimum section width, so tiny problems (and tiny blocks) degrade to
/// full pricing.
const MIN_SECTION: usize = 32;

/// A block-local pivot is accepted when it is at least this fraction of
/// the best available pivot anywhere in the column (threshold pivoting:
/// sparsity-preserving but never numerically reckless).
const LOCAL_PIVOT_THRESHOLD: f64 = 0.01;

/// Sentinel block id for coupling rows (support spans several blocks).
const COUPLING: u32 = u32::MAX;

/// Sentinel eta index for a row no factor eta has pivoted on yet.
const NO_ETA: u32 = u32::MAX;

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
    // --- row lists of the pricing sections ---
    /// Every row (`0..m`), then each block-aligned section's rows.
    section_rows: Vec<u32>,
    /// The span of `section_rows` each pricing section streams, in the
    /// order [`BlockPfi::prepare`] laid the sections out.
    section_span: Vec<(usize, usize)>,
    // --- sparse eta file: factorization etas then iteration etas ---
    eta_pivot: Vec<u32>,
    eta_pivot_val: Vec<f64>,
    eta_ptr: Vec<usize>,
    eta_rows: Vec<u32>,
    eta_vals: Vec<f64>,
    /// Number of etas belonging to the current factorization (iteration
    /// etas beyond this count trigger a refactorization).
    factor_etas: usize,
    /// Whether the factor etas are a complete factorization of the basis
    /// set as it stands, built without a repair
    /// ([`BlockPfi::factors_clean`]).
    set_factored: bool,
    // --- factorization scratch ---
    work: Vec<f64>,
    touched: Vec<u32>,
    mark: Vec<bool>,
    /// The factor eta that pivoted on each row ([`NO_ETA`] until one
    /// does).
    row_eta: Vec<u32>,
    /// Etas the column in elimination has reached and not yet passed.
    pending: BinaryHeap<Reverse<u32>>,
    /// Etas examined by the current factorization.
    eta_visits: u64,
    order: Vec<usize>,
    deferred: Vec<usize>,
    new_basis: Vec<usize>,
    pivoted: Vec<bool>,
}

/// The driver's view of the kernel. `row_factor` is the per-row
/// normalization multipliers of the current [`Layout`]. Column arguments
/// are structural (`j < n`) unless stated otherwise — the driver handles
/// the logical singletons itself.
impl BlockPfi {
    /// Builds the per-solve matrix view — the CSC copy, rows and columns
    /// classified by block — and fills `sections` with the pricing
    /// sections over `0..lay.art_start` in scan order, along the block
    /// boundaries, recording the rows each can reach
    /// ([`BlockPfi::section_rows`]).
    pub(crate) fn prepare(
        &mut self,
        problem: &Problem,
        lay: &Layout,
        sections: &mut Vec<(usize, usize)>,
    ) {
        let (m, n, art_start) = (lay.m, lay.n, lay.art_start);
        sections.clear();

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

        // ---- Pricing sections over 0..art_start, and their rows ---------
        // Every row first: the full-range passes stream them all.
        self.section_rows.clear();
        self.section_rows.extend(0..m as u32);
        self.section_span.clear();
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
            self.lay_section_rows(problem, sections);
            if art_start > n {
                // Logical columns: the driver prices them without a row.
                sections.push((n, art_start));
                self.section_span.push((0, 0));
            }
        } else {
            // Uniform: `max(⌈art_start/PRICE_SECTIONS⌉, MIN_SECTION)`
            // columns each, every one reached by every row.
            let width = art_start.div_ceil(PRICE_SECTIONS).max(MIN_SECTION);
            let mut lo = 0usize;
            while lo < art_start {
                let hi = (lo + width).min(art_start);
                sections.push((lo, hi));
                self.section_span.push((0, m));
                lo = hi;
            }
        }
    }

    /// Lays out the rows each block-aligned section of `sections` can
    /// reach after the all-rows list: the coupling rows and the rows local
    /// to the section's blocks, ascending. A row local to another block
    /// has no entry in the section, and an empty row none anywhere, so a
    /// fill over the list subtracts each column's entries in the order
    /// the all-rows fill does.
    fn lay_section_rows(&mut self, problem: &Problem, sections: &[(usize, usize)]) {
        let m = self.row_local.len();
        // The sections row `r` reaches: every one for a coupling row, the
        // one holding its columns for a local row, none for an empty row.
        let reached = |r: usize| match problem.constraints()[r].support().first() {
            None => 0..0,
            Some(_) if self.row_local[r] == COUPLING => 0..sections.len(),
            Some(&j0) => {
                let s = sections.partition_point(|&(_, hi)| hi <= j0 as usize);
                s..s + 1
            }
        };
        let mut at = vec![0usize; sections.len()];
        for r in 0..m {
            reached(r).for_each(|s| at[s] += 1);
        }
        let mut end = m;
        for next in &mut at {
            self.section_span.push((end, end + *next));
            (*next, end) = (end, end + *next);
        }
        self.section_rows.resize(end, 0);
        for r in 0..m {
            for s in reached(r) {
                self.section_rows[at[s]] = r as u32;
                at[s] += 1;
            }
        }
    }

    /// The rows pricing section `s` can reach, ascending.
    pub(crate) fn section_rows(&self, s: usize) -> &[u32] {
        let (lo, hi) = self.section_span[s];
        &self.section_rows[lo..hi]
    }

    /// Every row, ascending: the list of the full-range fills.
    pub(crate) fn all_rows(&self) -> &[u32] {
        &self.section_rows[..self.row_local.len()]
    }

    /// Writes the normalized column `j` into `out` (all `m` entries),
    /// scattering its actual nonzeros through the CSC view.
    pub(crate) fn gather_col(&self, row_factor: &[f64], j: usize, out: &mut [f64]) {
        out.fill(0.0);
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            let r = self.col_rows[idx] as usize;
            out[r] = self.col_vals[idx] * row_factor[r];
        }
    }

    /// `out[j] = weight[j] − Σᵣ y[r]·row_factor[r]·A[r][j]` for `j` in
    /// `cols` — the bulk reduced-cost fill, streaming the problem's `rows`
    /// named in `list` (ascending; a section's [`BlockPfi::section_rows`]
    /// or [`BlockPfi::all_rows`]) restricted to the range, in
    /// `O(nnz in range)`. Each `out[j]` is `weight[j]` less its column's
    /// terms in ascending row order, exactly-zero multipliers skipped —
    /// the order [`BlockPfi::col_rc`] subtracts them in.
    #[expect(
        clippy::too_many_arguments,
        reason = "the bulk pass borrows rows, row list, row scale, weights, duals, column range and output separately, as its one caller holds them"
    )]
    pub(crate) fn fill_rc(
        &self,
        rows: &[Constraint],
        list: &[u32],
        row_factor: &[f64],
        weight: &[f64],
        y: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
    ) {
        out[cols.clone()].copy_from_slice(&weight[cols.clone()]);
        for &r in list {
            let r = r as usize;
            let mult = y[r] * row_factor[r];
            // Axpy skip: an exactly-zero multiplier contributes nothing; a
            // tolerance here would change results.
            if mult != 0.0 {
                let c = &rows[r];
                let sup = c.support();
                // A row local to the section's blocks starts inside it.
                let start = match sup.first() {
                    Some(&j0) if j0 as usize >= cols.start => 0,
                    _ => sup.partition_point(|&j| (j as usize) < cols.start),
                };
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

    /// `weight − Σᵣ y[r]·row_factor[r]·A[r][j]` for the one column `j`
    /// through the CSC view: [`BlockPfi::fill_rc`]'s `out[j]` bit for bit
    /// (its entries in ascending row order, the same multiplier, the same
    /// exact-zero skip).
    pub(crate) fn col_rc(&self, row_factor: &[f64], weight: f64, y: &[f64], j: usize) -> f64 {
        let mut rc = weight;
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            let r = self.col_rows[idx] as usize;
            let mult = y[r] * row_factor[r];
            // The same exact-zero skip as `fill_rc`, so the two agree bit for
            // bit.
            if mult != 0.0 {
                rc -= mult * self.col_vals[idx];
            }
        }
        rc
    }

    /// `Σᵣ yf[r]·A[r][j]` over the raw coefficients of column `j`.
    #[inline]
    pub(crate) fn col_dot(&self, yf: &[f64], j: usize) -> f64 {
        let mut dot = 0.0;
        for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
            dot += yf[self.col_rows[idx] as usize] * self.col_vals[idx];
        }
        dot
    }

    /// `out[j] = Σᵣ |row_factor[r]|·|A[r][j]|` for every structural column
    /// (`out` arrives zeroed), accumulated in ascending row order.
    pub(crate) fn col_mass(&self, row_factor: &[f64], out: &mut [f64]) {
        for (j, mass) in out.iter_mut().enumerate() {
            for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                *mass += row_factor[self.col_rows[idx] as usize].abs() * self.col_vals[idx].abs();
            }
        }
    }

    /// Sparse product-form factorization of the basis in `state.basis`,
    /// built in block order, clearing the eta file and recording the
    /// refactorization in `state.stats`; re-permutes `state.basis` so slot
    /// `k` holds the column pivoted at row `k`. Returns `false` on a
    /// numerically singular basis. Under `repair` (a warm basis whose
    /// coefficients were edited under it) a column with no pivot left is
    /// instead dropped as dependent, every row left unpivoted takes its
    /// starting logical, the warm start is marked
    /// [`WarmStart::Repaired`], and the result is a nonsingular basis
    /// again.
    ///
    /// The pivot ordering is a function of the basis *set* only (logical
    /// singletons by row — one pass over the rows, a row's slack before
    /// its artificial — then structural columns in column order, which is
    /// grouped by block since blocks are contiguous column ranges,
    /// deferrals appended in that same order), so two solves landing on
    /// the same final basis factorize identically — the keystone of the
    /// bit-identical warm/cold guarantee. A `+1` logical on an unpivoted
    /// row appends no eta (see the module docs).
    pub(crate) fn factor(&mut self, state: &mut DriverState, repair: bool) -> bool {
        self.factor_with(state, repair, Self::eliminate_column)
    }

    /// FTRAN, `v ← B⁻¹ v`: the sparse eta file applied in append order,
    /// skipping etas whose pivot entry is zero.
    pub(crate) fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.eta_pivot.len() {
            let r = self.eta_pivot[k] as usize;
            let vr = v[r];
            // Eta transform skip: an exactly-zero pivot component leaves the
            // vector unchanged.
            if vr != 0.0 {
                for idx in self.eta_ptr[k]..self.eta_ptr[k + 1] {
                    v[self.eta_rows[idx] as usize] += self.eta_vals[idx] * vr;
                }
                v[r] = self.eta_pivot_val[k] * vr;
            }
        }
    }

    /// BTRAN, `v ← vᵀ B⁻¹`: the sparse eta file applied in reverse.
    pub(crate) fn btran(&self, v: &mut [f64]) {
        for k in (0..self.eta_pivot.len()).rev() {
            let r = self.eta_pivot[k] as usize;
            let mut s = self.eta_pivot_val[k] * v[r];
            for idx in self.eta_ptr[k]..self.eta_ptr[k + 1] {
                s += self.eta_vals[idx] * v[self.eta_rows[idx] as usize];
            }
            v[r] = s;
        }
    }

    /// Appends the eta of a pivot on row `r` with entering direction `d`.
    pub(crate) fn push_eta(&mut self, r: usize, d: &[f64]) {
        let inv = 1.0 / d[r];
        self.eta_pivot.push(r as u32);
        self.eta_pivot_val.push(inv);
        for (i, &di) in d.iter().enumerate() {
            // The eta column stores exact nonzeros only: a zero entry is
            // structurally absent.
            if i != r && di != 0.0 {
                self.eta_rows.push(i as u32);
                self.eta_vals.push(-di * inv);
            }
        }
        self.eta_ptr.push(self.eta_rows.len());
    }

    /// Etas appended by [`BlockPfi::push_eta`] since the last
    /// factorization.
    pub(crate) fn iteration_etas(&self) -> usize {
        self.eta_pivot.len() - self.factor_etas
    }

    /// Whether the factors in hand are the ones [`BlockPfi::factor`] would
    /// build from the basis set as it stands: a factorization that
    /// completed without a repair and no pivot since. The factorization is
    /// a function of the basis set and orders the slots itself, so the
    /// slot order a pivot path left needs no check.
    pub(crate) fn factors_clean(&self) -> bool {
        self.set_factored && self.iteration_etas() == 0
    }

    /// [`BlockPfi::factor`] with its elimination step passed in:
    /// [`BlockPfi::eliminate_column`], or the full-scan oracle the tests
    /// hold it to.
    fn factor_with(
        &mut self,
        state: &mut DriverState,
        repair: bool,
        eliminate: impl Fn(&mut Self, &Layout, usize, bool) -> bool,
    ) -> bool {
        let lay = &state.lay;
        let m = lay.m;
        state.stats.refactorizations += 1;
        state.stats.eta_lengths.push(self.iteration_etas() as u64);
        self.eta_pivot.clear();
        self.eta_pivot_val.clear();
        self.eta_rows.clear();
        self.eta_vals.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.factor_etas = 0;
        self.set_factored = m == 0;
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
        self.row_eta.clear();
        self.row_eta.resize(m, NO_ETA);
        self.eta_visits = 0;

        // Deterministic block-local elimination order: the basic logicals
        // by row (a row's slack before its artificial), then the
        // structural columns ascending — blocks are contiguous ascending
        // column ranges, so that is (block, column) order.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        for r in 0..m {
            for c in [lay.slack_col[r], lay.art_col[r]] {
                if c != NONE_COL && state.in_basis[c] {
                    order.push(c);
                }
            }
        }
        let logicals = order.len();
        order.extend(state.basis.iter().filter(|&&c| c < lay.n));
        order[logicals..].sort_unstable();
        debug_assert_eq!(order.len(), m);

        let mut deferred = std::mem::take(&mut self.deferred);
        deferred.clear();
        for &col in &order {
            if !eliminate(self, lay, col, true) {
                deferred.push(col);
            }
        }
        let (mut ok, mut repaired) = (true, false);
        for &col in &deferred {
            if !eliminate(self, lay, col, false) {
                if !repair {
                    ok = false;
                    break;
                }
                state.in_basis[col] = false;
                state.stats.warm = WarmStart::Repaired;
                repaired = true;
            }
        }
        self.deferred = deferred;
        self.order = order;
        if ok {
            for r in 0..m {
                if !self.pivoted[r] {
                    // Only reachable under `repair`. Neither logical of an
                    // unpivoted row is basic (a basic one pivots on its own
                    // row or was just dropped), and a singleton on an
                    // unpivoted row passes through the etas built so far
                    // unchanged.
                    let c = lay.starting_logical(r);
                    debug_assert!(!state.in_basis[c]);
                    state.in_basis[c] = true;
                    let placed = eliminate(self, lay, c, false);
                    debug_assert!(placed);
                }
            }
            debug_assert!(self.pivoted.iter().all(|&p| p));
            std::mem::swap(&mut state.basis, &mut self.new_basis);
        }
        // A singular basis leaves a partial file: factor etas all the same.
        self.factor_etas = self.eta_pivot.len();
        self.set_factored = ok && !repaired;
        state.stats.factor_eta_visits += self.eta_visits;
        ok
    }

    /// One factorization step: FTRANs column `col` through the etas built so
    /// far and pivots it at the best eligible row (see
    /// [`BlockPfi::place_pivot`]). Only the etas the column *reaches* are
    /// visited, in file order: those pivoting on a row of its own
    /// nonzeros, joined by the eta of each row an applied eta fills in
    /// when that eta comes later in the file. Any other eta would find its
    /// pivot entry zero and change nothing, so the work vector, the order
    /// of `touched` and the eta this step appends are the full scan's bit
    /// for bit.
    fn eliminate_column(&mut self, lay: &Layout, col: usize, local_only: bool) -> bool {
        if self.place_singleton(lay, col) {
            return true;
        }
        self.load_column(lay, col);
        // `touched[..queued]` have had their etas queued; an eta before
        // `next` has been passed.
        let (mut queued, mut next) = (0usize, 0u32);
        loop {
            for &t in &self.touched[queued..] {
                let k = self.row_eta[t as usize];
                if k != NO_ETA && k >= next {
                    self.pending.push(Reverse(k));
                }
            }
            queued = self.touched.len();
            let Some(Reverse(k)) = self.pending.pop() else {
                break;
            };
            self.apply_eta(k as usize);
            next = k + 1;
        }
        self.place_pivot(lay, col, local_only)
    }

    /// Pivots logical `col` on its own row when no eta has pivoted there
    /// yet, and returns whether it did. No eta pivots on that row, so the
    /// column reaches none and is its own eliminated vector; its home row
    /// is the only row it touches, so every pass accepts the pivot there.
    /// A `+1` singleton's eta would be the identity — FTRAN and BTRAN
    /// through it multiply by exactly 1.0, and no fill passes through it —
    /// so it records its row as pivoted and appends no eta.
    fn place_singleton(&mut self, lay: &Layout, col: usize) -> bool {
        let Some(l) = col.checked_sub(lay.n) else {
            return false;
        };
        let r = lay.logical_row[l];
        if self.pivoted[r] {
            return false;
        }
        let val = lay.logical_val[l];
        #[expect(
            clippy::float_cmp,
            reason = "logical coefficients are exactly ±1; only +1 has the identity as its eta"
        )]
        if val != 1.0 {
            self.row_eta[r] = self.eta_pivot.len() as u32;
            self.eta_pivot.push(r as u32);
            self.eta_pivot_val.push(1.0 / val);
            self.eta_ptr.push(self.eta_rows.len());
        }
        self.pivoted[r] = true;
        self.new_basis[r] = col;
        true
    }

    /// Scatters column `col` (structural or logical, normalized) into the
    /// work vector, its rows into `touched`.
    fn load_column(&mut self, lay: &Layout, col: usize) {
        self.touched.clear();
        if col < lay.n {
            for idx in self.col_ptr[col]..self.col_ptr[col + 1] {
                let r = self.col_rows[idx] as usize;
                self.work[r] = self.col_vals[idx] * lay.row_factor[r];
                self.touch(r);
            }
        } else {
            let l = col - lay.n;
            let r = lay.logical_row[l];
            self.work[r] = lay.logical_val[l];
            self.touch(r);
        }
    }

    /// Applies factor eta `k` to the work vector unless its pivot entry is
    /// zero, appending the rows it reaches first to `touched`.
    fn apply_eta(&mut self, k: usize) {
        self.eta_visits += 1;
        let r = self.eta_pivot[k] as usize;
        let vr = self.work[r];
        // Eta transform skip: an exactly-zero pivot component leaves the
        // vector unchanged.
        if vr != 0.0 {
            for idx in self.eta_ptr[k]..self.eta_ptr[k + 1] {
                let i = self.eta_rows[idx] as usize;
                self.work[i] += self.eta_vals[idx] * vr;
                self.touch(i);
            }
            self.work[r] = self.eta_pivot_val[k] * vr;
        }
    }

    /// Records row `r` in `touched` the first time it is reached, so the
    /// work vector is cleared in `O(nnz)`.
    #[inline]
    fn touch(&mut self, r: usize) {
        if !self.mark[r] {
            self.mark[r] = true;
            self.touched.push(r as u32);
        }
    }

    /// Pivots the eliminated column in the work vector at the best eligible
    /// row and clears the work vector. With `local_only` the pivot must
    /// sit on the column's home rows (its own block for structural
    /// columns, its own row for logicals) *and* pass the threshold test
    /// against the best pivot anywhere; otherwise any unpivoted row
    /// qualifies. Returns `false` when no acceptable pivot exists (the
    /// caller defers or declares the basis singular).
    fn place_pivot(&mut self, lay: &Layout, col: usize, local_only: bool) -> bool {
        let (work, touched) = (&mut self.work, &self.touched);
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
        for &t in touched {
            let r = t as usize;
            if self.pivoted[r] {
                continue;
            }
            let a = work[r].abs();
            #[expect(
                clippy::float_cmp,
                reason = "pivot tie-break: an exactly equal magnitude goes to the lowest row, so the pivot choice is deterministic"
            )]
            if a > best_any || (a == best_any && r < any_row) {
                best_any = a;
                any_row = r;
            }
            let is_home = match logical_home {
                Some(lr) => r == lr,
                None => self.row_local[r] == home,
            };
            #[expect(
                clippy::float_cmp,
                reason = "pivot tie-break: an exactly equal magnitude goes to the lowest row, so the pivot choice is deterministic"
            )]
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
            self.row_eta[pivot_row] = self.eta_pivot.len() as u32;
            self.eta_pivot.push(pivot_row as u32);
            self.eta_pivot_val.push(inv);
            for &t in touched {
                let i = t as usize;
                // Elimination skip: an exactly-zero work entry produces no
                // fill.
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
        for &t in touched {
            work[t as usize] = 0.0;
            self.mark[t as usize] = false;
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::BlockPfi;
    use crate::driver::contract::{block_angular, edge_values, random_sectioned_lp, Declaration};
    use crate::driver::{DriverState, Layout};
    use crate::simplex::WarmStart;
    use crate::{Basis, BasisVar, Problem, SolveError, SolverOptions, Workspace};
    use dmc_obs::{fnv1a, Obs};
    use dmc_stats::rng::{run_cases, SplitMix64};

    crate::driver::contract::contract_tests!(Declaration::Declared);

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    // ---- The kernel's own: factorization, blocks, edited bases ----------

    /// The full-scan elimination step, the oracle `eliminate_column` is
    /// held to: every eta built so far, in file order, tested for a zero
    /// pivot entry — under the same `+1` singleton rule.
    fn eliminate_full_scan(pfi: &mut BlockPfi, lay: &Layout, col: usize, local_only: bool) -> bool {
        pfi.place_singleton(lay, col) || eliminate_keeping_identities(pfi, lay, col, local_only)
    }

    /// The full scan without the singleton rule: every column pivoted by
    /// `place_pivot`, so a `+1` singleton gets its identity eta.
    fn eliminate_keeping_identities(
        pfi: &mut BlockPfi,
        lay: &Layout,
        col: usize,
        local_only: bool,
    ) -> bool {
        pfi.load_column(lay, col);
        for k in 0..pfi.eta_pivot.len() {
            pfi.apply_eta(k);
        }
        pfi.place_pivot(lay, col, local_only)
    }

    type Eliminate = fn(&mut BlockPfi, &Layout, usize, bool) -> bool;

    /// Factors the basis `cols` (driver column indices) of `p` on a fresh
    /// kernel with `eliminate`; returns the kernel, the state and whether
    /// the basis factored.
    fn factor_by(
        p: &Problem,
        cols: &[usize],
        repair: bool,
        eliminate: Eliminate,
    ) -> (BlockPfi, DriverState, bool) {
        let mut state = DriverState::default();
        state.lay.build(p);
        let mut pfi = BlockPfi::default();
        pfi.prepare(p, &state.lay, &mut Vec::new());
        state.basis = cols.to_vec();
        state.in_basis = vec![false; state.lay.n + state.lay.logical_row.len()];
        for &c in cols {
            state.in_basis[c] = true;
        }
        let ok = pfi.factor_with(&mut state, repair, eliminate);
        (pfi, state, ok)
    }

    /// The eta file, values as bits: pivot rows, pivot values, entry
    /// offsets, entry rows, entry values.
    type EtaFile = (Vec<u32>, Vec<u64>, Vec<usize>, Vec<u32>, Vec<u64>);

    fn eta_file(pfi: &BlockPfi) -> EtaFile {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            pfi.eta_pivot.clone(),
            bits(&pfi.eta_pivot_val),
            pfi.eta_ptr.clone(),
            pfi.eta_rows.clone(),
            bits(&pfi.eta_vals),
        )
    }

    /// A random block-angular LP: 1–3 coupling `≤` rows over a random
    /// subset of every block's columns, and per block a `Σx = 1` row, a
    /// floor row half the time, and 2–5 columns. Block 0's last column
    /// duplicates the one before it, so a basis holding both is singular.
    fn random_block_lp(rng: &mut SplitMix64) -> Problem {
        let blocks = 3 + rng.int(0..6);
        let widths: Vec<usize> = (0..blocks).map(|_| 2 + rng.int(0..4)).collect();
        let starts: Vec<usize> = widths
            .iter()
            .scan(0, |at, &w| {
                *at += w;
                Some(*at - w)
            })
            .collect();
        let n: usize = widths.iter().sum();
        let coupling: Vec<Vec<f64>> = (0..1 + rng.int(0..3))
            .map(|_| {
                let mut row: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.int(0..10) < 7 {
                            0.1 + rng.unit()
                        } else {
                            0.0
                        }
                    })
                    .collect();
                row[widths[0] - 1] = row[widths[0] - 2];
                row
            })
            .collect();
        let mut p = Problem::maximize((0..n).map(|_| 0.2 + rng.unit()).collect());
        for row in &coupling {
            p.add_le(row, 0.3 * blocks as f64 + rng.unit()).unwrap();
        }
        for (f, (&lo, &w)) in starts.iter().zip(&widths).enumerate() {
            let cols = lo..lo + w;
            p.add_eq_sparse(&cols.clone().map(|j| (j, 1.0)).collect::<Vec<_>>(), 1.0)
                .unwrap();
            if rng.int(0..2) == 0 {
                let mut floor: Vec<(usize, f64)> = cols.map(|j| (j, 0.2 + rng.unit())).collect();
                if f == 0 {
                    floor[w - 1].1 = floor[w - 2].1;
                }
                p.add_ge_sparse(&floor, 0.3).unwrap();
            }
        }
        p.set_block_starts(starts).unwrap();
        p
    }

    /// Reach against the full scan on random bases of random
    /// block-angular LPs, with and without repair: the same verdict, the
    /// same basis, and the same eta file bit for bit, in fewer visits.
    /// The bases cover columns deferred to the coupling rows and a
    /// dependent column dropped by `repair`.
    #[test]
    fn reach_builds_the_full_scans_eta_file() {
        let mut rng = SplitMix64::new(0x5EED);
        let (mut deferred, mut dependent) = (0, 0);
        for trial in 0..300 {
            let p = random_block_lp(&mut rng);
            let mut lay = Layout::default();
            lay.build(&p);
            let (m, n) = (lay.m, lay.n);
            let ncols = n + lay.logical_row.len();
            // Mostly structural columns, so blocks hold more basic
            // columns than local rows; half the time both duplicates.
            let mut keyed: Vec<(bool, u64, usize)> = (0..ncols)
                .map(|c| (c >= n && rng.int(0..4) != 0, rng.next_u64(), c))
                .collect();
            keyed.sort_unstable();
            let mut pool: Vec<usize> = keyed.into_iter().map(|(.., c)| c).collect();
            let widths0 = p.block_starts()[1];
            if trial % 2 == 0 {
                pool.retain(|&c| c != widths0 - 1 && c != widths0 - 2);
                pool.splice(0..0, [widths0 - 2, widths0 - 1]);
            }
            let cols = &pool[..m];
            for repair in [true, false] {
                let (reach, reach_state, ok) =
                    factor_by(&p, cols, repair, BlockPfi::eliminate_column);
                let (full, full_state, full_ok) = factor_by(&p, cols, repair, eliminate_full_scan);
                assert_eq!(ok, full_ok, "trial {trial}");
                assert_eq!(eta_file(&reach), eta_file(&full), "trial {trial}");
                assert_eq!(reach_state.basis, full_state.basis, "trial {trial}");
                assert_eq!(reach_state.in_basis, full_state.in_basis);
                assert!(reach.eta_visits <= full.eta_visits);
                if ok && repair {
                    deferred += usize::from(!reach.deferred.is_empty());
                    let both = cols.contains(&(widths0 - 2)) && cols.contains(&(widths0 - 1));
                    dependent += usize::from(both && reach_state.stats.warm == WarmStart::Repaired);
                }
            }
        }
        assert!(deferred >= 30, "{deferred} bases reached the deferred pass");
        assert!(dependent >= 30, "{dependent} bases dropped a duplicate");
    }

    /// A `+1` singleton appends no eta, and the file is otherwise the one
    /// that gives it the identity: FTRAN and BTRAN of random vectors
    /// (exact zeros and −0.0 among their entries) agree bit for bit with
    /// and without the identity etas, on random bases of random
    /// block-angular LPs, repaired ones included.
    #[test]
    fn identity_etas_change_no_ftran_or_btran_bit() {
        let mut rng = SplitMix64::new(0x1DE7);
        let mut identities = 0;
        for trial in 0..300 {
            let p = random_block_lp(&mut rng);
            let mut lay = Layout::default();
            lay.build(&p);
            let ncols = lay.n + lay.logical_row.len();
            let mut keyed: Vec<(u64, usize)> = (0..ncols).map(|c| (rng.next_u64(), c)).collect();
            keyed.sort_unstable();
            let cols: Vec<usize> = keyed[..lay.m].iter().map(|&(_, c)| c).collect();
            let (lean, lean_state, ok) = factor_by(&p, &cols, true, BlockPfi::eliminate_column);
            let (kept, kept_state, kept_ok) =
                factor_by(&p, &cols, true, eliminate_keeping_identities);
            assert!(ok && kept_ok, "trial {trial}");
            assert_eq!(lean_state.basis, kept_state.basis, "trial {trial}");
            // The kept file less the identity etas of the rows that hold
            // their own `+1` logical is the lean file.
            let (piv, val, ptr, rows, vals) = eta_file(&kept);
            let mut kept_less: EtaFile = (Vec::new(), Vec::new(), vec![0], rows, vals);
            for k in 0..piv.len() {
                let r = piv[k] as usize;
                let l = kept_state.basis[r].checked_sub(lay.n);
                if l.is_some_and(|l| lay.logical_row[l] == r && lay.logical_val[l] > 0.0) {
                    assert_eq!(
                        (val[k], ptr[k]),
                        (1.0f64.to_bits(), ptr[k + 1]),
                        "trial {trial}"
                    );
                    identities += 1;
                } else {
                    kept_less.0.push(piv[k]);
                    kept_less.1.push(val[k]);
                    kept_less.2.push(ptr[k + 1]);
                }
            }
            assert_eq!(eta_file(&lean), kept_less, "trial {trial}");
            for _ in 0..4 {
                let v = edge_values(&mut rng, lay.m);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let (mut a, mut b) = (v.clone(), v.clone());
                lean.ftran(&mut a);
                kept.ftran(&mut b);
                assert_eq!(bits(&a), bits(&b), "trial {trial}: FTRAN");
                let (mut a, mut b) = (v.clone(), v);
                lean.btran(&mut a);
                kept.btran(&mut b);
                assert_eq!(bits(&a), bits(&b), "trial {trial}: BTRAN");
            }
        }
        assert!(identities >= 300, "{identities} identity etas left out");
    }

    /// The fill over a pricing section's row list against the fill over
    /// every row, on random block-angular LPs with empty and negated
    /// rows, and exact-zero and −0.0 multipliers and weights: every
    /// reduced cost of the section bit for bit, and `col_rc`'s too. Each
    /// list is ascending and holds every row with an entry in its
    /// section; with the blocks cleared, each is every row.
    #[test]
    fn a_sections_rows_fill_it_as_every_row_does() {
        let (mut sections_seen, mut shorter) = (0, 0);
        let seed = fnv1a(b"a_sections_rows_fill_it_as_every_row_does");
        run_cases(seed, 200, |rng| {
            let declared = random_sectioned_lp(rng);
            let mut cleared = declared.clone();
            cleared.set_block_starts(Vec::new()).unwrap();
            for (p, blocks) in [(&declared, true), (&cleared, false)] {
                let mut lay = Layout::default();
                lay.build(p);
                let (mut pfi, mut sections) = (BlockPfi::default(), Vec::new());
                pfi.prepare(p, &lay, &mut sections);
                let (rows, n, rf) = (p.constraints(), lay.n, &lay.row_factor);
                let y = edge_values(rng, lay.m);
                let weight = edge_values(rng, n);
                let mut all = vec![f64::NAN; n];
                pfi.fill_rc(rows, pfi.all_rows(), rf, &weight, &y, 0..n, &mut all);
                for (s, &(lo, hi)) in sections.iter().enumerate() {
                    let hi = hi.min(n);
                    if lo >= hi {
                        continue;
                    }
                    let list = pfi.section_rows(s);
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "section {s}");
                    for (r, c) in rows.iter().enumerate() {
                        let reaches = c
                            .support()
                            .iter()
                            .any(|&j| (lo..hi).contains(&(j as usize)));
                        assert!(
                            !reaches || list.contains(&(r as u32)),
                            "row {r}, section {s}"
                        );
                    }
                    if !blocks {
                        assert_eq!(list, pfi.all_rows());
                    }
                    sections_seen += usize::from(blocks);
                    shorter += usize::from(list.len() < lay.m);
                    let mut out = vec![f64::NAN; n];
                    pfi.fill_rc(rows, list, rf, &weight, &y, lo..hi, &mut out);
                    for j in lo..hi {
                        assert_eq!(out[j].to_bits(), all[j].to_bits(), "column {j}");
                        let one = pfi.col_rc(rf, weight[j], &y, j);
                        assert_eq!(one.to_bits(), all[j].to_bits(), "column {j}");
                    }
                }
            }
        });
        assert!(
            2 * shorter > sections_seen,
            "{shorter} of {sections_seen} block-aligned sections list fewer rows than all"
        );
    }

    /// `lp.factor_eta_visits` on `block_angular`'s optimal basis, re-solved
    /// warm (one factorization, kept for the extraction): doubling the
    /// blocks roughly doubles it, where the full scan's count is
    /// quadratic.
    #[test]
    fn factor_work_is_linear_in_the_blocks() {
        let visits = |blocks: usize| {
            let p = block_angular(blocks, 9);
            let basis = p.solve(&opts()).unwrap().take_basis().unwrap();
            let obs = Obs::enabled();
            let o = SolverOptions {
                obs: obs.clone(),
                ..opts()
            };
            let mut ws = Workspace::new();
            let warm = p.solve_warm_with(&o, &mut ws, &basis).unwrap();
            assert_eq!(warm.iterations(), 0);
            let snap = obs.snapshot();
            assert_eq!(snap.counter("lp.refactorizations"), Some(1));
            let (full, ..) = factor_by(&p, &ws.driver.basis, false, eliminate_full_scan);
            let reach = snap.counter("lp.factor_eta_visits").unwrap();
            (reach as f64, full.eta_visits as f64)
        };
        let (reach_32, full_32) = visits(32);
        let (reach_64, full_64) = visits(64);
        assert!(reach_64 < 2.5 * reach_32, "{reach_32} → {reach_64}");
        assert!(full_64 > 3.5 * full_32, "{full_32} → {full_64}");
    }

    #[test]
    fn a_warm_basis_in_unsorted_slots_solves_as_cold() {
        // The factorization orders its pivots by the basis set and puts
        // the slots in pivot-row order, so a warm basis given in another
        // order keeps its factors (no pivot follows) and still reports
        // the cold solve's bits and slots.
        let mut p = Problem::maximize(vec![3.0, 2.0]);
        p.add_le(vec![1.0, 1.0], 4.0).unwrap();
        p.add_le(vec![1.0, 3.0], 6.0).unwrap();
        let obs = Obs::enabled();
        let o = SolverOptions {
            obs: obs.clone(),
            ..opts()
        };
        let cold = p.solve(&opts()).unwrap();
        let unsorted = Basis::new(vec![BasisVar::Slack(1), BasisVar::Structural(0)]);
        let warm = p.solve_warm(&o, &unsorted).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!(warm.iterations(), 0);
        assert_eq!(obs.snapshot().counter("lp.refactorizations"), Some(1));
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.duals(), cold.duals());
        assert_eq!(
            warm.basis().unwrap().slots(),
            [BasisVar::Structural(0), BasisVar::Slack(1)]
        );
        assert_eq!(warm.basis().unwrap().slots(), cold.basis().unwrap().slots());
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
        // A block's Σx row drops to 0 and its objective is zeroed: the
        // block is forced to zero, and the shape (and a cached basis of
        // the shape) survives.
        let mut p = block_angular(6, 5);
        let o = opts();
        let before = p.solve(&o).unwrap();
        let basis = before.basis().expect("exportable").clone();
        let dead = 2usize; // zero block 2
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
        // The departure edit: a block's Σx row and its columns leave the
        // LP and the carried basis is cut in step. The shared rows the
        // block's columns covered restart on their logicals, and the
        // survivors restart from what is left.
        let o = opts();
        let mut p = block_angular(6, 5);
        let mut basis = p.solve(&o).unwrap().take_basis().expect("exportable");
        // Block 1's columns are basic in its Σx row and in capacity row 0.
        let dead = 1usize;
        let (row, block) = (2 + dead..3 + dead, dead * 5..(dead + 1) * 5);
        let (rows, cols) = (std::slice::from_ref(&row), std::slice::from_ref(&block));
        p.remove_ranges(rows, cols).unwrap();
        basis.remove_ranges(rows, cols);
        assert_eq!(basis.len(), p.num_constraints());
        assert!(basis.slots().contains(&BasisVar::Logical(0)), "{basis}");
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
        logicals.truncate(1);
        logicals.extend_logical(3);
        assert_eq!(logicals.to_string(), "[x0, l1, l2]");
        logicals.truncate(0);
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

    /// A repaired factorization is not the one the basis set would get
    /// (the logical that replaced the dropped column was eliminated last),
    /// so the extraction refactorizes even when no pivot followed.
    #[test]
    fn a_repaired_basis_is_refactorized_for_the_extraction() {
        // Basis {x0, x1, s2} with x1's column equal to s2's: the repair
        // drops x1 and row 1 takes its slack, and {x0, s1, s2} is optimal.
        let mut p = Problem::maximize(vec![2.0, -1.0]);
        p.add_le(vec![1.0, 0.0], 1.0).unwrap();
        p.add_le(vec![1.0, 0.0], 1.0).unwrap();
        p.add_le(vec![0.0, 1.0], 3.0).unwrap();
        let basis = Basis::new(vec![
            BasisVar::Structural(0),
            BasisVar::Structural(1),
            BasisVar::Slack(2),
        ]);
        let obs = Obs::enabled();
        let o = SolverOptions {
            obs: obs.clone(),
            ..opts()
        };
        let warm = p.solve_warm(&o, &basis).unwrap();
        let cold = p.solve(&opts()).unwrap();
        assert!(warm.used_warm_start());
        assert_eq!(warm.iterations(), 0);
        assert_eq!(warm.x(), cold.x());
        assert_eq!(warm.duals(), cold.duals());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("lp.warm_repairs"), Some(1));
        assert_eq!(snap.counter("lp.refactorizations"), Some(2));
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
