//! Linear-programming solvers for deadline-aware multipath scheduling.
//!
//! The DSN 2017 paper ("Deadline-Aware Multipath Communication: An
//! Optimization Problem") solves its packet-to-path-combination assignment
//! with an off-the-shelf LP library (CGAL). The Rust optimization-solver
//! ecosystem is thin, and the paper's problems have a very particular
//! shape — one variable per path×retransmission combination (`(n+1)^m`,
//! hundreds to thousands) but only a handful of rows (bandwidth, cost,
//! quality, `Σx = 1`) — so this crate is **one revised-simplex driver over
//! two basis kernels, plus the dense tableau as the differential oracle**:
//!
//! * The **driver** (`driver.rs`) is the algorithm, once: row
//!   normalization absorbed into per-row multipliers (no normalized
//!   matrix is ever written), warm-basis validation, phase 1 *from the current basis*,
//!   phase 2 with **partial candidate-list pricing**, the ratio test with
//!   its Bland fallback, a product-form eta file refactorized every 64
//!   pivots, and a phase 3 that canonicalizes the answer across alternate
//!   optima. It honors **warm starts**: [`Solution::basis`] exposes the
//!   optimal basis and [`Problem::solve_warm`] starts from it, which is
//!   what makes λ/δ parameter sweeps, an adaptive sender's periodic
//!   re-solves and the fleet's admit/depart edits cheap. The kernel is a
//!   generic parameter — dispatch is static.
//! * [`Backend::Revised`] (the default) runs the driver on the **dense-LU
//!   kernel** (`revised.rs`): a row-major dense copy of the matrix,
//!   scattered from the rows' nonzeros at the start of each solve, bulk
//!   pricing as vectorized row passes over it, per-column accesses
//!   gathering `m` strided elements, a dense LU of the basis. A pivot
//!   costs `O(m²)` plus the columns actually priced instead of the dense
//!   tableau's `O(m·n)` rewrite. Its LU neither repairs a singular basis
//!   nor factors in an order fixed by the basis set, so it accepts
//!   exported bases only (a [`BasisVar::Logical`] slot is a clean cold
//!   solve).
//! * [`Backend::Sparse`] runs it on the **block-ordered sparse kernel**
//!   (`sparse.rs`) for the fleet layer's block-angular joint LPs (one
//!   assignment block per admitted flow, coupled only through the shared
//!   capacity rows): a CSC copy assembled per solve beside the rows' own
//!   `(column, value)` pairs, which pricing streams as stored, a sparse
//!   product-form basis inverse whose refactorization pivots block-local
//!   rows first (elimination confined to the coupling rows plus the basic
//!   columns of active blocks), sparse eta-file FTRAN/BTRAN, and pricing
//!   sections laid along [`Problem::block_starts`]. It has the wider
//!   warm-start contract: the [`Basis`] may have been edited in step with
//!   the problem (rows appended on their logicals, a recycled block
//!   released), in which case phase 1 runs *from* it over the few
//!   artificials it names, and a basis left singular by a coefficient
//!   edit is repaired instead of discarded — the fleet's
//!   re-solve-after-a-small-edit loop.
//! * [`Backend::DenseTableau`]: the original two-phase dense-tableau
//!   simplex. Simpler and hard to beat below ~50 variables; kept as the
//!   reference oracle the driver is differentially tested against
//!   (`tests/proptest_backends.rs`).
//!
//! **Why two kernels** (measured, nproc = 2, virtualised Xeon @ 2.1 GHz,
//! 2026-10-01, rustc 1.95.0). Each wins on its side of a size/sparsity
//! line, and the end-to-end `benchmark/` has workloads on both sides.
//! The single-flow LPs are dense — every column meets every capacity row
//! — so the sparse kernel's per-solve CSC assembly and index chasing buy
//! nothing the dense row passes do not already give: with
//! `Backend::Sparse` made the default, `flow_replan` reads `op_p50_us`
//! 6.47–8.48 (median 6.72) against 5.66–6.23 (5.84) and `ops_per_s`
//! 14.1 k against 15.0 k over six alternating 15 s runs, and the traced
//! solve itself `lp.solve_us.det2` 2.64–3.29 against 2.01–2.44, `det6m3`
//! 23.1–29.5 against 14.5–17.6, `rand2` 3.78–5.30 against 2.78–3.73 at
//! identical pivot counts (3.07 per solve; `lp_backends`: 729 columns ×
//! 9 rows cold, 40.5 µs vs 27.2 µs). The joint LPs are block-angular
//! with `m` in the hundreds, where a dense LU is cubic and an edited
//! basis must be declined: with `Backend::Revised` as the fleet's joint
//! backend `svc_contended` reads `ops_per_s` 153 against 1 907 and
//! `op_p50_us` 53.5 ms against 3.9 ms over four alternating runs
//! (`lp_backends`: 64 blocks, 576 columns × 146 rows cold, 4.27 ms vs
//! 0.59 ms). CI gates both `lp_backends` ratios within one
//! run; if either ever fails, that kernel has lost its reason to exist.
//!
//! All backends share the anti-cycling scheme (automatic switch to Bland's
//! rule after a run of degenerate pivots) and produce identical
//! objectives, primal points and duals to 1e-9. The driver additionally
//! canonicalizes its answer across alternate optima and extracts it from
//! a fresh, order-independent factorization of the final basis, so it is
//! a pure function of the problem — warm and cold solves of the same
//! problem report bit-identical vertices, objectives and duals.
//!
//! # Problem form
//!
//! Problems are expressed in the paper's "standard form" (Equation 10):
//!
//! ```text
//! maximize   cᵀx
//! subject to A x ≤ b      (inequality rows)
//!            E x = f      (equality rows)
//!            x ≥ 0
//! ```
//!
//! Minimization is supported by negating the objective
//! ([`Problem::minimize`]).
//!
//! # Example
//!
//! Solve `max x0 + 2 x1` subject to `x0 + x1 ≤ 3`, `x1 ≤ 2`, `x ≥ 0`:
//!
//! ```
//! use dmc_lp::{Problem, SolverOptions};
//!
//! # fn main() -> Result<(), dmc_lp::SolveError> {
//! let mut problem = Problem::maximize(vec![1.0, 2.0]);
//! problem.add_le(vec![1.0, 1.0], 3.0)?;
//! problem.add_le(vec![0.0, 1.0], 2.0)?;
//! let solution = problem.solve(&SolverOptions::default())?;
//! assert!((solution.objective() - 5.0).abs() < 1e-9);
//! assert!((solution.x()[0] - 1.0).abs() < 1e-9);
//! assert!((solution.x()[1] - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! # Warm starts
//!
//! Re-solving after a small parameter change (a sweep point, an adaptive
//! sender's refreshed estimates) usually leaves the optimal basis valid
//! or nearly so; restarting phase 2 from it skips most pivots:
//!
//! ```
//! use dmc_lp::{Problem, SolverOptions, Workspace};
//!
//! # fn main() -> Result<(), dmc_lp::SolveError> {
//! let mut ws = Workspace::new();
//! let opts = SolverOptions::default();
//! let mut basis = None;
//! for rhs in [3.0, 3.5, 4.0] {
//!     let mut p = Problem::maximize(vec![1.0, 2.0]);
//!     p.add_le(vec![1.0, 1.0], rhs)?;
//!     let s = match &basis {
//!         Some(b) => p.solve_warm_with(&opts, &mut ws, b)?,
//!         None => p.solve_with(&opts, &mut ws)?,
//!     };
//!     assert!((s.objective() - 2.0 * rhs).abs() < 1e-9);
//!     basis = s.basis().cloned();
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Guarantees
//!
//! * Terminates: Bland's rule is engaged automatically after a run of
//!   degenerate pivots, which guarantees no cycling.
//! * Detects and reports infeasible and unbounded problems as typed errors.
//! * Returns dual values (shadow prices) for every constraint row, enabling
//!   sensitivity analysis on bandwidth/cost bounds (paper §IX-C).
//! * A stale warm basis can never corrupt a result: it is validated and,
//!   if unusable, the solver falls back to the cold path
//!   (`lp.warm_rejected_infeasible` — the dual phase gave up on a basis
//!   the new right-hand side made infeasible — and
//!   `lp.warm_rejected_singular` count why, `lp.warm_repairs` and
//!   `lp.dual_pivots` how often a repair or a dual pivot saved it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod problem;
mod revised;
mod simplex;
mod solution;
mod sparse;

pub use error::{ProblemError, SolveError, SolveStatus};
pub use problem::{Constraint, ConstraintKind, Problem};
pub use simplex::{Backend, PivotRule, SolverOptions, Workspace};
pub use solution::{Basis, BasisVar, Solution};
