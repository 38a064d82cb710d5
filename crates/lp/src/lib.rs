//! Linear-programming solvers for deadline-aware multipath scheduling.
//!
//! The DSN 2017 paper ("Deadline-Aware Multipath Communication: An
//! Optimization Problem") solves its packet-to-path-combination assignment
//! with an off-the-shelf LP library (CGAL). The Rust optimization-solver
//! ecosystem is thin, and the paper's problems have a very particular
//! shape — one variable per path×retransmission combination (`(n+1)^m`,
//! hundreds to thousands) but only a handful of rows (bandwidth, cost,
//! quality, `Σx = 1`) — so this crate implements three exact primal simplex
//! backends tuned for exactly that shape:
//!
//! * [`Backend::Revised`] (the default): revised simplex with a
//!   product-form (eta-file) basis inverse refactorized every ~64 pivots
//!   and **partial candidate-list pricing**. The constraint matrix is
//!   used in place (normalization absorbed into per-row multipliers);
//!   bulk pricing runs as vectorized row passes and per-column accesses
//!   gather `m` strided elements. A pivot costs `O(m²)` plus the columns
//!   actually priced instead of the dense tableau's `O(m·n)` rewrite (see
//!   `BENCH_lp.json`). It honors **warm starts**: [`Solution::basis`]
//!   exposes the optimal basis and [`Problem::solve_warm`] re-enters
//!   phase 2 from it, which is what makes λ/δ parameter sweeps and an
//!   adaptive sender's periodic re-solves cheap.
//! * [`Backend::DenseTableau`]: the original two-phase dense-tableau
//!   simplex. Simpler and hard to beat below ~50 variables; kept as the
//!   reference oracle the other backends are differentially tested
//!   against (`tests/proptest_backends.rs`).
//! * [`Backend::Sparse`]: block-structured sparse revised simplex for the
//!   fleet layer's block-angular joint LPs (one assignment block per
//!   admitted flow, coupled only through the shared capacity rows). CSC
//!   columns + per-row nonzero lists, a sparse product-form basis inverse
//!   whose refactorization pivots block-local rows first (elimination
//!   confined to the coupling rows plus the basic columns of active
//!   blocks), sparse eta-file FTRAN/BTRAN, and partial pricing sectioned
//!   along [`Problem::block_starts`]. Same canonicalization as the
//!   revised backend, and a wider warm-start contract: the [`Basis`] may
//!   have been edited in step with the problem (rows appended on their
//!   logicals, a recycled block released), in which case phase 1 runs
//!   *from* it over the few artificials it names, and a basis left
//!   singular by a coefficient edit is repaired instead of discarded —
//!   the fleet's re-solve-after-a-small-edit loop.
//!
//! All three share the anti-cycling scheme (automatic switch to Bland's
//! rule after a run of degenerate pivots) and produce identical
//! objectives, primal points and duals to 1e-9. The revised and sparse
//! backends additionally canonicalize their answer across alternate
//! optima, so it is a pure function of the problem — warm and cold solves
//! of the same problem report bit-identical vertices.
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
//!   (`lp.warm_rejected_infeasible` / `lp.warm_rejected_singular` count
//!   why, `lp.warm_repairs` how often a repair saved it).

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
