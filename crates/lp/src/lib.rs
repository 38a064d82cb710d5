//! Linear-programming solvers for deadline-aware multipath scheduling.
//!
//! The DSN 2017 paper ("Deadline-Aware Multipath Communication: An
//! Optimization Problem") solves its packet-to-path-combination assignment
//! with an off-the-shelf LP library (CGAL). The Rust optimization-solver
//! ecosystem is thin, and the paper's problems have a very particular
//! shape — one variable per path×retransmission combination (`(n+1)^m`,
//! hundreds to thousands) but only a handful of rows (bandwidth, cost,
//! quality, `Σx = 1`) — so this crate is **one revised-simplex driver on
//! one sparse basis kernel**, and every solve runs on it:
//!
//! * The **driver** (`driver.rs`) is the algorithm: row
//!   normalization absorbed into per-row multipliers (no normalized
//!   matrix is ever written), warm-basis validation, phase 1 *from the current basis*,
//!   phase 2 with **partial candidate-list pricing**, the ratio test with
//!   its Bland fallback, a product-form eta file refactorized every 64
//!   pivots, and a phase 3 that canonicalizes the answer across alternate
//!   optima. It honors **warm starts**: [`Solution::basis`] exposes the
//!   optimal basis and [`Problem::solve_warm`] starts from it, which is
//!   what makes λ/δ parameter sweeps, an adaptive sender's periodic
//!   re-solves and the fleet's admit/depart edits cheap. Where only a
//!   verdict is read — is the problem feasible? —
//!   [`Problem::find_feasible_with`] runs the same start and phase 1 and
//!   stops there, which is what the fleet's greedy admissions ask.
//! * The **block-ordered sparse kernel** (`sparse.rs`) is what the
//!   driver runs every problem on: a CSC copy
//!   assembled per solve beside the rows' own `(column, value)` pairs,
//!   which pricing streams as stored, a sparse product-form basis inverse
//!   whose refactorization pivots block-local rows first (elimination
//!   confined to the coupling rows plus the basic columns of active
//!   blocks), sparse eta-file FTRAN/BTRAN, and pricing sections laid
//!   along [`Problem::block_starts`]. Blocks are what
//!   [`Problem::append_block`] declares — the fleet layer's block-angular
//!   joint LPs, one assignment block per admitted flow, coupled only
//!   through the shared capacity rows; a problem that declares none
//!   (every single-flow LP) is one block. Its pivot order is a function
//!   of the basis set, so the [`Basis`] may have been edited in step with
//!   the problem (rows appended on their logicals, a departed block cut
//!   out), in which case phase 1 runs *from* it over the few
//!   artificials it names, and a basis left singular by a coefficient
//!   edit is repaired instead of discarded — the fleet's
//!   re-solve-after-a-small-edit loop.
//!
//! The original two-phase dense-tableau simplex is not part of this
//! crate: it lives in the unpublished `dmc-lp-oracle` crate
//! (`crates/lp/oracle`), a dev-dependency the driver is differentially
//! tested against (`tests/proptest_backends.rs`) and nothing in
//! production solves on.
//!
//! **One kernel, and what it costs the single-flow LPs** (measured, nproc
//! = 2, virtualised Xeon @ 2.1 GHz, 2026-10-16, rustc 1.95.0). Until
//! 2026-10-16 a problem without declared blocks ran on a dense-LU kernel
//! of its own. The single-flow LPs are dense — every column meets every
//! capacity row — so there the sparse kernel's per-solve CSC assembly and
//! index chasing buy nothing, and the dense LU was a few microseconds
//! faster per solve. Moving them onto the sparse kernel cost
//! `flow_replan` (the end-to-end `benchmark/` workload that re-plans the
//! paper's scenarios through one warm `Planner`) 2.2 % of its `ops_per_s`
//! (15 168 → 14 833) and 16 % of its `op_p50_us` (4.80 → 5.59 µs) over
//! ten order-alternated 15 s pairs; the traced solve times (seed 1,
//! median of three 5 s runs) went from 1.75 to 2.08 µs (`det2`), 13.5 to
//! 18.8 µs (`det6m3`) and 2.23 to 2.59 µs (`rand2`) at the same pivot
//! counts. That is well inside the benchmark's bounds, and it buys one
//! code path: one factorization, one warm-start contract, and a one-flow
//! fleet that solves its joint LP bit for bit like [`Problem::solve`] on
//! the planner's. There is deliberately no small-problem path inside the
//! kernel.
//!
//! The driver and the oracle share the anti-cycling scheme (automatic
//! switch to Bland's rule after a run of degenerate pivots) and agree on
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
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::unwrap_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]
#![warn(missing_docs)]

mod driver;
mod error;
mod problem;
mod simplex;
mod solution;
mod sparse;

pub use error::{ProblemError, SolveError, SolveStatus};
pub use problem::{Constraint, ConstraintKind, Problem};
pub use simplex::{SolverOptions, Workspace, TOLERANCE};
pub use solution::{Basis, BasisVar, Solution};

/// The driver's contract on problems posed without a block declaration,
/// as every single-flow LP is; `sparse::tests` runs the same table with
/// the blocks declared.
#[cfg(test)]
mod revised {
    mod tests {
        use crate::driver::contract::Declaration;

        crate::driver::contract::contract_tests!(Declaration::Cleared);
    }
}
