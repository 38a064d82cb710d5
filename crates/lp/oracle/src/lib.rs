//! The dense two-phase tableau simplex, kept as the differential oracle
//! of `dmc-lp`.
//!
//! `dmc-lp` solves every problem on one revised-simplex driver over one
//! sparse basis kernel. This crate is the independent second opinion its
//! tests hold that driver to: a textbook tableau that shares none of the
//! driver's machinery — no factorization, no eta file, no partial
//! pricing, no canonicalization — only the problem form, the tolerance
//! ([`dmc_lp::TOLERANCE`]), the row equilibration and the power-of-two
//! objective scale, so the two agree on objective, primal point and
//! duals to 1e-9 wherever the optimum is unique.
//!
//! It is a dev-dependency only (of `dmc-lp`'s integration tests and of
//! `dmc-fleet`'s tests) and is not published: nothing in production
//! solves on it. It reads a [`dmc_lp::Problem`] through its public
//! accessors, allocates per call and returns a plain [`Optimum`].
//!
//! ```
//! use dmc_lp::Problem;
//!
//! # fn main() -> Result<(), dmc_lp::SolveError> {
//! let mut p = Problem::maximize(vec![1.0, 2.0]);
//! p.add_le(vec![1.0, 1.0], 3.0)?;
//! p.add_le(vec![0.0, 1.0], 2.0)?;
//! let optimum = dmc_lp_oracle::solve(&p)?;
//! assert!((optimum.objective - 5.0).abs() < 1e-9);
//! assert_eq!(optimum.x.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::unwrap_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]
#![warn(missing_docs)]

mod simplex;

pub use simplex::{solve, Optimum};
