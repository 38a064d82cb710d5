//! Statistics substrate for deadline-aware multipath communication.
//!
//! The paper's random-delay extension (§VI-B) models per-path one-way
//! delays as *shifted gamma* random variables (Eq. 24/31, after
//! Mukherjee/Paxson/Kim et al.) and needs, beyond sampling:
//!
//! * the regularized incomplete gamma function (the gamma CDF of Eq. 31),
//! * convolution of delay distributions (Eq. 34 convolves the CDF of one
//!   path's delay with the density of the ack path's delay),
//! * discretized distributions for the retransmission-timeout grid search,
//! * method-of-moments fitting from observed RTT samples (§VIII-A).
//!
//! No offline crate provides the incomplete-gamma CDF, so the special
//! functions are implemented here (Lanczos log-gamma; series and
//! continued-fraction expansions for `P(a, x)` following the classic
//! numerical-recipes formulation) and validated against known identities
//! and statistical tests.
//!
//! # Gamma parameterization
//!
//! Eq. 31 of the paper writes the CDF in *rate* form, but the stated
//! moments (`E[d] = η + αβ`, `Var[d] = αβ²`) and the Table-V parameters
//! only make sense with `β` as a **scale**; this crate therefore uses
//! shape `α`, scale `β`: `P(X ≤ x) = γ(α, x/β) / Γ(α)` (see DESIGN.md §1,
//! deviation 2).
//!
//! # Example: a Table-V path delay
//!
//! ```
//! use dmc_stats::{Delay, ShiftedGamma};
//!
//! // Path 1 of the paper's Experiment 2: η = 400 ms, α = 10, β = 4 ms.
//! let d = ShiftedGamma::new(10.0, 0.004, 0.400).unwrap();
//! assert!((d.mean() - 0.440).abs() < 1e-12);        // η + αβ
//! assert!((d.variance() - 1.6e-4).abs() < 1e-12);   // αβ²
//! assert!(d.cdf(0.400) < 1e-9);                     // nothing below the shift
//! assert!(d.cdf(0.600) > 0.999_999);                // far tail
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::unwrap_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]
#![warn(missing_docs)]

mod discrete;
mod dist;
mod fit;
mod gamma;
mod moments;
pub mod rng;
mod student;
mod trial;

pub use discrete::DiscreteDist;
pub use dist::{ConstantDelay, Delay, Empirical, ShiftedGamma, UniformDelay};
pub use fit::{fit_shifted_gamma, GammaFit};
pub use gamma::{ln_gamma, reg_gamma_lower, reg_gamma_upper};
pub use moments::OnlineMoments;
pub use student::{reg_inc_beta, student_t_cdf, student_t_quantile};
pub use trial::TrialStats;
