//! Criterion benchmark crate for deadline-multipath.
//!
//! The benches live under `benches/`:
//!
//! * `solve_times` — Figure 4: LP build+solve vs. paths × transmissions;
//! * `scheduler` — Algorithm 1 vs. weighted-random assignment;
//! * `sim_engine` — full-stack simulation throughput;
//! * `model_build` — matrix assembly cost in isolation;
//! * `timeout_opt` — Eq.-34 grid-resolution ablation.
//!
//! Run with `cargo bench -p dmc-bench`.

#![forbid(unsafe_code)]
