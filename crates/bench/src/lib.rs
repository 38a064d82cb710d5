//! Criterion benchmark crate for deadline-multipath.
//!
//! The benches live under `benches/`. CI runs all seven in one
//! invocation and gates ratios of subjects measured in that run
//! (`.github/workflows/ci.yml`, "Bench gates"); the `BENCH_*.json` files
//! at the repository root are dated records of them.
//!
//! Run with `cargo bench -p dmc-bench`.

#![forbid(unsafe_code)]
