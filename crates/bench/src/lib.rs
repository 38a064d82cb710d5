//! Repository checks for deadline-multipath, as two binaries CI runs:
//!
//! * `arch_check` — `ARCHITECTURE.md`'s crate map lists exactly the
//!   workspace members of `Cargo.toml`;
//! * `obs_check` — a dmc-obs JSON-lines export is well-formed and holds
//!   the counters a run must have recorded.
//!
//! The solver's algorithmic claims (warm re-solves, batched admission,
//! decomposition by region) are held as deterministic work counts by
//! `tests/work_counts.rs` at the repository root, and throughput is
//! measured end to end by `benchmark/`.

#![forbid(unsafe_code)]
