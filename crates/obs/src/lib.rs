//! dmc-obs: deterministic telemetry for the deadline-multipath stack.
//!
//! The solver, fleet, protocol and simulator crates all expose behavior
//! that matters for evaluation — simplex pivots, warm-basis hits, shard
//! queue depths, degradation-ladder rungs, injected fault counts — but
//! ad-hoc per-crate tuples cannot be exported, diffed or asserted on
//! uniformly. This crate is the one telemetry substrate they share:
//!
//! * [`Obs`] — a cheap, cloneable handle to a [metric registry]. The
//!   default handle is **disabled**: every operation is a branch on a
//!   `None` and performs no allocation, so library code can be
//!   instrumented unconditionally while the uninstrumented configuration
//!   stays at tier-1 performance (CI holds an enabled registry to at most
//!   1.05× the time of a disabled one on `benchmark/`'s traced smokes).
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — named metrics. Histograms
//!   use **fixed log2 buckets** (bucket `i ≥ 1` holds values in
//!   `[2^(i-1), 2^i)`; bucket 0 holds zero), so bucket boundaries are a
//!   pure function of the value and never drift between runs.
//! * **Span traces** ([`Obs::span`]) — enter/exit events recorded
//!   against a **logical clock**: a monotone `u64` advanced explicitly
//!   by the instrumented code (simplex pivots, simulated nanoseconds,
//!   service submission sequence numbers — never wallclock). Snapshots
//!   are therefore bit-identical across replays, machines and thread
//!   counts. Wallclock enrichment exists only as the opt-in
//!   [`WallProfiler`], intended for driver binaries, never library code.
//! * [`Snapshot`] — a frozen, name-sorted view of a registry with
//!   deterministic [JSON-lines](Snapshot::to_jsonl) and
//!   [Prometheus-style text](Snapshot::to_prometheus) renderings (both
//!   hand-rolled: this workspace builds offline), an FNV-1a
//!   [hash](Snapshot::fnv_hash) for replay pinning, a
//!   [`diff`](Snapshot::diff) for before/after deltas, and
//!   [`absorb`](Snapshot::absorb) for deterministic merging.
//!
//! # Threading model
//!
//! Registries are explicit values threaded through configuration structs
//! (`dmc_lp::SolverOptions::obs`, `dmc_fleet::FleetConfig::obs`,
//! `dmc_experiments::runner::RunConfig::obs`) — there is no global
//! registry. A handle is `Send + Sync`; counter/gauge/histogram updates
//! and [`Obs::advance`]/[`Obs::advance_to`] are **commutative** (atomic
//! adds and maxes), so concurrent recorders still produce a
//! deterministic final snapshot. Span recording and [`Obs::tick`] reads
//! are *not* commutative: code that records spans from parallel workers
//! must give each worker its own [`Obs::fork`] and merge the forks'
//! snapshots in a deterministic order (what the fleet service and the
//! Monte-Carlo engine do — per shard and per trial respectively).
//!
//! # Example
//!
//! ```
//! use dmc_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let pivots = obs.counter("lp.pivots");
//! {
//!     let _solve = obs.span("lp.solve");
//!     pivots.add(17);
//!     obs.advance(17); // the logical clock counts pivots here
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("lp.pivots"), Some(17));
//! assert_eq!(snap.clock, 17);
//! // Disabled handles cost nothing and collect nothing.
//! let off = Obs::disabled();
//! off.counter("lp.pivots").add(1);
//! assert!(off.snapshot().counters.is_empty());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::unwrap_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod snapshot;
mod span;
mod wall;

pub use metrics::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, NUM_BUCKETS};
pub use registry::Obs;
pub use snapshot::{
    fnv1a, fnv1a_extend, HistogramSnapshot, Snapshot, SpanSummary, WarningRecord, FNV_BASIS,
};
pub use span::{SpanEvent, SpanGuard, MAX_SPAN_EVENTS};
pub use wall::WallProfiler;
