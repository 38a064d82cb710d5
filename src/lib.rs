//! # deadline-multipath
//!
//! A complete Rust implementation of **"Deadline-Aware Multipath
//! Communication: An Optimization Problem"** (Chuat, Perrig & Hu,
//! DSN 2017): partially-reliable multipath communication that maximizes
//! the fraction of data delivered *before a deadline* by solving a linear
//! program over *path combinations* (initial-transmission path +
//! retransmission path(s)).
//!
//! The workspace layers, bottom up:
//!
//! | Crate | Re-exported as | What it is |
//! |---|---|---|
//! | `dmc-obs` | [`obs`] | deterministic telemetry: counters/histograms/span traces on a logical clock, JSONL + Prometheus export (`--metrics` in every driver) |
//! | `dmc-lp` | [`lp`] | dense two-phase simplex LP solver with reusable workspaces |
//! | `dmc-stats` | [`stats`] | gamma special functions, shifted-gamma delays, convolution |
//! | `dmc-core` | [`model`] | **the paper's model** behind the `Scenario` → `Planner` → `Plan` pipeline |
//! | `dmc-sim` | [`sim`] | deterministic discrete-event network simulator (the ns-3 stand-in) |
//! | `dmc-proto` | [`proto`] | sender/receiver protocol state machines, acks, estimators |
//! | `dmc-fleet` | [`fleet`] | multi-flow admission control + joint shared-capacity allocation; `fleet::service` shards it into capacity regions behind a wire front end |
//! | `dmc-experiments` | [`experiments`] | regenerators for every table & figure of the paper |
//! | `dmc-lint` | (dev tool, not re-exported) | dependency-free static analyzer enforcing the workspace's determinism, float-safety, and panic-hygiene invariants (`cargo run -p dmc-lint -- --deny`; rule catalogue and pragma syntax in `EXPERIMENTS.md`) |
//!
//! # Quick start
//!
//! One pipeline covers both delay regimes and all three solve modes:
//! describe a [`Scenario`](model::Scenario), pick an
//! [`Objective`](model::Objective), and ask a
//! [`Planner`](model::Planner) for a [`Plan`](model::Plan).
//!
//! ```
//! use deadline_multipath::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Figure 1: a fat slow lossy path + a thin fast clean one.
//! let scenario = Scenario::builder()
//!     .path(ScenarioPath::constant(10e6, 0.600, 0.10)?) // 10 Mbps, 600 ms, 10 %
//!     .path(ScenarioPath::constant(1e6, 0.200, 0.0)?)   //  1 Mbps, 200 ms,  0 %
//!     .data_rate(10e6)                                  // λ
//!     .lifetime(1.0)                                    // δ
//!     .build()?;
//!
//! let mut planner = Planner::new();
//! let plan = planner.plan(&scenario, Objective::MaxQuality)?;
//! assert!((plan.quality() - 1.0).abs() < 1e-9); // 100 % in time
//!
//! // The plan carries everything a sender needs:
//! let mut scheduler = plan.scheduler();            // Algorithm 1
//! let combo = scheduler.next_combo();
//! let slots = plan.strategy().table().slots_of(combo);
//! assert!(!slots.is_empty());
//! let t12 = plan.timeout(0, 1).expect("retransmission timeout, Eq. 4");
//! assert!((t12 - 0.800).abs() < 1e-9);             // d_1 + d_min
//! // ...and dmc-proto turns it into a runnable sender in one call:
//! // DmcSender::from_plan(&plan, rto_extra, total_messages).
//! # Ok(())
//! # }
//! ```
//!
//! Random delays use the *same* pipeline — construct the path with
//! [`ScenarioPath::new`](model::ScenarioPath::new) and a
//! [`ShiftedGamma`](stats::ShiftedGamma) distribution and the planner
//! optimizes the Eq. 34 retransmission timeouts automatically.
//!
//! Many flows sharing the same paths go through
//! [`fleet::FleetPlanner`] (admission control + one joint LP whose
//! capacity rows are shared) or, sharded into capacity regions behind
//! wire frames, [`fleet::FleetService`].
//!
//! See `EXPERIMENTS.md` for the paper-vs-measured record and
//! `ARCHITECTURE.md` for the crate dependency map, the data-flow
//! diagrams, the determinism rules, and "where to add X" pointers
//! (its crate table is kept in lockstep with the workspace by the
//! `arch_check` CI gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dmc_core as model;
pub use dmc_experiments as experiments;
pub use dmc_fleet as fleet;
pub use dmc_lp as lp;
pub use dmc_obs as obs;
pub use dmc_proto as proto;
pub use dmc_sim as sim;
pub use dmc_stats as stats;

/// The most common imports in one place.
pub mod prelude {
    pub use dmc_core::{
        ComboTable, NetworkSpec, Objective, PathSpec, Plan, PlanError, Planner, PlannerConfig,
        PlateauRule, Scenario, ScenarioBuilder, ScenarioPath, SchedulePolicy, Scheduler, Slot,
        SolverOptions, StageTimeoutSpec, Strategy, TimeoutSchedule,
    };
    pub use dmc_fleet::{
        AdmissionDecision, FleetConfig, FleetEvent, FleetObjective, FleetPlanner, FleetSnapshot,
        FleetTrace, FlowId, FlowRequest,
    };
    pub use dmc_proto::{
        AdaptiveConfig, AdaptiveSender, DmcReceiver, DmcSender, FailureDetection, ReceiverConfig,
        SenderConfig, TimeoutPlan,
    };
    pub use dmc_sim::{
        Dynamics, GilbertElliott, LinkConfig, LossModel, SimDuration, SimTime, TwoHostSim,
    };
    pub use dmc_stats::{ConstantDelay, Delay, ShiftedGamma, TrialStats};
}
