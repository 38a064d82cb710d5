//! # dmc-fleet — multi-flow admission control and joint capacity allocation
//!
//! The paper plans a *single* sender's deadline-constrained transfer; a
//! production service faces **many concurrent flows with heterogeneous
//! deadlines contending for the same path capacity**. This crate is that
//! layer: a multi-tenant [`FleetPlanner`] that accepts [`FlowRequest`]s
//! (rate, deadline, loss tolerance / quality floor, cost budget,
//! priority), performs **admission control** in the DDCCast spirit —
//! accept a flow only when the remaining shared capacity can still meet
//! every accepted deadline — and computes a **joint shared-capacity
//! allocation**: one LP over all admitted flows in which the per-path
//! capacity rows are shared (`Σ` over flows of per-flow path usage `≤`
//! path bandwidth) while each flow keeps its own deadline coefficients,
//! quality floor and cost budget.
//!
//! Everything reuses the existing stack rather than duplicating it:
//!
//! * per-flow coefficients come from
//!   [`dmc_core::Planner::model`] — the same Eq. 12/28 code both delay
//!   regimes already use;
//! * the joint LP is a plain [`dmc_lp::Problem`], maintained in place
//!   by one core shared by both planners (`joint.rs`) and solved by the
//!   block-structured sparse backend ([`FleetConfig::joint_backend`])
//!   with **warm starts**: the basis of the last optimum is carried
//!   with the LP and edited in step with it, so an admission, a refusal
//!   or a revive starts from the incumbents' vertex and pivots only for
//!   the candidate — see the `fleet_admission` benchmark;
//! * that core also owns the **roster** of admitted flows (request,
//!   model, plan), so a planner holds policy and nothing per flow: it
//!   offers candidates by value and gets the refused ones back;
//! * the joint solution is **decomposed back into ordinary per-flow
//!   [`dmc_core::Plan`]s** via [`dmc_core::ScenarioModel::plan_for`], so
//!   `run_plan`, `DmcSender::from_plan` and `AdaptiveSender` consume
//!   fleet output unchanged;
//! * arrival traces are replayed deterministically through
//!   [`FleetTrace`]/[`FleetPlanner::replay`], with link dynamics speaking
//!   the [`dmc_sim::LinkChange`] vocabulary (`Fail`/`Recover`/
//!   `SetBandwidth`/`SetLoss`) of [`dmc_sim::Dynamics`].
//!
//! Objective modes ([`FleetObjective`]): `MaxAdmitted` (greedy
//! deadline-ordered admission), `MaxTotalQuality` (rate-weighted
//! aggregate quality) and `WeightedFair` (priority-weighted).
//!
//! Beyond the steady-state instant, [`SchedulePlanner`] expands the
//! joint LP over a slotted [`TimeGrid`] horizon: flows carry
//! `[start, deadline)` [`SlotWindow`]s, refused-now flows receive
//! **advance reservations** for the earliest feasible later window,
//! store-and-forward buffering drains traffic across slot boundaries,
//! and maintenance windows are zero-capacity slots — see the
//! [`schedule`-module docs](SchedulePlanner) and `ARCHITECTURE.md` at
//! the repository root for where it sits in the stack.
//!
//! With exactly one flow the joint LP degenerates — row for row — to the
//! single-flow planner's, so `FleetPlanner` answers match
//! [`dmc_core::Planner::plan`] bit for bit (`tests/parity_single_flow.rs`).
//!
//! ```
//! use dmc_core::ScenarioPath;
//! use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};
//!
//! # fn main() -> Result<(), dmc_fleet::FleetError> {
//! let mut fleet = FleetPlanner::new(
//!     vec![
//!         ScenarioPath::constant(80e6, 0.450, 0.2)?, // shared fat lossy link
//!         ScenarioPath::constant(20e6, 0.150, 0.0)?, // shared thin clean link
//!     ],
//!     FleetConfig::default(),
//! )?;
//! let video = fleet.offer(FlowRequest::new(30e6, 0.750)?.with_min_quality(0.95))?;
//! assert!(video.is_admitted());
//! // The admitted flow owns an ordinary Plan: feed it to run_plan /
//! // DmcSender::from_plan like any single-flow plan.
//! let plan = fleet.plan_of(video.id()).unwrap();
//! assert!(plan.quality() >= 0.95 - 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flow;
mod joint;
mod planner;
mod schedule;
pub mod service;
mod timeline;

pub use error::FleetError;
pub use flow::{FlowId, FlowRequest};
pub use planner::{AdmissionDecision, FleetConfig, FleetObjective, FleetPlanner};
pub use schedule::{
    ScheduleAdvance, ScheduleDecision, SchedulePlanner, ScheduleRequest, ScheduleShuffle,
    SlotWindow, TimeGrid,
};
pub use service::{FleetService, RegionMap, ServiceConfig, ServiceEvent};
pub use timeline::{FleetEvent, FleetSnapshot, FleetTrace, ScheduleSnapshot, TraceEvent};

// Re-exported so fleet callers can name the shared counter type without
// depending on dmc-core directly.
pub use dmc_core::WarmStats;
