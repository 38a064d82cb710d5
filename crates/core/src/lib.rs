//! Deadline-aware multipath communication: the optimization model of
//! Chuat, Perrig & Hu, *"Deadline-Aware Multipath Communication: An
//! Optimization Problem"* (DSN 2017).
//!
//! Real-time applications (voice, video, gaming, trading) tolerate loss
//! but not lateness: data is useful only if it arrives within its
//! *lifetime* `δ`. Given `n` end-to-end paths with bandwidth `b_i`, delay
//! `d_i`, loss `τ_i` and cost `c_i`, which fraction of the traffic should
//! be sent — and, after a timeout, *re*-sent — along which path? The paper
//! formulates this packet-to-*path-combination* assignment as a linear
//! program whose optimum upper-bounds what any protocol can achieve, and
//! shows a practical sender (Algorithm 1) tracks the bound closely.
//!
//! # The pipeline
//!
//! The front door is one typed pipeline, covering both of the paper's
//! delay regimes (§V deterministic, §VI-B random) and all three solve
//! modes:
//!
//! ```text
//! Scenario  ──(Objective)──▶  Planner  ──▶  Plan
//! ```
//!
//! * [`Scenario`] — paths carry a *delay distribution* (constant delay =
//!   deterministic case) plus cost, cost budget `µ`, rate `λ`, lifetime
//!   `δ` and `m` transmissions, in one validated builder;
//! * [`Objective`] — [`MaxQuality`](Objective::MaxQuality) (Eq. 10),
//!   [`MinCost`](Objective::MinCost) (Eq. 20–23) or
//!   [`MaxQualityUnderBudget`](Objective::MaxQualityUnderBudget);
//! * [`Planner`] — owns a reusable LP workspace and the warm-start
//!   bases, so sweeps and re-solves skip phase 1 and don't re-allocate
//!   the factorization;
//! * [`Plan`] — the solved [`Strategy`], a per-stage [`TimeoutSchedule`]
//!   (Eq. 4 / Eq. 34), the ack path, and a ready [`Scheduler`]
//!   (Algorithm 1).
//!
//! Inside, [`Planner::plan`] is one chain with no second copy:
//! [`Planner::model`] (the Eq. 12 / Eq. 28 coefficients and the Eq. 4 /
//! Eq. 34 timeouts, as a [`ScenarioModel`]) →
//! [`ScenarioModel::problem`] (the LP of Eq. 10) → solve →
//! [`ScenarioModel::plan_for`]. `dmc_fleet` takes the same first and last
//! step around its joint LP. The model owns its coefficient vectors; the
//! scenario, combination table, timeout schedule and ack path are held
//! once, behind an `Arc` the model and every plan packaged from it share.
//!
//! # Quick start
//!
//! The paper's Figure 1 scenario — a high-bandwidth/high-delay/lossy path
//! paired with a thin low-latency lossless one:
//!
//! ```
//! use dmc_core::{Objective, Planner, Scenario, ScenarioPath};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::builder()
//!     .path(ScenarioPath::constant(10e6, 0.600, 0.10)?) // 10 Mbps, 600 ms, 10 %
//!     .path(ScenarioPath::constant(1e6, 0.200, 0.0)?)   //  1 Mbps, 200 ms,  0 %
//!     .data_rate(10e6)
//!     .lifetime(1.0)
//!     .build()?;
//!
//! let mut planner = Planner::new();
//! let plan = planner.plan(&scenario, Objective::MaxQuality)?;
//! // Send everything on the fat path, retransmit losses on the thin one:
//! // 100 % of the data makes the deadline — impossible on either path
//! // alone.
//! assert!((plan.quality() - 1.0).abs() < 1e-9);
//!
//! // Discretize per packet with Algorithm 1:
//! let mut scheduler = plan.scheduler();
//! let combo = scheduler.next_combo();
//! let slots = plan.strategy().table().slots_of(combo);
//! assert!(!slots.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! A random-delay path (§VI-B) drops into the *same* pipeline — give the
//! path a [`ShiftedGamma`](dmc_stats::ShiftedGamma) distribution instead
//! of a constant and the planner optimizes the Eq. 34 retransmission
//! timeouts automatically.
//!
//! [`NetworkSpec`] / [`PathSpec`] are the all-constant-delay estimate
//! type: what `dmc_proto::AdaptiveSender` refits from its RTT and loss
//! estimators and the sensitivity experiments perturb.
//! [`Scenario::from_network`] feeds one to the pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod combo;
mod network;
mod path;
mod plan;
mod planner;
mod random_delay;
mod scenario;
mod scheduler;
mod strategy;

pub use combo::{ComboTable, Slot};
pub use network::{NetworkSpec, NetworkSpecBuilder};
pub use path::{PathSpec, SpecError};
pub use plan::{Plan, StageTimeoutSpec, TimeoutSchedule};
pub use planner::{Objective, PlanError, Planner, PlannerConfig, ScenarioModel, WarmStats};
pub use random_delay::PlateauRule;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioPath};
pub use scheduler::{SchedulePolicy, Scheduler};
pub use strategy::{approx_fraction, CrossEvaluation, Strategy};

// Re-export the solver option types callers need to tune solving.
pub use dmc_lp::{PivotRule, SolveError, SolverOptions, Workspace};
