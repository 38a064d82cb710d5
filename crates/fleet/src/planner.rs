//! The fleet service: admission control plus joint shared-capacity
//! allocation across every admitted flow.
//!
//! # The joint LP
//!
//! A single-flow [`Planner`](dmc_core::Planner) solves (Eq. 10, per unit
//! of `λ`):
//!
//! ```text
//! max p·x   s.t.  usage_k·x ≤ b_k/λ  (per path),  Σx = 1,  x ≥ 0
//! ```
//!
//! The fleet generalizes it to `F` concurrent flows by concatenating the
//! per-flow assignment vectors into one variable block `x = (x¹ … x^F)`
//! and **sharing the capacity rows** (everything scaled by the aggregate
//! rate `Λ = Σ_f λ_f` so coefficients stay O(1)):
//!
//! ```text
//! max  Σ_f w_f (λ_f/Λ) p_f·x^f
//! s.t. Σ_f (λ_f/Λ) usage_{f,k}·x^f ≤ b_k/Λ          (shared, per path k)
//!      cost_f·x^f ≤ µ_f/λ_f                         (per budgeted flow)
//!      p_f·x^f ≥ q_f                                (per flow with a floor)
//!      Σ x^f = 1                                    (per flow)
//!      x ≥ 0
//! ```
//!
//! With one flow this degenerates — row for row, bit for bit — to the
//! single-flow planner's LP, which is what the
//! `parity_single_flow` test pins. The per-flow `p`/`usage`/`cost`
//! vectors come from [`Planner::model`](dmc_core::Planner::model), i.e.
//! the exact coefficient code both regimes (§V deterministic, §VI-B
//! random delays) already use.
//!
//! # Admission control
//!
//! A flow is *admitted* iff the joint LP stays feasible with the flow's
//! quality floor added — the DDCCast rule: accept a transfer only when
//! the remaining shared capacity can still meet every accepted deadline.
//! Rejected flows leave the incumbents' allocation untouched. Departures
//! and link changes re-solve the smaller/changed LP (a departure from
//! the carried basis when it is still feasible, a link change cold); a
//! link change that makes
//! the floors collectively infeasible triggers deterministic re-admission
//! highest priority first (admission order within ties), **shedding**
//! exactly the flows that no longer fit into a re-admission queue: each
//! subsequent capacity event (link change or departure) retries them
//! under capped exponential backoff until they are revived — keeping
//! their original ids — or definitively rejected within a bounded number
//! of events ([`FleetPlanner::SHED_HORIZON`]).
//!
//! The LP itself — block layout, tombstoning, Λ-rescaling, the carried
//! basis, when all of it is dropped and rebuilt (link changes,
//! compaction) — **and the roster of admitted flows** (id, request,
//! model, plan) are kept by the joint core this planner shares with
//! [`SchedulePlanner`](crate::SchedulePlanner) (`joint.rs`), run here
//! over a one-slot grid. This planner holds no admitted flow of its own:
//! it offers candidates to the core by value and gets the refused ones
//! back. What lives in this module is the *policy* and nothing else:
//! batch admission with its greedy fallback, the shed queue and its
//! backoff, and the `fleet.*` admission counters.

use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::joint::{readmission_order, JointCore, Member};
use crate::schedule::{ScheduleRequest, SlotWindow, TimeGrid};
use dmc_core::{Plan, PlannerConfig, ScenarioPath, WarmStats};
use dmc_lp::{Backend, SolveError};
use dmc_sim::LinkChange;

/// What the joint LP optimizes across admitted flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetObjective {
    /// Admit as many flows as the floors allow (greedy, deadline-ordered
    /// in [`FleetPlanner::offer_batch`] — the DDCCast/ALAP flavor), then
    /// maximize rate-weighted total quality over the admitted set.
    #[default]
    MaxAdmitted,
    /// Maximize rate-weighted total quality `Σ_f (λ_f/Λ) Q_f` (aggregate
    /// in-time goodput fraction). Admission is still floor-feasibility
    /// based; batches keep arrival order.
    MaxTotalQuality,
    /// Maximize priority-weighted quality `Σ_f w_f (λ_f/Λ) Q_f`, where
    /// `w_f` is [`FlowRequest::priority`].
    WeightedFair,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Objective of the joint LP (default [`FleetObjective::MaxAdmitted`]).
    pub objective: FleetObjective,
    /// Model/solver knobs shared by every per-flow model and joint solve
    /// (blackhole, discretization grid, solver options, `warm_start`).
    pub planner: PlannerConfig,
    /// LP backend for the **joint** solves (default
    /// [`Backend::Sparse`], the block-structured solver built for the
    /// joint LP's block-angular shape). Per-flow model construction and
    /// any single-flow planning keep using `planner.solver.backend`.
    pub joint_backend: Backend,
    /// Maintain the joint LP incrementally (default `true`): admitting a
    /// flow appends (or reuses) its assignment block in place, departing
    /// tombstones the block (its `Σx` row drops to 0, forcing the block
    /// to zero without moving a row or column), the basis of the last
    /// optimum is edited alongside, and only coefficient segments touched by the
    /// aggregate-rate rescaling are rewritten. `false` means one thing,
    /// for both planners: the assembly is forgotten before every solve
    /// and the members re-placed in admission order — the same
    /// [`Problem`](dmc_lp::Problem) a from-scratch build produces, kept
    /// as the differential baseline (see
    /// `tests/incremental_vs_rebuild.rs`).
    pub incremental: bool,
    /// Replay the feasibility certificate ([`dmc_lp::Solution::certify`])
    /// after **every** joint solve, even in release builds (default
    /// `false`: debug builds always certify, release builds skip it).
    /// Fault-injection harnesses turn this on so a bogus vertex aborts
    /// the run at the solve that produced it.
    pub certify: bool,
    /// Telemetry registry (default disabled). When enabled the planner
    /// records admission outcomes (`fleet.admits`, `fleet.refusals`),
    /// shed-queue traffic (`fleet.sheds`, `fleet.revives`,
    /// `fleet.shed_rejects`, the `fleet.shed_queue` gauge), departures
    /// and joint warm-start outcomes (`fleet.warm_*`). If
    /// `planner.solver.obs` is left disabled, [`FleetPlanner::new`]
    /// propagates this registry into it so the `lp.*` metrics of the
    /// per-flow and joint solves land in the same snapshot.
    pub obs: dmc_obs::Obs,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            objective: FleetObjective::default(),
            planner: PlannerConfig::default(),
            joint_backend: Backend::Sparse,
            incremental: true,
            certify: false,
            obs: dmc_obs::Obs::disabled(),
        }
    }
}

/// Outcome of one [`FleetPlanner::offer`].
#[derive(Debug, Clone)]
pub enum AdmissionDecision {
    /// The flow is in: the joint LP with its floor is feasible.
    Admitted {
        /// The assigned flow id.
        id: FlowId,
        /// The flow's predicted in-time delivery fraction under the joint
        /// allocation (≥ its floor).
        predicted_quality: f64,
    },
    /// The flow is out: no allocation of the remaining shared capacity
    /// meets its floor alongside every incumbent's.
    Rejected {
        /// The id the offer consumed (ids are offer-ordered; see
        /// [`FlowId`]).
        id: FlowId,
        /// Human-readable reason.
        reason: String,
    },
}

impl AdmissionDecision {
    /// Whether the flow was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted { .. })
    }

    /// The flow id this decision is about.
    pub fn id(&self) -> FlowId {
        match self {
            AdmissionDecision::Admitted { id, .. } | AdmissionDecision::Rejected { id, .. } => *id,
        }
    }
}

/// Cap on the capacity-event backoff between re-admission attempts of a
/// shed flow (`2^MAX_SHED_ATTEMPTS-1 - 1`, so the total horizon telescopes
/// to [`FleetPlanner::SHED_HORIZON`]).
const SHED_SKIP_CAP: u32 = 7;

/// A flow displaced by a capacity loss, queued for re-admission.
///
/// The flow keeps its [`FlowId`] and its last-known-good [`Plan`]; each
/// failed re-admission attempt doubles the number of capacity events the
/// flow then sits out (capped at [`SHED_SKIP_CAP`]), and after
/// [`FleetPlanner::MAX_SHED_ATTEMPTS`] failures it is definitively
/// rejected — so every shed flow leaves the queue within
/// [`FleetPlanner::SHED_HORIZON`] capacity events.
#[derive(Debug)]
struct ShedFlow {
    id: FlowId,
    /// The flow's request, in the instant window every flow of this
    /// planner is served in.
    request: ScheduleRequest,
    /// The plan the flow held when it was shed (returned if the tenant
    /// withdraws the flow while it waits).
    plan: Plan,
    /// Failed re-admission attempts so far.
    attempts: u32,
    /// Capacity events to skip before the next attempt.
    skip: u32,
}

/// The multi-tenant flow service: owns the shared paths, admits flows,
/// and keeps a joint allocation current as flows arrive, depart and links
/// change.
///
/// ```
/// use dmc_core::ScenarioPath;
/// use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};
///
/// # fn main() -> Result<(), dmc_fleet::FleetError> {
/// // Two shared links (the paper's Table III pair).
/// let mut fleet = FleetPlanner::new(
///     vec![
///         ScenarioPath::constant(80e6, 0.450, 0.2)?,
///         ScenarioPath::constant(20e6, 0.150, 0.0)?,
///     ],
///     FleetConfig::default(),
/// )?;
/// // A strict flow and a best-effort one contend for the same links.
/// let strict = fleet.offer(FlowRequest::new(30e6, 0.750)?.with_min_quality(0.95))?;
/// let bulk = fleet.offer(FlowRequest::new(60e6, 0.800)?)?;
/// assert!(strict.is_admitted() && bulk.is_admitted());
/// // The joint allocation never oversubscribes a link…
/// assert!(fleet.utilization().iter().all(|&u| u <= 1.0 + 1e-9));
/// // …and the strict flow's floor is honored.
/// assert!(fleet.plan_of(strict.id()).unwrap().quality() >= 0.95 - 1e-9);
/// // Departures re-solve for the survivors (warm-started).
/// fleet.depart(strict.id())?;
/// assert_eq!(fleet.num_flows(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FleetPlanner {
    /// The joint LP and the roster of admitted flows, over a private
    /// one-slot grid.
    core: JointCore,
    /// Flows displaced by capacity losses, awaiting re-admission.
    shed: Vec<ShedFlow>,
    /// Flows that exhausted their re-admission attempts (cumulative).
    shed_rejected: Vec<FlowId>,
    /// Flows revived from the shed queue (cumulative, in revival order).
    revived: Vec<FlowId>,
}

impl FleetPlanner {
    /// A fleet over `paths` — the shared links every flow contends for.
    ///
    /// # Errors
    ///
    /// Rejects an empty path set and paths whose delay distribution has a
    /// non-finite mean.
    pub fn new(paths: Vec<ScenarioPath>, config: FleetConfig) -> Result<Self, FleetError> {
        let instant = TimeGrid::new(1.0, 1)?;
        Ok(FleetPlanner {
            core: JointCore::new(paths, instant, config)?,
            shed: Vec::new(),
            shed_rejected: Vec::new(),
            revived: Vec::new(),
        })
    }

    /// Re-admission attempts a shed flow gets before it is definitively
    /// rejected.
    pub const MAX_SHED_ATTEMPTS: u32 = 4;

    /// Upper bound, in capacity events (link changes and departures), on
    /// how long a shed flow can sit in the re-admission queue before it is
    /// either revived or definitively rejected: attempt `a` is followed by
    /// `min(2^a - 1, 7)` skipped events, so the schedule telescopes to
    /// `1 + 2 + 4 + 8 = 2^MAX_SHED_ATTEMPTS - 1` events.
    pub const SHED_HORIZON: usize = (1 << Self::MAX_SHED_ATTEMPTS) - 1;

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.core.config
    }

    /// Offers one flow for admission.
    ///
    /// Admitted flows immediately receive a [`Plan`] (see
    /// [`FleetPlanner::plan_of`]) and every incumbent's plan is refreshed
    /// to the new joint allocation. A rejection leaves the incumbents'
    /// allocation untouched.
    ///
    /// This is [`FleetPlanner::offer_batch`] with one request.
    ///
    /// # Errors
    ///
    /// Invalid scenarios and non-infeasibility solver failures; a floor
    /// that cannot be met is a [`AdmissionDecision::Rejected`], not an
    /// error.
    pub fn offer(&mut self, request: FlowRequest) -> Result<AdmissionDecision, FleetError> {
        let mut decisions = self.offer_batch(vec![request])?;
        Ok(decisions.pop().expect("one decision per offered flow"))
    }

    /// Offers a batch of flows.
    ///
    /// First tries to admit the whole batch with **one** joint solve; only
    /// if that is infeasible does it fall back to greedy per-flow
    /// admission — deadline-ordered (earliest deadline first, the
    /// DDCCast/ALAP flavor) under [`FleetObjective::MaxAdmitted`], in
    /// arrival order otherwise. A batch of one has no fallback: the solve
    /// that refused the batch refused the flow. Ids are assigned in input
    /// order either way, and decisions are returned in input order.
    ///
    /// # Errors
    ///
    /// As [`FleetPlanner::offer`].
    pub fn offer_batch(
        &mut self,
        requests: Vec<FlowRequest>,
    ) -> Result<Vec<AdmissionDecision>, FleetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = Vec::with_capacity(requests.len());
        for request in requests {
            batch.push(self.candidate(request)?);
        }
        let ids: Vec<FlowId> = batch.iter().map(|m| m.id).collect();
        // Fast path: the whole batch in one solve.
        match self.core.admit_all(batch)? {
            Ok(qualities) => {
                let obs = &self.core.config.obs;
                obs.counter("fleet.admits").add(ids.len() as u64);
                let verdicts = ids.into_iter().zip(qualities);
                Ok(verdicts.map(|(id, q)| decision(id, Ok(q))).collect())
            }
            Err(batch) if batch.len() == 1 => {
                self.core.config.obs.counter("fleet.refusals").inc();
                Ok(batch.into_iter().map(|m| decision(m.id, Err(m))).collect())
            }
            Err(mut batch) => {
                // Greedy fallback; by deadline in MaxAdmitted mode (the
                // sort is stable: arrival order within ties).
                if self.core.config.objective == FleetObjective::MaxAdmitted {
                    batch.sort_by(|a, b| {
                        let (a, b) = (a.flow().lifetime(), b.flow().lifetime());
                        a.partial_cmp(&b).expect("finite lifetimes")
                    });
                }
                let mut decisions = Vec::with_capacity(batch.len());
                for candidate in batch {
                    let id = candidate.id;
                    decisions.push(decision(id, self.admit(candidate)?));
                }
                // Back to input order, which is id order.
                decisions.sort_by_key(AdmissionDecision::id);
                Ok(decisions)
            }
        }
    }

    /// Removes an admitted flow and re-solves the joint allocation for
    /// the survivors (from the carried basis when the freed capacity
    /// leaves it feasible, cold otherwise). Returns the departing flow's
    /// last plan.
    ///
    /// The re-solve only ever *relaxes* the problem, so every surviving
    /// flow keeps meeting its floor (the `admission_invariants` test pins
    /// this).
    ///
    /// Departing a flow that sits in the **re-admission queue** (shed by
    /// a capacity loss, not yet revived) withdraws it from the queue and
    /// returns the plan it held when it was shed.
    ///
    /// A departure frees capacity, so it also runs one re-admission sweep
    /// over the shed queue (see [`FleetPlanner::shed_flows`]).
    ///
    /// This is [`FleetPlanner::depart_batch`] with one id.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownFlow`] for ids never admitted or already
    /// gone.
    pub fn depart(&mut self, id: FlowId) -> Result<Plan, FleetError> {
        let mut plans = self.depart_batch(&[id])?;
        Ok(plans.pop().expect("one plan per departed id"))
    }

    /// Removes a batch of flows with **one** joint re-solve and **one**
    /// re-admission sweep, instead of one of each per departure — the
    /// batched-tick counterpart of [`FleetPlanner::offer_batch`], so a
    /// service draining a tick's worth of departures counts as a single
    /// capacity event for the shed queue's backoff schedule. Returns each
    /// flow's last plan, in input order. Ids may name admitted flows or
    /// flows waiting in the re-admission queue (withdrawn, exactly like
    /// [`FleetPlanner::depart`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownFlow`] if any id is unknown or repeated; the
    /// fleet is left untouched in that case.
    pub fn depart_batch(&mut self, ids: &[FlowId]) -> Result<Vec<Plan>, FleetError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let mut seen = std::collections::BTreeSet::new();
        for &id in ids {
            let known = self.core.resident(id).is_some() || self.shed.iter().any(|s| s.id == id);
            if !known || !seen.insert(id) {
                return Err(FleetError::UnknownFlow(id));
            }
        }
        let obs = &self.core.config.obs;
        obs.counter("fleet.departs").add(ids.len() as u64);
        let mut plans = Vec::with_capacity(ids.len());
        let mut removed_admitted = false;
        for &id in ids {
            if let Some(resident) = self.core.remove(id) {
                plans.push(resident.plan);
                removed_admitted = true;
            } else {
                let pos = self
                    .shed
                    .iter()
                    .position(|s| s.id == id)
                    .expect("validated as known above");
                plans.push(self.shed.remove(pos).plan);
                self.core.config.obs.gauge("fleet.shed_queue").sub(1);
            }
        }
        if removed_admitted {
            self.core.resolve().map_err(FleetError::Solve)?;
            self.revive_shed()?;
        }
        Ok(plans)
    }

    /// Applies one link change to a shared path (reusing the
    /// [`dmc_sim::LinkChange`] vocabulary: `Fail`/`Recover`/
    /// `SetBandwidth`/`SetLoss`) and re-solves the joint allocation.
    ///
    /// A failed path plans as loss 1 (it can carry nothing in time); a
    /// [`LinkChange::SetLoss`] plans against the model's stationary loss
    /// rate, exactly as the single-flow LP does for Gilbert–Elliott
    /// links. If the change makes the admitted floors collectively
    /// infeasible, flows are deterministically re-admitted highest
    /// priority first (admission order within ties) and the ones that no
    /// longer fit are **shed** into the re-admission queue (see
    /// [`FleetPlanner::shed_flows`]); the returned ids name them (empty
    /// when everyone still fits). Every link change also runs one
    /// re-admission sweep over the *previously* shed flows, reviving —
    /// under their original ids — those the changed capacity again
    /// accommodates.
    ///
    /// # Errors
    ///
    /// Bad path index, invalid change parameters, or a solver failure.
    pub fn apply_link_change(
        &mut self,
        path: usize,
        change: &LinkChange,
    ) -> Result<Vec<FlowId>, FleetError> {
        self.core.apply_link_change(path, change)?;
        // Resettle the incumbents first, then give the previously shed
        // flows their re-admission sweep, and only then enqueue the newly
        // shed ones — the event that displaced them is no occasion to
        // retry them.
        let newly_shed = self.resettle()?;
        self.revive_shed()?;
        let ids: Vec<FlowId> = newly_shed.iter().map(|s| s.id).collect();
        let obs = &self.core.config.obs;
        obs.counter("fleet.sheds").add(newly_shed.len() as u64);
        obs.gauge("fleet.shed_queue").add(newly_shed.len() as i64);
        self.shed.extend(newly_shed);
        Ok(ids)
    }

    /// Ids currently queued for re-admission after being shed by a
    /// capacity loss, in queue order (the deterministic attempt order:
    /// highest priority first, admission order within ties, refreshed at
    /// every sweep).
    pub fn shed_flows(&self) -> Vec<FlowId> {
        self.shed.iter().map(|s| s.id).collect()
    }

    /// Ids definitively rejected after exhausting their
    /// [`FleetPlanner::MAX_SHED_ATTEMPTS`] re-admission attempts, in
    /// rejection order. The list accumulates from construction — or from
    /// the last [`FleetPlanner::drain_shed_rejected`] call, for
    /// long-lived services that consume these as per-event notifications.
    pub fn shed_rejected(&self) -> &[FlowId] {
        &self.shed_rejected
    }

    /// Ids revived from the shed queue, in revival order. A revived flow
    /// keeps its original [`FlowId`]. Like
    /// [`FleetPlanner::shed_rejected`], the list accumulates from
    /// construction or from the last [`FleetPlanner::drain_revived`]
    /// call.
    pub fn revived_flows(&self) -> &[FlowId] {
        &self.revived
    }

    /// Removes and returns the revived-flow events recorded since
    /// construction or the last drain (in revival order), resetting
    /// [`FleetPlanner::revived_flows`] to empty.
    ///
    /// Long-lived services must drain these lists once per event/tick:
    /// before the drain API existed they grew without bound and every
    /// consumer re-reported stale events from earlier outages.
    pub fn drain_revived(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.revived)
    }

    /// Removes and returns the definitive-rejection events recorded since
    /// construction or the last drain (in rejection order), resetting
    /// [`FleetPlanner::shed_rejected`] to empty. See
    /// [`FleetPlanner::drain_revived`].
    pub fn drain_shed_rejected(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.shed_rejected)
    }

    /// Cold re-solves forced by a warm-start anomaly — a singular basis
    /// or a pivot-cap abort on the warm path. Each one dropped the cached
    /// basis and retried cold instead of failing the operation.
    ///
    /// MIGRATION: mirrored onto the `fleet.warm_anomalies` counter of
    /// [`FleetConfig::obs`]; this accessor stays per-planner (a shared
    /// registry aggregates across planners and replays).
    pub fn warm_anomalies(&self) -> u64 {
        self.core.warm_anomalies()
    }

    /// Number of admitted flows.
    pub fn num_flows(&self) -> usize {
        self.core.residents().len()
    }

    /// Whether no flow is admitted.
    pub fn is_empty(&self) -> bool {
        self.core.residents().is_empty()
    }

    /// Ids of the admitted flows, in admission order.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        self.core.ids()
    }

    /// The current plan of an admitted flow — an ordinary single-flow
    /// [`Plan`] (its strategy respects the flow's slice of the shared
    /// capacity), so `run_plan`, `DmcSender::from_plan` and
    /// `AdaptiveSender` consume it unchanged.
    pub fn plan_of(&self, id: FlowId) -> Option<&Plan> {
        self.core.resident(id).map(|r| &r.plan)
    }

    /// `(id, plan)` for every admitted flow, in admission order.
    pub fn plans(&self) -> impl Iterator<Item = (FlowId, &Plan)> {
        self.core.residents().iter().map(|r| (r.member.id, &r.plan))
    }

    /// The effective shared paths the joint LP currently plans against
    /// (failed paths appear with loss 1).
    ///
    /// # Errors
    ///
    /// Never fails in practice (paths were validated on entry).
    pub fn shared_paths(&self) -> Result<Vec<ScenarioPath>, FleetError> {
        self.core.shared_paths()
    }

    /// Per-path utilization: the admitted flows' summed send rates over
    /// the path's current bandwidth. The joint capacity rows keep every
    /// entry ≤ 1 (within solver tolerance). A flow restricted to a path
    /// subset contributes only to the paths it uses (its plan's send
    /// rates are indexed by its own subset).
    pub fn utilization(&self) -> Vec<f64> {
        let mut util = vec![0.0; self.core.paths.len()];
        for r in self.core.residents() {
            match r.member.flow().paths() {
                None => {
                    for (u, rate) in util.iter_mut().zip(r.plan.send_rates()) {
                        *u += rate;
                    }
                }
                Some(subset) => {
                    for (&k, rate) in subset.iter().zip(r.plan.send_rates()) {
                        util[k] += rate;
                    }
                }
            }
        }
        for (u, p) in util.iter_mut().zip(&self.core.paths) {
            *u /= p.bandwidth;
        }
        util
    }

    /// Aggregate in-time goodput of the admitted flows, bits/second
    /// (`Σ_f λ_f Q_f`).
    pub fn total_goodput(&self) -> f64 {
        let residents = self.core.residents().iter();
        residents
            .map(|r| r.member.flow().data_rate() * r.plan.quality())
            .sum()
    }

    /// Rate-weighted mean quality of the admitted flows (the joint LP's
    /// `MaxTotalQuality` objective value; 0 with no flows).
    pub fn aggregate_quality(&self) -> f64 {
        let residents = self.core.residents().iter();
        let lambda_tot: f64 = residents.map(|r| r.member.flow().data_rate()).sum();
        if lambda_tot <= 0.0 {
            return 0.0;
        }
        self.total_goodput() / lambda_tot
    }

    /// Warm-start counters of the joint solves: of the solves that had a
    /// carried basis to start from, `hits` started from it — whether
    /// they ended in an admission or a refusal — and `misses` found it
    /// infeasible and restarted cold.
    ///
    /// MIGRATION: the same events are mirrored onto the `dmc_obs`
    /// counters `fleet.warm_hits` / `fleet.warm_misses` of
    /// [`FleetConfig::obs`] when that registry is enabled; prefer the
    /// registry for exported telemetry.
    pub fn warm_stats(&self) -> WarmStats {
        self.core.warm_stats()
    }

    /// Whether the joint LP currently carries the basis of its last
    /// optimum: 1, or 0 (before the first solve, after a link change,
    /// compaction or anomaly, and always with warm starts off).
    pub fn cached_bases(&self) -> usize {
        self.core.cached_bases()
    }

    /// Drops the carried basis (the next solve starts cold).
    pub fn clear_warm_cache(&mut self) {
        self.core.clear_warm_cache();
    }

    /// Gives a request the next flow id and its model against the
    /// current shared paths.
    fn candidate(&mut self, request: FlowRequest) -> Result<Member, FleetError> {
        let id = self.core.next_id();
        let model = self.core.flow_model(&request)?;
        let request = ScheduleRequest::new(request, SlotWindow::instant(0));
        Ok(Member { id, request, model })
    }

    /// One counted admission attempt — an offer of the greedy fallback,
    /// a revive or a re-settle alike: the candidate joins the fleet (its
    /// predicted quality) or comes back, the incumbents untouched.
    fn admit(&mut self, candidate: Member) -> Result<Result<f64, Member>, FleetError> {
        let verdict = self.core.admit(candidate)?;
        let outcome = match verdict {
            Ok(_) => "fleet.admits",
            Err(_) => "fleet.refusals",
        };
        self.core.config.obs.counter(outcome).inc();
        Ok(verdict)
    }

    /// Re-solves after a link change; on collective infeasibility,
    /// re-admits greedily highest priority first
    /// ([`FlowRequest::priority`], admission order within ties — so
    /// equal-priority fleets shed exactly as they always did) and returns
    /// the displaced flows for the caller to enqueue.
    fn resettle(&mut self) -> Result<Vec<ShedFlow>, FleetError> {
        match self.core.resolve() {
            Ok(()) => Ok(Vec::new()),
            Err(SolveError::Infeasible { .. }) => {
                let mut shed = Vec::new();
                for evicted in self.core.evict_all() {
                    if let Err(refused) = self.admit(evicted.member)? {
                        shed.push(ShedFlow {
                            id: refused.id,
                            request: refused.request,
                            plan: evicted.plan,
                            attempts: 0,
                            skip: 0,
                        });
                    }
                }
                Ok(shed)
            }
            Err(e) => Err(FleetError::Solve(e)),
        }
    }

    /// One re-admission sweep over the shed queue, run after every
    /// capacity-affecting event (link change or departure).
    ///
    /// Flows are tried highest priority first (admission order within
    /// ties). Each failed attempt puts the flow back with an
    /// exponentially growing event-skip (capped at [`SHED_SKIP_CAP`]);
    /// after [`FleetPlanner::MAX_SHED_ATTEMPTS`] failures the flow is
    /// definitively rejected, bounding every shed flow's queue residence
    /// by [`FleetPlanner::SHED_HORIZON`] capacity events.
    fn revive_shed(&mut self) -> Result<(), FleetError> {
        if self.shed.is_empty() {
            return Ok(());
        }
        self.shed
            .sort_by(|a, b| readmission_order((a.request.flow(), a.id), (b.request.flow(), b.id)));
        let queue = std::mem::take(&mut self.shed);
        for mut s in queue {
            if s.skip > 0 {
                s.skip -= 1;
                self.shed.push(s);
                continue;
            }
            let model = self.core.flow_model(s.request.flow())?;
            let (id, request) = (s.id, s.request);
            match self.admit(Member { id, request, model })? {
                Ok(_) => {
                    self.core.config.obs.counter("fleet.revives").inc();
                    self.core.config.obs.gauge("fleet.shed_queue").sub(1);
                    self.revived.push(s.id);
                }
                Err(refused) => {
                    s.request = refused.request;
                    s.attempts += 1;
                    if s.attempts >= Self::MAX_SHED_ATTEMPTS {
                        self.core.config.obs.counter("fleet.shed_rejects").inc();
                        self.core.config.obs.gauge("fleet.shed_queue").sub(1);
                        self.shed_rejected.push(s.id);
                    } else {
                        s.skip = ((1u32 << s.attempts) - 1).min(SHED_SKIP_CAP);
                        self.shed.push(s);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The public verdict on flow `id`: its predicted quality, or — the
/// candidate came back — the refusal.
fn decision(id: FlowId, verdict: Result<f64, Member>) -> AdmissionDecision {
    match verdict {
        Ok(predicted_quality) => AdmissionDecision::Admitted {
            id,
            predicted_quality,
        },
        Err(_) => AdmissionDecision::Rejected {
            id,
            reason: "the remaining shared capacity cannot meet this flow's quality \
                     floor alongside every admitted flow's"
                .into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table3_paths() -> Vec<ScenarioPath> {
        vec![
            ScenarioPath::constant(80e6, 0.450, 0.2).unwrap(),
            ScenarioPath::constant(20e6, 0.150, 0.0).unwrap(),
        ]
    }

    fn fleet() -> FleetPlanner {
        FleetPlanner::new(table3_paths(), FleetConfig::default()).unwrap()
    }

    #[test]
    fn empty_or_dead_path_sets_are_rejected() {
        assert!(FleetPlanner::new(Vec::new(), FleetConfig::default()).is_err());
        let dead = vec![ScenarioPath::constant(1e6, f64::INFINITY, 0.0).unwrap()];
        assert!(FleetPlanner::new(dead, FleetConfig::default()).is_err());
    }

    #[test]
    fn best_effort_flows_are_always_admitted() {
        let mut fleet = fleet();
        // Even gross overload is feasible: the blackhole absorbs it.
        for i in 0..3 {
            let d = fleet.offer(FlowRequest::new(90e6, 0.8).unwrap()).unwrap();
            assert!(d.is_admitted(), "offer {i}");
        }
        assert_eq!(fleet.num_flows(), 3);
        assert!(fleet.utilization().iter().all(|&u| u <= 1.0 + 1e-9));
        // Capacity is shared: three 90 Mbps flows over 100 Mbps of links
        // cannot all exceed 1/3 mean quality by much.
        assert!(fleet.aggregate_quality() < 0.45);
    }

    #[test]
    fn floors_drive_rejection_and_incumbents_are_untouched() {
        let mut fleet = fleet();
        let a = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        assert!(a.is_admitted());
        let a_plan = fleet.plan_of(a.id()).unwrap().clone();
        // A second strict flow of the same size cannot also get 90 % out
        // of the remaining ~40 Mbps of capacity.
        let b = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        assert!(!b.is_admitted());
        // The incumbent's allocation did not move.
        assert_eq!(
            fleet.plan_of(a.id()).unwrap().strategy().x(),
            a_plan.strategy().x()
        );
        assert_eq!(fleet.num_flows(), 1);
        assert!(fleet.plan_of(b.id()).is_none());
        // A modest flow still fits.
        let c = fleet
            .offer(FlowRequest::new(20e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        assert!(c.is_admitted());
        for (_, plan) in fleet.plans() {
            assert!(plan.quality() >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn a_refused_flow_costs_one_solve_whichever_door_it_takes() {
        // A batch of one that the whole-batch solve refuses used to fall
        // into the greedy pass and solve the identical LP a second time.
        let hopeless = || FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9);
        let doors: [fn(&mut FleetPlanner, FlowRequest) -> AdmissionDecision; 2] = [
            |fleet, r| fleet.offer(r).unwrap(),
            |fleet, r| fleet.offer_batch(vec![r]).unwrap().remove(0),
        ];
        for door in doors {
            let obs = dmc_obs::Obs::enabled();
            let config = FleetConfig {
                obs: obs.clone(),
                ..FleetConfig::default()
            };
            let mut fleet = FleetPlanner::new(table3_paths(), config).unwrap();
            assert!(fleet.offer(hopeless()).unwrap().is_admitted());
            let before = obs.snapshot();
            assert!(!door(&mut fleet, hopeless()).is_admitted());
            let after = obs.snapshot();
            let moved = |name| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
            assert_eq!(moved("lp.solves"), 1);
            assert_eq!(moved("fleet.refusals"), 1);
            assert_eq!(moved("fleet.admits"), 0);
        }
    }

    #[test]
    fn departures_relax_and_unknown_ids_error() {
        let mut fleet = fleet();
        let a = fleet
            .offer(FlowRequest::new(50e6, 0.8).unwrap().with_min_quality(0.8))
            .unwrap();
        let b = fleet.offer(FlowRequest::new(50e6, 0.8).unwrap()).unwrap();
        let q_b_before = fleet.plan_of(b.id()).unwrap().quality();
        let departed = fleet.depart(a.id()).unwrap();
        assert!(departed.quality() >= 0.8 - 1e-9);
        // The survivor can only gain from the freed capacity.
        assert!(fleet.plan_of(b.id()).unwrap().quality() >= q_b_before - 1e-9);
        assert!(matches!(
            fleet.depart(a.id()),
            Err(FleetError::UnknownFlow(_))
        ));
    }

    #[test]
    fn link_failure_sheds_only_what_no_longer_fits_and_recovery_revives_it() {
        let mut fleet = fleet();
        // Fits only thanks to path 0: 60 Mbps at 90 %.
        let big = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        // Fits on path 1 alone: 10 Mbps, lossless link.
        let small = fleet
            .offer(FlowRequest::new(10e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        assert!(big.is_admitted() && small.is_admitted());
        let shed = fleet.apply_link_change(0, &LinkChange::Fail).unwrap();
        assert_eq!(shed, vec![big.id()]);
        assert_eq!(fleet.flow_ids(), vec![small.id()]);
        assert_eq!(fleet.shed_flows(), vec![big.id()]);
        assert!(fleet.plan_of(small.id()).unwrap().quality() >= 0.9 - 1e-9);
        // Recovery sheds nothing and revives the queued flow under its
        // original id, floor met again.
        let shed = fleet.apply_link_change(0, &LinkChange::Recover).unwrap();
        assert!(shed.is_empty());
        assert!(fleet.shed_flows().is_empty());
        assert_eq!(fleet.revived_flows(), &[big.id()]);
        assert!(fleet.flow_ids().contains(&big.id()));
        assert!(fleet.plan_of(big.id()).unwrap().quality() >= 0.9 - 1e-9);
        assert!(fleet.shed_rejected().is_empty());
    }

    #[test]
    fn shedding_is_priority_ordered_lowest_first() {
        // Two flows that both fit initially but cannot share the thin
        // clean path once the fat one fails. The *lower-priority* flow is
        // shed even though it was admitted first.
        let mut ranked = fleet();
        let lo = ranked
            .offer(FlowRequest::new(15e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        let hi = ranked
            .offer(
                FlowRequest::new(15e6, 0.8)
                    .unwrap()
                    .with_min_quality(0.9)
                    .with_priority(4.0),
            )
            .unwrap();
        assert!(lo.is_admitted() && hi.is_admitted());
        let shed = ranked.apply_link_change(0, &LinkChange::Fail).unwrap();
        assert_eq!(shed, vec![lo.id()]);
        assert_eq!(ranked.flow_ids(), vec![hi.id()]);
        // Equal priorities break ties by admission order: rerun with the
        // priorities leveled and the *second* arrival is shed instead.
        let mut tied = fleet();
        let first = tied
            .offer(FlowRequest::new(15e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        let second = tied
            .offer(FlowRequest::new(15e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        assert!(first.is_admitted() && second.is_admitted());
        let shed = tied.apply_link_change(0, &LinkChange::Fail).unwrap();
        assert_eq!(shed, vec![second.id()]);
        assert_eq!(tied.flow_ids(), vec![first.id()]);
    }

    #[test]
    fn shed_flow_backs_off_and_is_definitively_rejected_within_the_horizon() {
        let mut fleet = fleet();
        let big = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        let small = fleet
            .offer(FlowRequest::new(10e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        fleet.apply_link_change(0, &LinkChange::Fail).unwrap();
        assert_eq!(fleet.shed_flows(), vec![big.id()]);
        // Capacity never returns; every subsequent event runs one sweep.
        // The flow must leave the queue within SHED_HORIZON events.
        let mut events = 0;
        while !fleet.shed_flows().is_empty() {
            fleet
                .apply_link_change(1, &LinkChange::SetBandwidth(20e6))
                .unwrap();
            events += 1;
            assert!(
                events <= FleetPlanner::SHED_HORIZON,
                "flow still queued after {events} capacity events"
            );
        }
        assert_eq!(events, FleetPlanner::SHED_HORIZON);
        assert_eq!(fleet.shed_rejected(), &[big.id()]);
        assert!(fleet.revived_flows().is_empty());
        // The survivor was never disturbed.
        assert_eq!(fleet.flow_ids(), vec![small.id()]);
        assert!(fleet.plan_of(small.id()).unwrap().quality() >= 0.9 - 1e-9);
    }

    #[test]
    fn departing_a_shed_flow_withdraws_it_from_the_queue() {
        let mut fleet = fleet();
        let big = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        fleet
            .offer(FlowRequest::new(10e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        fleet.apply_link_change(0, &LinkChange::Fail).unwrap();
        assert_eq!(fleet.shed_flows(), vec![big.id()]);
        // The tenant gives up while the flow waits: it returns the plan
        // it held when it was shed, and recovery revives nothing.
        let last_plan = fleet.depart(big.id()).unwrap();
        assert!(last_plan.quality() >= 0.9 - 1e-9);
        assert!(fleet.shed_flows().is_empty());
        fleet.apply_link_change(0, &LinkChange::Recover).unwrap();
        assert!(fleet.revived_flows().is_empty());
        assert_eq!(fleet.num_flows(), 1);
    }

    #[test]
    fn event_lists_drain_per_event_across_successive_outages() {
        let mut fleet = fleet();
        let big = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        fleet
            .offer(FlowRequest::new(10e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        // Outage 1: the big flow is shed, recovery revives it.
        fleet.apply_link_change(0, &LinkChange::Fail).unwrap();
        fleet.apply_link_change(0, &LinkChange::Recover).unwrap();
        assert_eq!(fleet.drain_revived(), vec![big.id()]);
        assert!(fleet.revived_flows().is_empty());
        assert!(fleet.drain_shed_rejected().is_empty());
        // Outage 2: the drained view must report *this* event's revival
        // exactly once. Before the drain API the lists were
        // cumulative-only, so a service polling after the second outage
        // re-reported the first outage's revival as if it were new.
        fleet.apply_link_change(0, &LinkChange::Fail).unwrap();
        fleet.apply_link_change(0, &LinkChange::Recover).unwrap();
        assert_eq!(fleet.drain_revived(), vec![big.id()]);
        assert!(fleet.drain_revived().is_empty());
        assert!(fleet.drain_shed_rejected().is_empty());
    }

    #[test]
    fn partial_batch_failure_rolls_back_and_admits_what_fits() {
        let mut fleet = fleet();
        // The whole batch cannot fit (two 60 Mbps flows at 90 % on
        // ~100 Mbps of links), so the single-solve fast path fails and
        // the greedy fallback must roll its tentative placements back
        // per candidate without corrupting the assembly.
        let decisions = fleet
            .offer_batch(vec![
                FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9),
                FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9),
                FlowRequest::new(10e6, 0.8).unwrap().with_min_quality(0.5),
            ])
            .unwrap();
        let admitted: Vec<bool> = decisions
            .iter()
            .map(AdmissionDecision::is_admitted)
            .collect();
        assert_eq!(admitted, vec![true, false, true]);
        assert_eq!(fleet.num_flows(), 2);
        for (_, plan) in fleet.plans() {
            assert!(plan.quality() >= 0.5 - 1e-9);
        }
        assert!(fleet.utilization().iter().all(|&u| u <= 1.0 + 1e-9));
        // The assembly survived the mid-batch refusal: later churn on the
        // same assembly still works.
        let later = fleet
            .offer(FlowRequest::new(5e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        assert!(later.is_admitted());
        fleet.depart(later.id()).unwrap();
        assert_eq!(fleet.num_flows(), 2);
    }

    #[test]
    fn depart_batch_matches_sequential_departs() {
        let admit_four = |fleet: &mut FleetPlanner| -> Vec<FlowId> {
            [
                FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.6),
                FlowRequest::new(20e6, 0.6).unwrap(),
                FlowRequest::new(15e6, 1.0).unwrap().with_min_quality(0.4),
                FlowRequest::new(10e6, 0.9).unwrap(),
            ]
            .into_iter()
            .map(|r| {
                let d = fleet.offer(r).unwrap();
                assert!(d.is_admitted());
                d.id()
            })
            .collect()
        };
        let mut batched = fleet();
        let ids = admit_four(&mut batched);
        let mut sequential = fleet();
        let seq_ids = admit_four(&mut sequential);
        assert_eq!(ids, seq_ids);
        let plans = batched.depart_batch(&[ids[0], ids[2]]).unwrap();
        assert_eq!(plans.len(), 2);
        let p0 = sequential.depart(ids[0]).unwrap();
        let p2 = sequential.depart(ids[2]).unwrap();
        assert_eq!(plans[0].strategy().x(), p0.strategy().x());
        assert_eq!(plans[1].strategy().x(), p2.strategy().x());
        // Same survivors, same final joint LP, same plans.
        assert_eq!(batched.flow_ids(), sequential.flow_ids());
        for (id, plan) in batched.plans() {
            assert_eq!(
                plan.strategy().x(),
                sequential.plan_of(id).unwrap().strategy().x(),
                "{id}"
            );
        }
        // Unknown or repeated ids leave the fleet untouched.
        assert!(matches!(
            batched.depart_batch(&[ids[1], ids[0]]),
            Err(FleetError::UnknownFlow(_))
        ));
        assert!(matches!(
            batched.depart_batch(&[ids[1], ids[1]]),
            Err(FleetError::UnknownFlow(_))
        ));
        assert_eq!(batched.num_flows(), 2);
        assert!(batched.depart_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn every_departure_is_counted_once_whichever_door_it_takes() {
        let obs = dmc_obs::Obs::enabled();
        let config = FleetConfig {
            obs: obs.clone(),
            ..FleetConfig::default()
        };
        let mut fleet = FleetPlanner::new(table3_paths(), config).unwrap();
        let big = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        let ids: Vec<FlowId> = (0..3)
            .map(|_| {
                fleet
                    .offer(FlowRequest::new(5e6, 0.8).unwrap())
                    .unwrap()
                    .id()
            })
            .collect();
        fleet.depart(ids[0]).unwrap();
        fleet.depart_batch(&[ids[1], ids[2]]).unwrap();
        assert_eq!(obs.snapshot().counter("fleet.departs"), Some(3));
        // A refused batch counts nothing.
        assert!(fleet.depart_batch(&[big.id(), ids[0]]).is_err());
        assert_eq!(obs.snapshot().counter("fleet.departs"), Some(3));
        // A shed flow withdrawn through the batch door leaves the queue
        // gauge where the queue is: empty.
        fleet.apply_link_change(0, &LinkChange::Fail).unwrap();
        assert_eq!(fleet.shed_flows(), vec![big.id()]);
        assert_eq!(obs.snapshot().gauge("fleet.shed_queue"), Some(1));
        fleet.depart_batch(&[big.id()]).unwrap();
        assert_eq!(obs.snapshot().gauge("fleet.shed_queue"), Some(0));
        assert_eq!(obs.snapshot().counter("fleet.departs"), Some(4));
    }

    #[test]
    fn path_subsets_restrict_usage_and_match_a_restricted_fleet() {
        let mut fleet = fleet();
        let restricted = fleet
            .offer(
                FlowRequest::new(15e6, 0.8)
                    .unwrap()
                    .with_min_quality(0.5)
                    .with_paths(vec![1]),
            )
            .unwrap();
        assert!(restricted.is_admitted());
        // The flow consumes nothing on the path it renounced.
        let util = fleet.utilization();
        assert!(util[0].abs() < 1e-12, "path 0 utilization {}", util[0]);
        assert!(util[1] > 0.0);
        // It plans exactly like the same flow on a fleet that only has
        // that path.
        let mut solo =
            FleetPlanner::new(vec![table3_paths()[1].clone()], FleetConfig::default()).unwrap();
        let alone = solo
            .offer(FlowRequest::new(15e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        let pf = fleet.plan_of(restricted.id()).unwrap();
        let ps = solo.plan_of(alone.id()).unwrap();
        assert!((pf.quality() - ps.quality()).abs() <= 1e-9);
        for (a, b) in pf.strategy().x().iter().zip(ps.strategy().x()) {
            assert!((a - b).abs() <= 1e-9, "{a} vs {b}");
        }
        // Out-of-range subset indices are rejected.
        assert!(fleet
            .offer(FlowRequest::new(1e6, 0.5).unwrap().with_paths(vec![9]))
            .is_err());
    }

    #[test]
    fn warm_anomaly_drops_the_basis_and_never_panics() {
        // Admit two flows so the assembly carries a basis, then strangle
        // the pivot budget: the next offer's solve from that basis aborts
        // on the iteration cap (an anomaly), the fallback drops the
        // incumbent basis and retries cold — which also aborts, so the
        // operation fails with an error, not a panic, the candidate is
        // rolled back and the incumbents keep their last-known-good
        // plans. Restoring the budget heals the fleet on the next event.
        let mut fleet = fleet();
        let a = fleet
            .offer(FlowRequest::new(40e6, 0.8).unwrap().with_min_quality(0.7))
            .unwrap();
        let b = fleet.offer(FlowRequest::new(10e6, 0.8).unwrap()).unwrap();
        assert!(a.is_admitted() && b.is_admitted());
        assert_eq!(fleet.cached_bases(), 1);
        let plan_a = fleet.plan_of(a.id()).unwrap().clone();
        let budget = fleet.core.config.planner.solver.max_iterations;
        fleet.core.config.planner.solver.max_iterations = 1;
        let candidate = || FlowRequest::new(20e6, 0.8).unwrap().with_min_quality(0.5);
        let err = fleet.offer(candidate()).unwrap_err();
        assert!(matches!(
            err,
            FleetError::Solve(SolveError::IterationLimit { .. })
        ));
        assert_eq!(fleet.warm_anomalies(), 1);
        assert_eq!(fleet.cached_bases(), 0);
        // The solve *started* from the incumbent basis, so it is a hit —
        // and the failed candidate left no trace.
        assert_eq!(fleet.warm_stats(), WarmStats { hits: 2, misses: 0 });
        assert_eq!(fleet.num_flows(), 2);
        assert_eq!(
            fleet.plan_of(a.id()).unwrap().strategy().x(),
            plan_a.strategy().x()
        );
        // With the budget restored the same offer goes through (cold: the
        // basis is gone) and the fleet carries a basis again.
        fleet.core.config.planner.solver.max_iterations = budget;
        assert!(fleet.offer(candidate()).unwrap().is_admitted());
        assert_eq!(fleet.warm_stats(), WarmStats { hits: 2, misses: 0 });
        assert_eq!(fleet.cached_bases(), 1);
        assert!(fleet.plan_of(a.id()).unwrap().quality() >= 0.7 - 1e-9);
    }

    #[test]
    fn bandwidth_and_loss_changes_flow_into_the_joint_lp() {
        let mut fleet = fleet();
        let a = fleet.offer(FlowRequest::new(90e6, 0.8).unwrap()).unwrap();
        let q_full = fleet.plan_of(a.id()).unwrap().quality();
        // Halving path 0 must cost quality.
        fleet
            .apply_link_change(0, &LinkChange::SetBandwidth(40e6))
            .unwrap();
        let q_half = fleet.plan_of(a.id()).unwrap().quality();
        assert!(q_half < q_full - 0.05, "{q_half} vs {q_full}");
        // A Gilbert–Elliott loss process plans via its stationary rate
        // (classic(0.2, 0.2) sits in the bad state half the time → 50 %).
        let ge = dmc_sim::GilbertElliott::classic(0.2, 0.2).unwrap();
        assert!((ge.stationary_loss() - 0.5).abs() < 1e-12);
        fleet
            .apply_link_change(0, &LinkChange::SetLoss(ge.into()))
            .unwrap();
        let q_lossy = fleet.plan_of(a.id()).unwrap().quality();
        assert!(q_lossy < q_half + 1e-9, "{q_lossy} vs {q_half}");
        // Bad inputs are rejected.
        assert!(fleet.apply_link_change(9, &LinkChange::Fail).is_err());
        assert!(fleet
            .apply_link_change(0, &LinkChange::SetBandwidth(-1.0))
            .is_err());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut f = fleet();
        assert!(f.offer_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(f.num_flows(), 0);
        // Also fine with incumbents: nothing re-solved, nothing changed.
        let a = f.offer(FlowRequest::new(30e6, 0.8).unwrap()).unwrap();
        let x_before = f.plan_of(a.id()).unwrap().strategy().x().to_vec();
        assert!(f.offer_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(f.plan_of(a.id()).unwrap().strategy().x(), x_before);
    }

    #[test]
    fn batch_and_sequential_admission_agree() {
        let reqs = || {
            vec![
                FlowRequest::new(30e6, 0.9).unwrap().with_min_quality(0.9),
                FlowRequest::new(25e6, 0.5).unwrap().with_min_quality(0.6),
                FlowRequest::new(20e6, 1.2).unwrap(),
            ]
        };
        let mut batched = fleet();
        let decisions = batched.offer_batch(reqs()).unwrap();
        assert!(decisions.iter().all(AdmissionDecision::is_admitted));
        let mut sequential = fleet();
        for r in reqs() {
            assert!(sequential.offer(r).unwrap().is_admitted());
        }
        // Same final joint LP → same canonical vertex → identical plans.
        for (id, plan) in batched.plans() {
            let other = sequential.plan_of(id).unwrap();
            assert_eq!(plan.strategy().x(), other.strategy().x(), "{id}");
            assert_eq!(plan.quality(), other.quality());
        }
        // Ids are input-ordered in both schemes.
        assert_eq!(
            decisions
                .iter()
                .map(AdmissionDecision::id)
                .collect::<Vec<_>>(),
            batched.flow_ids()
        );
    }

    #[test]
    fn weighted_fair_shifts_quality_toward_priority() {
        let mk = |objective| {
            let mut f = FleetPlanner::new(
                table3_paths(),
                FleetConfig {
                    objective,
                    ..FleetConfig::default()
                },
            )
            .unwrap();
            let hi = f
                .offer(FlowRequest::new(70e6, 0.8).unwrap().with_priority(8.0))
                .unwrap();
            let lo = f.offer(FlowRequest::new(70e6, 0.8).unwrap()).unwrap();
            let q_hi = f.plan_of(hi.id()).unwrap().quality();
            let q_lo = f.plan_of(lo.id()).unwrap().quality();
            (q_hi, q_lo)
        };
        let (q_hi, q_lo) = mk(FleetObjective::WeightedFair);
        assert!(
            q_hi >= q_lo + 0.1,
            "priority 8 flow got {q_hi}, priority 1 got {q_lo}"
        );
    }

    #[test]
    fn departure_tombstones_and_readmission_reuses_the_slot() {
        // Steady-state churn: depart + equivalent arrival, twice. Each
        // arrival takes the tombstoned block over in place and starts
        // from the survivors' basis, the block's rows back on their
        // logicals.
        let mut fleet = fleet();
        let mut current = fleet
            .offer(FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.6))
            .unwrap();
        let _b = fleet.offer(FlowRequest::new(20e6, 0.6).unwrap()).unwrap();
        for _ in 0..2 {
            fleet.depart(current.id()).unwrap();
            current = fleet
                .offer(FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.6))
                .unwrap();
            assert!(current.is_admitted());
        }
        assert!(
            fleet.warm_stats().hits >= 3,
            "the second offer and both re-arrivals start warm: {}",
            fleet.warm_stats()
        );
        assert_eq!(fleet.num_flows(), 2);
        assert!(fleet.utilization().iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn heavy_churn_compacts_and_matches_a_fresh_fleet() {
        // Admit and immediately depart flows until tombstones outnumber
        // the survivors, forcing compaction; the surviving allocation
        // must match a fresh fleet admitting just the survivors.
        let mut churned = fleet();
        let keep_a = churned
            .offer(FlowRequest::new(25e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        // Transients of varying widths/patterns (so slots cannot all be
        // reused and the slot list actually grows).
        let mut transients = Vec::new();
        for i in 0..10 {
            let mut req = FlowRequest::new(5e6 + i as f64 * 1e6, 0.5 + 0.05 * i as f64).unwrap();
            if i % 2 == 0 {
                req = req.with_min_quality(0.3);
            }
            if i % 3 == 0 {
                req = req.with_transmissions(1); // narrower block
            }
            transients.push(churned.offer(req).unwrap());
        }
        let keep_b = churned.offer(FlowRequest::new(15e6, 1.0).unwrap()).unwrap();
        for t in &transients {
            churned.depart(t.id()).unwrap();
        }
        let mut fresh = fleet();
        let fa = fresh
            .offer(FlowRequest::new(25e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        let fb = fresh.offer(FlowRequest::new(15e6, 1.0).unwrap()).unwrap();
        let pairs = [(keep_a.id(), fa.id()), (keep_b.id(), fb.id())];
        for (churned_id, fresh_id) in pairs {
            let pc = churned.plan_of(churned_id).unwrap();
            let pf = fresh.plan_of(fresh_id).unwrap();
            for (a, b) in pc.strategy().x().iter().zip(pf.strategy().x()) {
                assert!((a - b).abs() <= 1e-9, "{churned_id}: {a} vs {b}");
            }
            assert!((pc.quality() - pf.quality()).abs() <= 1e-9);
        }
    }

    #[test]
    fn rejected_offer_rolls_the_assembly_back() {
        let mut fleet = fleet();
        let a = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        assert!(a.is_admitted());
        // Reject a few incompatible candidates (one would append, one
        // could reuse nothing) and interleave a successful admission: the
        // assembly must stay consistent throughout.
        for _ in 0..3 {
            let r = fleet
                .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
                .unwrap();
            assert!(!r.is_admitted());
        }
        let ok = fleet
            .offer(FlowRequest::new(10e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        assert!(ok.is_admitted());
        assert_eq!(fleet.num_flows(), 2);
        for (_, plan) in fleet.plans() {
            assert!(plan.quality() >= 0.5 - 1e-9);
        }
        assert!(fleet.utilization().iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn churn_warm_starts_and_matches_cold_bit_for_bit() {
        // Append, refuse (rollback), depart (tombstone), take over: every
        // edit the carried basis goes through.
        let churn = |fleet: &mut FleetPlanner| {
            let a = fleet
                .offer(FlowRequest::new(40e6, 0.8).unwrap().with_min_quality(0.7))
                .unwrap();
            let _b = fleet.offer(FlowRequest::new(30e6, 0.6).unwrap()).unwrap();
            let refused = fleet
                .offer(FlowRequest::new(90e6, 0.8).unwrap().with_min_quality(0.95))
                .unwrap();
            assert!(!refused.is_admitted());
            fleet.depart(a.id()).unwrap();
            let _c = fleet
                .offer(FlowRequest::new(40e6, 0.8).unwrap().with_min_quality(0.7))
                .unwrap();
        };
        let mut warm = fleet();
        churn(&mut warm);
        // The second offer, the refusal and the take-over start from the
        // incumbents' basis; only the first offer has none to start from.
        assert!(
            warm.warm_stats().hits >= 3,
            "churn re-solves never warm-started: {}",
            warm.warm_stats()
        );
        assert_eq!(warm.cached_bases(), 1);
        let mut cold = FleetPlanner::new(
            table3_paths(),
            FleetConfig {
                planner: PlannerConfig {
                    warm_start: false,
                    ..PlannerConfig::default()
                },
                ..FleetConfig::default()
            },
        )
        .unwrap();
        churn(&mut cold);
        assert_eq!(cold.warm_stats(), WarmStats::default());
        assert_eq!(cold.cached_bases(), 0);
        assert_eq!(warm.core.objective_value(), cold.core.objective_value());
        for ((ida, pa), (idb, pb)) in warm.plans().zip(cold.plans()) {
            assert_eq!(ida, idb);
            assert_eq!(pa.strategy().x(), pb.strategy().x(), "{ida}");
            assert_eq!(pa.quality(), pb.quality());
        }
    }
}
