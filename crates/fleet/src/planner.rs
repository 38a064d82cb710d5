//! The fleet service: admission control plus joint shared-capacity
//! allocation across every admitted flow.
//!
//! # The joint LP
//!
//! A single-flow [`Planner`](dmc_core::Planner) solves (Eq. 10, with the
//! Eq. 3 bandwidth rows in bit/s):
//!
//! ```text
//! max λ·p·x   s.t.  λ·usage_k·x ≤ b_k  (per path),  Σx = 1,  x ≥ 0
//! ```
//!
//! The fleet generalizes it to `F` concurrent flows by concatenating the
//! per-flow assignment vectors into one variable block `x = (x¹ … x^F)`
//! and **sharing the capacity rows**, in the same units — so every
//! coefficient of a flow's block is its own, and an admission or a
//! departure edits that block alone:
//!
//! ```text
//! max  Σ_f w_f λ_f p_f·x^f
//! s.t. Σ_f λ_f usage_{f,k}·x^f ≤ b_k                (shared, per path k)
//!      cost_f·x^f ≤ µ_f/λ_f                         (per budgeted flow)
//!      p_f·x^f ≥ q_f                                (per flow with a floor)
//!      Σ x^f = 1                                    (per flow)
//!      x ≥ 0
//! ```
//!
//! A path of bandwidth below `1e-9·λ_f` — the solver's tolerance — could
//! carry no more than a tolerance-sized fraction of flow `f`, and would
//! swamp every other flow's coefficient in its row; it is left out of
//! the flow's block when the flow is offered (a flow left with no path
//! plans on the blackhole alone: refused with a floor, admitted at
//! quality 0 without one).
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
//! the carried basis, which the solver's dual phase restores where the
//! freed capacity left it infeasible; a link change cold); a link change
//! that makes the floors collectively infeasible triggers deterministic
//! re-admission highest priority first (admission order within ties),
//! **shedding** exactly the flows that no longer fit into a re-admission
//! queue: each
//! subsequent capacity event (link change or departure) retries them
//! under capped exponential backoff until they are revived — keeping
//! their original ids — or definitively rejected within a bounded number
//! of events ([`FleetPlanner::SHED_HORIZON`]).
//!
//! A verdict is a feasibility question, so the greedy sequences — a
//! batch's one-by-one fallback, the re-admission after a link change, a
//! sweep of the shed queue — decide each flow with the solver's phase 1
//! alone and end with one optimal solve that refreshes every plan (the
//! joint core's two goals). A departure followed by a sweep re-solves
//! once, at the end of the sweep.
//!
//! The LP, the roster of admitted flows and every policy above — batch
//! admission with its greedy fallback, the shed queue and its backoff,
//! the `fleet.*` admission counters — live in one engine, the
//! [`SchedulePlanner`](crate::SchedulePlanner): this planner is a face
//! over one of those on a one-slot grid, every flow offered in the
//! instant window [`SlotWindow::instant`]`(0)` (`schedule.rs` has the
//! engine's policy, `joint.rs` the LP and the roster).

use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
#[cfg(doc)]
use crate::schedule::SlotWindow;
use crate::schedule::{SchedulePlanner, TimeGrid};
use dmc_core::{Plan, PlannerConfig, ScenarioPath, WarmStats};
use dmc_sim::LinkChange;

/// What the joint LP optimizes across admitted flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetObjective {
    /// Admit as many flows as the floors allow (greedy, deadline-ordered
    /// in [`FleetPlanner::offer_batch`] — the DDCCast/ALAP flavor), then
    /// maximize rate-weighted total quality over the admitted set.
    #[default]
    MaxAdmitted,
    /// Maximize rate-weighted total quality `Σ_f λ_f Q_f` (aggregate
    /// in-time goodput, bit/s). Admission is still floor-feasibility
    /// based; batches keep arrival order.
    MaxTotalQuality,
    /// Maximize priority-weighted goodput `Σ_f w_f λ_f Q_f`, where `w_f`
    /// is [`FlowRequest::priority`].
    WeightedFair,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Objective of the joint LP (default [`FleetObjective::MaxAdmitted`]).
    pub objective: FleetObjective,
    /// Model/solver knobs shared by every per-flow model and joint solve
    /// (blackhole, solver options, `warm_start`). The joint LP declares
    /// its per-flow blocks, so the default solver runs it on its
    /// block-structured sparse kernel.
    pub planner: PlannerConfig,
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
        /// The flow's predicted in-time delivery fraction (≥ its floor)
        /// under the joint allocation its whole batch left:
        /// [`FleetPlanner::plan_of`]'s quality when
        /// [`FleetPlanner::offer_batch`] returns, whether the batch went
        /// in with one solve or through the greedy fallback.
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
    /// The engine, over a private one-slot grid: every flow comes in
    /// through its instant verbs.
    engine: SchedulePlanner,
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
            engine: SchedulePlanner::new(paths, instant, config)?,
        })
    }

    /// Re-admission attempts a shed flow gets before it is definitively
    /// rejected.
    pub const MAX_SHED_ATTEMPTS: u32 = 4;

    /// Upper bound, in capacity events (link changes and departures; in a
    /// gridded service region horizon advances too), on how long a shed
    /// flow can sit in the re-admission queue before it is
    /// either revived or definitively rejected: attempt `a` is followed by
    /// `min(2^a - 1, 7)` skipped events, so the schedule telescopes to
    /// `1 + 2 + 4 + 8 = 2^MAX_SHED_ATTEMPTS - 1` events.
    pub const SHED_HORIZON: usize = (1 << Self::MAX_SHED_ATTEMPTS) - 1;

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        self.engine.config()
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
    /// The fallback asks each candidate's solve for a verdict only (the
    /// solver's phase 1: is every floor still met?) and refreshes no plan
    /// while it runs; one optimal solve then refreshes every plan before
    /// the call returns. So each [`AdmissionDecision::Admitted`] reports
    /// the flow's plan after the whole batch, as the one-solve path does,
    /// not its plan at the moment it was admitted.
    ///
    /// # Errors
    ///
    /// As [`FleetPlanner::offer`].
    pub fn offer_batch(
        &mut self,
        requests: Vec<FlowRequest>,
    ) -> Result<Vec<AdmissionDecision>, FleetError> {
        self.engine.offer_batch(requests)
    }

    /// Removes an admitted flow and re-solves the joint allocation for
    /// the survivors from the carried basis (where the freed capacity
    /// leaves it infeasible the solver's dual phase restores it first).
    /// Returns the departing flow's last plan.
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
        self.engine.depart_batch(ids)
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
        self.engine.apply_link_change(path, change)?;
        Ok(std::mem::take(&mut self.engine.newly_shed))
    }

    /// Ids currently queued for re-admission after being shed by a
    /// capacity loss, in queue order (the deterministic attempt order:
    /// highest priority first, admission order within ties, refreshed at
    /// every sweep).
    pub fn shed_flows(&self) -> Vec<FlowId> {
        self.engine.shed_flows()
    }

    /// Ids definitively rejected after exhausting their
    /// [`FleetPlanner::MAX_SHED_ATTEMPTS`] re-admission attempts, in
    /// rejection order. The list accumulates from construction — or from
    /// the last [`FleetPlanner::drain_shed_rejected`] call, for
    /// long-lived services that consume these as per-event notifications.
    pub fn shed_rejected(&self) -> &[FlowId] {
        &self.engine.shed_rejected
    }

    /// Ids revived from the shed queue, in revival order. A revived flow
    /// keeps its original [`FlowId`]. Like
    /// [`FleetPlanner::shed_rejected`], the list accumulates from
    /// construction or from the last [`FleetPlanner::drain_revived`]
    /// call.
    pub fn revived_flows(&self) -> &[FlowId] {
        &self.engine.revived
    }

    /// Removes and returns the revived-flow events recorded since
    /// construction or the last drain (in revival order), resetting
    /// [`FleetPlanner::revived_flows`] to empty.
    ///
    /// Long-lived services must drain these lists once per event/tick:
    /// before the drain API existed they grew without bound and every
    /// consumer re-reported stale events from earlier outages.
    pub fn drain_revived(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.engine.revived)
    }

    /// Removes and returns the definitive-rejection events recorded since
    /// construction or the last drain (in rejection order), resetting
    /// [`FleetPlanner::shed_rejected`] to empty. See
    /// [`FleetPlanner::drain_revived`].
    pub fn drain_shed_rejected(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.engine.shed_rejected)
    }

    /// Cold re-solves forced by a warm-start anomaly — a singular basis
    /// or a pivot-cap abort on the warm path. Each one dropped the cached
    /// basis and retried cold instead of failing the operation.
    ///
    /// MIGRATION: mirrored onto the `fleet.warm_anomalies` counter of
    /// [`FleetConfig::obs`]; this accessor stays per-planner (a shared
    /// registry aggregates across planners and replays).
    pub fn warm_anomalies(&self) -> u64 {
        self.engine.warm_anomalies()
    }

    /// Number of admitted flows.
    pub fn num_flows(&self) -> usize {
        self.engine.num_flows()
    }

    /// Whether no flow is admitted.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Ids of the admitted flows, in admission order.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        self.engine.flow_ids()
    }

    /// The current plan of an admitted flow — an ordinary single-flow
    /// [`Plan`] (its strategy respects the flow's slice of the shared
    /// capacity), so `run_plan`, `DmcSender::from_plan` and
    /// `AdaptiveSender` consume it unchanged.
    pub fn plan_of(&self, id: FlowId) -> Option<&Plan> {
        self.engine.plan_of(id)
    }

    /// `(id, plan)` for every admitted flow, in admission order.
    pub fn plans(&self) -> impl Iterator<Item = (FlowId, &Plan)> {
        let residents = self.engine.core.residents().iter();
        residents.map(|r| (r.member.id, &r.plan))
    }

    /// The effective shared paths the joint LP currently plans against
    /// (failed paths appear with loss 1).
    ///
    /// # Errors
    ///
    /// Never fails in practice (paths were validated on entry).
    pub fn shared_paths(&self) -> Result<Vec<ScenarioPath>, FleetError> {
        self.engine.shared_paths()
    }

    /// Per-path utilization: the admitted flows' summed send rates over
    /// the path's current bandwidth. The joint capacity rows keep every
    /// entry ≤ 1 (within solver tolerance). A flow restricted to a path
    /// subset contributes only to the paths it uses (its plan's send
    /// rates are indexed by its own subset).
    pub fn utilization(&self) -> Vec<f64> {
        self.engine.instant_utilization()
    }

    /// Aggregate in-time goodput of the admitted flows, bits/second
    /// (`Σ_f λ_f Q_f`).
    pub fn total_goodput(&self) -> f64 {
        let residents = self.engine.core.residents().iter();
        residents
            .map(|r| r.member.flow().data_rate() * r.plan.quality())
            .sum()
    }

    /// Rate-weighted mean quality of the admitted flows (the joint LP's
    /// `MaxTotalQuality` objective value, [`FleetPlanner::total_goodput`],
    /// over the total rate; 0 with no flows).
    pub fn aggregate_quality(&self) -> f64 {
        self.engine.aggregate_quality()
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
        self.engine.warm_stats()
    }

    /// Whether the joint LP currently carries the basis of its last
    /// optimum: 1, or 0 (before the first solve, after a link change or
    /// an anomaly, and always with warm starts off).
    pub fn cached_bases(&self) -> usize {
        self.engine.core.cached_bases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_lp::SolveError;

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
        let budget = fleet.engine.core.config.planner.solver.max_iterations;
        fleet.engine.core.config.planner.solver.max_iterations = 1;
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
        fleet.engine.core.config.planner.solver.max_iterations = budget;
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
    fn a_departure_cuts_its_block_and_the_next_arrival_starts_warm() {
        // Steady-state churn: depart + equivalent arrival, twice. Each
        // arrival's solve first cuts the departed block out of the LP
        // and the carried basis, then starts from what is left of it.
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
        fleet
            .engine
            .core
            .assert_lp_is_the_rosters("after the churn");
        assert!(fleet.utilization().iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn heavy_churn_compacts_and_matches_a_fresh_fleet() {
        // Admit and depart transients: the core cuts every departed
        // block out, so the surviving allocation is a fresh fleet's that
        // admits just the survivors, bit for bit.
        let mut churned = fleet();
        let keep_a = churned
            .offer(FlowRequest::new(25e6, 0.8).unwrap().with_min_quality(0.5))
            .unwrap();
        // Transients of varying widths and row patterns.
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
            churned
                .engine
                .core
                .assert_lp_is_the_rosters(&t.id().to_string());
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
            assert_eq!(pc.strategy().x(), pf.strategy().x(), "{churned_id}");
            assert_eq!(pc.quality(), pf.quality(), "{churned_id}");
        }
    }

    #[test]
    fn rejected_offer_rolls_the_assembly_back() {
        let mut fleet = fleet();
        let a = fleet
            .offer(FlowRequest::new(60e6, 0.8).unwrap().with_min_quality(0.9))
            .unwrap();
        assert!(a.is_admitted());
        // Reject a few candidates (each appended, then truncated away)
        // and follow with a successful admission: the assembly must stay
        // consistent throughout.
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
        // Append, refuse (rollback), depart (cut), append again: every
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
        // The second offer, the refusal and the offer after the cut
        // start from the incumbents' basis; only the first offer has none
        // to start from.
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
        assert_eq!(warm.engine.objective_value(), cold.engine.objective_value());
        for ((ida, pa), (idb, pb)) in warm.plans().zip(cold.plans()) {
            assert_eq!(ida, idb);
            assert_eq!(pa.strategy().x(), pb.strategy().x(), "{ida}");
            assert_eq!(pa.quality(), pb.quality());
        }
    }
}
