//! The unified front door: [`Scenario`] + [`Objective`] → [`Planner`] →
//! [`Plan`].
//!
//! One `Planner` covers both of the paper's delay regimes: it inspects
//! the scenario's delay distributions and routes constant delays through
//! the exact Eq. 12 coefficients (§V), anything else through the
//! discretized Eq. 28/34 machinery (§VI-B). Either fill feeds the same
//! LP assembly and the same strategy packaging.
//!
//! There is **one pipeline**: [`Planner::plan`] is [`Planner::model`] →
//! [`ScenarioModel::problem`] → the planner's warm-started solve →
//! [`ScenarioModel::plan_for`]. The fleet layer runs the same first and
//! last step around its own joint LP, so a fleet decomposition is the
//! planner's arithmetic by construction. A [`ScenarioModel`] owns its
//! coefficient vectors and shares the solve-independent rest (scenario,
//! combination table, timeout schedule, ack path) with every [`Plan`]
//! packaged from it.
//!
//! The planner **owns its solver memory**: the LP workspace
//! ([`dmc_lp::Workspace`]) is reused across [`Planner::plan`] calls, so
//! parameter sweeps (λ/δ curves, the experiments crate) and periodic
//! re-solves (`AdaptiveSender`) do not re-allocate the factorization —
//! see the `planner_reuse` benchmark. A model that `plan` built and
//! consumed leaves its coefficient vectors behind as the next model's
//! capacity (measured: 0.25 µs of a 4.8 µs nine-combination re-plan).
//!
//! It also **warm-starts the LP**: the optimal basis of every solve is
//! cached per problem shape and fed to
//! [`dmc_lp::Problem::solve_warm_with`] on the next same-shaped solve, so
//! a sweep or re-solve that only moves objective/RHS coefficients re-enters
//! phase 2 directly instead of re-deriving feasibility from scratch (see
//! the `lp_backends` benchmark and `BENCH_lp.json`). A shape change or a
//! basis made infeasible by the new coefficients falls back to a cold
//! solve automatically; results are bit-identical either way.

use crate::builder::fill_deterministic_coeffs;
use crate::combo::{check_combos, ComboTable};
use crate::path::{PathSpec, SpecError};
use crate::plan::{Plan, SharedModel, TimeoutSchedule};
use crate::random_delay::{fill_random_coeffs, PlateauRule};
use crate::scenario::{Scenario, ScenarioPath};
use crate::strategy::Strategy;
use dmc_lp::{Basis, ConstraintKind, Problem, Solution, SolveError, SolverOptions, Workspace};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What the LP optimizes (the paper's three solve modes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Maximize communication quality (Eq. 10). A finite scenario budget
    /// `µ` is honored as the Eq. 7 cost row.
    MaxQuality,
    /// Minimize spend subject to a quality floor (§VI-A, Eq. 20–23).
    MinCost {
        /// Required quality `Q ≥ min_quality` (fraction in `[0, 1]`).
        min_quality: f64,
    },
    /// Maximize quality, *requiring* the scenario to carry a finite cost
    /// budget — use this when the budget is the point, so a forgotten
    /// `cost_budget` is an error instead of a silently unconstrained
    /// solve.
    MaxQualityUnderBudget,
}

/// Errors from the planning pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The scenario itself is invalid.
    Spec(SpecError),
    /// The LP could not be solved (e.g. an unreachable quality floor, or
    /// infeasibility with the blackhole disabled).
    Solve(SolveError),
    /// The objective does not fit the scenario (e.g.
    /// [`Objective::MaxQualityUnderBudget`] without a finite budget).
    Unsupported(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Spec(e) => write!(f, "{e}"),
            PlanError::Solve(e) => write!(f, "{e}"),
            PlanError::Unsupported(msg) => write!(f, "unsupported objective: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Spec(e) => Some(e),
            PlanError::Solve(e) => Some(e),
            PlanError::Unsupported(_) => None,
        }
    }
}

impl From<SpecError> for PlanError {
    fn from(e: SpecError) -> Self {
        PlanError::Spec(e)
    }
}

impl From<SolveError> for PlanError {
    fn from(e: SolveError) -> Self {
        PlanError::Solve(e)
    }
}

/// Warm-start cache counters of a [`Planner`] (or a
/// `dmc_fleet::FleetPlanner`, which keeps the same kind of cache over its
/// joint LPs): how re-solves split between basis reuse and cold solves.
///
/// An *attempt* is a solve for which a cached basis of the right shape
/// existed; it becomes a *hit* when the solver actually re-entered
/// phase 2 from that basis, and a *miss* when the basis had gone stale
/// (infeasible under the new coefficients, singular) and the solver fell
/// back to a cold two-phase solve. Solves with no cached basis at all
/// (first solve of a shape, cache disabled) count in neither bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WarmStats {
    /// Warm-start attempts that re-entered phase 2 from the cached basis.
    pub hits: u64,
    /// Warm-start attempts that fell back to a cold solve.
    pub misses: u64,
}

impl WarmStats {
    /// Total solves that consulted a cached basis (`hits + misses`).
    pub fn attempts(&self) -> u64 {
        self.hits + self.misses
    }
}

impl fmt::Display for WarmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} warm hit(s) / {} attempt(s)",
            self.hits,
            self.attempts()
        )
    }
}

/// Planner configuration (model-level knobs shared by every solve).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Include the blackhole path (default true; keeps the LP feasible
    /// under overload, Eq. 19).
    pub blackhole: bool,
    /// Discretization grid step in seconds for random-delay scenarios
    /// (default 1 ms, the paper's reporting granularity).
    pub grid_step: f64,
    /// Plateau tie-break for Eq. 34 (default midpoint).
    pub plateau: PlateauRule,
    /// LP solver options.
    pub solver: SolverOptions,
    /// Cache the optimal basis of each solved problem shape and
    /// warm-start subsequent solves of the same shape from it (default
    /// true). λ/δ sweeps and an adaptive sender's periodic re-solves move
    /// only objective/RHS coefficients, so the cached basis usually lets
    /// the LP skip phase 1 and most pivots; a stale basis falls back to a
    /// cold solve inside the solver, so results are identical either way.
    /// Effective with the backends that export a basis
    /// ([`dmc_lp::Backend::Revised`] and [`dmc_lp::Backend::Sparse`]).
    pub warm_start: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            blackhole: true,
            grid_step: 1e-3,
            plateau: PlateauRule::Midpoint,
            solver: SolverOptions::default(),
            warm_start: true,
        }
    }
}

/// Cache key for warm-start bases: the *shape* of an assembled LP.
///
/// Two problems of equal shape (same variable count, same row count, same
/// row-kind pattern) can exchange bases: feasibility of a basis depends
/// only on the RHS, which the solver re-checks on every warm start.
/// Shapes with more than 128 rows are not cached (the paper's LPs have a
/// handful).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    n_vars: usize,
    n_rows: usize,
    eq_mask: u128,
}

impl ShapeKey {
    fn of(problem: &Problem) -> Option<Self> {
        let n_rows = problem.num_constraints();
        if n_rows > 128 {
            return None;
        }
        let mut eq_mask = 0u128;
        for (i, c) in problem.constraints().iter().enumerate() {
            if c.kind() == ConstraintKind::Eq {
                eq_mask |= 1 << i;
            }
        }
        Some(ShapeKey {
            n_vars: problem.num_vars(),
            n_rows,
            eq_mask,
        })
    }
}

/// Bound on cached shapes; a planner cycling through more shapes than
/// this simply restarts its cache (sweeps touch one or two shapes).
const MAX_CACHED_SHAPES: usize = 32;

/// The planning engine: turns ([`Scenario`], [`Objective`]) into a
/// [`Plan`], reusing its LP workspace and warm-start bases across calls.
///
/// ```
/// use dmc_core::{Objective, Planner, Scenario, ScenarioPath};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = Scenario::builder()
///     .path(ScenarioPath::constant(10e6, 0.600, 0.10)?) // 10 Mbps, 600 ms, 10 %
///     .path(ScenarioPath::constant(1e6, 0.200, 0.0)?)   //  1 Mbps, 200 ms,  0 %
///     .data_rate(10e6)
///     .lifetime(1.0)
///     .build()?;
/// let mut planner = Planner::new();
/// let plan = planner.plan(&scenario, Objective::MaxQuality)?;
/// assert!((plan.quality() - 1.0).abs() < 1e-9); // Figure 1: 100 % in time
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Planner {
    config: PlannerConfig,
    workspace: Workspace,
    // Fill-time scratch of `model` (cleared and refilled per model).
    stage_timeouts: Vec<Vec<Option<f64>>>,
    det_paths: Vec<PathSpec>,
    /// The `(p, usage, cost)` vectors of the model the last `plan`
    /// consumed: capacity for the next model, never read.
    spare: (Vec<f64>, Vec<Vec<f64>>, Vec<f64>),
    // Warm-start state: last optimal basis per problem shape, plus
    // counters for observability (benchmarks, tests).
    // dmc-lint: allow(det-unordered-map) key-lookup-only cache: get/insert/contains_key/len/clear, never iterated, so key order cannot reach results
    shape_bases: HashMap<ShapeKey, Basis>,
    warm_attempts: u64,
    warm_hits: u64,
}

impl Planner {
    /// A planner with the default configuration.
    pub fn new() -> Self {
        Planner::default()
    }

    /// A planner with an explicit configuration.
    pub fn with_config(config: PlannerConfig) -> Self {
        Planner {
            config,
            ..Planner::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Solves `scenario` for `objective` and packages the result.
    ///
    /// Deterministic scenarios (every delay constant) use the exact
    /// closed-form coefficients of Eq. 12 and the Eq. 4 timeout rule;
    /// anything else uses the discretized Eq. 28 coefficients and Eq. 34
    /// optimal timeouts. Either way the output is one [`Plan`].
    ///
    /// # Errors
    ///
    /// * [`PlanError::Spec`] when the scenario has more path combinations
    ///   than [`ComboTable::MAX_COMBOS`];
    /// * [`PlanError::Unsupported`] when the objective does not fit the
    ///   scenario (budget objective without a budget, quality floor
    ///   outside `[0, 1]`);
    /// * [`PlanError::Solve`] on LP failure (an unreachable
    ///   [`Objective::MinCost`] floor reports
    ///   [`SolveError::Infeasible`]).
    pub fn plan(&mut self, scenario: &Scenario, objective: Objective) -> Result<Plan, PlanError> {
        self.validate(scenario, objective)?;
        let model = self.model(scenario);
        let solved = self.solve_lp(&model.problem(objective));
        let plan = solved.map(|solution| model.plan_for(objective, solution.into_x()));
        self.spare = (model.p, model.usage, model.cost);
        Ok(plan?)
    }

    /// Builds the *unsolved* model of a scenario: the Eq. 12/28 coefficient
    /// vectors, the combination table, the Eq. 4/34 timeout schedule and
    /// the ack path, packaged as an owned [`ScenarioModel`].
    ///
    /// This is the planner's front half with the LP solve left to the
    /// caller — the hook the multi-flow fleet layer
    /// (`dmc_fleet::FleetPlanner`) uses to assemble one *joint* LP whose
    /// per-path capacity rows are shared across flows, and to package the
    /// joint solution back into ordinary per-flow [`Plan`]s via
    /// [`ScenarioModel::plan_for`].
    ///
    /// [`Planner::plan`] is this method, [`ScenarioModel::problem`], a
    /// solve and [`ScenarioModel::plan_for`], so solving the problem and
    /// feeding the `x` to `plan_for` reproduces [`Planner::plan`] bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's combination count exceeds
    /// [`ComboTable::MAX_COMBOS`] (only reachable through
    /// [`Scenario::with_transmissions`]; [`Planner::plan`] reports the
    /// same condition as a [`PlanError::Spec`]).
    pub fn model(&mut self, scenario: &Scenario) -> ScenarioModel {
        let n = scenario.num_paths();
        let table = ComboTable::new(n, scenario.transmissions(), self.config.blackhole);
        let ack_path = scenario.ack_path();
        let (mut p, mut usage, mut cost) = std::mem::take(&mut self.spare);
        usage.resize_with(n, Vec::new);

        let schedule = if scenario.is_deterministic() {
            let dmin = self.load_det_paths(scenario);
            fill_deterministic_coeffs(
                &self.det_paths,
                dmin,
                scenario.lifetime(),
                &table,
                &mut p,
                &mut usage,
                &mut cost,
            );
            TimeoutSchedule::deterministic(&self.det_paths, dmin, &table)
        } else {
            fill_random_coeffs(
                scenario.paths(),
                scenario.lifetime(),
                self.config.grid_step,
                self.config.plateau,
                &table,
                ack_path,
                &mut p,
                &mut usage,
                &mut cost,
                &mut self.stage_timeouts,
            );
            TimeoutSchedule::from_stage_timeouts(&self.stage_timeouts, &table, scenario.lifetime())
        };
        ScenarioModel {
            shared: Arc::new(SharedModel {
                scenario: scenario.clone(),
                table,
                schedule,
                ack_path,
            }),
            p,
            usage,
            cost,
        }
    }

    /// The paper's Experiment-1 procedure (§VII-A) as a first-class plan:
    /// the **LP** is solved with conservatively inflated delays
    /// (`measured + margin`, absorbing queueing noise at deadline
    /// boundaries), while the **timeout schedule** keeps the measured
    /// delays — inflating those too would push retransmissions past the
    /// deadline.
    ///
    /// Deterministic scenarios only (the random-delay model absorbs
    /// margins into the distributions themselves).
    ///
    /// # Errors
    ///
    /// [`PlanError::Unsupported`] for random-delay scenarios or a
    /// non-finite/negative margin; otherwise as [`Planner::plan`].
    pub fn plan_with_margin(
        &mut self,
        measured: &Scenario,
        margin_s: f64,
        objective: Objective,
    ) -> Result<Plan, PlanError> {
        if !measured.is_deterministic() {
            return Err(PlanError::Unsupported(
                "delay margins only apply to deterministic scenarios".into(),
            ));
        }
        if !(margin_s >= 0.0) || !margin_s.is_finite() {
            return Err(PlanError::Unsupported(format!(
                "margin must be finite and ≥ 0, got {margin_s}"
            )));
        }
        let mut inflated = measured.clone();
        for (k, p) in measured.paths().iter().enumerate() {
            let spec = p.as_spec().expect("deterministic scenario");
            let slow = ScenarioPath::constant_with_cost(
                spec.bandwidth(),
                spec.delay() + margin_s,
                spec.loss(),
                spec.cost(),
            )?;
            inflated = inflated.with_path_replaced(k, slow);
        }
        let mut plan = self.plan(&inflated, objective)?;
        // Swap the timeout schedule back to the measured delays. The model
        // `plan` built is gone, so this plan is the shared part's only
        // holder and `make_mut` copies nothing.
        let dmin = self.load_det_paths(measured);
        let shared = Arc::make_mut(&mut plan.shared);
        shared.schedule = TimeoutSchedule::deterministic(&self.det_paths, dmin, &shared.table);
        shared.scenario = measured.clone();
        Ok(plan)
    }

    /// Solves an assembled LP, warm-starting from the cached basis of the
    /// same problem shape when enabled, and refreshing the cache with the
    /// new optimal basis.
    ///
    /// Warm and cold solves of the same problem produce identical
    /// results (the revised backend canonicalizes its reported vertex),
    /// so this is purely a performance device.
    fn solve_lp(&mut self, problem: &Problem) -> Result<Solution, SolveError> {
        let key = if self.config.warm_start {
            ShapeKey::of(problem)
        } else {
            None
        };
        let solution = match key.and_then(|k| self.shape_bases.get(&k)) {
            Some(basis) => {
                self.warm_attempts += 1;
                // Mirror hit/miss into the telemetry registry (no-op when
                // disabled); a solve error counts as a miss, matching how
                // `warm_stats()` derives misses from attempts − hits.
                let obs = &self.config.solver.obs;
                let s = match problem.solve_warm_with(
                    &self.config.solver,
                    &mut self.workspace,
                    basis,
                ) {
                    Ok(s) => s,
                    Err(e) => {
                        obs.counter("planner.warm_misses").inc();
                        return Err(e);
                    }
                };
                if s.used_warm_start() {
                    self.warm_hits += 1;
                    obs.counter("planner.warm_hits").inc();
                } else {
                    obs.counter("planner.warm_misses").inc();
                }
                s
            }
            None => problem.solve_with(&self.config.solver, &mut self.workspace)?,
        };
        if let (Some(k), Some(basis)) = (key, solution.basis()) {
            if self.shape_bases.len() >= MAX_CACHED_SHAPES && !self.shape_bases.contains_key(&k) {
                self.shape_bases.clear();
            }
            self.shape_bases.insert(k, basis.clone());
        }
        Ok(solution)
    }

    /// Warm-start cache counters: how many solves re-entered phase 2 from
    /// a cached basis ([`WarmStats::hits`]) and how many consulted a
    /// cached basis that had gone stale ([`WarmStats::misses`]).
    /// Per-planner diagnostic counters for benches and tests; the same
    /// events are mirrored onto the `dmc_obs` counters
    /// `planner.warm_hits` / `planner.warm_misses` of `config.solver.obs`
    /// when that registry is enabled.
    pub fn warm_stats(&self) -> WarmStats {
        WarmStats {
            hits: self.warm_hits,
            misses: self.warm_attempts - self.warm_hits,
        }
    }

    /// Number of problem shapes with a cached warm-start basis.
    pub fn cached_bases(&self) -> usize {
        self.shape_bases.len()
    }

    /// Drops all cached warm-start bases (subsequent solves start cold).
    pub fn clear_warm_cache(&mut self) {
        self.shape_bases.clear();
    }

    /// Loads a deterministic scenario's paths into the reusable
    /// `det_paths` buffer and returns `d_min` (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not deterministic (callers check).
    fn load_det_paths(&mut self, scenario: &Scenario) -> f64 {
        self.det_paths.clear();
        for p in scenario.paths() {
            self.det_paths
                .push(p.as_spec().expect("deterministic scenario"));
        }
        self.det_paths
            .iter()
            .map(PathSpec::delay)
            .fold(f64::INFINITY, f64::min)
    }

    fn validate(&self, scenario: &Scenario, objective: Objective) -> Result<(), PlanError> {
        check_combos(
            scenario.num_paths(),
            scenario.transmissions(),
            self.config.blackhole,
        )?;
        match objective {
            Objective::MaxQuality => Ok(()),
            Objective::MaxQualityUnderBudget => {
                if scenario.cost_budget().is_finite() {
                    Ok(())
                } else {
                    Err(PlanError::Unsupported(
                        "MaxQualityUnderBudget requires a finite scenario cost_budget".into(),
                    ))
                }
            }
            Objective::MinCost { min_quality } => {
                if (0.0..=1.0).contains(&min_quality) {
                    Ok(())
                } else {
                    Err(PlanError::Unsupported(format!(
                        "MinCost quality floor must be in [0, 1], got {min_quality}"
                    )))
                }
            }
        }
    }
}

/// The paper's LP over a model's coefficient vectors: Eq. 10 (`max p·x`;
/// the Eq. 7 cost row when the scenario carries a finite budget) or its
/// min-cost variant Eq. 20–23 (`min cost·x`, quality floor), under the
/// per-path bandwidth rows (Eq. 3) and `Σx = 1`. Rows are per unit of
/// `λ`, which keeps coefficients well-scaled.
///
/// The only place the crate builds a [`Problem`], called from
/// [`ScenarioModel::problem`] alone.
fn assemble_lp(model: &ScenarioModel, objective: Objective) -> Problem {
    const DIMS: &str = "one coefficient per combination";
    let scenario = model.scenario();
    let lambda = scenario.data_rate();
    let mut lp = match objective {
        Objective::MaxQuality | Objective::MaxQualityUnderBudget => {
            Problem::maximize(model.p.clone())
        }
        Objective::MinCost { .. } => Problem::minimize(model.cost.clone()),
    };
    for (path, usage) in scenario.paths().iter().zip(&model.usage) {
        lp.add_le(usage, path.bandwidth() / lambda).expect(DIMS);
    }
    match objective {
        Objective::MinCost { min_quality } => {
            lp.add_ge(&model.p, min_quality).expect(DIMS);
        }
        _ if scenario.cost_budget().is_finite() => {
            lp.add_le(&model.cost, scenario.cost_budget() / lambda)
                .expect(DIMS);
        }
        _ => {}
    }
    lp.add_eq(vec![1.0; model.p.len()], 1.0).expect(DIMS);
    lp
}

/// Packages an assignment into a [`Strategy`] with its predicted metrics
/// (Eq. 2, 6, 7). The only caller of `Strategy::new`, called from
/// [`ScenarioModel::plan_for`] alone.
fn package_strategy(model: &ScenarioModel, x: Vec<f64>) -> Strategy {
    let lambda = model.scenario().data_rate();
    let dot = |coeffs: &[f64]| coeffs.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>();
    let quality = dot(&model.p);
    let send_rates: Vec<f64> = model
        .usage
        .iter()
        .map(|usage| lambda * dot(usage))
        .collect();
    let cost_rate = lambda * dot(&model.cost);
    Strategy::new(
        model.table().clone(),
        x,
        lambda,
        quality,
        cost_rate,
        send_rates,
    )
}

/// The unsolved model of one scenario, produced by [`Planner::model`]:
/// everything [`Planner::plan`] derives *before* the LP solve.
///
/// It owns the coefficient vectors and shares the rest — scenario,
/// combination table, timeout schedule, ack path — with every [`Plan`]
/// it packages. Consumers assemble their own LP from the coefficient
/// vectors (the fleet layer concatenates several models into one joint LP
/// with shared capacity rows) and package an assignment back into a
/// [`Plan`] with [`ScenarioModel::plan_for`].
#[derive(Debug, Clone)]
pub struct ScenarioModel {
    shared: Arc<SharedModel>,
    p: Vec<f64>,
    usage: Vec<Vec<f64>>,
    cost: Vec<f64>,
}

impl ScenarioModel {
    /// The scenario this model was built for.
    pub fn scenario(&self) -> &Scenario {
        &self.shared.scenario
    }

    /// The combination table (LP variable ↔ stage-sequence bijection).
    pub fn table(&self) -> &ComboTable {
        &self.shared.table
    }

    /// Number of LP variables (`table().num_combos()`).
    pub fn num_combos(&self) -> usize {
        self.shared.table.num_combos()
    }

    /// The per-stage retransmission-timeout schedule (Eq. 4 / Eq. 34).
    pub fn schedule(&self) -> &TimeoutSchedule {
        &self.shared.schedule
    }

    /// The acknowledgment path (Eq. 25 / Eq. 1), 0-based.
    pub fn ack_path(&self) -> usize {
        self.shared.ack_path
    }

    /// In-time delivery probability `p_l` per combination (Eq. 12/28).
    pub fn quality_coeffs(&self) -> &[f64] {
        &self.p
    }

    /// Expected transmissions of real path `k` per unit data, per
    /// combination (row `k` of Eq. 15, divided by `λ`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a real path index.
    pub fn usage_coeffs(&self, k: usize) -> &[f64] {
        &self.usage[k]
    }

    /// Expected cost per bit per combination (Eq. 16 divided by `λ`).
    pub fn cost_coeffs(&self) -> &[f64] {
        &self.cost
    }

    /// Nonzero entries of [`ScenarioModel::quality_coeffs`] as sorted
    /// `(combination index, value)` triplets.
    ///
    /// The coefficient vectors are sparse in a structured way — every
    /// combination whose delivery never beats the deadline (blackhole
    /// prefixes, hopeless path sequences) contributes an exact zero — and
    /// the fleet layer assembles its joint LP rows from these triplets
    /// (`dmc_lp::Problem::add_*_sparse`) so the sparse solver sees the
    /// true sparsity pattern without re-scanning dense vectors.
    pub fn quality_triplets(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        nonzeros(&self.p)
    }

    /// Nonzero entries of [`ScenarioModel::usage_coeffs`]`(k)` as sorted
    /// `(combination index, value)` triplets.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a real path index.
    pub fn usage_triplets(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        nonzeros(&self.usage[k])
    }

    /// Nonzero entries of [`ScenarioModel::cost_coeffs`] as sorted
    /// `(combination index, value)` triplets.
    pub fn cost_triplets(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        nonzeros(&self.cost)
    }

    /// The scenario's LP for `objective` ([`Objective::MaxQuality`] honors
    /// a finite scenario budget as the Eq. 7 cost row), unsolved — the
    /// problem [`Planner::plan`] solves, for callers that bring their own
    /// solver settings (backend and pivot-rule benches).
    pub fn problem(&self, objective: Objective) -> Problem {
        assemble_lp(self, objective)
    }

    /// Packages an assignment vector into a full [`Plan`] — the last step
    /// of [`Planner::plan`], so feeding the `x` of a planner solve through
    /// here reproduces the planner's plan bit for bit. The plan shares
    /// this model's scenario, table and timeout schedule; nothing is
    /// copied.
    ///
    /// `objective` is recorded on the plan as the objective `x` was solved
    /// for; this method does not solve anything itself.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_combos()`.
    pub fn plan_for(&self, objective: Objective, x: Vec<f64>) -> Plan {
        assert_eq!(
            x.len(),
            self.num_combos(),
            "assignment length does not match the combination table"
        );
        Plan {
            shared: Arc::clone(&self.shared),
            objective,
            strategy: package_strategy(self, x),
        }
    }
}

/// Sorted `(index, value)` pairs of the nonzero entries of a dense
/// coefficient vector.
fn nonzeros(v: &[f64]) -> impl Iterator<Item = (usize, f64)> + '_ {
    v.iter()
        .enumerate()
        // dmc-lint: allow(float-exact) exact-zero sparsity filter: a stored 0.0 means structurally absent, not approximately small
        .filter(|(_, &x)| x != 0.0)
        .map(|(i, &x)| (i, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_stats::ShiftedGamma;
    use std::sync::Arc;

    fn table3_scenario(lambda: f64, delta: f64) -> Scenario {
        Scenario::builder()
            .path(ScenarioPath::constant(80e6, 0.450, 0.2).unwrap())
            .path(ScenarioPath::constant(20e6, 0.150, 0.0).unwrap())
            .data_rate(lambda)
            .lifetime(delta)
            .build()
            .unwrap()
    }

    /// Table III with per-bit prices, for the cost objectives.
    fn costed_table3() -> Scenario {
        Scenario::builder()
            .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 3e-9).unwrap())
            .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap()
    }

    fn table5_scenario() -> Scenario {
        Scenario::builder()
            .path(
                ScenarioPath::new(
                    80e6,
                    Arc::new(ShiftedGamma::new(10.0, 0.004, 0.400).unwrap()),
                    0.2,
                    0.0,
                )
                .unwrap(),
            )
            .path(
                ScenarioPath::new(
                    20e6,
                    Arc::new(ShiftedGamma::new(5.0, 0.002, 0.100).unwrap()),
                    0.0,
                    0.0,
                )
                .unwrap(),
            )
            .data_rate(90e6)
            .lifetime(0.750)
            .build()
            .unwrap()
    }

    fn quality(scenario: &Scenario) -> f64 {
        Planner::new()
            .plan(scenario, Objective::MaxQuality)
            .unwrap()
            .quality()
    }

    #[test]
    fn multipath_beats_both_single_paths() {
        // Figure 2's headline: the multipath optimum dominates each
        // single-path optimum across the sweep.
        for lambda in [10e6, 40e6, 90e6, 120e6] {
            let scenario = table3_scenario(lambda, 0.8);
            let multi = quality(&scenario);
            let p1 = quality(&scenario.restricted_to_path(0));
            let p2 = quality(&scenario.restricted_to_path(1));
            assert!(
                multi >= p1 - 1e-9 && multi >= p2 - 1e-9,
                "λ={lambda}: multi {multi} vs single {p1}/{p2}"
            );
        }
    }

    #[test]
    fn single_path_theory_values() {
        // At λ=90, δ=800: path 1 alone can deliver at most
        // (1−τ)·80/90 = 0.7111 (its retransmissions can't return in time:
        // 450+150… single path ⇒ dmin = 450 ⇒ 450·2+450 > 800).
        let scenario = table3_scenario(90e6, 0.8);
        let p1 = quality(&scenario.restricted_to_path(0));
        assert!((p1 - 0.8 * 80.0 / 90.0).abs() < 1e-9, "p1 = {p1}");
        // Path 2 alone: capacity-bound to 20/90.
        let p2 = quality(&scenario.restricted_to_path(1));
        assert!((p2 - 20.0 / 90.0).abs() < 1e-9, "p2 = {p2}");
    }

    #[test]
    fn quality_monotone_in_lifetime_and_rate() {
        let mut prev = 0.0;
        for delta in [0.2, 0.4, 0.6, 0.8, 1.0, 1.2] {
            let q = quality(&table3_scenario(90e6, delta));
            assert!(q >= prev - 1e-9, "δ={delta}: {q} < {prev}");
            prev = q;
        }
        let mut prev = 1.0;
        for lambda in [20e6, 60e6, 100e6, 140e6] {
            let q = quality(&table3_scenario(lambda, 0.8));
            assert!(q <= prev + 1e-9, "λ={lambda}: {q} > {prev}");
            prev = q;
        }
    }

    #[test]
    fn min_cost_vs_quality_duality() {
        // Minimizing cost at the quality the quality-max strategy achieves
        // must not cost more than that strategy.
        let scenario = costed_table3();
        let mut planner = Planner::new();
        let qmax = planner.plan(&scenario, Objective::MaxQuality).unwrap();
        let floor = qmax.quality() - 1e-9;
        let cheap = planner
            .plan(&scenario, Objective::MinCost { min_quality: floor })
            .unwrap();
        assert!(cheap.cost_rate() <= qmax.cost_rate() + 1e-6);
        assert!(cheap.quality() >= qmax.quality() - 1e-6);
    }

    #[test]
    fn oversized_transmission_counts_are_typed_errors() {
        // (2 + 1)^24 combinations is a 2 TB allocation, (2 + 1)^255
        // overflows the count itself: both used to abort the process.
        for m in [24, 255] {
            let built = Scenario::builder()
                .paths(table3_scenario(90e6, 0.8).paths().to_vec())
                .data_rate(90e6)
                .lifetime(0.8)
                .transmissions(m)
                .build();
            assert!(built.is_err(), "m={m}: build() accepted");
            let unchecked = table3_scenario(90e6, 0.8).with_transmissions(m);
            let err = Planner::new()
                .plan(&unchecked, Objective::MaxQuality)
                .unwrap_err();
            assert!(matches!(err, PlanError::Spec(_)), "m={m}: {err}");
        }
    }

    #[test]
    fn deterministic_schedule_is_eq4() {
        let mut planner = Planner::new();
        let plan = planner
            .plan(&table3_scenario(90e6, 0.8), Objective::MaxQuality)
            .unwrap();
        // t(1,2) = d_1 + d_min = 450 + 150 ms.
        let t = plan.timeout(0, 1).expect("defined");
        assert!((t - 0.600).abs() < 1e-12, "t = {t}");
        // Stage timers exist for real-path stages.
        let table = plan.strategy().table();
        let l = table
            .index_of(&[crate::Slot::Path(0), crate::Slot::Path(1)])
            .unwrap();
        let s0 = plan.schedule().stage(l, 0).expect("stage 0 armed");
        assert!(s0.retransmit);
        let s1 = plan.schedule().stage(l, 1).expect("stage 1 detect-only");
        assert!(!s1.retransmit);
    }

    #[test]
    fn min_cost_floor_must_be_reachable_and_in_range() {
        let scenario = costed_table3();
        let mut planner = Planner::new();
        let plan = planner
            .plan(&scenario, Objective::MinCost { min_quality: 0.9 })
            .unwrap();
        assert!(plan.quality() >= 0.9 - 1e-9);
        // Unreachable floor is an LP infeasibility.
        assert!(matches!(
            planner.plan(&scenario, Objective::MinCost { min_quality: 0.99 }),
            Err(PlanError::Solve(_))
        ));
        // Out-of-range floor is rejected before solving.
        assert!(matches!(
            planner.plan(&scenario, Objective::MinCost { min_quality: 1.5 }),
            Err(PlanError::Unsupported(_))
        ));
    }

    #[test]
    fn min_cost_works_for_random_scenarios_too() {
        // The min-cost objective is regime-independent: same assembly over
        // the Eq. 28 coefficients.
        let base = table5_scenario();
        let costed = base
            .with_path_replaced(
                0,
                ScenarioPath::new(
                    80e6,
                    Arc::new(ShiftedGamma::new(10.0, 0.004, 0.400).unwrap()),
                    0.2,
                    3e-9,
                )
                .unwrap(),
            )
            .with_path_replaced(
                1,
                ScenarioPath::new(
                    20e6,
                    Arc::new(ShiftedGamma::new(5.0, 0.002, 0.100).unwrap()),
                    0.0,
                    1e-9,
                )
                .unwrap(),
            );
        let mut planner = Planner::new();
        let qmax = planner.plan(&costed, Objective::MaxQuality).unwrap();
        let floor = qmax.quality() - 1e-9;
        let cheap = planner
            .plan(&costed, Objective::MinCost { min_quality: floor })
            .unwrap();
        assert!(cheap.quality() >= floor - 1e-6);
        assert!(cheap.cost_rate() <= qmax.cost_rate() + 1e-6);
    }

    #[test]
    fn budget_objective_requires_budget() {
        let mut planner = Planner::new();
        assert!(matches!(
            planner.plan(
                &table3_scenario(90e6, 0.8),
                Objective::MaxQualityUnderBudget
            ),
            Err(PlanError::Unsupported(_))
        ));
        let budgeted = Scenario::builder()
            .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 1.0).unwrap())
            .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 0.0).unwrap())
            .data_rate(90e6)
            .lifetime(0.8)
            .cost_budget(1.0)
            .build()
            .unwrap();
        let plan = planner
            .plan(&budgeted, Objective::MaxQualityUnderBudget)
            .unwrap();
        // Path 0 unaffordable → path-1-only quality 2/9.
        assert!(
            (plan.quality() - 2.0 / 9.0).abs() < 1e-6,
            "{}",
            plan.quality()
        );
        assert!(plan.cost_rate() <= 1.0 + 1e-6);
    }

    #[test]
    fn plan_with_margin_splits_lp_from_timeouts() {
        // Measured 400/100 ms, margin 50 ms: the LP sees 450/150 (Table IV
        // numbers) while timeouts keep 400/100 (t = d_i + d_min = 500 ms).
        let measured = Scenario::builder()
            .path(ScenarioPath::constant(80e6, 0.400, 0.2).unwrap())
            .path(ScenarioPath::constant(20e6, 0.100, 0.0).unwrap())
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        let mut planner = Planner::new();
        let plan = planner
            .plan_with_margin(&measured, 0.050, Objective::MaxQuality)
            .unwrap();
        assert!(
            (plan.quality() - 42.0 / 45.0).abs() < 1e-9,
            "{}",
            plan.quality()
        );
        let t = plan.timeout(0, 1).expect("defined");
        assert!((t - 0.500).abs() < 1e-12, "t = {t}");
        // The plan reports the *measured* scenario.
        assert_eq!(plan.scenario().paths()[0].constant_delay(), Some(0.400));
        // Margins don't apply to random scenarios.
        assert!(matches!(
            planner.plan_with_margin(&table5_scenario(), 0.05, Objective::MaxQuality),
            Err(PlanError::Unsupported(_))
        ));
    }

    #[test]
    fn planner_reuse_across_shapes_and_sweeps() {
        // One planner across different path counts, transmission counts
        // and regimes must keep producing correct answers.
        let mut planner = Planner::new();
        for m in 1..=3 {
            let s = table3_scenario(90e6, 1.5).with_transmissions(m);
            let plan = planner.plan(&s, Objective::MaxQuality).unwrap();
            let cold = Planner::new().plan(&s, Objective::MaxQuality).unwrap();
            assert_eq!(plan.strategy().x(), cold.strategy().x(), "m={m}");
        }
        let random = planner
            .plan(&table5_scenario(), Objective::MaxQuality)
            .unwrap();
        assert!((random.quality() - 0.9333).abs() < 0.005);
        let three_path = Scenario::builder()
            .path(ScenarioPath::constant(80e6, 0.450, 0.2).unwrap())
            .path(ScenarioPath::constant(20e6, 0.150, 0.0).unwrap())
            .path(ScenarioPath::constant(30e6, 0.250, 0.05).unwrap())
            .data_rate(130e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        let plan = planner.plan(&three_path, Objective::MaxQuality).unwrap();
        assert!(plan.strategy().is_well_formed(1e-9));
        assert!(plan.quality() > 0.0 && plan.quality() <= 1.0 + 1e-9);
    }

    #[test]
    fn model_plan_for_reproduces_plan_bit_for_bit() {
        // Deterministic and random regimes: solving ScenarioModel::problem
        // cold and packaging through ScenarioModel::plan_for must
        // reproduce the plan exactly (the fleet decomposition path relies
        // on this).
        let mut planner = Planner::new();
        for scenario in [table3_scenario(90e6, 0.8), table5_scenario()] {
            let plan = planner.plan(&scenario, Objective::MaxQuality).unwrap();
            let model = planner.model(&scenario);
            assert_eq!(model.num_combos(), plan.strategy().x().len());
            let x = model
                .problem(Objective::MaxQuality)
                .solve(&SolverOptions::default())
                .unwrap()
                .into_x();
            let repack = model.plan_for(Objective::MaxQuality, x);
            assert_eq!(repack.strategy().x(), plan.strategy().x());
            assert_eq!(repack.quality(), plan.quality());
            assert_eq!(repack.cost_rate(), plan.cost_rate());
            assert_eq!(repack.send_rates(), plan.send_rates());
            assert_eq!(repack.ack_path(), plan.ack_path());
            assert_eq!(repack.schedule(), plan.schedule());
        }
    }

    #[test]
    fn model_triplets_are_exactly_the_nonzero_coefficients() {
        let mut planner = Planner::new();
        for scenario in [table3_scenario(90e6, 0.8), table5_scenario()] {
            let model = planner.model(&scenario);
            let p = model.quality_coeffs();
            let trip: Vec<(usize, f64)> = model.quality_triplets().collect();
            assert_eq!(trip.len(), p.iter().filter(|&&v| v != 0.0).count());
            assert!(trip.iter().all(|&(i, v)| p[i] == v && v != 0.0));
            assert!(trip.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
            for k in 0..scenario.num_paths() {
                let u = model.usage_coeffs(k);
                let t: Vec<(usize, f64)> = model.usage_triplets(k).collect();
                assert_eq!(t.len(), u.iter().filter(|&&v| v != 0.0).count());
                assert!(t.iter().all(|&(i, v)| u[i] == v));
                // The usage rows have structural zeros (combinations that
                // never touch path k) — the sparsity is real.
                assert!(t.len() < u.len(), "path {k} usage should be sparse");
            }
            let c = model.cost_coeffs();
            let t: Vec<(usize, f64)> = model.cost_triplets().collect();
            assert_eq!(t.len(), c.iter().filter(|&&v| v != 0.0).count());
        }
    }

    #[test]
    fn warm_stats_count_hits_and_attempts() {
        let mut planner = Planner::new();
        for lambda in [60e6, 80e6, 100e6] {
            planner
                .plan(&table3_scenario(lambda, 0.8), Objective::MaxQuality)
                .unwrap();
        }
        let stats = planner.warm_stats();
        assert!(stats.hits > 0, "sweep never warm-started");
        assert_eq!(stats.attempts(), stats.hits + stats.misses);
        assert!(format!("{stats}").contains("warm hit"));
    }

    #[test]
    fn error_types_are_displayable() {
        let e = PlanError::from(SpecError("boom".into()));
        assert!(!format!("{e}").is_empty());
        let e = PlanError::Unsupported("no budget".into());
        assert!(format!("{e}").contains("no budget"));
    }

    #[test]
    fn blackhole_disabled_reports_infeasible() {
        let mut planner = Planner::with_config(PlannerConfig {
            blackhole: false,
            ..PlannerConfig::default()
        });
        let err = planner
            .plan(&table3_scenario(200e6, 0.8), Objective::MaxQuality)
            .unwrap_err();
        assert!(matches!(err, PlanError::Solve(_)));
        assert!(!format!("{err}").is_empty());
    }
}
