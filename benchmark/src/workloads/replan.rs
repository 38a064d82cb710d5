//! `flow_replan` — the adaptive sender's loop on one warm `Planner`.
//!
//! A stream of re-plans, each a seeded ±20 % perturbation of one of
//! three base scenarios: `det2` (Table III, 9 LP columns), `det6m3` (six
//! synthetic paths, three transmissions, 343 columns) and `rand2`
//! (Table V's shifted-gamma delays, Eq. 34 timeouts). No fleet code runs.
//!
//! The traced run decomposes `Planner::plan` exactly, through public
//! entry points only: `Planner::model` → a `Problem` assembled here the
//! way the planner assembles its own → `solve_with` / `solve_warm_with`
//! with a shape-keyed basis cache → `ScenarioModel::plan_for`. The parts
//! must add up to the whole (`core.unaccounted_share`), and the quality
//! they reach must be the planner's.

use crate::harness::{fnv1a, Outcome, Prefix, Recorder, Workload, FNV_BASIS};
use crate::rng::SplitMix64;
use crate::stats::ratio;
use crate::trace::{timed, Tracer};
use dmc_core::{
    Objective, Plan, PlanError, Planner, PlannerConfig, Scenario, ScenarioModel, ScenarioPath,
    SolveError, SolverOptions, Workspace,
};
use dmc_lp::{Basis, ConstraintKind, Problem};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Re-plans in the deterministic prefix.
const PREFIX_PLANS: u64 = 1500;
const QUALITY_SLACK: f64 = 1e-7;

/// The three scenario shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Det2,
    Det6m3,
    Rand2,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Det2 => "det2",
            Class::Det6m3 => "det6m3",
            Class::Rand2 => "rand2",
        }
    }
}

/// Per-bit path cost: a unit price that grows with the path index, so
/// `MinCost` and the budget row have something to trade.
fn priced(paths: &[ScenarioPath]) -> Result<Vec<ScenarioPath>, String> {
    paths
        .iter()
        .enumerate()
        .map(|(k, p)| {
            ScenarioPath::new(
                p.bandwidth(),
                Arc::clone(p.delay()),
                p.loss(),
                1e-9 * (1.0 + k as f64),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// The base scenarios (paths priced, no budget yet).
struct Bases {
    det2: Scenario,
    det6m3: Scenario,
    rand2: Scenario,
}

impl Bases {
    fn new() -> Result<Bases, String> {
        use dmc_experiments::scenarios;
        let rebuild = |base: &Scenario, m: usize| -> Result<Scenario, String> {
            Scenario::builder()
                .paths(priced(base.paths())?)
                .data_rate(base.data_rate())
                .lifetime(base.lifetime())
                .transmissions(m)
                .build()
                .map_err(|e| e.to_string())
        };
        let six = Scenario::from_network(&dmc_experiments::figure4::synthetic_network(6));
        Ok(Bases {
            det2: rebuild(&scenarios::table3_model_scenario(90e6, 0.8), 2)?,
            det6m3: rebuild(&six, 3)?,
            rand2: rebuild(&scenarios::table5_scenario(90e6, 0.75), 2)?,
        })
    }

    fn of(&self, class: Class) -> &Scenario {
        match class {
            Class::Det2 => &self.det2,
            Class::Det6m3 => &self.det6m3,
            Class::Rand2 => &self.rand2,
        }
    }
}

/// One re-plan request.
struct Replan {
    class: Class,
    scenario: Scenario,
    objective: Objective,
}

struct Script {
    rng: SplitMix64,
    bases: Bases,
}

impl Script {
    fn new(seed: u64) -> Result<Script, String> {
        Ok(Script {
            rng: SplitMix64::new(seed, 0xF10A),
            bases: Bases::new()?,
        })
    }

    /// 60 % `det2`, 25 % `det6m3`, 15 % `rand2`; 80 % `MaxQuality`, 10 %
    /// `MinCost`, 10 % `MaxQualityUnderBudget`; λ, δ and one path's
    /// bandwidth and loss each move by up to ±20 %.
    fn next(&mut self) -> Result<Replan, String> {
        let class = match self.rng.below(20) {
            0..=11 => Class::Det2,
            12..=16 => Class::Det6m3,
            _ => Class::Rand2,
        };
        let base = self.bases.of(class);
        let mut wobble = || self.rng.range(0.8, 1.2);
        let lambda = base.data_rate() * wobble();
        let mut scenario = base
            .with_data_rate(lambda)
            .with_lifetime(base.lifetime() * wobble());
        let k = self.rng.below(base.num_paths() as u64) as usize;
        let path = &base.paths()[k];
        let mut wobble = || self.rng.range(0.8, 1.2);
        let moved = ScenarioPath::new(
            path.bandwidth() * wobble(),
            Arc::clone(path.delay()),
            (path.loss() * wobble()).min(0.99),
            path.cost(),
        )
        .map_err(|e| e.to_string())?;
        scenario = scenario.with_path_replaced(k, moved);
        let objective = match self.rng.below(10) {
            0 => Objective::MinCost {
                min_quality: self.rng.range(0.3, 0.7),
            },
            1 => {
                // Enough to send everything once on the cheapest paths,
                // not enough to retransmit freely on the dear ones.
                let budget = lambda * 1e-9 * self.rng.range(1.0, 2.5);
                scenario = scenario.with_cost_budget(budget);
                Objective::MaxQualityUnderBudget
            }
            _ => Objective::MaxQuality,
        };
        Ok(Replan {
            class,
            scenario,
            objective,
        })
    }
}

/// An infeasible plan is an answer (quality 0); anything else is a
/// failure. Returns `(quality, violation)`.
fn judge(replan: &Replan, result: &Result<Plan, PlanError>) -> (f64, Option<String>) {
    match result {
        Ok(plan) => {
            let q = plan.quality();
            let sane =
                (0.0..=1.0 + QUALITY_SLACK).contains(&q) && plan.strategy().is_well_formed(1e-6);
            let floor_met = match replan.objective {
                Objective::MinCost { min_quality } => q >= min_quality - QUALITY_SLACK,
                _ => true,
            };
            let budget = replan.scenario.cost_budget();
            let within_budget =
                !budget.is_finite() || plan.cost_rate() <= budget * (1.0 + 1e-6) + 1e-12;
            if sane && floor_met && within_budget {
                (q, None)
            } else {
                (
                    q,
                    Some(format!(
                        "{} {:?}: quality {q}, cost rate {} against budget {budget}",
                        replan.class.label(),
                        replan.objective,
                        plan.cost_rate()
                    )),
                )
            }
        }
        Err(PlanError::Solve(SolveError::Infeasible { .. })) => (0.0, None),
        Err(e) => (
            0.0,
            Some(format!(
                "{} {:?}: {e}",
                replan.class.label(),
                replan.objective
            )),
        ),
    }
}

/// The workload as the harness drives it untraced.
pub struct Replanner {
    script: Script,
    planner: Planner,
}

impl Replanner {
    pub fn setup(seed: u64) -> Result<(Replanner, Prefix), String> {
        let mut script = Script::new(seed)?;
        let mut planner = Planner::new();
        let mut prefix = Prefix {
            served: 0.0,
            offered: 0.0,
            hash: FNV_BASIS,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        };
        for _ in 0..PREFIX_PLANS {
            let replan = script.next()?;
            let result = planner.plan(&replan.scenario, replan.objective);
            let (quality, violation) = judge(&replan, &result);
            prefix.served += quality;
            prefix.offered += 1.0;
            prefix.attempted += 1;
            prefix.hash = fnv1a(prefix.hash, &quality.to_bits().to_le_bytes());
            if let Some(v) = violation {
                prefix.failed += 1;
                if prefix.reasons.len() < 8 {
                    prefix.reasons.push(v);
                }
            }
        }
        Ok((Replanner { script, planner }, prefix))
    }
}

impl Workload for Replanner {
    fn step(&mut self, rec: &mut Recorder) {
        let replan = match self.script.next() {
            Ok(replan) => replan,
            Err(e) => {
                rec.batch(0, 1);
                rec.fail(1, || format!("generator: {e}"));
                return;
            }
        };
        let (result, ns) = timed(None, "core.planner.plan", 0, || {
            self.planner.plan(&replan.scenario, replan.objective)
        });
        rec.batch(ns, 1);
        rec.latency_us(ns as f64 / 1e3);
        let (quality, violation) = judge(&replan, &result);
        rec.served(quality, 1.0);
        if let Some(v) = violation {
            rec.fail(1, || v);
        }
    }
}

// ---------------------------------------------------------------------
// The traced run: Planner::plan taken apart from outside.
// ---------------------------------------------------------------------

/// Shape of an assembled LP, as the planner keys its basis cache:
/// variable count, row count, and which rows are equalities.
type Shape = (usize, usize, u128);

fn shape_of(problem: &Problem) -> Shape {
    let mut eq_mask = 0u128;
    for (i, c) in problem.constraints().iter().enumerate().take(128) {
        if c.kind() == ConstraintKind::Eq {
            eq_mask |= 1 << i;
        }
    }
    (problem.num_vars(), problem.num_constraints(), eq_mask)
}

/// Assembles the LP of Eq. 10 (or Eq. 20–23 for `MinCost`) from a
/// model's coefficient vectors, row for row as `Planner::plan` does.
fn assemble(model: &ScenarioModel, objective: Objective) -> Result<Problem, String> {
    let scenario = model.scenario();
    let lambda = scenario.data_rate();
    let n = model.num_combos();
    let capacity_rows = |lp: &mut Problem| -> Result<(), String> {
        for (k, path) in scenario.paths().iter().enumerate() {
            lp.add_le(model.usage_coeffs(k).to_vec(), path.bandwidth() / lambda)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let mut lp;
    match objective {
        Objective::MaxQuality | Objective::MaxQualityUnderBudget => {
            lp = Problem::maximize(model.quality_coeffs().to_vec());
            capacity_rows(&mut lp)?;
            if scenario.cost_budget().is_finite() {
                lp.add_le(
                    model.cost_coeffs().to_vec(),
                    scenario.cost_budget() / lambda,
                )
                .map_err(|e| e.to_string())?;
            }
        }
        Objective::MinCost { min_quality } => {
            lp = Problem::minimize(model.cost_coeffs().to_vec());
            capacity_rows(&mut lp)?;
            lp.add_ge(model.quality_coeffs().to_vec(), min_quality)
                .map_err(|e| e.to_string())?;
        }
    }
    lp.add_eq(vec![1.0; n], 1.0).map_err(|e| e.to_string())?;
    Ok(lp)
}

/// The decomposed rung: the planner's four stages, each timed.
struct Parts {
    planner: Planner,
    options: SolverOptions,
    workspace: Workspace,
    bases: BTreeMap<Shape, Basis>,
    model_ns: BTreeMap<Class, (u64, u64)>,
    solve_ns: BTreeMap<Class, (u64, u64)>,
    assemble_ns: u64,
    plan_for_ns: u64,
    plans: u64,
    combos: u64,
    total_ns: u64,
}

impl Parts {
    fn new() -> Parts {
        Parts {
            planner: Planner::new(),
            options: PlannerConfig::default().solver,
            workspace: Workspace::new(),
            bases: BTreeMap::new(),
            model_ns: BTreeMap::new(),
            solve_ns: BTreeMap::new(),
            assemble_ns: 0,
            plan_for_ns: 0,
            plans: 0,
            combos: 0,
            total_ns: 0,
        }
    }

    /// Quality reached (`None` when infeasible).
    fn plan(
        &mut self,
        replan: &Replan,
        request: u64,
        tracer: &mut Tracer,
    ) -> Result<Option<f64>, String> {
        let span = tracer.begin("rung.parts.plan", request);
        let (model, model_ns) = tracer.leaf("core.planner.model", request, || {
            self.planner.model(&replan.scenario)
        });
        let (problem, assemble_ns) = tracer.leaf("rung.parts.assemble", request, || {
            assemble(&model, replan.objective)
        });
        let problem = problem?;
        let shape = shape_of(&problem);
        let (solved, solve_ns) = tracer.leaf("lp.problem.solve", request, || {
            match self.bases.get(&shape) {
                Some(basis) => problem.solve_warm_with(&self.options, &mut self.workspace, basis),
                None => problem.solve_with(&self.options, &mut self.workspace),
            }
        });
        let quality = match solved {
            Ok(solution) => {
                if let Some(basis) = solution.basis() {
                    self.bases.insert(shape, basis.clone());
                }
                let (plan, ns) = tracer.leaf("core.model.plan_for", request, || {
                    model.plan_for(replan.objective, solution.into_x())
                });
                self.plan_for_ns += ns;
                Some(plan.quality())
            }
            Err(SolveError::Infeasible { .. }) => None,
            Err(e) => {
                tracer.end(span);
                return Err(format!("parts rung, {}: {e}", replan.class.label()));
            }
        };
        self.total_ns += tracer.end(span);
        let slot = self.model_ns.entry(replan.class).or_default();
        *slot = (slot.0 + model_ns, slot.1 + 1);
        let slot = self.solve_ns.entry(replan.class).or_default();
        *slot = (slot.0 + solve_ns, slot.1 + 1);
        self.assemble_ns += assemble_ns;
        self.plans += 1;
        self.combos += model.num_combos() as u64;
        Ok(quality)
    }
}

/// The traced run: `Planner::plan` untraced, the same with telemetry and
/// a span, and the decomposed rung, in lockstep on identical re-plans.
pub fn trace(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let obs = dmc_obs::Obs::enabled();
    let mut script = Script::new(seed)?;
    let mut plain = Planner::new();
    let mut traced = Planner::with_config(PlannerConfig {
        solver: SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        },
        ..PlannerConfig::default()
    });
    let mut parts = Parts::new();

    let wall = Instant::now();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reasons: Vec<String> = Vec::new();
    let budget_ns = (seconds * 1e9 / 3.0) as u64;
    while plain_ns < budget_ns {
        let replan = script.next()?;
        // The rungs take turns going first (see `svc::trace`).
        let mut result = None;
        let mut result_traced = None;
        let mut from_parts = None;
        for k in 0..3 {
            match if attempted % 2 == 0 { k } else { 2 - k } {
                0 => {
                    let (r, ns) = timed(None, "core.planner.plan", attempted, || {
                        plain.plan(&replan.scenario, replan.objective)
                    });
                    plain_ns += ns;
                    result = Some(r);
                }
                1 => {
                    let (r, ns) = tracer.leaf("core.planner.plan", attempted, || {
                        traced.plan(&replan.scenario, replan.objective)
                    });
                    traced_ns += ns;
                    result_traced = Some(r);
                }
                _ => from_parts = Some(parts.plan(&replan, attempted, tracer)?),
            }
        }
        let (Some(result), Some(result_traced), Some(from_parts)) =
            (result, result_traced, from_parts)
        else {
            return Err("every rung runs once per re-plan".into());
        };

        attempted += 1;
        let (quality, violation) = judge(&replan, &result);
        let whole = result.as_ref().ok().map(|_| quality);
        let agree = |other: Option<f64>| match (whole, other) {
            (Some(a), Some(b)) => (a - b).abs() <= 1e-9,
            (None, None) => true,
            _ => false,
        };
        let traced_quality = result_traced.as_ref().ok().map(Plan::quality);
        let mut problems: Vec<String> = violation.into_iter().collect();
        if !agree(traced_quality) || !agree(from_parts) {
            problems.push(format!(
                "{} {:?}: plan() reached {whole:?}, traced plan() {traced_quality:?}, the parts \
                 {from_parts:?}",
                replan.class.label(),
                replan.objective
            ));
        }
        failed += u64::from(!problems.is_empty());
        for p in problems {
            if reasons.len() < 8 {
                reasons.push(p);
            }
        }
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;

    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let per_class = |table: &BTreeMap<Class, (u64, u64)>, class: Class| {
        table
            .get(&class)
            .map_or(0.0, |(ns, n)| ratio(*ns as f64, *n as f64) / 1e3)
    };
    let parts_ns = parts.total_ns as f64;
    let warm = plain.warm_stats();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "core.model_us.det2",
        per_class(&parts.model_ns, Class::Det2),
    );
    m.insert(
        "core.model_us.det6m3",
        per_class(&parts.model_ns, Class::Det6m3),
    );
    m.insert(
        "core.model_us.rand2",
        per_class(&parts.model_ns, Class::Rand2),
    );
    m.insert(
        "core.plan_for_us",
        ratio(parts.plan_for_ns as f64, parts.plans as f64) / 1e3,
    );
    m.insert(
        "core.plan_us",
        ratio(plain_ns as f64, attempted as f64) / 1e3,
    );
    m.insert(
        "core.combos_mean",
        ratio(parts.combos as f64, parts.plans as f64),
    );
    m.insert(
        "core.warm_hit_ratio",
        ratio(warm.hits as f64, warm.attempts() as f64),
    );
    m.insert(
        "core.unaccounted_share",
        1.0 - ratio(parts_ns, plain_ns as f64),
    );
    m.insert("lp.solve_us.det2", per_class(&parts.solve_ns, Class::Det2));
    m.insert(
        "lp.solve_us.det6m3",
        per_class(&parts.solve_ns, Class::Det6m3),
    );
    m.insert(
        "lp.solve_us.rand2",
        per_class(&parts.solve_ns, Class::Rand2),
    );
    m.insert("lp.solves", counter("lp.solves"));
    m.insert(
        "lp.pivots_per_solve",
        ratio(counter("lp.pivots"), counter("lp.solves")),
    );
    m.insert("lp.refactorizations", counter("lp.refactorizations"));
    m.insert(
        "lp.warm_used_ratio",
        ratio(counter("lp.warm_used"), counter("lp.warm_attempts")),
    );
    m.insert("lp.errors", counter("lp.errors"));
    m.insert(
        "obs.overhead_ratio",
        ratio(plain_ns as f64, traced_ns as f64),
    );
    m.insert(
        "harness.gen_share",
        1.0 - ratio((plain_ns + traced_ns) as f64 + parts_ns, wall_ns),
    );

    let unaccounted = 1.0 - ratio(parts_ns, plain_ns as f64);
    if unaccounted > 0.10 {
        failed += 1;
        reasons.push(format!(
            "core.unaccounted_share {unaccounted:.4} exceeds 0.10: the parts no longer add up to \
             Planner::plan"
        ));
    }
    let mut notes = vec![format!(
        "decomposition over {} re-plans: Planner::plan {:.3} s = model {:.3} s + assemble {:.3} s \
         + solve {:.3} s + plan_for {:.3} s (+ {:.3} s between the parts); traced plan {:.3} s",
        attempted,
        plain_ns as f64 * 1e-9,
        parts.model_ns.values().map(|v| v.0).sum::<u64>() as f64 * 1e-9,
        parts.assemble_ns as f64 * 1e-9,
        parts.solve_ns.values().map(|v| v.0).sum::<u64>() as f64 * 1e-9,
        parts.plan_for_ns as f64 * 1e-9,
        (parts_ns
            - (parts.model_ns.values().map(|v| v.0).sum::<u64>()
                + parts.solve_ns.values().map(|v| v.0).sum::<u64>()
                + parts.assemble_ns
                + parts.plan_for_ns) as f64)
            * 1e-9,
        traced_ns as f64 * 1e-9,
    )];
    for reason in &reasons {
        notes.push(format!("FAILED CHECK: {reason}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_its_classes_and_objectives() {
        let mut script = Script::new(3).expect("literal scenarios are valid");
        let mut classes: BTreeMap<Class, u32> = BTreeMap::new();
        let (mut min_cost, mut budget) = (0, 0);
        for _ in 0..2000 {
            let r = script.next().expect("perturbed scenarios stay valid");
            *classes.entry(r.class).or_default() += 1;
            match r.objective {
                Objective::MinCost { .. } => min_cost += 1,
                Objective::MaxQualityUnderBudget => {
                    budget += 1;
                    assert!(r.scenario.cost_budget().is_finite());
                }
                Objective::MaxQuality => assert!(!r.scenario.cost_budget().is_finite()),
            }
            let n = r.scenario.num_paths() + 1;
            let columns = n.pow(r.scenario.transmissions() as u32);
            assert_eq!(
                columns,
                match r.class {
                    Class::Det2 | Class::Rand2 => 9,
                    Class::Det6m3 => 343,
                }
            );
        }
        assert!((1100..1300).contains(&classes[&Class::Det2]));
        assert!((400..600).contains(&classes[&Class::Det6m3]));
        assert!((220..380).contains(&classes[&Class::Rand2]));
        assert!((140..260).contains(&min_cost) && (140..260).contains(&budget));
    }

    #[test]
    fn the_parts_reach_the_planners_quality() {
        let mut script = Script::new(8).expect("literal scenarios are valid");
        let mut planner = Planner::new();
        let mut parts = Parts::new();
        let mut tracer = Tracer::new();
        for i in 0..60 {
            let r = script.next().expect("perturbed scenarios stay valid");
            let whole = planner.plan(&r.scenario, r.objective);
            let from_parts = parts.plan(&r, i, &mut tracer).expect("no solver failure");
            match (whole, from_parts) {
                (Ok(plan), Some(q)) => assert!((plan.quality() - q).abs() <= 1e-9),
                (Err(PlanError::Solve(SolveError::Infeasible { .. })), None) => {}
                (whole, from_parts) => panic!(
                    "plan {:?} vs parts {from_parts:?}",
                    whole.map(|p| p.quality())
                ),
            }
        }
    }
}
