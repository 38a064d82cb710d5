//! Figure 2: quality vs. data rate (top) and vs. lifetime (bottom) —
//! multipath theory, multipath simulation, and the two single-path
//! theoretical baselines.
//!
//! Each point's simulation runs through the parallel Monte-Carlo engine
//! ([`crate::montecarlo`]): the plan is solved once (warm-started across
//! the sweep), then `trials` independent seeded simulations run across
//! the worker pool and report mean quality with a Student-t CI.

use crate::montecarlo::{run_plan_trials, MonteCarloConfig};
use crate::runner::{RunConfig, TrueNetwork};
use crate::scenarios;
use dmc_core::{Objective, Planner};
use dmc_stats::TrialStats;

/// One point of a Figure 2 sweep.
#[derive(Debug, Clone)]
pub struct Figure2Point {
    /// Swept parameter: λ (bits/s) for the top panel, δ (s) for the
    /// bottom.
    pub param: f64,
    /// Multipath LP optimum (the theoretical upper bound).
    pub theory: f64,
    /// Measured simulation quality (mean across trials).
    pub simulation: f64,
    /// Per-trial quality statistics (CI support).
    pub sim_trials: TrialStats,
    /// Best quality using path 1 only.
    pub path1_theory: f64,
    /// Best quality using path 2 only.
    pub path2_theory: f64,
}

fn point(
    planner: &mut Planner,
    lambda: f64,
    delta: f64,
    cfg: &RunConfig,
    mc: &MonteCarloConfig,
) -> Figure2Point {
    let model = scenarios::table3_model_scenario(lambda, delta);
    let theory = planner
        .plan(&model, Objective::MaxQuality)
        .expect("figure-2 scenarios are feasible by construction")
        .quality();
    let path1_theory = planner
        .plan(&model.restricted_to_path(0), Objective::MaxQuality)
        .expect("figure-2 scenarios are feasible by construction")
        .quality();
    let path2_theory = planner
        .plan(&model.restricted_to_path(1), Objective::MaxQuality)
        .expect("figure-2 scenarios are feasible by construction")
        .quality();
    // The Experiment-1 split: plan against measured + margin, run on the
    // raw measured truth (the plan is solved once and shared by every
    // trial).
    let measured = scenarios::table3_scenario(lambda, delta);
    let plan = planner
        .plan_with_margin(&measured, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
        .expect("figure-2 scenarios are feasible by construction");
    let truth = TrueNetwork::from_scenario(&measured);
    let report = run_plan_trials(&plan, &truth, cfg, mc)
        .expect("figure-2 plan/network pairs are valid for the runner");
    Figure2Point {
        param: 0.0,
        theory,
        simulation: report.quality.mean(),
        sim_trials: report.quality,
        path1_theory,
        path2_theory,
    }
}

/// Top panel: δ = 800 ms, λ swept in Mbps. One planner (and one LP
/// workspace) serves the whole sweep; each point runs `mc.trials`
/// simulations across `mc` worker threads.
pub fn rate_sweep_mc(
    lambdas_mbps: &[f64],
    cfg: &RunConfig,
    mc: &MonteCarloConfig,
) -> Vec<Figure2Point> {
    let mut planner = Planner::new();
    lambdas_mbps
        .iter()
        .map(|&l| {
            let mut p = point(&mut planner, l * 1e6, 0.800, cfg, mc);
            p.param = l * 1e6;
            p
        })
        .collect()
}

/// [`rate_sweep_mc`] with one trial seeded from `cfg.seed` (the paper's
/// single-run protocol).
pub fn rate_sweep(lambdas_mbps: &[f64], cfg: &RunConfig) -> Vec<Figure2Point> {
    rate_sweep_mc(lambdas_mbps, cfg, &MonteCarloConfig::single(cfg.seed))
}

/// Bottom panel: λ = 90 Mbps, δ swept in ms. One planner serves the
/// whole sweep; each point runs `mc.trials` simulations.
pub fn lifetime_sweep_mc(
    deltas_ms: &[f64],
    cfg: &RunConfig,
    mc: &MonteCarloConfig,
) -> Vec<Figure2Point> {
    let mut planner = Planner::new();
    deltas_ms
        .iter()
        .map(|&d| {
            let mut p = point(&mut planner, 90e6, d / 1e3, cfg, mc);
            p.param = d / 1e3;
            p
        })
        .collect()
}

/// [`lifetime_sweep_mc`] with one trial seeded from `cfg.seed`.
pub fn lifetime_sweep(deltas_ms: &[f64], cfg: &RunConfig) -> Vec<Figure2Point> {
    lifetime_sweep_mc(deltas_ms, cfg, &MonteCarloConfig::single(cfg.seed))
}

/// The paper's x-axes.
pub fn paper_lambdas() -> Vec<f64> {
    (1..=15).map(|i| i as f64 * 10.0).collect()
}

/// The paper's lifetime axis (50–1100 ms).
pub fn paper_deltas() -> Vec<f64> {
    (1..=22).map(|i| i as f64 * 50.0).collect()
}

/// Renders a sweep as a markdown table; with multiple trials per point a
/// `±95% CI` column (Student-t half-width, in percentage points) appears
/// after the simulation mean.
pub fn render(points: &[Figure2Point], param_name: &str, param_scale: f64) -> String {
    let with_ci = points.iter().any(|p| p.sim_trials.count() > 1);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![
                format!("{:.0}", p.param * param_scale),
                crate::report::pct(p.theory),
                crate::report::pct(p.simulation),
            ];
            if with_ci {
                row.push(format!("±{:.2}", p.sim_trials.half_width(0.95) * 100.0));
            }
            row.push(crate::report::pct(p.path1_theory));
            row.push(crate::report::pct(p.path2_theory));
            row
        })
        .collect();
    let mut header = vec![param_name, "multipath theory", "multipath sim"];
    if with_ci {
        header.push("±95% CI");
    }
    header.push("path1 theory");
    header.push("path2 theory");
    crate::report::markdown_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::default();
        cfg.messages = 3_000;
        cfg
    }

    #[test]
    fn simulation_tracks_theory_at_spot_points() {
        for p in rate_sweep(&[40.0, 120.0], &quick_cfg()) {
            assert!(
                (p.simulation - p.theory).abs() < 0.03,
                "λ={}: sim {} vs theory {}",
                p.param,
                p.simulation,
                p.theory
            );
        }
    }

    #[test]
    fn multipath_dominates_single_paths_across_sweep() {
        let cfg = quick_cfg();
        for p in lifetime_sweep(&[300.0, 600.0, 900.0], &cfg) {
            assert!(p.theory >= p.path1_theory - 1e-9);
            assert!(p.theory >= p.path2_theory - 1e-9);
        }
    }

    #[test]
    fn crossover_shape_matches_paper() {
        // Figure 2 bottom: path 1 alone is useless below δ = 450 ms
        // (Q=0), path 2 alone is capacity-capped at 2/9; multipath sits
        // at 22% below 450 and jumps to 84% at 450.
        let pts = lifetime_sweep(&[400.0, 450.0], &quick_cfg());
        assert!(pts[0].path1_theory < 1e-9);
        assert!((pts[0].path2_theory - 2.0 / 9.0).abs() < 1e-9);
        assert!((pts[0].theory - 2.0 / 9.0).abs() < 1e-9);
        assert!((pts[1].theory - 0.8444444444444444).abs() < 1e-9);
    }
}
