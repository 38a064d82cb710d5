//! Figure 3: sensitivity of the achieved quality to estimation errors.
//!
//! The sender solves the LP for a *perturbed* copy of the network (one
//! metric of one path off by a given error), then the resulting strategy
//! runs on the true network. Three panels: bandwidth error (relative),
//! delay error (relative), loss error (absolute), each with one curve per
//! perturbed path.

use crate::montecarlo::{run_plan_trials, MonteCarloConfig};
use crate::runner::{RunConfig, TrueNetwork};
use crate::scenarios;
use dmc_core::{NetworkSpec, Objective, Planner, Scenario};
use dmc_stats::TrialStats;

/// Which metric Figure 3 perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Relative error on `b_i` (top panel).
    Bandwidth,
    /// Relative error on `d_i` (middle panel).
    Delay,
    /// Absolute error on `τ_i` (bottom panel).
    Loss,
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// The injected error (relative for bandwidth/delay, absolute for
    /// loss).
    pub error: f64,
    /// Which path (0-based) was mis-estimated.
    pub path: usize,
    /// Measured quality on the true network (mean across trials).
    pub quality: f64,
    /// Per-trial quality statistics (CI support).
    pub trials: TrialStats,
}

/// Applies an estimation error to one path of the model network.
pub fn perturb(net: &NetworkSpec, metric: Metric, path: usize, error: f64) -> NetworkSpec {
    let p = net.paths()[path];
    let perturbed = match metric {
        Metric::Bandwidth => p.scaled_bandwidth(1.0 + error),
        Metric::Delay => p.scaled_delay(1.0 + error),
        Metric::Loss => p.offset_loss(error),
    };
    net.with_path_replaced(path, perturbed)
}

/// Runs one sensitivity curve through the Monte-Carlo engine:
/// λ = 90 Mbps, δ = 800 ms (the paper's operating point), sweeping
/// `errors` on `metric` of `path`, `mc.trials` seeded simulations per
/// point.
pub fn curve_mc(
    metric: Metric,
    path: usize,
    errors: &[f64],
    cfg: &RunConfig,
    mc: &MonteCarloConfig,
) -> Vec<SensitivityPoint> {
    // One planner across the curve: every point solves the same LP shape
    // with slightly perturbed coefficients, so each warm-starts from the
    // previous point's optimal basis.
    let mut planner = Planner::new();
    let truth = TrueNetwork::from_scenario(&scenarios::table3_scenario(90e6, 0.800));
    errors
        .iter()
        .map(|&error| {
            // The error contaminates the sender's *measurement*; the LP's
            // conservative margin is applied on top, as in Experiment 1.
            let believed = perturb(&scenarios::table3_true(90e6, 0.800), metric, path, error);
            let scenario = Scenario::from_network(&believed);
            let trials = planner
                .plan_with_margin(&scenario, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
                .map_err(|e| e.to_string())
                .and_then(|plan| run_plan_trials(&plan, &truth, cfg, mc))
                .map(|r| r.quality)
                .unwrap_or_default();
            SensitivityPoint {
                error,
                path,
                quality: trials.mean(),
                trials,
            }
        })
        .collect()
}

/// [`curve_mc`] with one trial seeded from `cfg.seed` (the paper's
/// single-run protocol).
pub fn curve(
    metric: Metric,
    path: usize,
    errors: &[f64],
    cfg: &RunConfig,
) -> Vec<SensitivityPoint> {
    curve_mc(
        metric,
        path,
        errors,
        cfg,
        &MonteCarloConfig::single(cfg.seed),
    )
}

/// The paper's x-axis for the relative-error panels (−50 % … +50 %).
pub fn relative_errors() -> Vec<f64> {
    (-5..=5).map(|i| i as f64 * 0.1).collect()
}

/// The paper's x-axis for the loss panel (−0.2 … +1.0).
pub fn loss_errors() -> Vec<f64> {
    (-2..=10).map(|i| i as f64 * 0.1).collect()
}

/// Renders both curves of one panel side by side; with multiple trials
/// per point, ±95 % CI columns (percentage points) follow each curve.
pub fn render(metric: Metric, path1: &[SensitivityPoint], path2: &[SensitivityPoint]) -> String {
    let with_ci = path1.iter().chain(path2).any(|p| p.trials.count() > 1);
    let ci = |p: &SensitivityPoint| format!("±{:.2}", p.trials.half_width(0.95) * 100.0);
    let rows: Vec<Vec<String>> = path1
        .iter()
        .zip(path2)
        .map(|(a, b)| {
            let mut row = vec![format!("{:+.1}", a.error), crate::report::pct(a.quality)];
            if with_ci {
                row.push(ci(a));
            }
            row.push(crate::report::pct(b.quality));
            if with_ci {
                row.push(ci(b));
            }
            row
        })
        .collect();
    let name = match metric {
        Metric::Bandwidth => "bandwidth error",
        Metric::Delay => "delay error",
        Metric::Loss => "loss error (abs)",
    };
    let header: Vec<&str> = if with_ci {
        vec![
            name,
            "perturb path 1",
            "±95% CI",
            "perturb path 2",
            "±95% CI",
        ]
    } else {
        vec![name, "perturb path 1", "perturb path 2"]
    };
    crate::report::markdown_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::default();
        cfg.messages = 4_000;
        cfg
    }

    #[test]
    fn perturbation_applies_to_selected_path_only() {
        let net = scenarios::table3_true(90e6, 0.8);
        let p = perturb(&net, Metric::Bandwidth, 0, -0.5);
        assert_eq!(p.paths()[0].bandwidth(), 40e6);
        assert_eq!(p.paths()[1], net.paths()[1]);
        let p = perturb(&net, Metric::Loss, 1, 0.3);
        assert!((p.paths()[1].loss() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_underestimate_hurts_overestimate_does_not() {
        // The paper's Fig. 3 (top): underestimating capacity forces
        // drops; overestimating congests but quality stays roughly flat
        // (overflow loss replaces the blackhole). The flat side is a
        // steady-state property, so this point runs longer.
        let mut cfg = quick_cfg();
        cfg.messages = 10_000;
        let pts = curve(Metric::Bandwidth, 0, &[-0.4, 0.0, 0.4], &cfg);
        let (under, exact, over) = (pts[0].quality, pts[1].quality, pts[2].quality);
        assert!(under < exact - 0.05, "under {under} vs exact {exact}");
        assert!((over - exact).abs() < 0.06, "over {over} vs exact {exact}");
    }

    #[test]
    fn delay_has_plateau_at_zero_error() {
        // Fig. 3 (middle): small delay errors (≤10%) do not hurt.
        let cfg = quick_cfg();
        let pts = curve(Metric::Delay, 0, &[-0.1, 0.0, 0.1], &cfg);
        let exact = pts[1].quality;
        for p in &pts {
            assert!(
                (p.quality - exact).abs() < 0.03,
                "error {}: {} vs {exact}",
                p.error,
                p.quality
            );
        }
    }
}
