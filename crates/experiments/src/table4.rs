//! Table IV: optimal LP solutions for the Table III network.
//!
//! Both halves run their sweep through **one** [`Planner`], so the LP
//! workspace is reused across every row instead of re-allocating per
//! solve.

use crate::report;
use crate::scenarios;
use dmc_core::{Objective, Planner, PlannerConfig, SolverOptions, Strategy};

/// A fresh planner whose LP solves record into `obs` (disabled = the
/// plain default planner).
fn planner_with_obs(obs: &dmc_obs::Obs) -> Planner {
    Planner::with_config(PlannerConfig {
        solver: SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        },
        ..PlannerConfig::default()
    })
}

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The swept parameter (λ in bits/s for the top half, δ in seconds
    /// for the bottom half).
    pub param: f64,
    /// The solved strategy.
    pub strategy: Strategy,
}

impl Table4Row {
    /// Optimal quality `Q`.
    pub fn quality(&self) -> f64 {
        self.strategy.quality()
    }
}

/// Paper values for the top half (λ in Mbps → Q).
pub const PAPER_TOP: &[(f64, f64)] = &[
    (10.0, 1.0),
    (20.0, 1.0),
    (40.0, 1.0),
    (60.0, 1.0),
    (80.0, 1.0),
    (100.0, 0.84),
    (120.0, 0.70),
    (140.0, 0.60),
];

/// Paper values for the bottom half (δ in ms → Q).
pub const PAPER_BOTTOM: &[(f64, f64)] = &[
    (150.0, 0.2222222222222222),
    (400.0, 0.2222222222222222),
    (450.0, 0.8444444444444444),
    (700.0, 0.8444444444444444),
    (750.0, 0.9333333333333333),
    (1000.0, 0.9333333333333333),
    (1050.0, 0.9333333333333333),
];

/// Computes the top half: δ = 800 ms, λ swept (Mbps), with the
/// planner's LP solves recorded into `obs` (`lp.solves`, `lp.pivots`,
/// warm-start counters, per-kernel spans).
///
/// # Panics
///
/// Panics if the LP solver fails on these (always-feasible) scenarios.
pub fn top(lambdas_mbps: &[f64], obs: &dmc_obs::Obs) -> Vec<Table4Row> {
    let mut planner = planner_with_obs(obs);
    let base = scenarios::table3_model_scenario(90e6, 0.800);
    lambdas_mbps
        .iter()
        .map(|&l| Table4Row {
            param: l * 1e6,
            strategy: planner
                .plan(&base.with_data_rate(l * 1e6), Objective::MaxQuality)
                .expect("table-4 scenarios are feasible by construction")
                .into_strategy(),
        })
        .collect()
}

/// Computes the bottom half: λ = 90 Mbps, δ swept (ms), with the LP
/// solves recorded into `obs` (see [`top`]).
///
/// # Panics
///
/// Panics if the LP solver fails on these (always-feasible) scenarios.
pub fn bottom(deltas_ms: &[f64], obs: &dmc_obs::Obs) -> Vec<Table4Row> {
    let mut planner = planner_with_obs(obs);
    let base = scenarios::table3_model_scenario(90e6, 0.800);
    deltas_ms
        .iter()
        .map(|&d| Table4Row {
            param: d / 1e3,
            strategy: planner
                .plan(&base.with_lifetime(d / 1e3), Objective::MaxQuality)
                .expect("table-4 scenarios are feasible by construction")
                .into_strategy(),
        })
        .collect()
}

/// Renders a half as a markdown table (rows show the nonzero solution
/// entries, like the paper).
pub fn render(rows: &[Table4Row], param_name: &str, param_scale: f64) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let solution: Vec<String> = r
                .strategy
                .nonzero()
                .iter()
                .map(|(label, _, v)| format!("{label}={}", report::frac(*v)))
                .collect();
            vec![
                format!("{:.0}", r.param * param_scale),
                solution.join("  "),
                report::pct(r.quality()),
            ]
        })
        .collect();
    report::markdown_table(&[param_name, "solution", "quality Q"], &table_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_half_matches_paper() {
        let lambdas: Vec<f64> = PAPER_TOP.iter().map(|(l, _)| *l).collect();
        let rows = top(&lambdas, &dmc_obs::Obs::disabled());
        for (row, &(l, want)) in rows.iter().zip(PAPER_TOP) {
            assert!(
                (row.quality() - want).abs() < 1e-9,
                "λ={l} Mbps: Q={}, paper {want}",
                row.quality()
            );
        }
    }

    #[test]
    fn bottom_half_matches_paper() {
        let deltas: Vec<f64> = PAPER_BOTTOM.iter().map(|(d, _)| *d).collect();
        let rows = bottom(&deltas, &dmc_obs::Obs::disabled());
        for (row, &(d, want)) in rows.iter().zip(PAPER_BOTTOM) {
            assert!(
                (row.quality() - want).abs() < 1e-9,
                "δ={d} ms: Q={}, paper {want}",
                row.quality()
            );
        }
    }

    #[test]
    fn render_contains_quality_column() {
        let rows = top(&[40.0], &dmc_obs::Obs::disabled());
        let text = render(&rows, "rate (Mbps)", 1e-6);
        assert!(text.contains("100.0%"), "{text}");
    }
}
