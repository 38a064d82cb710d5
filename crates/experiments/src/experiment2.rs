//! Experiment 2: the random-delay extension end-to-end — Eq. 34 timeouts,
//! expected quality, and the gamma-delay simulation (paper: 93,332 of
//! 100,000 messages in time; expected 93.3 %).

use crate::montecarlo::{run_plan_trials, MonteCarloConfig};
use crate::runner::{RunConfig, RunOutcome, TrueNetwork};
use crate::scenarios;
use dmc_core::{Objective, Planner};
use dmc_stats::TrialStats;

/// Everything Experiment 2 reports.
#[derive(Debug, Clone)]
pub struct Experiment2Result {
    /// `t(1,2)` in seconds (paper: 615 ms).
    pub t12: Option<f64>,
    /// `t(2,1)` in seconds (paper: 252 ms).
    pub t21: Option<f64>,
    /// `t(2,2)` in seconds (paper: 323 ms, on a wide plateau).
    pub t22: Option<f64>,
    /// `t(1,1)` — the paper says undefined (must be `None`).
    pub t11: Option<f64>,
    /// Model-expected quality (paper: 93.3 %).
    pub expected_quality: f64,
    /// Trial 0's simulation outcome (counter detail).
    pub outcome: RunOutcome,
    /// Measured quality across all trials.
    pub quality_trials: TrialStats,
}

/// Runs the full experiment through the Monte-Carlo engine: λ = 90 Mbps,
/// δ = 750 ms, Table V network, `mc.trials` independently seeded
/// simulations. The true links are over-provisioned ×1.5 (the paper
/// over-provisions to isolate the delay distribution from queueing).
///
/// # Errors
///
/// Forwards solver/simulation failures as strings.
pub fn run_mc(cfg: &RunConfig, mc: &MonteCarloConfig) -> Result<Experiment2Result, String> {
    let scenario = scenarios::table5_scenario(90e6, 0.750);
    let plan = Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .map_err(|e| e.to_string())?;
    let true_net = TrueNetwork::from_scenario(&scenario).over_provisioned(1.5);
    let report = run_plan_trials(&plan, &true_net, cfg, mc)?;
    Ok(Experiment2Result {
        t12: plan.timeout(0, 1),
        t21: plan.timeout(1, 0),
        t22: plan.timeout(1, 1),
        t11: plan.timeout(0, 0),
        expected_quality: plan.quality(),
        outcome: report.first,
        quality_trials: report.quality,
    })
}

/// [`run_mc`] with one trial seeded from `cfg.seed` (the paper's
/// single-run protocol).
///
/// # Errors
///
/// Forwards solver/simulation failures as strings.
pub fn run(cfg: &RunConfig) -> Result<Experiment2Result, String> {
    run_mc(cfg, &MonteCarloConfig::single(cfg.seed))
}

/// Renders the result in the paper's terms.
pub fn render(r: &Experiment2Result) -> String {
    let ms = |t: Option<f64>| {
        t.map(|v| format!("{:.0} ms", v * 1e3))
            .unwrap_or_else(|| "undefined".into())
    };
    let mut out = String::new();
    out.push_str("Experiment 2 (Table V, λ=90 Mbps, δ=750 ms)\n");
    out.push_str(&format!("  t(1,2) = {:>9}   (paper: 615 ms)\n", ms(r.t12)));
    out.push_str(&format!("  t(2,1) = {:>9}   (paper: 252 ms)\n", ms(r.t21)));
    out.push_str(&format!(
        "  t(2,2) = {:>9}   (paper: 323 ms, wide plateau)\n",
        ms(r.t22)
    ));
    out.push_str(&format!(
        "  t(1,1) = {:>9}   (paper: undefined)\n",
        ms(r.t11)
    ));
    out.push_str(&format!(
        "  expected quality  = {:.2}%  (paper: 93.3%)\n",
        r.expected_quality * 100.0
    ));
    out.push_str(&format!(
        "  simulated quality = {:.2}%  ({} of {} in time; paper: 93,332 of 100,000)\n",
        r.outcome.quality * 100.0,
        r.outcome.receiver.unique_in_time,
        r.outcome.sender.generated,
    ));
    if r.quality_trials.count() > 1 {
        out.push_str(&format!(
            "  across trials     = {}\n",
            r.quality_trials.summary(0.95)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment2_reproduces_paper() {
        let mut cfg = RunConfig::default();
        cfg.messages = 20_000; // fast CI variant; the bin runs 100k
        let r = run(&cfg).unwrap();
        assert!(r.t11.is_none(), "t(1,1) must be undefined");
        let t12 = r.t12.expect("t(1,2)");
        assert!((0.585..=0.645).contains(&t12), "t12 = {t12}");
        let t21 = r.t21.expect("t(2,1)");
        assert!((0.230..=0.270).contains(&t21), "t21 = {t21}");
        assert!(
            (r.expected_quality - 0.9333).abs() < 0.005,
            "expected {}",
            r.expected_quality
        );
        assert!(
            (r.outcome.quality - 0.9333).abs() < 0.01,
            "simulated {}",
            r.outcome.quality
        );
    }
}
