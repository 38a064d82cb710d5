//! The paper's evaluation scenarios (Tables III and V, Figure 1), as
//! [`Scenario`]s and — for the deterministic ones, which the sensitivity
//! experiments perturb — as [`NetworkSpec`] estimates.

use dmc_core::{NetworkSpec, PathSpec, Scenario, ScenarioPath};
use dmc_stats::ShiftedGamma;
use std::sync::Arc;

/// Queueing margin the paper adds to the model delays in Experiment 1
/// (400→450 ms, 100→150 ms): "we conservatively set delays to 450 and
/// 150 ms in our model".
pub const QUEUE_MARGIN_S: f64 = 0.050;

/// Table III path characteristics as the *true* network (raw propagation
/// delays 400/100 ms).
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn table3_true(lambda_bps: f64, lifetime_s: f64) -> NetworkSpec {
    NetworkSpec::builder()
        .path(PathSpec::new(80e6, 0.400, 0.2).expect("literal scenario parameters are valid"))
        .path(PathSpec::new(20e6, 0.100, 0.0).expect("literal scenario parameters are valid"))
        .data_rate(lambda_bps)
        .lifetime(lifetime_s)
        .build()
        .expect("valid scenario")
}

/// Table III as the sender's *model* (with the +50 ms conservative
/// margin applied, exactly as the paper solves Table IV).
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn table3_model(lambda_bps: f64, lifetime_s: f64) -> NetworkSpec {
    NetworkSpec::builder()
        .path(
            PathSpec::new(80e6, 0.400 + QUEUE_MARGIN_S, 0.2)
                .expect("literal scenario parameters are valid"),
        )
        .path(
            PathSpec::new(20e6, 0.100 + QUEUE_MARGIN_S, 0.0)
                .expect("literal scenario parameters are valid"),
        )
        .data_rate(lambda_bps)
        .lifetime(lifetime_s)
        .build()
        .expect("valid scenario")
}

/// Figure 1's motivating scenario: 10 Mbps/600 ms/10 % + 1 Mbps/200 ms/0 %,
/// λ = 10 Mbps, δ = 1 s.
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn figure1() -> NetworkSpec {
    NetworkSpec::builder()
        .path(PathSpec::new(10e6, 0.600, 0.10).expect("literal scenario parameters are valid"))
        .path(PathSpec::new(1e6, 0.200, 0.0).expect("literal scenario parameters are valid"))
        .data_rate(10e6)
        .lifetime(1.0)
        .build()
        .expect("valid scenario")
}

/// Table III as a [`Scenario`] with the *true* (raw) delays —
/// feed to [`Planner::plan_with_margin`](dmc_core::Planner::plan_with_margin)
/// with [`QUEUE_MARGIN_S`] to reproduce the paper's Experiment-1 split.
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn table3_scenario(lambda_bps: f64, lifetime_s: f64) -> Scenario {
    Scenario::from_network(&table3_true(lambda_bps, lifetime_s))
}

/// Table III as a [`Scenario`] with the +50 ms model margin
/// already applied (what Table IV is solved from).
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn table3_model_scenario(lambda_bps: f64, lifetime_s: f64) -> Scenario {
    Scenario::from_network(&table3_model(lambda_bps, lifetime_s))
}

/// Table V: the random-delay scenario of Experiment 2 (shifted-gamma
/// delays; λ = 90 Mbps, δ = 750 ms unless overridden).
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn table5_scenario(lambda_bps: f64, lifetime_s: f64) -> Scenario {
    const VALID: &str = "literal scenario parameters are valid";
    let gamma = |bandwidth, shape, scale, shift, loss| {
        let delay = ShiftedGamma::new(shape, scale, shift).expect(VALID);
        ScenarioPath::new(bandwidth, Arc::new(delay), loss, 0.0).expect(VALID)
    };
    Scenario::builder()
        .path(gamma(80e6, 10.0, 0.004, 0.400, 0.2))
        .path(gamma(20e6, 5.0, 0.002, 0.100, 0.0))
        .data_rate(lambda_bps)
        .lifetime(lifetime_s)
        .build()
        .expect(VALID)
}

/// Figure 1's motivating scenario as a [`Scenario`].
///
/// # Panics
///
/// Panics only if the hard-coded constants were edited into invalidity.
pub fn figure1_scenario() -> Scenario {
    Scenario::from_network(&figure1())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_scenarios_mirror_legacy_specs() {
        let s = table3_scenario(90e6, 0.8);
        assert!(s.is_deterministic());
        assert_eq!(s.paths()[0].bandwidth(), 80e6);
        assert_eq!(s.paths()[0].constant_delay(), Some(0.400));
        let m = table3_model_scenario(90e6, 0.8);
        assert_eq!(m.paths()[0].constant_delay(), Some(0.450));
        let five = table5_scenario(90e6, 0.75);
        assert!(!five.is_deterministic());
        assert_eq!(five.ack_path(), 1);
        assert!(figure1_scenario().is_deterministic());
    }

    #[test]
    fn scenarios_match_paper_tables() {
        let t = table3_true(90e6, 0.8);
        assert_eq!(t.paths()[0].bandwidth(), 80e6);
        assert_eq!(t.paths()[0].delay(), 0.400);
        assert_eq!(t.paths()[1].loss(), 0.0);
        let m = table3_model(90e6, 0.8);
        assert!((m.paths()[0].delay() - 0.450).abs() < 1e-12);
        assert!((m.paths()[1].delay() - 0.150).abs() < 1e-12);
        let five = table5_scenario(90e6, 0.75);
        assert_eq!(five.ack_path(), 1);
        assert_eq!(five.paths()[0].bandwidth(), 80e6);
        let f1 = figure1();
        assert_eq!(f1.num_paths(), 2);
        assert_eq!(f1.lifetime(), 1.0);
    }
}
