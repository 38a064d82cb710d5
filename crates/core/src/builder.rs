//! Coefficients of the deterministic linear program (paper §V, Eq. 10–18).
//!
//! For every path combination `l` the model needs three quantities:
//!
//! * `p_l` — the fraction of data assigned to `l` that arrives before the
//!   deadline (Eq. 12, generalized to `m` transmissions),
//! * `usage_{k,l}` — the expected number of transmissions on path `k` per
//!   unit of data assigned to `l` (the `A` matrix of Eq. 15, divided
//!   by `λ`),
//! * `cost_l` — the expected cost per bit assigned to `l` (Eq. 16 / `λ`).
//!
//! All three fall out of one walk over the combination's stages: stage `s`
//! is *attempted* with probability `Π_{u<s} τ_{i_u}` (every earlier
//! transmission was lost) and is *sent* at the deterministic time
//! `Σ_{u<s} (d_{i_u} + d_min)` (each earlier stage waited for its
//! retransmission timeout, Eq. 4). A stage contributes quality only if its
//! arrival time `send + d_i` is within the lifetime `δ`.
//!
//! The blackhole is *absorbing*: data assigned to it is discarded, so
//! later stages of the combination are never attempted.

use crate::combo::{ComboTable, Slot};
use crate::path::PathSpec;

/// Slack added to deadline comparisons so exact boundary sums
/// (e.g. 450 + 150 + 150 = 750 ms vs δ = 750 ms) are not lost to
/// floating-point rounding.
pub(crate) const TIME_EPS: f64 = 1e-9;

/// Per-combination model coefficients.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ComboCoeffs {
    /// In-time delivery probability `p_l`.
    pub p: f64,
    /// Expected transmissions on each real path per unit data.
    pub usage: Vec<f64>,
    /// Expected cost per bit.
    pub cost: f64,
}

/// Walks one combination and accumulates `p`, per-path usage and cost.
pub(crate) fn combo_coeffs(
    paths: &[PathSpec],
    dmin: f64,
    lifetime: f64,
    slots: &[Slot],
) -> ComboCoeffs {
    let mut reach = 1.0; // probability this stage is attempted
    let mut send_time = 0.0; // deterministic send time of this stage
    let mut p = 0.0;
    let mut usage = vec![0.0; paths.len()];
    let mut cost = 0.0;
    for &slot in slots {
        let Slot::Path(i) = slot else {
            break; // blackhole absorbs: data is discarded here
        };
        let path = &paths[i];
        usage[i] += reach;
        cost += reach * path.cost();
        let arrival = send_time + path.delay();
        if arrival <= lifetime + TIME_EPS {
            p += reach * (1.0 - path.loss());
        }
        // Retransmission timeout t_i = d_i + d_min (Eq. 4).
        send_time += path.delay() + dmin;
        reach *= path.loss();
        if reach <= 0.0 || !send_time.is_finite() {
            break;
        }
    }
    ComboCoeffs { p, usage, cost }
}

/// Writes the per-combination deterministic coefficients (Eq. 12/15/16)
/// into the vectors of the model [`Planner::model`](crate::Planner::model)
/// is building.
///
/// `usage` must arrive with one inner vector per path (cleared and
/// refilled here); `p`/`cost` are cleared and refilled.
pub(crate) fn fill_deterministic_coeffs(
    paths: &[PathSpec],
    dmin: f64,
    lifetime: f64,
    table: &ComboTable,
    p: &mut Vec<f64>,
    usage: &mut [Vec<f64>],
    cost: &mut Vec<f64>,
) {
    let n = paths.len();
    debug_assert_eq!(usage.len(), n);
    let ncombos = table.num_combos();
    p.clear();
    p.reserve(ncombos);
    cost.clear();
    cost.reserve(ncombos);
    for row in usage.iter_mut() {
        row.clear();
        row.resize(ncombos, 0.0);
    }
    for (l, slots) in table.iter() {
        let c = combo_coeffs(paths, dmin, lifetime, &slots);
        p.push(c.p);
        for (row, &u) in usage.iter_mut().zip(&c.usage) {
            row[l] = u;
        }
        cost.push(c.cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Objective, Plan, Planner, PlannerConfig, Scenario, ScenarioPath};

    /// The paper's Table III paths with the +50 ms queueing margin applied
    /// (450/150 ms), exactly as used to produce Table IV.
    fn table3_paths() -> [PathSpec; 2] {
        [
            PathSpec::new(80e6, 0.450, 0.2).unwrap(),
            PathSpec::new(20e6, 0.150, 0.0).unwrap(),
        ]
    }

    fn table3_scenario(lambda: f64, delta: f64) -> Scenario {
        Scenario::builder()
            .paths(table3_paths().iter().map(ScenarioPath::from_spec))
            .data_rate(lambda)
            .lifetime(delta)
            .build()
            .unwrap()
    }

    fn solve(scenario: &Scenario) -> Plan {
        Planner::new()
            .plan(scenario, Objective::MaxQuality)
            .unwrap()
    }

    fn q(lambda: f64, delta: f64) -> f64 {
        solve(&table3_scenario(lambda, delta)).quality()
    }

    #[test]
    fn table4_top_rate_sweep() {
        // Paper Table IV (top): δ = 800 ms.
        let cases = [
            (10e6, 1.0),
            (20e6, 1.0),
            (40e6, 1.0),
            (60e6, 1.0),
            (80e6, 1.0),
            (100e6, 0.84),
            (120e6, 0.70),
            (140e6, 0.60),
        ];
        for (lambda, want) in cases {
            let got = q(lambda, 0.8);
            assert!(
                (got - want).abs() < 1e-9,
                "λ={} Mbps: Q={got}, paper says {want}",
                lambda / 1e6
            );
        }
    }

    #[test]
    fn table4_bottom_lifetime_sweep() {
        // Paper Table IV (bottom): λ = 90 Mbps.
        let cases = [
            (0.150, 2.0 / 9.0),
            (0.400, 2.0 / 9.0),
            (0.450, 0.8444444444444444),
            (0.700, 0.8444444444444444),
            (0.750, 42.0 / 45.0),
            (1.000, 42.0 / 45.0),
            (1.050, 42.0 / 45.0),
            (1.500, 42.0 / 45.0),
        ];
        for (delta, want) in cases {
            let got = q(90e6, delta);
            assert!(
                (got - want).abs() < 1e-9,
                "δ={delta}s: Q={got}, paper says {want}"
            );
        }
    }

    #[test]
    fn figure1_scenario_reaches_full_quality() {
        // §II: 10 Mbps data over (10 Mbps, 600 ms, 10%) + (1 Mbps, 200 ms,
        // 0%), lifetime 1 s: initial transmission on the big path,
        // retransmissions on the small one → 100%.
        let scenario = Scenario::builder()
            .path(ScenarioPath::constant(10e6, 0.600, 0.10).unwrap())
            .path(ScenarioPath::constant(1e6, 0.200, 0.0).unwrap())
            .data_rate(10e6)
            .lifetime(1.0)
            .build()
            .unwrap();
        let s = solve(&scenario);
        assert!((s.quality() - 1.0).abs() < 1e-9, "Q = {}", s.quality());
        // Neither path alone can do it.
        for k in 0..2 {
            let sq = solve(&scenario.restricted_to_path(k));
            assert!(
                sq.quality() < 1.0 - 1e-9,
                "path {k} alone reached {}",
                sq.quality()
            );
        }
    }

    #[test]
    fn combo_coeffs_match_eq12_and_eq15() {
        // Two paths, blackhole-free table, m = 2; verify against the
        // paper's closed forms.
        let paths = table3_paths();
        let dmin = 0.150;
        // Combo (path0, path1): i=1, j=2 in paper numbering.
        let c = combo_coeffs(&paths, dmin, 0.8, &[Slot::Path(0), Slot::Path(1)]);
        // d_i + dmin + d_j = .45+.15+.15 = .75 ≤ .8 → p = 1 − τ_i·τ_j = 1.
        assert!((c.p - 1.0).abs() < 1e-12);
        // usage on path0 = 1, on path1 = τ_0 = 0.2 (Eq. 15).
        assert!((c.usage[0] - 1.0).abs() < 1e-12);
        assert!((c.usage[1] - 0.2).abs() < 1e-12);
        // Combo (path0, path0): arrival of retrans = .45+.15+.45 = 1.05 > .8
        // → p = 1 − τ_0 = 0.8; usage path0 = 1 + τ_0.
        let c = combo_coeffs(&paths, dmin, 0.8, &[Slot::Path(0), Slot::Path(0)]);
        assert!((c.p - 0.8).abs() < 1e-12);
        assert!((c.usage[0] - 1.2).abs() < 1e-12);
        // Blackhole absorbs: (blackhole, path1) delivers nothing and uses
        // nothing.
        let c = combo_coeffs(&paths, dmin, 0.8, &[Slot::Blackhole, Slot::Path(1)]);
        assert_eq!(c.p, 0.0);
        assert_eq!(c.usage, vec![0.0, 0.0]);
        assert_eq!(c.cost, 0.0);
    }

    #[test]
    fn boundary_deadline_is_inclusive() {
        // d_i + dmin + d_j = exactly δ must count (Eq. 12 uses ≤), even
        // though 0.45 + 0.15 + 0.15 > 0.75 in floating point.
        let c = combo_coeffs(&table3_paths(), 0.15, 0.75, &[Slot::Path(0), Slot::Path(1)]);
        assert!((c.p - 1.0).abs() < 1e-12, "p = {}", c.p);
    }

    #[test]
    fn three_transmissions_dominate_two() {
        // More retransmission stages can only help quality.
        let scenario = table3_scenario(90e6, 1.5);
        let q2 = solve(&scenario.with_transmissions(2)).quality();
        let q3 = solve(&scenario.with_transmissions(3)).quality();
        assert!(q3 >= q2 - 1e-9, "q3 {q3} < q2 {q2}");
    }

    #[test]
    fn single_transmission_no_retransmissions() {
        // m = 1: no retransmission stage at all. With δ = 800 ms and λ=20,
        // everything fits on path 2 losslessly → Q = 1; with λ = 90 the
        // best is 0.8·(80/90·…): path0 delivers (1−τ)=0.8 of its 80 Mbps
        // share, path1 delivers its 20 Mbps → (0.8·70 + 20)/90.
        let s = solve(&table3_scenario(20e6, 0.8).with_transmissions(1));
        assert!((s.quality() - 1.0).abs() < 1e-9);
        let s = solve(&table3_scenario(90e6, 0.8).with_transmissions(1));
        let want = (0.8 * 70e6 + 20e6) / 90e6;
        assert!((s.quality() - want).abs() < 1e-9, "Q = {}", s.quality());
    }

    #[test]
    fn cost_budget_binds() {
        // Make path 0 expensive and bound the budget so only path 1 is
        // affordable.
        let scenario = Scenario::builder()
            .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 1.0).unwrap())
            .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 0.0).unwrap())
            .data_rate(90e6)
            .lifetime(0.8)
            .cost_budget(1.0) // at cost 1/bit, one bit/s of path-0 budget
            .build()
            .unwrap();
        let s = solve(&scenario);
        // Path 1 can carry 20 of 90 Mbps → Q ≈ 2/9.
        assert!(
            (s.quality() - 2.0 / 9.0).abs() < 1e-6,
            "Q = {}",
            s.quality()
        );
        assert!(s.cost_rate() <= 1.0 + 1e-6);
    }

    #[test]
    fn min_cost_meets_quality_floor() {
        let scenario = Scenario::builder()
            .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 2e-9).unwrap())
            .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        let mut planner = Planner::new();
        let s = planner
            .plan(&scenario, Objective::MinCost { min_quality: 0.9 })
            .unwrap();
        assert!(s.quality() >= 0.9 - 1e-9, "Q = {}", s.quality());
        // Cheaper than the quality-optimal strategy's cost or equal quality
        // at lower cost: sanity only — cost must be positive and finite.
        assert!(s.cost_rate() > 0.0 && s.cost_rate().is_finite());
        // Infeasible floor is reported.
        assert!(planner
            .plan(&scenario, Objective::MinCost { min_quality: 0.99 })
            .is_err());
    }

    #[test]
    fn blackhole_disabled_infeasible_when_overloaded() {
        // Without the blackhole, Σx = 1 cannot be satisfied when λ exceeds
        // what the bandwidth rows admit.
        let scenario = table3_scenario(200e6, 0.8);
        let mut bare = Planner::with_config(PlannerConfig {
            blackhole: false,
            ..PlannerConfig::default()
        });
        assert!(bare.plan(&scenario, Objective::MaxQuality).is_err());
        // With the blackhole it is always feasible.
        assert!(Planner::new()
            .plan(&scenario, Objective::MaxQuality)
            .is_ok());
    }
}
