//! The cost-minimization variant (§VI-A) against its quality-max dual.

use deadline_multipath::prelude::*;

fn costed_scenario(budget: Option<f64>) -> Scenario {
    let mut b = Scenario::builder()
        .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 3e-9).unwrap())
        .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
        .data_rate(90e6)
        .lifetime(0.8);
    if let Some(mu) = budget {
        b = b.cost_budget(mu);
    }
    b.build().unwrap()
}

fn min_cost(scenario: &Scenario, floor: f64) -> Result<Plan, PlanError> {
    Planner::new().plan(scenario, Objective::MinCost { min_quality: floor })
}

fn max_quality(scenario: &Scenario) -> Plan {
    Planner::new()
        .plan(scenario, Objective::MaxQuality)
        .unwrap()
}

#[test]
fn min_cost_respects_floor_and_is_cheapest() {
    let net = costed_scenario(None);
    let mut last_cost = 0.0;
    for floor in [0.3, 0.5, 0.7, 0.9, 42.0 / 45.0] {
        let s = min_cost(&net, floor).unwrap();
        assert!(
            s.quality() >= floor - 1e-9,
            "floor {floor}: Q={}",
            s.quality()
        );
        assert!(
            s.cost_rate() >= last_cost - 1e-9,
            "cost must be monotone in the floor"
        );
        last_cost = s.cost_rate();
    }
    // Beyond the achievable optimum: infeasible.
    assert!(min_cost(&net, 0.95).is_err());
}

#[test]
fn duality_roundtrip() {
    // Solve min-cost at floor q*, then max-quality with that budget: must
    // recover at least q*.
    let net = costed_scenario(None);
    let floor = 0.8;
    let cheap = min_cost(&net, floor).unwrap();
    let budgeted = costed_scenario(Some(cheap.cost_rate() + 1e-9));
    let qmax = max_quality(&budgeted);
    assert!(
        qmax.quality() >= floor - 1e-6,
        "Q={} under budget {}",
        qmax.quality(),
        cheap.cost_rate()
    );
}

#[test]
fn zero_budget_forces_free_paths() {
    // Only the free path (none here is free → blackhole + infeasibility
    // pressure): with a tiny budget the expensive fat path is unusable.
    let net = costed_scenario(Some(90e6 * 1e-9 * 20.0 / 90.0 * 1.01)); // ≈ path-2-only budget
    let s = max_quality(&net);
    // Path 2 costs 1e-9/bit → 20 Mbps costs 0.02/s; budget ≈ 0.0202.
    // Path 1 at 3e-9/bit is unaffordable beyond a sliver.
    assert!(s.quality() < 0.35, "Q = {}", s.quality());
    assert!(s.send_rates()[0] < 5e6, "S1 = {}", s.send_rates()[0]);
}
