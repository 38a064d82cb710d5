//! Single-flow degeneracy parity: a fleet with exactly one flow must
//! produce the `Plan` `Planner::plan` produces on the same `Scenario` —
//! allocations, quality and cost rate bit for bit, send rates and
//! timeouts to 1e-9.
//!
//! With one floor-free flow the joint LP is row-for-row the single-flow
//! planner's LP (same coefficients in the same units — `λ·p` in the
//! objective, `λ·usage_k ≤ b_k` per path — and the same row order).
//! Solved by the same solver the two therefore agree **bit for bit**.
//! The default solver runs both on the one revised kernel: the joint LP
//! declares its single block and the planner's declares none, which the
//! kernel treats alike, so the default-path tests (fixed cases and the
//! proptest alike) compare the vertex by its bits.
//! [`legacy_config_matches_bit_for_bit`] and [`budgeted_flow_matches`]
//! also hold the fleet's plan to the dense tableau oracle's
//! (`dmc_lp_oracle`) solve of the planner's LP, packaged by the same
//! `plan_for`: the same optimum to [`TOL`] (the tableau may stop at
//! another optimal vertex).

use dmc_core::{Objective, Plan, Planner, Scenario, ScenarioPath};
use dmc_fleet::{AdmissionDecision, FleetConfig, FleetPlanner, FlowRequest};
use dmc_stats::ShiftedGamma;
use proptest::prelude::*;
use proptest::Strategy;
use std::sync::Arc;

/// The bar for what is derived from the vertex outside the LP: send
/// rates (relative) and stage timers.
const TOL: f64 = 1e-9;

/// The planner's LP for `scenario` solved on the dense tableau oracle,
/// packaged into a plan by the planner's own `plan_for`.
fn tableau_plan(scenario: &Scenario) -> Plan {
    let model = Planner::new().model(scenario);
    let problem = model.problem(Objective::MaxQuality);
    let optimum = dmc_lp_oracle::solve(&problem).expect("the tableau solves");
    model.plan_for(Objective::MaxQuality, optimum.x)
}

/// Runs `scenario` through a fresh single-flow fleet with the default
/// configuration and returns the decomposed plan.
fn fleet_plan(scenario: &Scenario) -> Plan {
    let config = FleetConfig::default();
    let mut fleet = FleetPlanner::new(scenario.paths().to_vec(), config).expect("valid paths");
    let mut request = FlowRequest::new(scenario.data_rate(), scenario.lifetime())
        .expect("valid request")
        .with_transmissions(scenario.transmissions());
    if scenario.cost_budget().is_finite() {
        request = request.with_cost_budget(scenario.cost_budget());
    }
    let decision = fleet.offer(request).expect("offer succeeds");
    let AdmissionDecision::Admitted { id, .. } = decision else {
        panic!("a floor-free flow is always admitted");
    };
    fleet.plan_of(id).expect("admitted plan").clone()
}

/// Holds `fleet` to the tableau oracle's plan of `scenario` on what the
/// LP pins: the optimum, its quality, to [`TOL`]. The vertex is not
/// pinned — the tableau does not canonicalize across alternate optima,
/// and the single-flow LP has many (every combination that delivers in
/// time at a small λ) — so its allocation, cost and send rates may be
/// another optimal vertex's; the tableau's plan must still be feasible.
fn assert_close_to_tableau(fleet: &Plan, scenario: &Scenario, ctx: &str) {
    let oracle = tableau_plan(scenario);
    let (qa, qb) = (fleet.quality(), oracle.quality());
    assert!(
        (qa - qb).abs() <= TOL,
        "{ctx}: quality {qa} vs tableau {qb}"
    );
    let budget = scenario.cost_budget();
    let cost = oracle.cost_rate();
    assert!(
        cost <= budget * (1.0 + TOL),
        "{ctx}: tableau cost {cost} over {budget}"
    );
    for (k, (rate, path)) in oracle.send_rates().iter().zip(scenario.paths()).enumerate() {
        let bw = path.bandwidth();
        assert!(
            *rate <= bw * (1.0 + TOL),
            "{ctx}: tableau S_{k} = {rate} over {bw}"
        );
    }
}

fn assert_plans_match(fleet: &Plan, solo: &Plan, ctx: &str) {
    assert_eq!(
        fleet.strategy().x().len(),
        solo.strategy().x().len(),
        "{ctx}: combo count"
    );
    for (l, (a, b)) in fleet
        .strategy()
        .x()
        .iter()
        .zip(solo.strategy().x())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: x[{l}] = {a} vs {b}");
    }
    assert_eq!(
        fleet.quality().to_bits(),
        solo.quality().to_bits(),
        "{ctx}: quality {} vs {}",
        fleet.quality(),
        solo.quality()
    );
    assert_eq!(
        fleet.cost_rate().to_bits(),
        solo.cost_rate().to_bits(),
        "{ctx}: cost rate {} vs {}",
        fleet.cost_rate(),
        solo.cost_rate()
    );
    for (k, (a, b)) in fleet.send_rates().iter().zip(solo.send_rates()).enumerate() {
        // Send rates are in bits/s; 1e-9 relative to the rate.
        assert!(
            (a - b).abs() <= TOL * a.abs().max(1.0),
            "{ctx}: S_{k} = {a} vs {b}"
        );
    }
    assert_eq!(fleet.ack_path(), solo.ack_path(), "{ctx}: ack path");
    // Timeout schedules: compare every armed stage timer.
    let n = fleet.strategy().table().num_combos();
    for l in 0..n {
        let stages = solo.schedule().stages(l);
        for s in 0..stages.len() {
            match (fleet.schedule().stage(l, s), solo.schedule().stage(l, s)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(
                        (a.delay - b.delay).abs() <= TOL,
                        "{ctx}: timeout({l},{s}) = {} vs {}",
                        a.delay,
                        b.delay
                    );
                    assert_eq!(a.retransmit, b.retransmit, "{ctx}: retransmit({l},{s})");
                }
                (a, b) => panic!("{ctx}: stage ({l},{s}) armed differently: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn table3_sweep_matches_default_path() {
    let mut planner = Planner::new();
    for lambda in [10e6, 60e6, 90e6, 120e6] {
        for delta in [0.45, 0.8, 1.5] {
            let scenario = Scenario::builder()
                .path(ScenarioPath::constant(80e6, 0.450, 0.2).unwrap())
                .path(ScenarioPath::constant(20e6, 0.150, 0.0).unwrap())
                .data_rate(lambda)
                .lifetime(delta)
                .build()
                .unwrap();
            let solo = planner.plan(&scenario, Objective::MaxQuality).unwrap();
            let fleet = fleet_plan(&scenario);
            assert_plans_match(&fleet, &solo, &format!("λ={lambda} δ={delta}"));
            // The timeout machinery is LP-independent: exact equality.
            assert_eq!(fleet.schedule(), solo.schedule());
        }
    }
}

#[test]
fn legacy_config_matches_bit_for_bit() {
    // Identical LPs solved by the identical solver ⇒ identical vertices,
    // bit for bit; and the tableau oracle's optimum of the same LP to TOL.
    let mut planner = Planner::new();
    for lambda in [10e6, 60e6, 90e6, 120e6] {
        for delta in [0.45, 0.8, 1.5] {
            let scenario = Scenario::builder()
                .path(ScenarioPath::constant(80e6, 0.450, 0.2).unwrap())
                .path(ScenarioPath::constant(20e6, 0.150, 0.0).unwrap())
                .data_rate(lambda)
                .lifetime(delta)
                .build()
                .unwrap();
            let solo = planner.plan(&scenario, Objective::MaxQuality).unwrap();
            let fleet = fleet_plan(&scenario);
            let ctx = format!("λ={lambda} δ={delta}");
            assert_eq!(fleet.strategy().x(), solo.strategy().x(), "λ={lambda}");
            assert_eq!(fleet.quality(), solo.quality());
            assert_eq!(fleet.send_rates(), solo.send_rates());
            assert_eq!(fleet.schedule(), solo.schedule());
            assert_plans_match(&fleet, &solo, &ctx);
            assert_close_to_tableau(&fleet, &scenario, &ctx);
        }
    }
}

#[test]
fn budgeted_flow_matches() {
    let scenario = Scenario::builder()
        .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 2e-9).unwrap())
        .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
        .data_rate(90e6)
        .lifetime(0.8)
        .cost_budget(0.15)
        .build()
        .unwrap();
    let solo = Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .unwrap();
    let fleet = fleet_plan(&scenario);
    assert_plans_match(&fleet, &solo, "budgeted");
    // And the tableau oracle's optimum of the same LP agrees to TOL.
    assert_close_to_tableau(&fleet, &scenario, "budgeted");
}

#[test]
fn random_delay_flow_matches() {
    // Table V (§VI-B): the fleet path goes through the same discretized
    // Eq. 28/34 machinery as the single-flow planner.
    let scenario = Scenario::builder()
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
        .unwrap();
    let solo = Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .unwrap();
    let fleet = fleet_plan(&scenario);
    assert_plans_match(&fleet, &solo, "table5");
}

fn arb_constant_path() -> impl Strategy<Value = ScenarioPath> {
    (
        1.0f64..200.0, // bandwidth Mbps
        0.005f64..0.8, // delay s
        0.0f64..0.9,   // loss
        0.0f64..5e-9,  // cost per bit
    )
        .prop_map(|(bw, d, l, c)| {
            ScenarioPath::constant_with_cost(bw * 1e6, d, l, c).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bitwise single-flow parity contract over arbitrary deterministic
    /// scenarios: paths, rate, lifetime and transmission count all drawn
    /// at random.
    #[test]
    fn single_flow_fleet_matches_planner(
        paths in proptest::collection::vec(arb_constant_path(), 1..4),
        lambda in 1.0f64..300.0,
        delta in 0.05f64..2.0,
        m in 1usize..4,
    ) {
        let scenario = Scenario::builder()
            .paths(paths)
            .data_rate(lambda * 1e6)
            .lifetime(delta)
            .transmissions(m)
            .build()
            .expect("valid");
        let solo = Planner::new()
            .plan(&scenario, Objective::MaxQuality)
            .expect("feasible");
        let fleet = fleet_plan(&scenario);
        assert_plans_match(&fleet, &solo, &format!("λ={lambda}M δ={delta} m={m}"));
    }
}
