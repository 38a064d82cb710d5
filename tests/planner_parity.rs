//! There is one pipeline: `Planner::plan` *is* `Planner::model` →
//! `ScenarioModel::problem` → solve → `ScenarioModel::plan_for`, the
//! steps the fleet layer runs around its joint LP. This file is its
//! regression: a fresh planner equals those steps taken by hand **to the
//! bit**, a warm-swept planner (cached bases) agrees with them to 1e-9 on
//! the paper's scenarios and with cold planners bit for bit on the
//! sweeps, and the pipeline never panics on any valid scenario.

use deadline_multipath::experiments::scenarios;
use deadline_multipath::prelude::*;
use deadline_multipath::stats::UniformDelay;
use proptest::prelude::*;
// Explicit import wins over both globs: `Strategy` here is proptest's
// trait (dmc-core's `Strategy` struct is only used through `Plan`).
use proptest::Strategy;
use std::sync::Arc;

const TOL: f64 = 1e-9;

/// The pipeline's steps taken by hand, with a cold solve.
fn plan_via_model(scenario: &Scenario, objective: Objective) -> Plan {
    let model = Planner::new().model(scenario);
    let x = model
        .problem(objective)
        .solve(&SolverOptions::default())
        .expect("feasible")
        .into_x();
    model.plan_for(objective, x)
}

/// A fresh `Planner::plan` and the hand-run steps are the same arithmetic
/// on the same problem from the same cold start: every bit of `x`, the
/// quality and every stage timeout agrees, in both regimes.
#[test]
fn fresh_plan_equals_the_hand_run_steps_bit_for_bit() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let timeouts = |plan: &Plan| -> Vec<Option<(u64, bool)>> {
        (0..plan.schedule().num_combos())
            .flat_map(|l| plan.schedule().stages(l).to_vec())
            .map(|t| t.map(|t| (t.delay.to_bits(), t.retransmit)))
            .collect()
    };
    for (regime, scenario) in [
        ("deterministic", scenarios::table3_model_scenario(90e6, 0.8)),
        ("random", scenarios::table5_scenario(90e6, 0.750)),
    ] {
        let plan = Planner::new()
            .plan(&scenario, Objective::MaxQuality)
            .expect("feasible");
        let by_hand = plan_via_model(&scenario, Objective::MaxQuality);
        assert_eq!(
            bits(plan.strategy().x()),
            bits(by_hand.strategy().x()),
            "{regime}: x"
        );
        assert_eq!(
            plan.quality().to_bits(),
            by_hand.quality().to_bits(),
            "{regime}: quality"
        );
        assert_eq!(timeouts(&plan), timeouts(&by_hand), "{regime}: timeouts");
    }
}

/// Planner vs. the model path on the paper's Table III scenarios (the
/// full Table IV sweep, both halves).
#[test]
fn deterministic_parity_on_table3() {
    let mut planner = Planner::new();
    let lambdas = [10e6, 20e6, 40e6, 60e6, 80e6, 90e6, 100e6, 120e6, 140e6];
    let deltas = [
        0.150, 0.400, 0.450, 0.700, 0.750, 0.800, 1.000, 1.050, 1.500,
    ];
    for &lambda in &lambdas {
        for &delta in &deltas {
            let scenario = scenarios::table3_model_scenario(lambda, delta);
            let model = plan_via_model(&scenario, Objective::MaxQuality);
            let plan = planner
                .plan(&scenario, Objective::MaxQuality)
                .expect("feasible");
            assert!(
                (plan.quality() - model.quality()).abs() < TOL,
                "λ={lambda} δ={delta}: plan {} vs model path {}",
                plan.quality(),
                model.quality()
            );
            assert!(
                (plan.cost_rate() - model.cost_rate()).abs() < TOL,
                "λ={lambda} δ={delta}: cost mismatch"
            );
            for (a, b) in plan.send_rates().iter().zip(model.send_rates()) {
                assert!((a - b).abs() < TOL * lambda, "λ={lambda} δ={delta}: rates");
            }
            for (a, b) in plan.strategy().x().iter().zip(model.strategy().x()) {
                assert!((a - b).abs() < TOL, "λ={lambda} δ={delta}: x mismatch");
            }
        }
    }
}

/// Planner vs. the model path under `MinCost` on a costed Table III
/// network.
#[test]
fn min_cost_parity() {
    let scenario = Scenario::builder()
        .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 3e-9).unwrap())
        .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
        .data_rate(90e6)
        .lifetime(0.8)
        .build()
        .unwrap();
    let mut planner = Planner::new();
    for floor in [0.3, 0.5, 0.7, 0.9, 42.0 / 45.0] {
        let objective = Objective::MinCost { min_quality: floor };
        let model = plan_via_model(&scenario, objective);
        let plan = planner.plan(&scenario, objective).expect("achievable");
        assert!(
            (plan.cost_rate() - model.cost_rate()).abs() < TOL,
            "floor {floor}: plan cost {} vs model path {}",
            plan.cost_rate(),
            model.cost_rate()
        );
        assert!(
            (plan.quality() - model.quality()).abs() < TOL,
            "floor {floor}"
        );
    }
}

/// Planner vs. the model path on the paper's Table V scenario
/// (Experiment 2), including the Eq. 34 pairwise timeouts.
#[test]
fn random_delay_parity_on_table5() {
    let mut planner = Planner::new();
    for (lambda, delta) in [(90e6, 0.750), (90e6, 0.620), (60e6, 0.900)] {
        let scenario = scenarios::table5_scenario(lambda, delta);
        let model = plan_via_model(&scenario, Objective::MaxQuality);
        let plan = planner.plan(&scenario, Objective::MaxQuality).expect("ok");
        assert!(
            (plan.quality() - model.quality()).abs() < TOL,
            "λ={lambda} δ={delta}: plan {} vs model path {}",
            plan.quality(),
            model.quality()
        );
        for (a, b) in plan.strategy().x().iter().zip(model.strategy().x()) {
            assert!((a - b).abs() < TOL, "λ={lambda} δ={delta}: x mismatch");
        }
        assert_eq!(plan.ack_path(), model.ack_path());
        for i in 0..2 {
            for j in 0..2 {
                match (plan.timeout(i, j), model.timeout(i, j)) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < TOL, "t({i},{j}): {a} vs {b}")
                    }
                    (a, b) => assert_eq!(a, b, "t({i},{j}) definedness"),
                }
            }
        }
    }
}

/// A constant-delay scenario routed through the *random* branch (every
/// delay a 1 ns wide distribution) and through the deterministic branch
/// must agree — the regimes are one model.
#[test]
fn constant_distributions_match_deterministic_branch() {
    let mut planner = Planner::new();
    let det = scenarios::table3_model_scenario(90e6, 0.8);
    assert!(det.is_deterministic());
    let plan = planner.plan(&det, Objective::MaxQuality).unwrap();
    let nearly = |p: &ScenarioPath| {
        let d = p.constant_delay().unwrap();
        let jitter = Arc::new(UniformDelay::new(d, d + 1e-9));
        ScenarioPath::new(p.bandwidth(), jitter, p.loss(), p.cost()).unwrap()
    };
    let random = Scenario::builder()
        .paths(det.paths().iter().map(nearly))
        .data_rate(90e6)
        .lifetime(0.8)
        .build()
        .unwrap();
    assert!(!random.is_deterministic());
    let random_plan = planner.plan(&random, Objective::MaxQuality).unwrap();
    // The random branch discretizes, so agreement is to the grid's
    // accuracy rather than 1e-9.
    assert!(
        (plan.quality() - random_plan.quality()).abs() < 1e-6,
        "det {} vs random-branch {}",
        plan.quality(),
        random_plan.quality()
    );
}

/// A warm-swept planner (one planner, basis cached across points) must
/// match cold solves (fresh planner per point) **bit-for-bit** on the
/// Table III λ- and δ-sweeps: warm starting is purely a performance
/// device, never an accuracy trade.
#[test]
fn warm_sweep_matches_cold_bit_for_bit_on_table3() {
    let mut warm = Planner::new();
    let lambdas = [10e6, 20e6, 40e6, 60e6, 80e6, 90e6, 100e6, 120e6, 140e6];
    let deltas = [0.150, 0.450, 0.750, 0.800, 1.050, 1.500];
    for &lambda in &lambdas {
        for &delta in &deltas {
            let scenario = scenarios::table3_model_scenario(lambda, delta);
            let swept = warm
                .plan(&scenario, Objective::MaxQuality)
                .expect("feasible");
            let cold = Planner::new()
                .plan(&scenario, Objective::MaxQuality)
                .expect("feasible");
            assert_eq!(
                swept.strategy().x(),
                cold.strategy().x(),
                "λ={lambda} δ={delta}: warm and cold vertices differ"
            );
            assert_eq!(swept.quality(), cold.quality(), "λ={lambda} δ={delta}");
            assert_eq!(swept.cost_rate(), cold.cost_rate(), "λ={lambda} δ={delta}");
            assert_eq!(
                swept.send_rates(),
                cold.send_rates(),
                "λ={lambda} δ={delta}"
            );
        }
    }
    let stats = warm.warm_stats();
    assert!(stats.attempts() > 0, "sweep never consulted the warm cache");
    assert!(stats.hits > 0, "no sweep point actually warm-started");
}

/// Same bit-for-bit property on the random-delay Table V scenario
/// (Experiment 2) across a λ sweep.
#[test]
fn warm_sweep_matches_cold_bit_for_bit_on_table5() {
    let mut warm = Planner::new();
    for lambda in [60e6, 75e6, 90e6, 100e6] {
        let scenario = scenarios::table5_scenario(lambda, 0.750);
        let swept = warm.plan(&scenario, Objective::MaxQuality).expect("ok");
        let cold = Planner::new()
            .plan(&scenario, Objective::MaxQuality)
            .expect("ok");
        assert_eq!(swept.strategy().x(), cold.strategy().x(), "λ={lambda}");
        assert_eq!(swept.quality(), cold.quality(), "λ={lambda}");
    }
    assert!(
        warm.warm_stats().hits > 0,
        "no warm start on the Table V sweep"
    );
}

/// A shape change (different path count / transmissions) must not reuse
/// the previous shape's basis — each shape gets its own cache slot and
/// correct answers throughout.
#[test]
fn shape_change_invalidates_cached_basis() {
    let mut planner = Planner::new();
    let two = scenarios::table3_model_scenario(90e6, 0.800);
    let three = Scenario::builder()
        .path(ScenarioPath::constant(80e6, 0.450, 0.2).unwrap())
        .path(ScenarioPath::constant(20e6, 0.150, 0.0).unwrap())
        .path(ScenarioPath::constant(30e6, 0.250, 0.05).unwrap())
        .data_rate(130e6)
        .lifetime(0.8)
        .build()
        .unwrap();
    let a = planner.plan(&two, Objective::MaxQuality).unwrap();
    assert_eq!(planner.cached_bases(), 1);
    // Different shape (9 → 16 LP variables): a new cache entry, and the
    // answer matches a cold planner exactly.
    let b = planner.plan(&three, Objective::MaxQuality).unwrap();
    assert_eq!(planner.cached_bases(), 2);
    let b_cold = Planner::new().plan(&three, Objective::MaxQuality).unwrap();
    assert_eq!(b.strategy().x(), b_cold.strategy().x());
    // Returning to the first shape warm-starts from its own basis.
    let a2 = planner.plan(&two, Objective::MaxQuality).unwrap();
    assert_eq!(a.strategy().x(), a2.strategy().x());
    let stats = planner.warm_stats();
    assert!(stats.attempts() >= 1 && stats.hits >= 1);
    // m=3 changes the variable count → yet another shape, still correct.
    let m3 = planner
        .plan(&two.with_transmissions(3), Objective::MaxQuality)
        .unwrap();
    let m3_cold = Planner::new()
        .plan(&two.with_transmissions(3), Objective::MaxQuality)
        .unwrap();
    assert_eq!(m3.strategy().x(), m3_cold.strategy().x());
    assert_eq!(planner.cached_bases(), 3);
}

/// A cached basis made infeasible by a drastic parameter change must fall
/// back to a cold solve inside the LP (no error, identical results), and
/// disabling `warm_start` must bypass the cache entirely.
#[test]
fn infeasible_warm_basis_falls_back_and_can_be_disabled() {
    // Plenty of capacity → basis with real-path combos basic.
    let mut planner = Planner::new();
    let roomy = scenarios::table3_model_scenario(20e6, 0.800);
    planner.plan(&roomy, Objective::MaxQuality).unwrap();
    // Starved capacity: the old basis is primal infeasible for the new
    // RHS, so the solver must re-run phase 1 — and still agree with cold.
    let starved = scenarios::table3_model_scenario(500e6, 0.800);
    let warm = planner.plan(&starved, Objective::MaxQuality).unwrap();
    let cold = Planner::new()
        .plan(&starved, Objective::MaxQuality)
        .unwrap();
    assert_eq!(warm.strategy().x(), cold.strategy().x());
    assert_eq!(warm.quality(), cold.quality());

    // warm_start = false: the cache never fills and never gets consulted.
    let mut off = Planner::with_config(PlannerConfig {
        warm_start: false,
        ..PlannerConfig::default()
    });
    off.plan(&roomy, Objective::MaxQuality).unwrap();
    off.plan(&starved, Objective::MaxQuality).unwrap();
    assert_eq!(off.cached_bases(), 0);
    assert_eq!(off.warm_stats(), dmc_core::WarmStats::default());
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

fn arb_gamma_path() -> impl Strategy<Value = ScenarioPath> {
    (
        1.0f64..100.0,  // bandwidth Mbps
        1.0f64..12.0,   // gamma shape
        0.001f64..0.01, // gamma scale s
        0.01f64..0.4,   // shift s
        0.0f64..0.8,    // loss
    )
        .prop_map(|(bw, shape, scale, shift, loss)| {
            ScenarioPath::new(
                bw * 1e6,
                Arc::new(ShiftedGamma::new(shape, scale, shift).expect("valid")),
                loss,
                0.0,
            )
            .expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any valid deterministic scenario round-trips through the pipeline
    /// without panicking, and the plan is internally consistent: a
    /// well-formed strategy, in-range quality, bandwidth-respecting send
    /// rates, a scheduler that starts, and a schedule covering every
    /// combination.
    #[test]
    fn any_deterministic_scenario_plans(
        paths in proptest::collection::vec(arb_constant_path(), 1..5),
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
        let mut planner = Planner::new();
        let plan = planner.plan(&scenario, Objective::MaxQuality).expect("feasible");
        prop_assert!(plan.strategy().is_well_formed(1e-7));
        prop_assert!(plan.quality() >= -1e-9 && plan.quality() <= 1.0 + 1e-9,
            "Q = {}", plan.quality());
        for (k, (&rate, path)) in plan.send_rates().iter().zip(scenario.paths()).enumerate() {
            prop_assert!(rate <= path.bandwidth() * (1.0 + 1e-7),
                "S_{k} = {rate} > b = {}", path.bandwidth());
        }
        prop_assert_eq!(plan.schedule().num_combos(), plan.strategy().table().num_combos());
        let mut sched = plan.scheduler();
        let combo = sched.next_combo();
        prop_assert!(combo < plan.strategy().table().num_combos());
    }

    /// Same for random-delay scenarios (smaller sizes: discretized
    /// timeout optimization is the expensive part).
    #[test]
    fn any_random_scenario_plans(
        paths in proptest::collection::vec(arb_gamma_path(), 1..4),
        lambda in 1.0f64..150.0,
        delta in 0.1f64..1.5,
    ) {
        let scenario = Scenario::builder()
            .paths(paths)
            .data_rate(lambda * 1e6)
            .lifetime(delta)
            .build()
            .expect("valid");
        let mut planner = Planner::new();
        let plan = planner.plan(&scenario, Objective::MaxQuality).expect("feasible");
        prop_assert!(plan.strategy().is_well_formed(1e-7));
        prop_assert!(plan.quality() >= -1e-9 && plan.quality() <= 1.0 + 1e-9,
            "Q = {}", plan.quality());
        prop_assert!(plan.ack_path() < scenario.num_paths());
        // Every defined pairwise timeout is positive and within the
        // lifetime.
        for i in 0..scenario.num_paths() {
            for j in 0..scenario.num_paths() {
                if let Some(t) = plan.timeout(i, j) {
                    prop_assert!(t >= 0.0 && t <= delta + 1e-12, "t({i},{j}) = {t}");
                }
            }
        }
    }

    /// Mixed scenarios (one constant + one gamma path) plan fine too —
    /// the regimes genuinely compose.
    #[test]
    fn mixed_scenarios_plan(
        constant in arb_constant_path(),
        gamma in arb_gamma_path(),
        lambda in 1.0f64..150.0,
        delta in 0.1f64..1.5,
    ) {
        let scenario = Scenario::builder()
            .path(constant)
            .path(gamma)
            .data_rate(lambda * 1e6)
            .lifetime(delta)
            .build()
            .expect("valid");
        prop_assert!(!scenario.is_deterministic());
        let mut planner = Planner::new();
        let plan = planner.plan(&scenario, Objective::MaxQuality).expect("feasible");
        prop_assert!(plan.strategy().is_well_formed(1e-7));
    }
}
