//! Plan-level feasibility invariants for the unified pipeline: for
//! arbitrary [`Scenario`]s, every [`Plan`] the [`Planner`] emits must
//! (a) respect per-path capacity, (b) cover the message stream exactly
//! once across combinations, and (c) carry a monotone timeout schedule.

use dmc_core::{Objective, Plan, Planner, Scenario, ScenarioPath, Slot};
use dmc_obs::fnv1a;
use dmc_stats::rng::{run_cases, SplitMix64};
use dmc_stats::ShiftedGamma;
use std::sync::Arc;

fn arb_constant_path(rng: &mut SplitMix64) -> ScenarioPath {
    let bw = rng.f64(1.0..200.0); // bandwidth Mbps
    let d = rng.f64(0.005..0.8); // delay s
    let l = rng.f64(0.0..0.9); // loss
    let c = rng.f64(0.0..5e-9); // cost per bit
    ScenarioPath::constant_with_cost(bw * 1e6, d, l, c).expect("valid")
}

fn arb_scenario(rng: &mut SplitMix64) -> Scenario {
    let paths: Vec<ScenarioPath> = (0..rng.int(1usize..5))
        .map(|_| arb_constant_path(rng))
        .collect();
    let lambda = rng.f64(1.0..300.0); // λ Mbps
    let delta = rng.f64(0.05..2.0); // δ s
    let m = rng.int(1usize..4); // transmissions m
    Scenario::builder()
        .paths(paths)
        .data_rate(lambda * 1e6)
        .lifetime(delta)
        .transmissions(m)
        .build()
        .expect("valid")
}

/// A Table-V-like random-delay scenario with randomized operating point
/// (the §VI-B regime goes through the discretized Eq. 28/34 machinery —
/// different code path, same invariants).
fn arb_random_scenario(rng: &mut SplitMix64) -> Scenario {
    let lambda = rng.f64(30.0..110.0);
    let delta = rng.f64(0.5..1.2);
    let p1 = ScenarioPath::new(
        80e6,
        Arc::new(ShiftedGamma::new(10.0, 0.004, 0.400).expect("valid")),
        0.2,
        0.0,
    )
    .expect("valid");
    let p2 = ScenarioPath::new(
        20e6,
        Arc::new(ShiftedGamma::new(5.0, 0.002, 0.100).expect("valid")),
        0.0,
        0.0,
    )
    .expect("valid");
    Scenario::builder()
        .path(p1)
        .path(p2)
        .data_rate(lambda * 1e6)
        .lifetime(delta)
        .build()
        .expect("valid")
}

/// The three plan invariants, shared by both regimes.
fn check_plan(plan: &Plan, scenario: &Scenario) {
    // (b) Coverage: the assignment is a probability distribution over
    // combinations — every generated block lands on exactly one
    // combination (possibly the blackhole), never zero, never two.
    let x = plan.strategy().x();
    let sum: f64 = x.iter().sum();
    assert!((sum - 1.0).abs() < 1e-7, "Σx = {sum}");
    assert!(x.iter().all(|&v| v >= -1e-9), "negative assignment");
    assert!(
        plan.quality() >= -1e-9 && plan.quality() <= 1.0 + 1e-9,
        "Q = {}",
        plan.quality()
    );

    // (a) Capacity: expected per-path send rates stay within bandwidth.
    for (k, (&rate, path)) in plan.send_rates().iter().zip(scenario.paths()).enumerate() {
        assert!(
            rate <= path.bandwidth() * (1.0 + 1e-7),
            "S_{k} = {rate} > b = {}",
            path.bandwidth()
        );
    }

    // (c) Monotone timeout schedule: stage timers are positive and
    // finite, so cumulative firing times strictly increase stage over
    // stage; timers exist only on real-path slots and only slots
    // followed by a real path may retransmit.
    let schedule = plan.schedule();
    let table = plan.strategy().table();
    assert!(schedule.num_combos() == table.num_combos());
    for l in 0..schedule.num_combos() {
        let slots = table.slots_of(l);
        let mut cumulative = 0.0f64;
        for (s, spec) in schedule.stages(l).iter().enumerate() {
            let Some(spec) = spec else { continue };
            assert!(
                matches!(slots.get(s), Some(Slot::Path(_))),
                "combo {l} stage {s}: timer on a non-path slot"
            );
            assert!(
                spec.delay.is_finite() && spec.delay > 0.0,
                "combo {l} stage {s}: non-positive timer {}",
                spec.delay
            );
            if spec.retransmit {
                assert!(
                    matches!(slots.get(s + 1), Some(Slot::Path(_))),
                    "combo {l} stage {s}: retransmit into a non-path slot"
                );
            }
            let next = cumulative + spec.delay;
            assert!(next > cumulative, "combo {l}: schedule not monotone");
            cumulative = next;
        }
    }

    // Coverage at the packet level: the plan's scheduler assigns every
    // block to exactly one in-range combination.
    let mut scheduler = plan.scheduler();
    let n = 500u64;
    let mut counts = vec![0u64; x.len()];
    for _ in 0..n {
        let combo = scheduler.next_combo();
        assert!(combo < x.len(), "combo {combo} out of range");
        counts[combo] += 1;
    }
    assert_eq!(counts.iter().sum::<u64>(), n);
}

/// Deterministic regime: invariants hold for any constant-delay
/// scenario and transmission count.
#[test]
fn deterministic_plans_are_feasible() {
    run_cases(fnv1a(b"deterministic_plans_are_feasible"), 48, |rng| {
        let scenario = arb_scenario(rng);
        let plan = Planner::new()
            .plan(&scenario, Objective::MaxQuality)
            .expect("blackhole keeps it feasible");
        check_plan(&plan, &scenario);
    });
}

/// The margin entry point (Experiment 1's split) preserves the same
/// invariants — rates are checked against the *margined* model the
/// plan was solved for.
#[test]
fn margined_plans_are_feasible() {
    run_cases(fnv1a(b"margined_plans_are_feasible"), 48, |rng| {
        let scenario = arb_scenario(rng);
        let margin = rng.f64(0.0..0.1);
        let plan = Planner::new()
            .plan_with_margin(&scenario, margin, Objective::MaxQuality)
            .expect("feasible");
        let margined = plan.scenario().clone();
        check_plan(&plan, &margined);
    });
}

/// Random-delay regime (Eq. 28/34 discretization): same invariants.
#[test]
fn random_delay_plans_are_feasible() {
    // The random-delay solve runs a grid search per combo; keep the case
    // count low.
    run_cases(fnv1a(b"random_delay_plans_are_feasible"), 8, |rng| {
        let scenario = arb_random_scenario(rng);
        let plan = Planner::new()
            .plan(&scenario, Objective::MaxQuality)
            .expect("feasible");
        check_plan(&plan, &scenario);
    });
}
