//! Property-based tests on the model's invariants.

use dmc_core::{
    NetworkSpec, Objective, PathSpec, Plan, Planner, Scenario, SchedulePolicy, Scheduler,
};
use proptest::prelude::*;

/// The quality-optimal plan of `net` with `m` transmissions.
fn optimum(net: &NetworkSpec, m: usize) -> Plan {
    Planner::new()
        .plan(
            &Scenario::from_network(net).with_transmissions(m),
            Objective::MaxQuality,
        )
        .expect("blackhole keeps it feasible")
}

fn quality(net: &NetworkSpec) -> f64 {
    optimum(net, 2).quality()
}

/// Strategy for a random but valid path.
fn arb_path() -> impl Strategy<Value = PathSpec> {
    (
        1.0f64..200.0, // bandwidth Mbps
        0.005f64..0.8, // delay s
        0.0f64..0.9,   // loss
        0.0f64..5e-9,  // cost per bit
    )
        .prop_map(|(bw, d, l, c)| PathSpec::with_cost(bw * 1e6, d, l, c).expect("valid"))
}

fn arb_network() -> impl Strategy<Value = NetworkSpec> {
    (
        proptest::collection::vec(arb_path(), 1..5),
        1.0f64..300.0, // λ Mbps
        0.05f64..2.0,  // δ s
    )
        .prop_map(|(paths, lambda, delta)| {
            NetworkSpec::builder()
                .paths(paths)
                .data_rate(lambda * 1e6)
                .lifetime(delta)
                .build()
                .expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's fundamental invariants (Eq. 3, 6, 8, 9) hold for the
    /// optimum of *any* scenario.
    #[test]
    fn optimal_strategy_invariants(net in arb_network(), m in 1usize..4) {
        let plan = optimum(&net, m);
        let s = plan.strategy();
        prop_assert!(s.is_well_formed(1e-7));
        prop_assert!(s.quality() >= -1e-9 && s.quality() <= 1.0 + 1e-9,
            "Q = {}", s.quality());
        for (k, (&rate, path)) in s.send_rates().iter().zip(net.paths()).enumerate() {
            prop_assert!(rate <= path.bandwidth() * (1.0 + 1e-7),
                "S_{k} = {rate} > b = {}", path.bandwidth());
        }
        prop_assert!(s.cost_rate() >= -1e-9);
    }

    /// Quality is monotone in lifetime and antitone in data rate.
    #[test]
    fn quality_monotonicity(net in arb_network()) {
        let q = quality(&net);
        let q_longer = quality(&net.with_lifetime(net.lifetime() * 1.5));
        prop_assert!(q_longer >= q - 1e-7, "longer lifetime reduced Q: {q} → {q_longer}");
        let q_faster = quality(&net.with_data_rate(net.data_rate() * 1.5));
        prop_assert!(q_faster <= q + 1e-7, "higher rate raised Q: {q} → {q_faster}");
    }

    /// Adding a path never lowers the optimal quality.
    #[test]
    fn extra_path_never_hurts(net in arb_network(), extra in arb_path()) {
        let q = quality(&net);
        let bigger = NetworkSpec::builder()
            .paths(net.paths().iter().copied())
            .path(extra)
            .data_rate(net.data_rate())
            .lifetime(net.lifetime())
            .build()
            .unwrap();
        let q_bigger = quality(&bigger);
        prop_assert!(q_bigger >= q - 1e-7, "extra path reduced Q: {q} → {q_bigger}");
    }

    /// The multipath optimum dominates every single-path optimum.
    #[test]
    fn multipath_dominates_each_path(net in arb_network()) {
        let multi = quality(&net);
        for k in 0..net.num_paths() {
            let single = quality(&net.restricted_to_path(k));
            prop_assert!(multi >= single - 1e-7,
                "path {k} alone ({single}) beat multipath ({multi})");
        }
    }

    /// `evaluate_under` on the *same* network reproduces the predicted
    /// metrics (the analytic cross-evaluator is consistent).
    #[test]
    fn self_evaluation_consistency(net in arb_network()) {
        let s = optimum(&net, 2).into_strategy();
        let eval = s.evaluate_under(&net);
        prop_assert!((eval.quality - s.quality()).abs() < 1e-6,
            "self-eval {} vs predicted {}", eval.quality, s.quality());
    }

    /// Algorithm 1 keeps the empirical distribution within `k/N` of the
    /// target for every prefix.
    #[test]
    fn algorithm1_tracks_any_solution(net in arb_network(), n_packets in 100u64..2_000) {
        let s = optimum(&net, 2).into_strategy();
        let mut sched =
            Scheduler::new(s.x().to_vec(), SchedulePolicy::Deficit).expect("valid x");
        for _ in 0..n_packets {
            sched.next_combo();
        }
        let k = s.x().len() as f64;
        prop_assert!(sched.max_deviation() <= k / n_packets as f64,
            "deviation {} after {n_packets}", sched.max_deviation());
    }

    /// The LP solution is a true optimum: no random feasible assignment
    /// beats it.
    #[test]
    fn no_feasible_point_beats_optimum(net in arb_network(), seed in any::<u64>()) {
        let mut planner = Planner::new();
        let scenario = Scenario::from_network(&net);
        let s = planner.plan(&scenario, Objective::MaxQuality).unwrap();
        let model = planner.model(&scenario);
        // Random candidate: Dirichlet-ish weights over combos, then scale
        // down until capacity-feasible.
        let ncombos = model.num_combos();
        let mut state = seed.wrapping_add(1);
        let mut w: Vec<f64> = (0..ncombos).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64).max(1e-9)
        }).collect();
        let total: f64 = w.iter().sum();
        w.iter_mut().for_each(|v| *v /= total);
        // Shift mass to the blackhole (combo 0) until feasible.
        let mut scale = 1.0f64;
        for _ in 0..60 {
            let candidate: Vec<f64> = w.iter().enumerate().map(|(l, &v)| {
                if l == 0 { v * scale + (1.0 - scale) } else { v * scale }
            }).collect();
            let feasible = (0..net.num_paths()).all(|k| {
                let used: f64 = model.usage_coeffs(k).iter().zip(&candidate)
                    .map(|(u, x)| u * x).sum();
                used * net.data_rate() <= net.paths()[k].bandwidth() * (1.0 + 1e-9)
            });
            if feasible {
                let q: f64 = model.quality_coeffs().iter().zip(&candidate)
                    .map(|(p, x)| p * x).sum();
                prop_assert!(q <= s.quality() + 1e-7,
                    "feasible candidate beat the optimum: {q} > {}", s.quality());
                break;
            }
            scale *= 0.8;
        }
    }
}
