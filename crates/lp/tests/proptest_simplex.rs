//! Property-based tests for the simplex solver.
//!
//! Strategy: generate random LPs that are feasible *by construction*
//! (constraints are `a·x ≤ a·x₀ + slack` for a known interior point `x₀`),
//! then check the simplex invariants:
//!
//! 1. the returned point satisfies every constraint,
//! 2. the returned objective dominates the known feasible point and a cloud
//!    of random feasible candidates,
//! 3. weak duality holds: `cᵀx* ≤ yᵀb` with the returned duals,
//! 4. solving is deterministic.

use dmc_lp::{Problem, SolverOptions};
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [lo, hi) from a seed counter.
fn mix(seed: &mut u64) -> f64 {
    // SplitMix64.
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn build_feasible_lp(n: usize, m: usize, seed0: u64) -> (Problem, Vec<f64>) {
    let mut seed = seed0;
    let x0: Vec<f64> = (0..n).map(|_| mix(&mut seed) * 5.0).collect();
    let c: Vec<f64> = (0..n).map(|_| mix(&mut seed) * 4.0 - 2.0).collect();
    let mut p = Problem::maximize(c);
    for _ in 0..m {
        let a: Vec<f64> = (0..n).map(|_| mix(&mut seed) * 2.0 - 0.5).collect();
        let lhs: f64 = a.iter().zip(&x0).map(|(ai, xi)| ai * xi).sum();
        let slack = mix(&mut seed) * 3.0;
        p.add_le(a, lhs + slack).unwrap();
    }
    // A box bound keeps the problem bounded.
    for j in 0..n {
        let mut row = vec![0.0; n];
        row[j] = 1.0;
        p.add_le(row, 10.0).unwrap();
    }
    (p, x0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solution_is_feasible_and_dominant(n in 1usize..7, m in 1usize..9, seed in any::<u64>()) {
        let (p, x0) = build_feasible_lp(n, m, seed);
        let s = p.solve(&SolverOptions::default()).unwrap();
        // (1) feasibility
        prop_assert!(p.max_violation(s.x()) < 1e-6,
            "violation {}", p.max_violation(s.x()));
        // (2) dominates the known interior point
        prop_assert!(s.objective() >= p.objective_value(&x0) - 1e-6);
        // (4) determinism
        let s2 = p.solve(&SolverOptions::default()).unwrap();
        prop_assert!((s.objective() - s2.objective()).abs() < 1e-12);
    }

    #[test]
    fn weak_duality_holds(n in 1usize..6, m in 1usize..7, seed in any::<u64>()) {
        let (p, _) = build_feasible_lp(n, m, seed);
        let s = p.solve(&SolverOptions::default()).unwrap();
        // All rows are `≤` here; weak duality: obj ≤ Σ y_i b_i with y ≥ −tol.
        let mut bound = 0.0;
        for (row, &y) in p.constraints().iter().zip(s.duals()) {
            prop_assert!(y >= -1e-7, "negative dual {y}");
            bound += y * row.rhs();
        }
        prop_assert!(s.objective() <= bound + 1e-5,
            "objective {} exceeds dual bound {}", s.objective(), bound);
    }

    #[test]
    fn equality_simplex_distribution(n in 2usize..8, seed in any::<u64>()) {
        // Problems shaped like the paper's: Σ x = 1, x ≥ 0, maximize p·x
        // with p ∈ [0,1]ⁿ. The optimum must be max(p).
        let mut seed = seed;
        let pvec: Vec<f64> = (0..n).map(|_| mix(&mut seed)).collect();
        let best = pvec.iter().cloned().fold(f64::MIN, f64::max);
        let mut lp = Problem::maximize(pvec);
        lp.add_eq(vec![1.0; n], 1.0).unwrap();
        let s = lp.solve(&SolverOptions::default()).unwrap();
        prop_assert!((s.objective() - best).abs() < 1e-9);
        let total: f64 = s.x().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
