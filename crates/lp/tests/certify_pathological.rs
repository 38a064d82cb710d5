//! [`Solution::certify`] on pathological inputs: infeasible and
//! unbounded problems, degenerate zero-capacity rows, zero rows, and the
//! tombstoned (`Σx = 0`) blocks the fleet's incremental assembly
//! produces — the certificate must accept exactly the genuinely feasible
//! points and reject everything else with a usable message, on the
//! tableau oracle and on the solver. On the infeasible
//! and unbounded cases the feasibility goal
//! ([`Problem::find_feasible_with`]) must give the full solve's verdict.
//!
//! Forged candidate points are produced by a *pinning solve* (an LP
//! whose equality rows fix `x = v` exactly), so the `Solution` under
//! test is a real solver artifact; `certify` checks rows before the
//! objective, so row-violation messages are still the first failure.
//! The tableau's answer is certified the same way: its `x` pinned under
//! the problem's own objective.

mod common;

use common::assert_feasibility_verdict;
use dmc_lp::{Problem, Solution, SolveError, SolverOptions};

/// `p` solved by the tableau oracle (its `x` pinned, see [`pinned`]) and
/// by the solver, and — when it declares more than one block — by the
/// solver with its declaration cleared too (other pricing sections,
/// another pivot order).
fn solve_all(p: &Problem) -> Vec<Result<Solution, SolveError>> {
    let tableau = dmc_lp_oracle::solve(p).map(|t| {
        let s = pinned_under(p.objective(), &t.x);
        let replayed = s.objective();
        let scale = t.objective.abs().max(1.0);
        assert!(
            (replayed - t.objective).abs() <= 1e-9 * scale,
            "tableau reported {}, its x scores {replayed}",
            t.objective
        );
        s
    });
    let opts = SolverOptions::default();
    let mut results = vec![tableau, p.solve(&opts)];
    if p.block_starts().len() > 1 {
        let mut undeclared = p.clone();
        undeclared.set_block_starts(Vec::new()).unwrap();
        results.push(undeclared.solve(&opts));
    }
    results
}

/// A `Solution` whose `x` is (up to solver roundoff) the given point,
/// obtained by solving `max 0` s.t. `x_j = v_j`.
fn pinned(v: &[f64]) -> Solution {
    pinned_under(vec![0.0; v.len()], v)
}

/// [`pinned`] under `max objective·x`, so the `Solution` reports the
/// objective `v` scores.
fn pinned_under(objective: Vec<f64>, v: &[f64]) -> Solution {
    let mut q = Problem::maximize(objective);
    for (j, &val) in v.iter().enumerate() {
        let mut row = vec![0.0; v.len()];
        row[j] = 1.0;
        q.add_eq(row, val).unwrap();
    }
    q.solve(&SolverOptions::default())
        .expect("pinning LP solves")
}

#[test]
fn infeasible_problems_never_yield_a_certifiable_point() {
    // x ≤ 1 and x ≥ 2: every backend reports infeasibility, and no
    // candidate x can certify — whatever a buggy solver might return.
    let mut p = Problem::maximize(vec![1.0]);
    p.add_le(vec![1.0], 1.0).unwrap();
    p.add_ge(vec![1.0], 2.0).unwrap();
    for result in solve_all(&p) {
        assert!(matches!(result, Err(SolveError::Infeasible { .. })));
    }
    assert_feasibility_verdict(&p);
    for x in [0.0, 1.0, 1.5, 2.0, 3.0] {
        let err = pinned(&[x]).certify(&p).unwrap_err();
        assert!(err.contains("row"), "x={x}: {err}");
    }
}

#[test]
fn unbounded_problems_still_certify_feasible_points() {
    // Certification is a *feasibility* certificate: an unbounded problem
    // has no optimum for a solver to return, but a feasible point (here
    // produced by solving a bounded variant of the same objective) must
    // still certify against it.
    let mut p = Problem::maximize(vec![1.0, 0.0]);
    p.add_le(vec![0.0, 1.0], 1.0).unwrap();
    for result in solve_all(&p) {
        assert!(matches!(result, Err(SolveError::Unbounded)));
    }
    assert_feasibility_verdict(&p);
    let mut bounded = Problem::maximize(vec![1.0, 0.0]);
    bounded.add_le(vec![0.0, 1.0], 1.0).unwrap();
    bounded.add_le(vec![1.0, 0.0], 7.0).unwrap();
    let s = bounded.solve(&SolverOptions::default()).unwrap();
    s.certify(&p)
        .expect("feasible point of an unbounded problem certifies");
    // …while an infeasible point of the same problem does not.
    assert!(pinned(&[7.0, 2.0]).certify(&p).is_err());
}

#[test]
fn zero_capacity_rows_pin_their_variables() {
    // A zero-capacity row (b_k = 0) is the fleet's "failed path" shape:
    // feasible, but only with nothing assigned to the path.
    let mut p = Problem::maximize(vec![0.6, 0.4]);
    p.add_le(vec![1.0, 0.0], 0.0).unwrap(); // dead path: x0 ≤ 0
    p.add_le(vec![0.0, 1.0], 1.0).unwrap();
    p.add_eq(vec![1.0, 1.0], 1.0).unwrap();
    for result in solve_all(&p) {
        let s = result.unwrap();
        s.certify(&p).expect("solver optimum certifies");
        assert!(s.x()[0].abs() <= 1e-9, "dead-path mass: {}", s.x()[0]);
        assert!((s.x()[1] - 1.0).abs() <= 1e-9);
    }
    // Any mass on the dead path is flagged, however small the row norm.
    let err = pinned(&[0.5, 0.5]).certify(&p).unwrap_err();
    assert!(err.contains("row 0"), "{err}");
}

#[test]
fn all_zero_rows_certify_by_rhs_sign() {
    // A degenerate all-zero row is satisfiable iff its RHS admits 0.
    let mut sat = Problem::maximize(vec![1.0]);
    sat.add_le(vec![0.0], 0.0).unwrap(); // 0 ≤ 0: vacuous
    sat.add_le(vec![1.0], 2.0).unwrap();
    for result in solve_all(&sat) {
        let s = result.unwrap();
        s.certify(&sat).expect("vacuous zero row certifies");
        assert!((s.objective() - 2.0).abs() < 1e-9);
    }
    let mut unsat = Problem::maximize(vec![1.0]);
    unsat.add_ge(vec![0.0], 1.0).unwrap(); // 0 ≥ 1: impossible
    unsat.add_le(vec![1.0], 2.0).unwrap();
    for result in solve_all(&unsat) {
        assert!(matches!(result, Err(SolveError::Infeasible { .. })));
    }
    assert_feasibility_verdict(&unsat);
    assert!(pinned(&[0.0]).certify(&unsat).is_err());
}

#[test]
fn tombstoned_blocks_certify_only_at_zero() {
    // The incremental fleet's departure pattern: Σx = 0 forces a block
    // to zero. The solver's answer must certify; any lingering mass in
    // the tombstoned block must not.
    let mut p = Problem::maximize(vec![0.0, 0.0, 0.5, 0.7]);
    p.add_le(vec![0.3, 0.4, 0.5, 0.2], 1.0).unwrap();
    p.add_eq(vec![1.0, 1.0, 0.0, 0.0], 0.0).unwrap(); // tombstoned block
    p.add_eq(vec![0.0, 0.0, 1.0, 1.0], 1.0).unwrap(); // live block
    p.set_block_starts(vec![0, 2]).unwrap();
    for result in solve_all(&p) {
        let s = result.unwrap();
        s.certify(&p).expect("tombstoned optimum certifies");
        assert!(s.x()[0].abs() <= 1e-9 && s.x()[1].abs() <= 1e-9);
    }
    let err = pinned(&[0.5, 0.0, 0.0, 1.0]).certify(&p).unwrap_err();
    assert!(err.contains("row 1"), "{err}");
}
