//! Telemetry contract of the solver: metrics recorded per solve, spans
//! measured in pivots, and identical numerics with obs on or off.

use dmc_lp::{Problem, SolveError, SolverOptions, Workspace};
use dmc_obs::Obs;

fn sample_problem() -> Problem {
    let mut p = Problem::maximize(vec![3.0, 5.0]);
    p.add_le(vec![1.0, 0.0], 4.0).expect("valid row");
    p.add_le(vec![0.0, 2.0], 12.0).expect("valid row");
    p.add_le(vec![3.0, 2.0], 18.0).expect("valid row");
    p
}

/// One span per solve, `lp.solve.revised`, whatever blocks the problem
/// declares; declared and undeclared agree to 1e-9 (the tableau oracle's
/// agreement is `proptest_backends.rs`'s).
#[test]
fn solve_records_counters_and_span() {
    let mut declared = sample_problem();
    declared.set_block_starts(vec![0, 1]).expect("two blocks");
    let mut solutions = Vec::new();
    let span_name = "lp.solve.revised";
    for problem in [sample_problem(), declared] {
        let obs = Obs::enabled();
        let opts = SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        };
        let s = problem.solve(&opts).expect("sample LP is feasible");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("lp.solves"), Some(1), "{span_name}");
        assert_eq!(
            snap.counter("lp.pivots"),
            Some(s.iterations() as u64),
            "{span_name}"
        );
        assert_eq!(
            snap.counter("lp.pivot_rows"),
            Some((s.iterations() * problem.num_constraints()) as u64),
            "{span_name}: pivots × rows"
        );
        assert_eq!(snap.clock, s.iterations() as u64, "clock ticks = pivots");
        let span = snap.span(span_name).expect("solve span recorded");
        assert_eq!(span.count, 1);
        assert_eq!(span.total_ticks, s.iterations() as u64);
        assert!(
            snap.counter("lp.refactorizations").unwrap_or(0) >= 1,
            "cold start factorizes at least once"
        );
        assert!(snap.histogram("lp.eta_len").is_some());
        assert_eq!(snap.spans.len(), 1, "{span_name}: one span per solve");
        solutions.push(s);
    }
    for s in &solutions[1..] {
        assert!((solutions[0].objective() - s.objective()).abs() < 1e-9);
        for (a, b) in solutions[0].x().iter().zip(s.x()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}

#[test]
fn warm_start_counters_and_unchanged_numerics() {
    let obs = Obs::enabled();
    let opts = SolverOptions {
        obs: obs.clone(),
        ..SolverOptions::default()
    };
    let plain = SolverOptions::default();
    let p = sample_problem();
    let mut ws = Workspace::new();

    let cold_plain = p.solve(&plain).expect("cold solve");
    let cold = p.solve_with(&opts, &mut ws).expect("cold solve");
    assert_eq!(cold.x(), cold_plain.x(), "obs must not change results");
    assert_eq!(cold.objective(), cold_plain.objective());

    let basis = cold.basis().expect("optimal basis exported");
    let warm = p
        .solve_warm_with(&opts, &mut ws, basis)
        .expect("warm solve");
    assert!(warm.used_warm_start());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("lp.solves"), Some(2));
    assert_eq!(snap.counter("lp.warm_attempts"), Some(1));
    assert_eq!(snap.counter("lp.warm_used"), Some(1));
}

/// `lp.eta_len` records the iteration etas each refactorization
/// discards. A re-solve from the optimal basis never refactorizes
/// mid-solve (nor, with no pivot, for its extraction) and records 0 —
/// not the factor etas the previous solve left in the file.
#[test]
fn eta_len_without_a_mid_solve_refactorization_is_zero() {
    let p = sample_problem();
    let mut ws = Workspace::new();
    let cold = p
        .solve_with(&SolverOptions::default(), &mut ws)
        .expect("cold solve");
    let obs = Obs::enabled();
    let opts = SolverOptions {
        obs: obs.clone(),
        ..SolverOptions::default()
    };
    let basis = cold.basis().expect("optimal basis exported");
    let warm = p
        .solve_warm_with(&opts, &mut ws, basis)
        .expect("warm solve");
    assert_eq!(warm.iterations(), 0);
    assert_eq!(warm.x(), cold.x());
    let snap = obs.snapshot();
    let eta_len = snap.histogram("lp.eta_len").expect("recorded");
    assert_eq!(eta_len.max, 0);
    assert_eq!(snap.counter("lp.refactorizations"), Some(1));
}

/// A solve past the refactorization interval records each mid-solve
/// refactorization at exactly the interval, 64.
#[test]
fn eta_len_past_the_refactorization_interval_is_64() {
    let n = 200usize;
    let mut p = Problem::maximize(
        (0..n)
            .map(|j| 1.0 + (j as f64 * 0.37).sin().abs())
            .collect(),
    );
    for i in 0..n / 2 {
        p.add_le_sparse(&[(2 * i, 1.0), (2 * i + 1, 1.0)], 1.0 + i as f64 * 0.01)
            .expect("valid row");
    }
    let obs = Obs::enabled();
    let opts = SolverOptions {
        obs: obs.clone(),
        ..SolverOptions::default()
    };
    let s = p.solve(&opts).expect("feasible");
    assert!(s.iterations() > 64, "{}", s.iterations());
    let snap = obs.snapshot();
    let eta_len = snap.histogram("lp.eta_len").expect("recorded");
    assert_eq!(eta_len.max, 64);
    assert!(eta_len.count >= 3, "cold build, one mid-solve, extraction");
}

/// Two supplies, three demands (equality rows, so phase 1 has work) and
/// costs to minimize (so phase 2 has work too).
fn transportation() -> Problem {
    let mut p = Problem::minimize(vec![8.0, 6.0, 10.0, 9.0, 12.0, 13.0]);
    p.add_le(vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 20.0)
        .expect("valid row");
    p.add_le(vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 30.0)
        .expect("valid row");
    for (j, demand) in [10.0, 25.0, 15.0].into_iter().enumerate() {
        p.add_eq_sparse(&[(j, 1.0), (j + 3, 1.0)], demand)
            .expect("valid row");
    }
    p
}

/// `lp.pivots` splits into the dual phase and phases 1–3, and the parts
/// sum to the solve's iterations; a feasibility-goal solve counts once in
/// `lp.feasibility_solves` and records no phase-2 or phase-3 pivot.
#[test]
fn phase_pivots_sum_to_the_iterations() {
    let parts = [
        "lp.dual_pivots",
        "lp.phase1_pivots",
        "lp.phase2_pivots",
        "lp.phase3_pivots",
    ];
    let p = transportation();
    let mut ws = Workspace::new();
    for feasibility in [false, true] {
        let obs = Obs::enabled();
        let opts = SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        };
        let s = if feasibility {
            p.find_feasible_with(&opts, &mut ws, None)
        } else {
            p.solve_with(&opts, &mut ws)
        }
        .expect("feasible");
        let snap = obs.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        let split: Vec<u64> = parts.iter().map(|&name| count(name)).collect();
        let case = format!("feasibility: {feasibility}, {split:?}");
        assert_eq!(split.iter().sum::<u64>(), s.iterations() as u64, "{case}");
        assert_eq!(count("lp.pivots"), s.iterations() as u64, "{case}");
        assert!(split[1] > 0, "{case}");
        assert_eq!(count("lp.feasibility_solves"), u64::from(feasibility));
        if feasibility {
            assert_eq!(split[2..], [0, 0], "{case}");
        } else {
            assert!(split[2] > 0, "{case}");
        }
    }
}

/// Every failed solve counts in `lp.errors`; a refusal (`Infeasible`)
/// also counts in `lp.infeasible`, so an answer can be told from a
/// failure. An unbounded objective is a failure of the other kind.
#[test]
fn infeasible_solves_count_as_errors() {
    let obs = Obs::enabled();
    let opts = SolverOptions {
        obs: obs.clone(),
        ..SolverOptions::default()
    };
    let mut p = Problem::maximize(vec![1.0]);
    p.add_le(vec![1.0], 1.0).expect("valid row");
    p.add_ge(vec![1.0], 2.0).expect("valid row");
    assert!(p.solve(&opts).is_err());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("lp.errors"), Some(1));
    assert_eq!(snap.counter("lp.infeasible"), Some(1));
    assert_eq!(snap.counter("lp.solves"), Some(1));
    assert_eq!(snap.counter("lp.pivot_rows"), None, "an Err adds no work");

    let mut unbounded = Problem::maximize(vec![1.0, 1.0]);
    unbounded.add_le(vec![1.0, -1.0], 1.0).expect("valid row");
    let err = unbounded.solve(&opts).expect_err("unbounded");
    assert!(matches!(err, SolveError::Unbounded), "{err:?}");
    let snap = obs.snapshot();
    assert_eq!(snap.counter("lp.errors"), Some(2));
    assert_eq!(snap.counter("lp.infeasible"), Some(1), "not a refusal");
    assert_eq!(snap.counter("lp.solves"), Some(2));
}
