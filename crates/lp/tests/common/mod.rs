//! What the test files share.

use dmc_lp::{Problem, SolveError, SolverOptions, Workspace};

/// The feasibility goal gives the full solve's verdict: refused exactly
/// when the full solve says `Infeasible`, and otherwise — optimal or
/// unbounded — a vertex that certifies.
pub fn assert_feasibility_verdict(p: &Problem) {
    let opts = SolverOptions::default();
    let full = p.solve(&opts);
    let refused = matches!(full, Err(SolveError::Infeasible { .. }));
    match p.find_feasible_with(&opts, &mut Workspace::new(), None) {
        Err(SolveError::Infeasible { .. }) => assert!(refused, "full solve: {full:?}"),
        Ok(vertex) => {
            assert!(!refused, "the full solve refused what phase 1 admitted");
            vertex.certify(p).expect("a feasible vertex certifies");
        }
        Err(e) => panic!("feasibility goal failed: {e:?} (full solve: {full:?})"),
    }
}
