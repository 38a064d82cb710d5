//! Figure 4: wall-clock time to build + solve the LP as the number of
//! paths grows, for 2 and 3 transmissions per data unit, as a
//! paper-style table. (`benchmark/`'s `flow_replan` workload times the
//! paper's own scenarios end to end.)

use dmc_core::{NetworkSpec, Objective, PathSpec, Planner, PlannerConfig, Scenario, SolverOptions};
use std::time::Instant;

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct TimingPoint {
    /// Number of real paths (blackhole excluded, as in the paper's
    /// x-axis).
    pub paths: usize,
    /// Transmissions per data unit (2 or 3 in the paper).
    pub transmissions: usize,
    /// Mean solve time in seconds (build + solve, averaged over runs).
    pub seconds: f64,
    /// LP variable count ((n+1)^m).
    pub variables: usize,
}

/// A synthetic n-path scenario in the spirit of Table III: staggered
/// bandwidths, delays and losses so the LP is non-trivial at every size.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn synthetic_network(n: usize) -> NetworkSpec {
    assert!(n > 0);
    let paths: Vec<PathSpec> = (0..n)
        .map(|i| {
            let bw = 20e6 + 15e6 * (i as f64);
            let delay = 0.100 + 0.070 * (i as f64);
            let loss = 0.02 * (i as f64 % 5.0);
            PathSpec::new(bw, delay, loss).expect("valid synthetic path")
        })
        .collect();
    let total: f64 = paths.iter().map(PathSpec::bandwidth).sum();
    NetworkSpec::builder()
        .paths(paths)
        .data_rate(total * 0.9) // near capacity: most constraints active
        .lifetime(0.450)
        .build()
        .expect("valid synthetic scenario")
}

/// Measures mean build+solve time for `n` paths and `m` transmissions
/// over `runs` repetitions (the paper averages 100 runs), with the LP
/// solves recorded into `obs`. An *enabled* registry adds a few atomic
/// increments per solve to the timed region, so compare timings only
/// against runs with the same telemetry setting.
pub fn measure(n: usize, m: usize, runs: usize, obs: &dmc_obs::Obs) -> TimingPoint {
    let scenario = Scenario::from_network(&synthetic_network(n)).with_transmissions(m);
    let config = PlannerConfig {
        solver: SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        },
        ..PlannerConfig::default()
    };
    // A fresh planner per run: build + cold solve, nothing carried over.
    let build_and_solve = || {
        let _ = Planner::with_config(config.clone()).plan(&scenario, Objective::MaxQuality);
    };
    build_and_solve(); // warm-up (page in, branch predictors)
                       // dmc-lint: allow(det-wallclock) figure 4 measures wall-clock solve time by design; timings are reported, never fed back into planning
    let start = Instant::now();
    for _ in 0..runs {
        build_and_solve();
    }
    let seconds = start.elapsed().as_secs_f64() / runs as f64;
    TimingPoint {
        paths: n,
        transmissions: m,
        seconds,
        variables: (n + 1).pow(m as u32),
    }
}

/// The paper's sweep: 2–10 paths × {2, 3} transmissions, the LP solves
/// recorded into `obs` (see [`measure`] for the timing caveat).
pub fn sweep(runs: usize, obs: &dmc_obs::Obs) -> Vec<TimingPoint> {
    let mut out = Vec::new();
    for &m in &[2usize, 3] {
        for n in 2..=10 {
            out.push(measure(n, m, runs, obs));
        }
    }
    out
}

/// Renders the sweep as a markdown table (ms, like the paper's y-axis).
pub fn render(points: &[TimingPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.paths.to_string(),
                p.transmissions.to_string(),
                p.variables.to_string(),
                format!("{:.3}", p.seconds * 1e3),
            ]
        })
        .collect();
    crate::report::markdown_table(&["paths", "transmissions", "LP vars", "time (ms)"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_networks_solve_at_every_size() {
        for n in 2..=10 {
            let s = Planner::new()
                .plan(
                    &Scenario::from_network(&synthetic_network(n)),
                    Objective::MaxQuality,
                )
                .unwrap();
            assert!(s.quality() > 0.0 && s.quality() <= 1.0 + 1e-9, "n={n}");
        }
    }

    #[test]
    fn timing_grows_with_problem_size() {
        // Sanity, not a benchmark: 3 transmissions at n=8 must cost more
        // than 2 transmissions at n=2, and both must complete quickly.
        let off = dmc_obs::Obs::disabled();
        let small = measure(2, 2, 3, &off);
        let large = measure(8, 3, 3, &off);
        assert!(large.seconds > small.seconds);
        assert_eq!(small.variables, 9);
        assert_eq!(large.variables, 729);
        assert!(small.seconds < 0.5, "2-path solve took {}s", small.seconds);
    }
}
