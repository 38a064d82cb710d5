//! The backend matrix: dense tableau, the revised driver on its dense-LU
//! kernel and on its sparse kernel, cold and warm, on the paper's LP
//! shapes and on a fleet-shaped block-angular one.
//!
//! Subjects on the single-flow instances:
//!
//! * `dense` — `Backend::DenseTableau`, the original two-phase tableau;
//! * `revised` — `Backend::Revised`, cold (two-phase) solves;
//! * `sparse` — `Backend::Sparse`, cold, on the same dense problems: the
//!   side of the size/sparsity line where the sparse kernel must *not*
//!   be expected to win (CI gates `revised ≤ sparse` on the 729-variable
//!   instance as a same-run ratio);
//! * `warm_revised` — `Backend::Revised` with each solve warm-started
//!   from the previous solve's optimal basis (`Problem::solve_warm_with`),
//!   the pattern the `Planner` and `AdaptiveSender` use.
//!
//! Two single-flow instances:
//!
//! * the 20-point Table III λ sweep (9 variables × 3 rows each — small;
//!   the dense tableau is competitive here), and
//! * the `synthetic_8path_m3` instance (8 paths + blackhole, m = 3 → 729
//!   variables × 9 rows — the few-rows/many-columns regime the revised
//!   method targets; `warm_revised` re-solves it from its own optimal
//!   basis, the adaptive-sender pattern).
//!
//! Measured numbers are recorded in `BENCH_lp.json` (regenerate with
//! `CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench --bench lp_backends`).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{Objective, Planner, PlannerConfig, Scenario};
use dmc_experiments::figure4::synthetic_network;
use dmc_experiments::scenarios;
use dmc_lp::{Backend, Basis, Problem, SolverOptions, Workspace};
use std::hint::black_box;

fn dense_opts() -> SolverOptions {
    SolverOptions {
        backend: Backend::DenseTableau,
        ..SolverOptions::default()
    }
}

fn revised_opts() -> SolverOptions {
    SolverOptions {
        backend: Backend::Revised,
        ..SolverOptions::default()
    }
}

fn sparse_opts() -> SolverOptions {
    SolverOptions {
        backend: Backend::Sparse,
        ..SolverOptions::default()
    }
}

fn quality_lp(scenario: &Scenario) -> Problem {
    Planner::new()
        .model(scenario)
        .problem(Objective::MaxQuality)
}

/// The quality LPs of the 20-point Table III λ sweep.
fn table3_sweep_problems() -> Vec<Problem> {
    (1..=20)
        .map(|i| {
            let scenario = scenarios::table3_model_scenario(i as f64 * 7.5 * 1e6, 0.800);
            quality_lp(&scenario)
        })
        .collect()
}

/// The 729-variable quality LP of the synthetic 8-path, m = 3 scenario.
fn synthetic_729_problem() -> Problem {
    quality_lp(&Scenario::from_network(&synthetic_network(8)).with_transmissions(3))
}

fn solve_all(problems: &[Problem], opts: &SolverOptions, ws: &mut Workspace) -> f64 {
    let mut total = 0.0;
    for p in problems {
        total += p.solve_with(opts, ws).expect("feasible").objective();
    }
    total
}

fn solve_all_warm(problems: &[Problem], opts: &SolverOptions, ws: &mut Workspace) -> f64 {
    let mut total = 0.0;
    let mut basis: Option<Basis> = None;
    for p in problems {
        let s = match &basis {
            Some(b) => p.solve_warm_with(opts, ws, b).expect("feasible"),
            None => p.solve_with(opts, ws).expect("feasible"),
        };
        total += s.objective();
        basis = s.basis().cloned();
    }
    total
}

fn table3_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_backends/table3_20pt_lambda_sweep");
    let problems = table3_sweep_problems();

    group.bench_function("dense", |b| {
        let opts = dense_opts();
        let mut ws = Workspace::new();
        b.iter(|| black_box(solve_all(&problems, &opts, &mut ws)));
    });
    for (name, opts) in [("revised", revised_opts()), ("sparse", sparse_opts())] {
        group.bench_function(name, |b| {
            let mut ws = Workspace::new();
            b.iter(|| black_box(solve_all(&problems, &opts, &mut ws)));
        });
    }
    group.bench_function("warm_revised", |b| {
        let opts = revised_opts();
        let mut ws = Workspace::new();
        b.iter(|| black_box(solve_all_warm(&problems, &opts, &mut ws)));
    });
    group.finish();
}

fn synthetic_729(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_backends/synthetic_8path_m3");
    let problem = synthetic_729_problem();

    group.bench_with_input(BenchmarkId::new("dense", 729), &(), |b, ()| {
        let opts = dense_opts();
        let mut ws = Workspace::new();
        b.iter(|| {
            black_box(
                problem
                    .solve_with(&opts, &mut ws)
                    .expect("feasible")
                    .objective(),
            )
        });
    });
    for (name, opts) in [("revised", revised_opts()), ("sparse", sparse_opts())] {
        group.bench_with_input(BenchmarkId::new(name, 729), &(), |b, ()| {
            let mut ws = Workspace::new();
            b.iter(|| {
                black_box(
                    problem
                        .solve_with(&opts, &mut ws)
                        .expect("feasible")
                        .objective(),
                )
            });
        });
    }
    // The adaptive-sender pattern: re-solve from the last optimal basis
    // (here its own — re-entering phase 2 verifies optimality in one
    // pricing pass instead of re-pivoting from scratch).
    group.bench_with_input(BenchmarkId::new("warm_revised", 729), &(), |b, ()| {
        let opts = revised_opts();
        let mut ws = Workspace::new();
        let basis = problem
            .solve_with(&opts, &mut ws)
            .expect("feasible")
            .basis()
            .expect("exportable")
            .clone();
        b.iter(|| {
            black_box(
                problem
                    .solve_warm_with(&opts, &mut ws, &basis)
                    .expect("feasible")
                    .objective(),
            )
        });
    });
    group.finish();
}

fn planner_warm_sweep(c: &mut Criterion) {
    // End-to-end check that the Planner-level cache pays: the same 20-pt
    // sweep through Planner::plan with the warm cache on and off, and on
    // the sparse kernel (what moving the Planner onto it would cost).
    let mut group = c.benchmark_group("lp_backends/planner_table3_sweep");
    let base = scenarios::table3_model_scenario(90e6, 0.800);
    let points: Vec<f64> = (1..=20).map(|i| i as f64 * 7.5e6).collect();

    let subjects = [
        ("warm_cache_on", PlannerConfig::default()),
        (
            "warm_cache_off",
            PlannerConfig {
                warm_start: false,
                ..PlannerConfig::default()
            },
        ),
        (
            "warm_cache_on_sparse",
            PlannerConfig {
                solver: sparse_opts(),
                ..PlannerConfig::default()
            },
        ),
    ];
    for (name, config) in subjects {
        group.bench_function(name, |b| {
            let mut planner = Planner::with_config(config.clone());
            b.iter(|| {
                let mut total = 0.0;
                for &l in &points {
                    total += planner
                        .plan(&base.with_data_rate(l), Objective::MaxQuality)
                        .expect("feasible")
                        .quality();
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

/// A fleet-shaped block-angular joint LP: `blocks` per-flow blocks of 9
/// columns (a `Σx = 1` row each, a quality-floor row on every fourth
/// block), coupled by two shared capacity rows — the structure
/// `dmc_fleet`'s joint admission LP has at `blocks` admitted flows.
/// Column 0 of each block is the "blackhole" (zero quality, zero
/// capacity usage), which keeps the instance feasible under any load,
/// exactly like the real joint LP.
fn block_angular_problem(blocks: usize) -> Problem {
    let width = 9usize;
    let n = blocks * width;
    let c: Vec<f64> = (0..n)
        .map(|j| {
            if j % width == 0 {
                0.0
            } else {
                0.2 + 0.7 * ((j as f64 * 0.7389).sin() * 0.5 + 0.5)
            }
        })
        .collect();
    let mut p = Problem::maximize(c.clone());
    for k in 0..2usize {
        let row: Vec<f64> = (0..n)
            .map(|j| {
                if j % width == 0 {
                    0.0
                } else {
                    0.05 + ((j + 11 * k) as f64 * 0.4243).cos().abs()
                }
            })
            .collect();
        p.add_le(row, 0.35 * blocks as f64 + k as f64 * 0.1)
            .unwrap();
    }
    for f in 0..blocks {
        if f % 4 == 0 {
            let mut row = vec![0.0; n];
            row[f * width..(f + 1) * width].copy_from_slice(&c[f * width..(f + 1) * width]);
            p.add_ge(row, 0.15).unwrap();
        }
        let mut row = vec![0.0; n];
        for v in &mut row[f * width..(f + 1) * width] {
            *v = 1.0;
        }
        p.add_eq(row, 1.0).unwrap();
    }
    p.set_block_starts((0..blocks).map(|f| f * width).collect())
        .unwrap();
    p
}

/// The fleet-scale instance: 64 blocks → 576 variables, 146 rows. This
/// is where the dense-LU kernel's `O(m³)` refactorizations and `O(m·n)`
/// pricing bite — the side of the line where the sparse kernel must win
/// (CI gates `sparse_cold ≤ revised_cold` as a same-run ratio).
fn block_angular_64(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_backends/block_angular_64flow");
    let problem = block_angular_problem(64);

    group.bench_function("revised_cold", |b| {
        let opts = revised_opts();
        let mut ws = Workspace::new();
        b.iter(|| {
            black_box(
                problem
                    .solve_with(&opts, &mut ws)
                    .expect("feasible")
                    .objective(),
            )
        });
    });
    group.bench_function("sparse_cold", |b| {
        let opts = sparse_opts();
        let mut ws = Workspace::new();
        b.iter(|| {
            black_box(
                problem
                    .solve_with(&opts, &mut ws)
                    .expect("feasible")
                    .objective(),
            )
        });
    });
    for (name, opts) in [
        ("revised_warm", revised_opts()),
        ("sparse_warm", sparse_opts()),
    ] {
        group.bench_function(name, |b| {
            let mut ws = Workspace::new();
            let basis = problem
                .solve_with(&opts, &mut ws)
                .expect("feasible")
                .basis()
                .expect("exportable")
                .clone();
            b.iter(|| {
                black_box(
                    problem
                        .solve_warm_with(&opts, &mut ws, &basis)
                        .expect("feasible")
                        .objective(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    table3_sweep,
    synthetic_729,
    planner_warm_sweep,
    block_angular_64
);
criterion_main!(benches);
