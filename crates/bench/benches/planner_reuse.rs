//! Does planner workspace reuse pay? A 20-point λ sweep over the Table
//! III scenario, solved two ways:
//!
//! * `planner_reused` — one `Planner` across the sweep: the LP workspace
//!   is allocated once and every point after the first starts from the
//!   cached basis of its shape;
//! * `planner_fresh` — a new `Planner` per solve: every point pays the
//!   allocation and a cold solve (what a naive caller would write).
//!
//! The measured numbers are recorded in `BENCH_planner.json`
//! (regenerate with `CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench
//! --bench planner_reuse`); CI gates `planner_reused ≤ planner_fresh` on
//! the Table III sweep within one run, not the recorded medians. A larger synthetic scenario (8 paths,
//! m = 3 → 729 LP variables) shows the gap growing with problem size.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{Objective, Planner, Scenario, ScenarioPath};
use dmc_experiments::figure4::synthetic_network;
use dmc_experiments::scenarios;
use std::hint::black_box;

/// The 20 rate points (Mbps) of the sweep.
fn lambda_points() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 7.5).collect()
}

fn table3_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_reuse/table3_20pt_lambda_sweep");
    let base = scenarios::table3_model_scenario(90e6, 0.800);
    let points = lambda_points();

    group.bench_function("planner_reused", |b| {
        let mut planner = Planner::new();
        b.iter(|| {
            let mut total = 0.0;
            for &l in &points {
                let plan = planner
                    .plan(&base.with_data_rate(l * 1e6), Objective::MaxQuality)
                    .expect("feasible");
                total += plan.quality();
            }
            black_box(total)
        });
    });

    group.bench_function("planner_fresh", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for &l in &points {
                let mut planner = Planner::new();
                let plan = planner
                    .plan(&base.with_data_rate(l * 1e6), Objective::MaxQuality)
                    .expect("feasible");
                total += plan.quality();
            }
            black_box(total)
        });
    });

    group.finish();
}

fn large_model_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_reuse/synthetic_8path_m3");
    // 8 paths + blackhole, 3 transmissions → 729 LP variables: the
    // tableau is ~100 KB, so per-solve allocation is material.
    let net = synthetic_network(8);
    let base = Scenario::from_network(&net).with_transmissions(3);
    let rates: Vec<f64> = (1..=10)
        .map(|i| net.data_rate() * i as f64 / 10.0)
        .collect();

    group.bench_with_input(BenchmarkId::new("planner_reused", 729), &(), |b, ()| {
        let mut planner = Planner::new();
        b.iter(|| {
            let mut total = 0.0;
            for &r in &rates {
                total += planner
                    .plan(&base.with_data_rate(r), Objective::MaxQuality)
                    .expect("feasible")
                    .quality();
            }
            black_box(total)
        });
    });

    group.bench_with_input(BenchmarkId::new("planner_fresh", 729), &(), |b, ()| {
        b.iter(|| {
            let mut total = 0.0;
            for &r in &rates {
                total += Planner::new()
                    .plan(&base.with_data_rate(r), Objective::MaxQuality)
                    .expect("feasible")
                    .quality();
            }
            black_box(total)
        });
    });

    group.finish();
}

fn adaptive_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_reuse/adaptive_single_resolve");
    // The AdaptiveSender pattern: re-plan the *same-shaped* scenario with
    // slightly different characteristics each time (estimator updates).
    let loss_steps: Vec<f64> = (0..20).map(|i| 0.05 + 0.01 * i as f64).collect();
    let scenario_for = |loss: f64| -> Scenario {
        Scenario::builder()
            .path(ScenarioPath::constant(80e6, 0.450, loss).expect("valid"))
            .path(ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"))
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .expect("valid")
    };

    group.bench_function("planner_reused", |b| {
        let mut planner = Planner::new();
        b.iter(|| {
            let mut total = 0.0;
            for &loss in &loss_steps {
                total += planner
                    .plan(&scenario_for(loss), Objective::MaxQuality)
                    .expect("feasible")
                    .quality();
            }
            black_box(total)
        });
    });

    group.bench_function("planner_fresh", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for &loss in &loss_steps {
                total += Planner::new()
                    .plan(&scenario_for(loss), Objective::MaxQuality)
                    .expect("feasible")
                    .quality();
            }
            black_box(total)
        });
    });

    group.finish();
}

criterion_group!(benches, table3_sweep, large_model_sweep, adaptive_resolve);
criterion_main!(benches);
