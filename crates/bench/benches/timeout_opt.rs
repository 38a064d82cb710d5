//! Ablation: Eq.-34 timeout-optimization cost vs. discretization grid
//! resolution (finer grids cost quadratically in the convolution but only
//! linearly in the argmax scan).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{Planner, PlannerConfig};
use dmc_experiments::scenarios;
use std::hint::black_box;

fn timeout_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("timeout_optimization");
    let scenario = scenarios::table5_scenario(90e6, 0.750);
    for step_ms in [4.0f64, 2.0, 1.0, 0.5, 0.25] {
        group.bench_with_input(
            BenchmarkId::new("grid_step_ms", format!("{step_ms}")),
            &step_ms,
            |b, &step_ms| {
                let mut planner = Planner::with_config(PlannerConfig {
                    grid_step: step_ms / 1e3,
                    ..PlannerConfig::default()
                });
                b.iter(|| black_box(planner.model(&scenario)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, timeout_grid);
criterion_main!(benches);
