//! Monte-Carlo trial throughput: the Figure-2 flagship workload
//! (λ = 90 Mbps, δ = 800 ms, Table III network) at 1, 2, and 4 worker
//! threads, 8 trials per measurement. The engine guarantees bit-identical
//! aggregates at every thread count, so this measures pure scaling.
//!
//! Recorded numbers live in `BENCH_montecarlo.json`; note that a
//! single-core container cannot show parallel speedup — the interesting
//! number there is the (small) overhead of the pool at threads > 1.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dmc_core::{Objective, Planner};
use dmc_experiments::montecarlo::{run_plan_trials, MonteCarloConfig};
use dmc_experiments::runner::{RunConfig, TrueNetwork};
use dmc_experiments::scenarios;
use std::hint::black_box;

fn trial_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("montecarlo_figure2_point");
    let trials = 8u64;
    group.throughput(Throughput::Elements(trials));
    group.sample_size(10);

    // Solve the plan once — the engine shares it across trials.
    let scenario = scenarios::table3_scenario(90e6, 0.8);
    let plan = Planner::new()
        .plan_with_margin(&scenario, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
        .expect("feasible");
    let truth = TrueNetwork::from_scenario(&scenario);
    let mut cfg = RunConfig::default();
    cfg.messages = 2_000;

    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let mc = MonteCarloConfig {
                    trials,
                    threads,
                    base_seed: 7,
                };
                b.iter(|| {
                    let report = run_plan_trials(black_box(&plan), &truth, &cfg, &mc).expect("run");
                    black_box(report.quality.mean())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, trial_throughput);
criterion_main!(benches);
