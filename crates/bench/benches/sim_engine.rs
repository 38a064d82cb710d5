//! Simulator throughput: messages/second through the full protocol stack
//! on the paper's Experiment-1 topology.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dmc_core::{Objective, Planner};
use dmc_experiments::runner::{run_plan, RunConfig, TrueNetwork};
use dmc_experiments::scenarios;
use std::hint::black_box;

fn full_stack(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_full_stack");
    let messages = 5_000u64;
    group.throughput(Throughput::Elements(messages));
    group.sample_size(10);
    group.bench_function("experiment1_5k_messages", |b| {
        let measured = scenarios::table3_scenario(90e6, 0.8);
        let truth = TrueNetwork::from_scenario(&measured);
        let mut cfg = RunConfig::default();
        cfg.messages = messages;
        b.iter(|| {
            let plan = Planner::new()
                .plan_with_margin(
                    black_box(&measured),
                    scenarios::QUEUE_MARGIN_S,
                    Objective::MaxQuality,
                )
                .expect("feasible");
            let out = run_plan(&plan, &truth, &cfg).expect("run");
            black_box(out.quality)
        });
    });
    group.finish();
}

criterion_group!(benches, full_stack);
criterion_main!(benches);
