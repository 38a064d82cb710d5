//! Ablation: Dantzig vs. Bland vs. adaptive pivoting on the Figure-4
//! problem family. Dantzig is fastest but can cycle; Bland never cycles
//! but takes more pivots; the adaptive default should track Dantzig.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{Objective, PivotRule, Planner, Scenario, SolverOptions};
use dmc_experiments::figure4::synthetic_network;
use std::hint::black_box;

fn pivot_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("pivot_rules");
    for (name, rule) in [
        ("dantzig", PivotRule::Dantzig),
        ("bland", PivotRule::Bland),
        ("adaptive", PivotRule::Adaptive),
    ] {
        for n in [4usize, 8] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                let scenario = Scenario::from_network(&synthetic_network(n)).with_transmissions(3);
                let model = Planner::new().model(&scenario);
                let mut opts = SolverOptions::default();
                opts.pivot_rule = rule;
                b.iter(|| {
                    let lp = black_box(&model).problem(Objective::MaxQuality);
                    lp.solve(&opts).expect("feasible")
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, pivot_rules);
criterion_main!(benches);
