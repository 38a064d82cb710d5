//! Cost of *assembling* the model matrices alone (Eq. 11–18), separated
//! from solving — shows how much of Figure 4 is construction vs. simplex.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{Planner, Scenario};
use dmc_experiments::figure4::synthetic_network;
use std::hint::black_box;

fn model_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_build");
    for &m in &[2usize, 3] {
        for n in [2usize, 6, 10] {
            group.bench_with_input(
                BenchmarkId::new(format!("{m}_transmissions"), n),
                &(n, m),
                |b, &(n, m)| {
                    let scenario =
                        Scenario::from_network(&synthetic_network(n)).with_transmissions(m);
                    let mut planner = Planner::new();
                    b.iter(|| black_box(planner.model(&scenario)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, model_build);
criterion_main!(benches);
