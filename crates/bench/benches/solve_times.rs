//! Figure 4: LP build+solve time vs. number of paths, for 2 and 3
//! transmissions per data unit (the paper reports ~458 µs for 2 paths +
//! blackhole / 2 transmissions on a 2.8 GHz i5, growing toward seconds at
//! 10 paths / 3 transmissions).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{Objective, Planner, Scenario};
use dmc_experiments::figure4::synthetic_network;
use std::hint::black_box;

fn solve_times(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_solve_times");
    for &m in &[2usize, 3] {
        for n in 2..=10usize {
            group.bench_with_input(
                BenchmarkId::new(format!("{m}_transmissions"), n),
                &(n, m),
                |b, &(n, m)| {
                    let scenario =
                        Scenario::from_network(&synthetic_network(n)).with_transmissions(m);
                    // A fresh planner per iteration: build + cold solve.
                    b.iter(|| {
                        Planner::new()
                            .plan(black_box(&scenario), Objective::MaxQuality)
                            .expect("feasible")
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, solve_times);
criterion_main!(benches);
