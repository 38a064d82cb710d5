//! Ablation: Algorithm 1 (deficit selector) vs. weighted random
//! assignment — per-selection cost and convergence error after N packets.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmc_core::{SchedulePolicy, Scheduler};
use std::hint::black_box;

fn algorithm1(x: Vec<f64>) -> Scheduler {
    Scheduler::new(x, SchedulePolicy::Deficit).expect("valid")
}

fn weighted_random(x: Vec<f64>, seed: u64) -> Scheduler {
    Scheduler::new(x, SchedulePolicy::WeightedRandom { seed }).expect("valid")
}

fn target(k: usize) -> Vec<f64> {
    // A spread of shares like a solved strategy: geometric weights.
    let raw: Vec<f64> = (0..k).map(|i| 0.5f64.powi(i as i32 + 1)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|v| v / total).collect()
}

fn selection_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_selection");
    for k in [9usize, 121, 1331] {
        // k = (n+1)^m for n=2,10 paths at m=2 and n=10 at m=3.
        group.bench_with_input(BenchmarkId::new("algorithm1", k), &k, |b, &k| {
            let mut s = algorithm1(target(k));
            b.iter(|| black_box(s.next_combo()));
        });
        group.bench_with_input(BenchmarkId::new("weighted_random", k), &k, |b, &k| {
            let mut s = weighted_random(target(k), 1);
            b.iter(|| black_box(s.next_combo()));
        });
    }
    group.finish();
}

fn convergence_error(c: &mut Criterion) {
    // Not a speed benchmark: measures work to reach a given empirical
    // accuracy. Algorithm 1 converges as O(1/N); random sampling as
    // O(1/√N) — at N = 10_000, Algorithm 1 is ~100× tighter.
    let mut group = c.benchmark_group("scheduler_convergence_10k_packets");
    let x = target(16);
    group.bench_function("algorithm1_max_dev", |b| {
        b.iter(|| {
            let mut s = algorithm1(x.clone());
            for _ in 0..10_000 {
                s.next_combo();
            }
            black_box(s.max_deviation())
        });
    });
    group.bench_function("weighted_random_max_dev", |b| {
        b.iter(|| {
            let mut s = weighted_random(x.clone(), 7);
            for _ in 0..10_000 {
                s.next_combo();
            }
            black_box(s.max_deviation())
        });
    });
    group.finish();
}

criterion_group!(benches, selection_throughput, convergence_error);
criterion_main!(benches);
