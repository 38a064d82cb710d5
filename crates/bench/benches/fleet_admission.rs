//! Fleet admission/allocation hot paths:
//!
//! * `churn_resolve` — the steady-state pattern of a long-lived fleet:
//!   one flow departs and an equivalent one arrives. The arrival takes
//!   the tombstoned block over and starts from the survivors' carried
//!   basis (`warm`) instead of running two-phase simplex from scratch
//!   (`cold`, `warm_start = false`); the re-solve after the departure
//!   is cold either way until the solver re-optimises a relaxed LP
//!   dually (ROADMAP, LP engine).
//! * `admission_8flows` — batched arrivals vs. one-at-a-time: the batch
//!   fast path admits all eight flows with a **single** joint solve when
//!   they are collectively feasible, vs. eight incremental solves of
//!   growing LPs.
//!
//! Measured numbers are recorded in `BENCH_fleet.json` (regenerate with
//! `CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench --bench fleet_admission`).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_core::{PlannerConfig, ScenarioPath};
use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};
use dmc_lp::Backend;
use std::hint::black_box;

fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"),
    ]
}

fn config(warm_start: bool) -> FleetConfig {
    FleetConfig {
        planner: PlannerConfig {
            warm_start,
            ..PlannerConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// The churn flow: modest with a floor, so its LP has the full row set.
fn churn_request() -> FlowRequest {
    FlowRequest::new(20e6, 0.8)
        .expect("valid")
        .with_min_quality(0.7)
}

/// A base population of 4 long-lived flows.
fn populate(fleet: &mut FleetPlanner) {
    for (rate, delta, floor) in [
        (25e6, 0.8, 0.8),
        (15e6, 0.6, 0.5),
        (10e6, 1.2, 0.0),
        (20e6, 0.9, 0.6),
    ] {
        let d = fleet
            .offer(
                FlowRequest::new(rate, delta)
                    .expect("valid")
                    .with_min_quality(floor),
            )
            .expect("offer");
        assert!(d.is_admitted());
    }
}

fn churn_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_admission/churn_resolve");
    for (name, warm_start) in [("warm", true), ("cold", false)] {
        group.bench_function(name, |b| {
            let mut fleet = FleetPlanner::new(shared_paths(), config(warm_start)).expect("valid");
            populate(&mut fleet);
            let mut current = fleet.offer(churn_request()).expect("offer").id();
            b.iter(|| {
                // One churn cycle: the flow leaves, an equivalent arrives.
                fleet.depart(current).expect("admitted");
                let d = fleet.offer(churn_request()).expect("offer");
                assert!(d.is_admitted());
                current = d.id();
                black_box(fleet.aggregate_quality())
            });
            if warm_start {
                assert!(
                    fleet.warm_stats().hits > 0,
                    "churn never warm-started: {}",
                    fleet.warm_stats()
                );
            }
        });
    }
    group.finish();
}

fn admission_8flows(c: &mut Criterion) {
    let requests = || -> Vec<FlowRequest> {
        (0..8)
            .map(|i| {
                FlowRequest::new(8e6 + i as f64 * 1e6, 0.5 + 0.1 * i as f64)
                    .expect("valid")
                    .with_min_quality(if i % 2 == 0 { 0.6 } else { 0.0 })
            })
            .collect()
    };
    let mut group = c.benchmark_group("fleet_admission/admission_8flows");
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut fleet =
                FleetPlanner::new(shared_paths(), FleetConfig::default()).expect("valid");
            let decisions = fleet.offer_batch(requests()).expect("batch");
            assert!(decisions.iter().all(|d| d.is_admitted()));
            black_box(fleet.aggregate_quality())
        });
    });
    group.bench_function("one_at_a_time", |b| {
        b.iter(|| {
            let mut fleet =
                FleetPlanner::new(shared_paths(), FleetConfig::default()).expect("valid");
            for r in requests() {
                assert!(fleet.offer(r).expect("offer").is_admitted());
            }
            black_box(fleet.aggregate_quality())
        });
    });
    group.finish();
}

/// The fleet-scale subjects behind the issue's acceptance bar: at 64
/// admitted flows, one steady-state churn cycle (depart + equivalent
/// arrival, i.e. two joint solves) through
///
/// * `incremental_sparse` — the default pipeline: tombstoning/slot-reuse
///   incremental assembly + the block-structured sparse backend;
/// * `rebuild_revised` — the pre-sparse pipeline: joint `Problem`
///   rebuilt from scratch per solve + the revised backend's dense-LU
///   refactorizations.
fn fleet64_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"),
        ScenarioPath::constant(40e6, 0.250, 0.05).expect("valid"),
    ]
}

/// 64 mixed flows: mostly best-effort trickles, every fourth with a
/// modest floor (so the joint LP carries floor rows like a real fleet).
fn fleet64_requests() -> Vec<FlowRequest> {
    (0..64)
        .map(|i| {
            let r = FlowRequest::new(1.0e6 + (i % 7) as f64 * 0.2e6, 0.6 + 0.05 * (i % 5) as f64)
                .expect("valid");
            if i % 4 == 0 {
                r.with_min_quality(0.2)
            } else {
                r
            }
        })
        .collect()
}

fn fleet64_config(incremental: bool, joint_backend: Backend) -> FleetConfig {
    FleetConfig {
        incremental,
        joint_backend,
        ..FleetConfig::default()
    }
}

fn churn_cycle_64(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_admission/churn_cycle_64flows");
    let churn = || {
        FlowRequest::new(1.5e6, 0.8)
            .expect("valid")
            .with_min_quality(0.2)
    };
    for (name, incremental, backend) in [
        ("incremental_sparse", true, Backend::Sparse),
        ("rebuild_revised", false, Backend::Revised),
    ] {
        group.bench_function(name, |b| {
            let mut fleet =
                FleetPlanner::new(fleet64_paths(), fleet64_config(incremental, backend))
                    .expect("valid");
            let decisions = fleet.offer_batch(fleet64_requests()).expect("batch");
            assert!(
                decisions.iter().all(|d| d.is_admitted()),
                "{name}: populate"
            );
            let mut current = fleet.offer(churn()).expect("offer").id();
            b.iter(|| {
                fleet.depart(current).expect("admitted");
                let d = fleet.offer(churn()).expect("offer");
                assert!(d.is_admitted());
                current = d.id();
                black_box(fleet.aggregate_quality())
            });
            assert_eq!(fleet.num_flows(), 65);
        });
    }
    group.finish();
}

/// Admitting the 64-flow population from empty: the batch fast path
/// proves the whole set feasible with one joint solve on each pipeline.
fn admission_64flows(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_admission/admission_64flows");
    for (name, incremental, backend) in [
        ("incremental_sparse", true, Backend::Sparse),
        ("rebuild_revised", false, Backend::Revised),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut fleet =
                    FleetPlanner::new(fleet64_paths(), fleet64_config(incremental, backend))
                        .expect("valid");
                let decisions = fleet.offer_batch(fleet64_requests()).expect("batch");
                assert!(decisions.iter().all(|d| d.is_admitted()));
                black_box(fleet.aggregate_quality())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    churn_resolve,
    admission_8flows,
    churn_cycle_64,
    admission_64flows
);
criterion_main!(benches);
