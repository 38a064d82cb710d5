//! Fault-recovery hot paths: what one outage/recovery cycle costs a
//! loaded fleet.
//!
//! * `outage_cycle` — a correlated two-link failure sheds the floored
//!   bulk into the re-admission queue, recovery revives it: four
//!   priority-ordered re-settles (two shed sweeps, two revival sweeps)
//!   per iteration. `warm` carries the incumbent basis (the default):
//!   each link change re-places the blocks and starts cold, every
//!   re-admission and revival after it starts from the basis of the
//!   flows already back; `cold` pays two-phase simplex from scratch
//!   each time.
//! * `certified_cycle` — the same cycle with [`FleetConfig::certify`]
//!   on: every joint solution re-verified against its constraint system,
//!   the chaos harness's always-on configuration. Bounds the price of
//!   running chaos suites with certification enabled.
//!
//! Measured numbers are recorded in `BENCH_chaos.json` (regenerate with
//! `CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench --bench chaos_recovery`).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_core::{PlannerConfig, ScenarioPath};
use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};
use dmc_sim::LinkChange;
use std::hint::black_box;

fn chaos_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"),
        ScenarioPath::constant(40e6, 0.250, 0.05).expect("valid"),
    ]
}

/// Mixed-priority population: the 8.0-priority flow fits the surviving
/// clean path alone, the low-priority floored flows are shed by the
/// outage and revived on recovery (the chaos acceptance population).
fn populate(fleet: &mut FleetPlanner) {
    for (rate, delta, floor, priority) in [
        (30e6, 0.8, 0.8, 1.0),
        (25e6, 0.8, 0.7, 2.0),
        (10e6, 0.9, 0.9, 8.0),
        (15e6, 1.2, 0.0, 1.0),
    ] {
        let d = fleet
            .offer(
                FlowRequest::new(rate, delta)
                    .expect("valid")
                    .with_min_quality(floor)
                    .with_priority(priority),
            )
            .expect("offer");
        assert!(d.is_admitted());
    }
}

/// One correlated outage/recovery cycle; returns to steady state so
/// iterations are uniform.
fn cycle(fleet: &mut FleetPlanner) -> f64 {
    let mut shed = fleet.apply_link_change(0, &LinkChange::Fail).expect("fail");
    shed.extend(fleet.apply_link_change(2, &LinkChange::Fail).expect("fail"));
    assert!(!shed.is_empty(), "the outage must shed the floored bulk");
    fleet
        .apply_link_change(0, &LinkChange::Recover)
        .expect("recover");
    fleet
        .apply_link_change(2, &LinkChange::Recover)
        .expect("recover");
    assert_eq!(fleet.num_flows(), 4, "recovery must revive everything");
    fleet.aggregate_quality()
}

fn outage_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos_recovery/outage_cycle");
    for (name, warm_start) in [("warm", true), ("cold", false)] {
        group.bench_function(name, |b| {
            let mut fleet = FleetPlanner::new(
                chaos_paths(),
                FleetConfig {
                    planner: PlannerConfig {
                        warm_start,
                        ..PlannerConfig::default()
                    },
                    ..FleetConfig::default()
                },
            )
            .expect("valid");
            populate(&mut fleet);
            b.iter(|| black_box(cycle(&mut fleet)));
            if warm_start {
                assert!(
                    fleet.warm_stats().hits > 0,
                    "outage cycles never warm-started: {}",
                    fleet.warm_stats()
                );
            }
        });
    }
    group.finish();
}

fn certified_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos_recovery/certified_cycle");
    group.bench_function("certify", |b| {
        let mut fleet = FleetPlanner::new(
            chaos_paths(),
            FleetConfig {
                certify: true,
                ..FleetConfig::default()
            },
        )
        .expect("valid");
        populate(&mut fleet);
        b.iter(|| black_box(cycle(&mut fleet)));
    });
    group.finish();
}

criterion_group!(benches, outage_cycle, certified_cycle);
criterion_main!(benches);
