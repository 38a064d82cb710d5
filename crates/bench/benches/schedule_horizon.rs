//! Time-expanded scheduling hot path: the rolling-horizon churn cycle
//! of a 16-slot [`SchedulePlanner`] — each iteration advances the
//! origin one slot (completing the flows whose windows closed,
//! tombstoning their expired slots) and offers one replacement flow at
//! the tail of the horizon.
//!
//! * `incremental` — the default pipeline: ring-indexed capacity rows
//!   are recycled in place, expired blocks are tombstoned (no row or
//!   column moves, so the carried basis stays addressable), and the
//!   replacement flow reuses a tombstoned slot when one matches.
//! * `rebuild` — the differential baseline (`incremental = false`):
//!   the whole time-expanded assembly is rebuilt from scratch on every
//!   solve.
//!
//! The issue's acceptance bar is `incremental` ≥ 2× faster on this
//! cycle. Measured numbers live in `BENCH_schedule.json` (regenerate
//! with `CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench --bench
//! schedule_horizon`).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_core::ScenarioPath;
use dmc_fleet::{FleetConfig, FlowRequest, SchedulePlanner, ScheduleRequest, SlotWindow, TimeGrid};
use std::hint::black_box;

const HORIZON: usize = 16;
const SLOT_WIDTH_S: f64 = 0.5;

fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"),
    ]
}

fn config(incremental: bool) -> FleetConfig {
    FleetConfig {
        incremental,
        ..FleetConfig::default()
    }
}

/// A three-slot flow placed at the tail of the horizon starting at
/// `origin` — the steady-state arrival of a rolling schedule. Varying
/// the rate by slot parity keeps consecutive offers from being
/// identical without changing the LP's shape.
fn tail_request(origin: u64) -> ScheduleRequest {
    let rate = if origin % 2 == 0 { 20e6 } else { 24e6 };
    let window_end = origin + HORIZON as u64;
    ScheduleRequest::new(
        FlowRequest::new(rate, 0.8)
            .expect("valid")
            .with_min_quality(0.6),
        SlotWindow::new(window_end - 3, window_end).expect("valid"),
    )
}

/// Populates the horizon with one three-slot flow ending at each slot
/// boundary, so every advance completes exactly one flow.
fn populate(s: &mut SchedulePlanner) {
    for end in 3..=HORIZON as u64 {
        let d = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(18e6, 0.8)
                    .expect("valid")
                    .with_min_quality(0.6),
                SlotWindow::new(end - 3, end).expect("valid"),
            ))
            .expect("offer");
        assert!(d.is_admitted());
    }
}

fn rolling_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_horizon/rolling_churn_16slots");
    for (name, incremental) in [("incremental", true), ("rebuild", false)] {
        group.bench_function(name, |b| {
            let grid = TimeGrid::new(SLOT_WIDTH_S, HORIZON).expect("valid grid");
            let mut s =
                SchedulePlanner::new(shared_paths(), grid, config(incremental)).expect("valid");
            populate(&mut s);
            let mut origin = 0u64;
            b.iter(|| {
                // One rolling cycle: the horizon slides one slot, the
                // flow whose window just closed completes, and a
                // replacement arrives at the new tail.
                origin += 1;
                let advance = s.advance_to(origin).expect("advance");
                assert!(advance.dropped.is_empty(), "steady state never drops");
                let d = s.offer(tail_request(origin)).expect("offer");
                assert!(d.is_admitted());
                black_box(s.aggregate_quality())
            });
            if incremental {
                assert!(
                    s.warm_stats().hits > 0,
                    "rolling churn never warm-started: {}",
                    s.warm_stats()
                );
            }
        });
    }
    group.finish();
}

criterion_group!(benches, rolling_churn);
criterion_main!(benches);
