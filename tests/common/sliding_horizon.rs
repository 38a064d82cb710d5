//! A long sliding-horizon script through a bare `SchedulePlanner`: an
//! 8-slot grid of 0.5 s slots over two paths, 400 one-slot
//! `advance_to`s, each followed by two or three windowed offers (widths
//! 1–4 slots, floors, buffers, narrow `m = 1` blocks, cost budgets) and,
//! every other cycle, the departure of a seeded resident. Every
//! completed or departed flow's block is cut out of the joint LP at the
//! next solve, hundreds of times over the run.
//!
//! One file, three users: `tests/fleet_golden.rs` pins the verdict hash
//! [`run`] returns, `tests/work_counts.rs` pins the solver's work on it,
//! and `dmc-fleet`'s `schedule` tests hold the LP to the roster's after
//! every call. It names the fleet types
//! through `super::`, so each includer imports them itself.

use super::{
    FleetConfig, FlowRequest, ScheduleDecision, SchedulePlanner, ScheduleRequest, SlotWindow,
    TimeGrid,
};
use dmc_core::ScenarioPath;
use dmc_obs::{fnv1a_extend, FNV_BASIS};
use dmc_stats::rng::SplitMix64;

/// Runs the script on a fresh planner built with `config`, calling
/// `after` on the planner after every `advance_to`, `offer` and
/// `depart`. Returns an FNV-1a over every verdict — each decision's id,
/// kind and granted window, and each advance's completed, truncated,
/// rescheduled and dropped lists — and none of the plans' bits.
pub fn run(config: FleetConfig, mut after: impl FnMut(&SchedulePlanner)) -> u64 {
    let paths = vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid path"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid path"),
    ];
    let grid = TimeGrid::new(0.5, 8).expect("valid grid");
    let mut planner = SchedulePlanner::new(paths, grid, config).expect("valid planner");
    let mut rng = SplitMix64::new(0x5C4E_7A11_5EED_0001);
    let mut hash = FNV_BASIS;
    let mut record = |text: String| hash = fnv1a_extend(hash, text.as_bytes());
    for origin in 1..=400 {
        let advance = planner.advance_to(origin).expect("advance");
        record(format!("{advance:?}"));
        after(&planner);
        for _ in 0..2 + rng.int(0u64..2) {
            let len = 1 + rng.int(0u64..4);
            let start = origin + rng.int(0..9 - len);
            let floor = [0.0, 0.0, 0.5, 0.8, 0.9, 0.95][rng.int(0usize..6)];
            let mut flow = FlowRequest::new(rng.f64(5e6..30e6), rng.f64(0.3..1.2))
                .expect("valid flow")
                .with_min_quality(floor);
            if rng.int(0u64..5) == 0 {
                flow = flow.with_transmissions(1);
            }
            if rng.int(0u64..6) == 0 {
                flow = flow.with_cost_budget(rng.f64(1.0..4.0));
            }
            let window = SlotWindow::new(start, start + len).expect("valid window");
            let mut request = ScheduleRequest::new(flow, window);
            if rng.int(0u64..3) == 0 {
                request = request.with_buffer(rng.f64(0.2..1.0));
            }
            let decision = planner.offer(request).expect("offer");
            record(match &decision {
                ScheduleDecision::Scheduled { id, window, .. } => format!("S {id} {window}"),
                ScheduleDecision::Reserved { id, window, .. } => format!("R {id} {window}"),
                ScheduleDecision::Rejected { id, .. } => format!("X {id}"),
            });
            after(&planner);
        }
        let residents = planner.flow_ids();
        if origin % 2 == 0 && !residents.is_empty() {
            let leaving = residents[rng.int(0..residents.len())];
            planner.depart(leaving).expect("depart a resident");
            record(format!("D {leaving}"));
            after(&planner);
        }
    }
    hash
}
