//! The solver's algorithmic claims, held as deterministic work counts.
//!
//! Each guard runs a fixed script with an enabled [`Obs`] registry and
//! reads the `lp.*` counters the solver records. The counts are pure
//! functions of the script — no clock, no host speed — so each claim is
//! checked exactly, not as a timing ratio:
//!
//! * **A warm `Planner` re-solves a sweep in fewer pivots than cold
//!   ones** — the Table III 20-point λ sweep (7.5…150 Mbps) through one
//!   reused planner against a fresh planner per point (`lp.pivots`).
//! * **A feasible batch is one joint solve** — eight flows on the
//!   Table III path pair through one `offer_batch` against eight
//!   `offer`s (`lp.solves`, `lp.refactorizations`).
//! * **Disjoint path sets decompose into smaller LPs** — a 2 048-flow
//!   churn through 1, 4, 16 and 64 two-path regions: `lp.pivot_rows`
//!   (pivots × constraint rows, a size-weighted pivot count) falls
//!   strictly as the region count rises. The plain pivot count does
//!   not: 64 small LPs pivot more often in total than one large one.
//! * **Greedy admission asks for a verdict only** — a seeded saturating
//!   script through a two-region [`FleetService`] (offers, departures
//!   and link changes that shed and revive) pins `lp.solves`,
//!   `lp.feasibility_solves` and the per-phase pivot counts as
//!   literals, equal at 1 and 4 workers. If greedy admissions solved to
//!   the optimum again, `lp.feasibility_solves` would fall to 0 and the
//!   phase-2 and phase-3 counts would rise.
//! * **The reservation plane's LP is its roster's** — a long
//!   sliding-horizon script through a bare `SchedulePlanner` pins
//!   `lp.pivot_rows`, `lp.solves` and `lp.infeasible` (the refused
//!   windows); keeping departed blocks as tombstones until a compaction
//!   floor cost half as many pivot rows again, and a floor that scaled
//!   with the horizon more than three times as many.

use std::collections::VecDeque;

use deadline_multipath::experiments::figure4::synthetic_network;
use deadline_multipath::experiments::scenarios;
use deadline_multipath::experiments::service::region_paths;
use deadline_multipath::fleet::{
    FleetConfig, FleetPlanner, FleetService, FlowRequest, ScheduleDecision, SchedulePlanner,
    ScheduleRequest, ServiceConfig, ServiceEvent, SlotWindow, TimeGrid,
};
use deadline_multipath::lp::SolverOptions;
use deadline_multipath::model::{Objective, Planner, PlannerConfig, Scenario, ScenarioPath};
use deadline_multipath::obs::{Obs, Snapshot};
use deadline_multipath::sim::LinkChange;
use deadline_multipath::stats::rng::SplitMix64;

#[path = "common/sliding_horizon.rs"]
mod sliding_horizon;

/// A counter of `snap`, 0 when it was never recorded.
fn count(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// A fleet configuration whose planner records into `obs`.
fn fleet_config(obs: &Obs) -> FleetConfig {
    FleetConfig {
        obs: obs.clone(),
        ..FleetConfig::default()
    }
}

/// `lp.pivots` over the Table III λ sweep, through one planner when
/// `reuse`, else through a fresh planner per point.
fn sweep_pivots(reuse: bool) -> u64 {
    let obs = Obs::enabled();
    let config = PlannerConfig {
        solver: SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        },
        ..PlannerConfig::default()
    };
    let base = scenarios::table3_model_scenario(90e6, 0.800);
    let mut planner = Planner::with_config(config.clone());
    for i in 1..=20 {
        if !reuse {
            planner = Planner::with_config(config.clone());
        }
        planner
            .plan(
                &base.with_data_rate(i as f64 * 7.5e6),
                Objective::MaxQuality,
            )
            .expect("every sweep point is feasible");
    }
    count(&obs.snapshot(), "lp.pivots")
}

#[test]
fn a_reused_planner_pivots_less_than_fresh_ones() {
    let (reused, fresh) = (sweep_pivots(true), sweep_pivots(false));
    assert!(
        reused < fresh,
        "lp.pivots over the λ sweep: reused planner {reused}, fresh planners {fresh}"
    );
}

/// The Table III path pair every admission flow shares.
fn table3_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid path"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid path"),
    ]
}

/// Eight flows that fit together: 8–15 Mbps, deadlines 0.5–1.2 s, every
/// other one with a 0.6 floor.
fn eight_flows() -> Vec<FlowRequest> {
    (0..8)
        .map(|i| {
            FlowRequest::new(8e6 + i as f64 * 1e6, 0.5 + 0.1 * i as f64)
                .expect("valid request")
                .with_min_quality(if i % 2 == 0 { 0.6 } else { 0.0 })
        })
        .collect()
}

/// `(lp.solves, lp.refactorizations)` of admitting the eight flows as one
/// batch when `batched`, else one `offer` at a time.
fn admission_work(batched: bool) -> (u64, u64) {
    let obs = Obs::enabled();
    let mut fleet = FleetPlanner::new(table3_paths(), fleet_config(&obs)).expect("valid fleet");
    let admitted = if batched {
        fleet.offer_batch(eight_flows()).expect("batch offer")
    } else {
        eight_flows()
            .into_iter()
            .map(|r| fleet.offer(r).expect("offer"))
            .collect()
    };
    assert!(admitted.iter().all(|d| d.is_admitted()), "{admitted:?}");
    let snap = obs.snapshot();
    (
        count(&snap, "lp.solves"),
        count(&snap, "lp.refactorizations"),
    )
}

#[test]
fn a_feasible_batch_is_one_joint_solve() {
    let (batch_solves, batch_factors) = admission_work(true);
    let (single_solves, single_factors) = admission_work(false);
    assert!(
        batch_solves < single_solves && batch_factors < single_factors,
        "offer_batch: {batch_solves} solves, {batch_factors} refactorizations; \
         eight offers: {single_solves} solves, {single_factors} refactorizations"
    );
}

/// A service over `paths` in the regions `groups` declares, recording
/// into `obs`.
fn service(
    paths: Vec<ScenarioPath>,
    groups: &[Vec<usize>],
    workers: usize,
    obs: &Obs,
) -> FleetService {
    let config = ServiceConfig {
        workers,
        fleet: fleet_config(obs),
        grid: None,
    };
    FleetService::new(paths, groups, config).expect("valid service")
}

/// Runs one tick: how many offers it answered, and the ids it admitted.
fn run_tick(svc: &mut FleetService) -> (u64, Vec<u64>) {
    let (mut answered, mut admitted) = (0, Vec::new());
    for event in svc.tick().expect("tick") {
        if let ServiceEvent::Decision {
            seq, admitted: yes, ..
        } = event
        {
            answered += 1;
            if yes {
                admitted.push(seq);
            }
        }
    }
    (answered, admitted)
}

/// `lp.pivot_rows` of a 2 048-flow churn through `shards` two-path
/// regions at 128 offers per tick: each flow is pinned to one region,
/// and each admitted cohort departs two ticks after it arrived.
fn churn_pivot_rows(shards: usize) -> u64 {
    const FLOWS: u64 = 2_048;
    const PER_TICK: u64 = 128;
    let obs = Obs::enabled();
    let (paths, groups) = region_paths(shards);
    let mut svc = service(paths, &groups, 1, &obs);
    let mut live: VecDeque<Vec<u64>> = VecDeque::new();
    let (mut offered, mut decided) = (0u64, 0u64);
    while offered < FLOWS || live.iter().any(|cohort| !cohort.is_empty()) {
        let batch = PER_TICK.min(FLOWS - offered);
        for i in offered..offered + batch {
            let region = (i % shards as u64) as usize;
            let request = FlowRequest::new(2e6 + 1e6 * (i % 5) as f64, 0.8)
                .expect("valid request")
                .with_transmissions(1)
                .with_paths(groups[region].clone());
            svc.submit(request).expect("valid offer");
        }
        offered += batch;
        if live.len() >= 2 {
            for flow in live.pop_front().expect("a cohort is due") {
                svc.submit_depart(flow);
            }
        }
        let (answered, cohort) = run_tick(&mut svc);
        decided += answered;
        live.push_back(cohort);
    }
    assert_eq!(decided, FLOWS, "every offer gets a decision");
    count(&svc.obs_snapshot(), "lp.pivot_rows")
}

#[test]
fn disjoint_regions_solve_smaller_lps() {
    let work: Vec<(usize, u64)> = [1, 4, 16, 64]
        .into_iter()
        .map(|shards| (shards, churn_pivot_rows(shards)))
        .collect();
    assert!(
        work.windows(2).all(|w| w[1].1 < w[0].1),
        "lp.pivot_rows per region count must fall strictly: {work:?}"
    );
}

/// Ticks of the contended script.
const CONTENDED_TICKS: u64 = 40;

/// The contended script's solver counters: two regions of the eight
/// synthetic paths each, past saturation. Every tick offers eight flows
/// to each region (3–4 of its paths, 7–28 Mbps, floors 0.5–0.9) and
/// departs the flows admitted eight ticks earlier; every fifth tick one
/// path steps to half its bandwidth, steps back, fails or recovers, in
/// a fixed rotation over both regions.
fn contended_counts(workers: usize) -> Vec<(&'static str, u64)> {
    let obs = Obs::enabled();
    let region = Scenario::from_network(&synthetic_network(8))
        .paths()
        .to_vec();
    let paths: Vec<ScenarioPath> = region.iter().chain(&region).cloned().collect();
    let base: Vec<f64> = paths.iter().map(ScenarioPath::bandwidth).collect();
    let groups = [(0..8).collect::<Vec<_>>(), (8..16).collect()];
    let mut svc = service(paths, &groups, workers, &obs);
    let mut rng = SplitMix64::new(0x5C03);
    let mut live: VecDeque<Vec<u64>> = VecDeque::new();
    for tick in 0..CONTENDED_TICKS {
        for group in groups.iter().flat_map(|g| [g; 8]) {
            let mut subset = group.clone();
            for i in (1..subset.len()).rev() {
                subset.swap(i, rng.int(0..i + 1));
            }
            subset.truncate(3 + rng.int(0usize..2));
            subset.sort_unstable();
            let request = FlowRequest::new(rng.f64(7e6..28e6), rng.f64(0.5..1.2))
                .expect("valid request")
                .with_min_quality(rng.f64(0.5..0.9))
                .with_priority(rng.f64(1.0..4.0))
                .with_transmissions(2)
                .with_paths(subset);
            svc.submit(request).expect("valid offer");
        }
        if live.len() >= 8 {
            for flow in live.pop_front().expect("a cohort is due") {
                svc.submit_depart(flow);
            }
        }
        if tick % 5 == 4 {
            let cycle = tick / 20;
            let stepped = (cycle % 16) as usize;
            let failed = ((cycle + 8) % 16) as usize;
            let (path, change) = match (tick / 5) % 4 {
                0 => (stepped, LinkChange::SetBandwidth(0.5 * base[stepped])),
                1 => (stepped, LinkChange::SetBandwidth(base[stepped])),
                2 => (failed, LinkChange::Fail),
                _ => (failed, LinkChange::Recover),
            };
            svc.submit_link(path, change).expect("valid link change");
        }
        live.push_back(run_tick(&mut svc).1);
    }
    let snap = svc.obs_snapshot();
    [
        "lp.solves",
        "lp.feasibility_solves",
        "lp.phase1_pivots",
        "lp.phase2_pivots",
        "lp.phase3_pivots",
        "lp.dual_pivots",
    ]
    .into_iter()
    .map(|name| (name, count(&snap, name)))
    .collect()
}

/// The contended script's counts. While departed blocks stayed in the
/// LP as tombstones the phase-1, phase-2, phase-3 and dual pivots were
/// 5 306, 2 718, 7 327 and 1 065, with the same 682 solves, 507 of them
/// verdicts.
#[test]
fn greedy_admission_asks_for_verdicts_at_any_worker_count() {
    let expected = vec![
        ("lp.solves", 682),
        ("lp.feasibility_solves", 507),
        ("lp.phase1_pivots", 5_313),
        ("lp.phase2_pivots", 2_921),
        ("lp.phase3_pivots", 6_779),
        ("lp.dual_pivots", 982),
    ];
    for workers in [1, 4] {
        assert_eq!(contended_counts(workers), expected, "workers = {workers}");
    }
}

/// The long sliding-horizon script (`common/sliding_horizon.rs`: 400
/// slides of an 8-slot grid, windowed offers and departures) solves
/// 2 984 LPs in 993 581 pivot rows, 289 of them refused windows
/// (`lp.infeasible`; `lp.errors` counts them too). Every departed block
/// is cut out of the LP at the next solve and the carried basis is cut
/// with it, so 2 983 solves start warm and the script pivots 19 655
/// times. While departed blocks stayed as tombstones until the core
/// compacted at 8 slots, the same script, with the same verdicts, took
/// 1 574 020 pivot rows and 29 682 pivots (an LP rebuilt by a compaction
/// started cold: 2 743 warm starts); while it compacted at 8 slots per
/// slot of the horizon (64 here), 3 354 685 pivot rows. That the LP *is*
/// the roster's after every call is asserted on the same script inside
/// `dmc-fleet`, where the LP is visible
/// (`schedule::tests::a_long_sliding_horizon_compacts_often_and_stays_bounded`),
/// and by the core itself after every successful solve in debug builds.
#[test]
fn a_sliding_horizon_solves_lps_near_the_rosters_size() {
    let obs = Obs::enabled();
    sliding_horizon::run(fleet_config(&obs), |_| {});
    let snap = obs.snapshot();
    let names = ["lp.pivot_rows", "lp.solves", "lp.infeasible"];
    let observed = names.map(|name| count(&snap, name));
    assert_eq!(observed, [993_581, 2_984, 289], "observed {observed:?}");
}
