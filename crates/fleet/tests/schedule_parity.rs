//! Time-expanded scheduling contracts:
//!
//! 1. **Single-slot degeneracy, bit for bit**: on a one-slot horizon
//!    every window is `SlotWindow::instant(0)`, the slotted joint LP is
//!    op-for-op the instant joint LP (`λ·L ≡ λ`, `1/L ≡ 1` exactly in
//!    IEEE), so [`SchedulePlanner::offer`] must reproduce
//!    [`FleetPlanner::offer`] **bitwise** — verdicts, predicted
//!    qualities, decomposed plans — across admission *and* churn.
//! 2. **`horizon = 1` replay regression**: a trace replayed through a
//!    one-slot grid wide enough to hold it pins the pre-slotted
//!    behavior — the same decisions [`FleetPlanner::replay`] makes.
//! 3. **Reservation certification**: a refused-now flow holds a later
//!    window that really certifies (meets its floor) once the horizon
//!    advances to it.
//! 4. **Advance ≡ fresh rebuild** (proptest): advancing the grid under
//!    tombstoned expired slots and re-solving equals a fresh build of
//!    the truncated horizon to 1e-9 on the joint objective.
//! 5. **A slide tests no straddler against phantom load**: every flow
//!    whose window straddles the new origin has left the LP before the
//!    first of them is offered again at its truncated window.

use dmc_core::ScenarioPath;
use dmc_fleet::{
    AdmissionDecision, FleetConfig, FleetPlanner, FleetTrace, FlowId, FlowRequest, SchedulePlanner,
    ScheduleRequest, SlotWindow, TimeGrid,
};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid path"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid path"),
    ]
}

fn instant_fleet() -> FleetPlanner {
    FleetPlanner::new(shared_paths(), FleetConfig::default()).expect("valid fleet")
}

fn single_slot_fleet(slot_width: f64) -> SchedulePlanner {
    SchedulePlanner::new(
        shared_paths(),
        TimeGrid::new(slot_width, 1).expect("valid grid"),
        FleetConfig::default(),
    )
    .expect("valid fleet")
}

/// A mixed script: floor-free, floored, budgeted, and one hopeless flow.
fn script() -> Vec<FlowRequest> {
    vec![
        FlowRequest::new(30e6, 0.8)
            .expect("valid")
            .with_min_quality(0.8),
        FlowRequest::new(20e6, 0.6).expect("valid"),
        FlowRequest::new(15e6, 1.0)
            .expect("valid")
            .with_min_quality(0.5)
            .with_cost_budget(2.0),
        // Far beyond the 100 Mb/s aggregate with a floor: refused.
        FlowRequest::new(400e6, 0.5)
            .expect("valid")
            .with_min_quality(0.99),
        FlowRequest::new(10e6, 0.4)
            .expect("valid")
            .with_priority(3.0),
    ]
}

#[test]
fn single_slot_horizon_matches_the_instant_fleet_bit_for_bit() {
    let mut instant = instant_fleet();
    let mut slotted = single_slot_fleet(1.0);
    let mut admitted: Vec<(FlowId, FlowId)> = Vec::new();

    for (i, request) in script().into_iter().enumerate() {
        let a = instant.offer(request.clone()).expect("instant offer runs");
        let b = slotted
            .offer(ScheduleRequest::new(request, SlotWindow::instant(0)))
            .expect("slotted offer runs");
        match a {
            AdmissionDecision::Admitted {
                id,
                predicted_quality,
            } => {
                assert!(b.is_scheduled(), "flow {i}: slotted disagreed: {b:?}");
                assert_eq!(
                    b.predicted_quality(),
                    Some(predicted_quality),
                    "flow {i}: predicted quality must agree bitwise"
                );
                admitted.push((id, b.id()));
            }
            AdmissionDecision::Rejected { .. } => {
                assert!(
                    !b.is_admitted(),
                    "flow {i}: a one-slot horizon has no later window to reserve: {b:?}"
                );
            }
        }
    }
    assert_eq!(instant.num_flows(), slotted.num_flows());
    assert_plans_bitwise(&instant, &slotted, &admitted, "after admission");
    // Utilization: the slotted fleet reports one row per slot.
    let slot0 = &slotted.utilization()[0];
    for (k, (a, b)) in instant.utilization().iter().zip(slot0).enumerate() {
        assert!((a - b).abs() <= TOL, "path {k}: utilization {a} vs {b}");
    }

    // Churn: depart the middle admitted flow from both and re-compare.
    let (ia, sa) = admitted.remove(1);
    instant.depart(ia).expect("instant depart runs");
    slotted.depart(sa).expect("slotted depart runs");
    assert_plans_bitwise(&instant, &slotted, &admitted, "after churn");
    assert_eq!(
        instant.aggregate_quality(),
        slotted.aggregate_quality(),
        "aggregate quality must agree bitwise after churn"
    );
}

fn assert_plans_bitwise(
    instant: &FleetPlanner,
    slotted: &SchedulePlanner,
    pairs: &[(FlowId, FlowId)],
    ctx: &str,
) {
    for &(ia, sa) in pairs {
        let a = instant.plan_of(ia).expect("instant plan");
        let b = slotted.plan_of(sa).expect("slotted plan");
        assert_eq!(a.strategy().x(), b.strategy().x(), "{ctx}: x vector");
        assert_eq!(a.quality(), b.quality(), "{ctx}: quality");
        assert_eq!(a.cost_rate(), b.cost_rate(), "{ctx}: cost rate");
        assert_eq!(a.send_rates(), b.send_rates(), "{ctx}: send rates");
    }
}

#[test]
fn one_slot_replay_pins_the_instant_behavior() {
    let trace = FleetTrace::new()
        .arrive(
            0.0,
            FlowRequest::new(40e6, 0.8)
                .expect("valid")
                .with_min_quality(0.8),
        )
        .expect("valid event")
        .arrive(1.0, FlowRequest::new(30e6, 0.6).expect("valid"))
        .expect("valid event")
        .arrive(2.0, FlowRequest::new(20e6, 1.0).expect("valid"))
        .expect("valid event");

    let mut instant = instant_fleet();
    let a = instant.replay(&trace).expect("instant replay runs");
    // One slot wide enough for the whole trace: every event maps to
    // slot 0, no advance ever fires, every window is instant — the
    // pre-slotted code path.
    let mut slotted = single_slot_fleet(10.0);
    let b = slotted.replay(&trace).expect("slotted replay runs");

    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(y.slot, 0, "event {i} lands in the single slot");
        assert!(y.advance.is_none(), "event {i} never advances");
        let inst = x.decision.as_ref().expect("arrival decision");
        let slot = y.decision.as_ref().expect("arrival decision");
        assert_eq!(
            inst.is_admitted(),
            slot.is_scheduled(),
            "event {i}: verdicts agree"
        );
        if let AdmissionDecision::Admitted {
            predicted_quality, ..
        } = inst
        {
            assert_eq!(
                slot.predicted_quality(),
                Some(*predicted_quality),
                "event {i}: quality agrees bitwise"
            );
        }
        assert_eq!(
            x.aggregate_quality, y.aggregate_quality,
            "event {i}: aggregate quality agrees bitwise"
        );
    }
}

#[test]
fn a_refused_now_flow_reserves_and_certifies_when_its_window_opens() {
    let mut fleet = SchedulePlanner::new(
        shared_paths(),
        TimeGrid::new(1.0, 6).expect("valid grid"),
        FleetConfig::default(),
    )
    .expect("valid fleet");

    // Congest slot 0: a floored incumbent eats most of the capacity now.
    let hog = fleet
        .offer(ScheduleRequest::new(
            FlowRequest::new(90e6, 0.8)
                .expect("valid")
                .with_min_quality(0.9),
            SlotWindow::instant(0),
        ))
        .expect("offer runs");
    assert!(hog.is_scheduled(), "the hog fits an empty fleet: {hog:?}");

    // The newcomer wants slot 0 too, with a floor the leftovers can't
    // meet — it must get the earliest later window instead (t+Δ, Δ ≥ 1).
    let newcomer = fleet
        .offer(ScheduleRequest::new(
            FlowRequest::new(60e6, 0.8)
                .expect("valid")
                .with_min_quality(0.9),
            SlotWindow::instant(0),
        ))
        .expect("offer runs");
    assert!(
        newcomer.is_reserved(),
        "slot 0 is full but slot 1 is free: {newcomer:?}"
    );
    assert!(newcomer.opens_in() >= 1);
    let granted = newcomer.window().expect("reserved window");
    assert!(granted.start() >= 1);
    assert!(
        newcomer.predicted_quality().expect("reserved quality") >= 0.9 - TOL,
        "a reservation certifies its floor at grant time"
    );

    // Advance to the reserved window: the hog completes, the newcomer's
    // reservation opens and still certifies.
    let advance = fleet.advance_to(granted.start()).expect("advance runs");
    assert_eq!(advance.completed, vec![hog.id()]);
    assert!(advance.dropped.is_empty(), "the reservation survives");
    assert_eq!(fleet.window_of(newcomer.id()), Some(granted));
    let plan = fleet.plan_of(newcomer.id()).expect("open reservation plan");
    assert!(
        plan.quality() >= 0.9 - TOL,
        "the opened window still meets the floor: {}",
        plan.quality()
    );
}

#[test]
fn straddlers_are_readmitted_against_each_other_only() {
    // Slot 4 is under maintenance on both paths, and at the slide it
    // takes over the ring rows of the expiring slot 0. A straddler that
    // was still live in the LP at its old window [0, 2) while the other
    // one was re-admitted would sit in those zero-capacity rows: the
    // other one would be refused although the pair fits [1, 2).
    let mut fleet = SchedulePlanner::new(
        shared_paths(),
        TimeGrid::new(1.0, 4).expect("valid grid"),
        FleetConfig::default(),
    )
    .expect("valid fleet");
    let offer = |fleet: &mut SchedulePlanner| {
        let flow = FlowRequest::new(20e6, 0.8).expect("valid");
        let window = SlotWindow::new(0, 2).expect("valid window");
        let decision = fleet
            .offer(ScheduleRequest::new(flow.with_min_quality(0.9), window))
            .expect("offer runs");
        assert!(decision.is_scheduled(), "{decision:?}");
        decision.id()
    };
    // Declared before the flows arrive, so nothing is re-settled.
    fleet.set_maintenance(4, 0).expect("beyond the horizon");
    fleet.set_maintenance(4, 1).expect("beyond the horizon");
    let (a, b) = (offer(&mut fleet), offer(&mut fleet));
    let advance = fleet.advance_to(1).expect("advance runs");
    assert_eq!(advance.truncated, vec![a, b], "{advance:?}");
    assert!(advance.rescheduled.is_empty() && advance.dropped.is_empty());
    assert!(advance.completed.is_empty());
}

// ---------------------------------------------------------------------
// 4. Advance ≡ fresh rebuild (proptest)
// ---------------------------------------------------------------------

/// One windowed, floor-free arrival. Windows never straddle slot 2, so
/// advancing to 2 only completes or keeps flows (no truncation path —
/// that renormalizes demand and is exercised by the unit tests).
#[derive(Debug, Clone)]
struct Arrival {
    rate_mbps: f64,
    lifetime: f64,
    early: bool,
    start_off: u64,
    len: u64,
    buffer: f64,
}

impl Arrival {
    fn request(&self) -> ScheduleRequest {
        let flow = FlowRequest::new(self.rate_mbps * 1e6, self.lifetime).expect("valid request");
        let window = if self.early {
            let start = self.start_off.min(1);
            SlotWindow::new(start, (start + self.len).min(2)).expect("valid window")
        } else {
            let start = 2 + self.start_off.min(2);
            SlotWindow::new(start, (start + self.len).min(6)).expect("valid window")
        };
        let mut req = ScheduleRequest::new(flow, window);
        if self.buffer > 0.0 {
            req = req.with_buffer(self.buffer);
        }
        req
    }
}

fn arb_arrival() -> impl Strategy<Value = Arrival> {
    (
        2.0f64..20.0,
        0.3f64..1.2,
        any::<bool>(),
        0u64..3,
        1u64..3,
        any::<bool>(),
    )
        .prop_map(
            |(rate_mbps, lifetime, early, start_off, len, buffered)| Arrival {
                rate_mbps,
                lifetime,
                early,
                start_off,
                len,
                buffer: if buffered { 0.5 } else { 0.0 },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn advancing_equals_a_fresh_build_of_the_truncated_horizon(
        arrivals in proptest::collection::vec(arb_arrival(), 1..8)
    ) {
        let grid = TimeGrid::new(1.0, 6).expect("valid grid");
        let mut live = SchedulePlanner::new(shared_paths(), grid, FleetConfig::default())
            .expect("valid fleet");
        let mut offered = Vec::new();
        for a in &arrivals {
            let req = a.request();
            let d = live.offer(req.clone()).expect("offer runs");
            // Floor-free + blackhole: always scheduled as asked.
            prop_assert!(d.is_scheduled(), "{d:?}");
            offered.push((d.id(), req));
        }

        // Advance under tombstones: early windows complete, late ones
        // survive untouched (no window straddles slot 2).
        let advance = live.advance_to(2).expect("advance runs");
        prop_assert!(advance.truncated.is_empty());
        prop_assert!(advance.rescheduled.is_empty());
        prop_assert!(advance.dropped.is_empty());

        // Fresh build of the truncated horizon: a new planner advanced
        // while empty, then the survivors re-offered in id order.
        let mut fresh = SchedulePlanner::new(shared_paths(), grid, FleetConfig::default())
            .expect("valid fleet");
        fresh.advance_to(2).expect("empty advance runs");
        for (id, req) in &offered {
            if live.window_of(*id).is_some() {
                let d = fresh.offer(req.clone()).expect("fresh offer runs");
                prop_assert!(d.is_scheduled(), "{d:?}");
            }
        }

        prop_assert_eq!(live.num_flows(), fresh.num_flows());
        let (a, b) = (live.objective_value(), fresh.objective_value());
        prop_assert!(
            (a - b).abs() <= TOL * a.abs().max(1.0),
            "advanced {} vs fresh {}", a, b
        );
        let (qa, qb) = (live.aggregate_quality(), fresh.aggregate_quality());
        prop_assert!((qa - qb).abs() <= TOL, "quality {} vs {}", qa, qb);
    }
}
