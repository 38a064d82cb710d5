//! The chaos acceptance scenario (tier-1): one seeded script combining
//! payload corruption, frame duplication and a **correlated two-link
//! outage** runs end-to-end with
//!
//! * zero invariant violations (certified joint-LP solves, allocations
//!   within surviving capacity, bounded re-admission),
//! * only the lowest-priority floored flows shed by the outage,
//! * every shed flow re-admitted after recovery under its original id,
//! * bitwise-identical traces on repeated same-seed runs.

use deadline_multipath::experiments::chaos::{
    self, chaos_paths, check_invariants, trace_hash, trace_priorities,
};
use deadline_multipath::obs::Obs;
use deadline_multipath::prelude::*;
use deadline_multipath::sim::LinkChange;

/// Mixed-priority population crafted so the greedy priority-ordered
/// re-admission has an exact expected outcome: after paths 0 and 2 fail
/// together, only the 20 Mbps clean path survives — the priority-8.0
/// flow (10 Mbps, 90 % floor) fits it alone, the two low-priority
/// floored flows cannot, and the best-effort flow is always feasible.
fn acceptance_trace() -> FleetTrace {
    FleetTrace::new()
        .arrive(
            0.0,
            FlowRequest::new(30e6, 0.8)
                .unwrap()
                .with_min_quality(0.8)
                .with_priority(1.0),
        )
        .unwrap()
        .arrive(
            1.0,
            FlowRequest::new(25e6, 0.8)
                .unwrap()
                .with_min_quality(0.7)
                .with_priority(2.0),
        )
        .unwrap()
        .arrive(
            2.0,
            FlowRequest::new(10e6, 0.9)
                .unwrap()
                .with_min_quality(0.9)
                .with_priority(8.0),
        )
        .unwrap()
        .arrive(3.0, FlowRequest::new(15e6, 1.2).unwrap())
        .unwrap()
        // The correlated fault domain: both links at the same instant.
        .link(4.0, 0, LinkChange::Fail)
        .unwrap()
        .link(4.0, 2, LinkChange::Fail)
        .unwrap()
        .link(6.0, 0, LinkChange::Recover)
        .unwrap()
        .link(6.0, 2, LinkChange::Recover)
        .unwrap()
        // Trailing no-op retunes keep sweeping the queue so the horizon
        // invariant is checkable to the end.
        .link(7.0, 1, LinkChange::SetBandwidth(20e6))
        .unwrap()
        .link(8.0, 1, LinkChange::SetBandwidth(20e6))
        .unwrap()
}

fn replay_certified(trace: &FleetTrace) -> (Vec<FleetSnapshot>, FleetPlanner) {
    let mut fleet = FleetPlanner::new(
        chaos_paths(),
        FleetConfig {
            certify: true,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let snaps = fleet.replay(trace).unwrap();
    (snaps, fleet)
}

#[test]
fn correlated_outage_sheds_lowest_priority_only_and_recovery_readmits() {
    let trace = acceptance_trace();
    let (snaps, fleet) = replay_certified(&trace);

    // Zero invariant violations: capacity respected after every event,
    // every shed flow resolved within the backoff horizon (and every
    // joint solve along the way passed its feasibility certificate —
    // `certify` would have panicked otherwise).
    let violations = check_invariants(&trace, &snaps, &fleet);
    assert!(violations.is_empty(), "{violations:?}");

    // The outage sheds exactly the two low-priority floored flows.
    let prio = trace_priorities(&trace);
    let shed: Vec<FlowId> = snaps.iter().flat_map(|s| s.shed.clone()).collect();
    assert!(!shed.is_empty(), "the outage must shed the floored bulk");
    let max_shed_prio = shed
        .iter()
        .map(|id| prio[id])
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max_shed_prio < 8.0,
        "the high-priority flow must never be shed (max shed priority {max_shed_prio})"
    );
    // …while the priority-8.0 flow rides out the outage admitted.
    let outage_snap = &snaps[5]; // after both Fail events
    assert!(outage_snap.admitted.contains(&FlowId::from_index(2)));

    // Recovery re-admits every shed flow under its original id.
    let revived: Vec<FlowId> = snaps.iter().flat_map(|s| s.revived.clone()).collect();
    let sorted = |mut v: Vec<FlowId>| {
        v.sort();
        v
    };
    assert_eq!(
        sorted(shed),
        sorted(revived),
        "every shed flow is revived once capacity returns"
    );
    assert!(fleet.shed_flows().is_empty());
    assert!(fleet.shed_rejected().is_empty());

    // Bitwise-identical traces on repeated same-seed runs.
    let (snaps2, fleet2) = replay_certified(&trace);
    assert_eq!(trace_hash(&snaps, &fleet), trace_hash(&snaps2, &fleet2));
}

#[test]
fn seeded_chaos_script_holds_every_invariant() {
    // The fully seeded script (arrivals, retune, outage, recovery and the
    // trailing horizon all derived from the seed) — the driver's per-trial
    // body, pinned here as tier-1.
    let off = Obs::disabled();
    let outcome = chaos::fleet_chaos_trial(0xACCE55, 6, &off).unwrap();
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert!(outcome.shed > 0);
    assert!(outcome.revived + outcome.rejected > 0);
    // Same seed ⇒ same trace hash, end to end.
    let again = chaos::fleet_chaos_trial(0xACCE55, 6, &off).unwrap();
    assert_eq!(outcome.hash, again.hash);
}

#[test]
fn corruption_and_duplication_never_forge_a_delivery() {
    // Proto leg: Table III under 2 % corruption + 2 % duplication + 5 %
    // bounded reordering. The checksum rejects every corrupted frame that
    // arrives, the dedup window absorbs duplicates, and the run is a pure
    // function of its seed.
    let off = Obs::disabled();
    let out = chaos::proto_chaos_run(0xACCE55, 2_000, &off).unwrap();
    let inj = out.faults_injected;
    assert!(inj.corrupted > 0 && inj.duplicated > 0);
    assert!(out.receiver.malformed > 0);
    assert!(out.receiver.malformed <= inj.corrupted + inj.duplicated);
    assert!(out.quality > 0.9, "quality {}", out.quality);
    let again = chaos::proto_chaos_run(0xACCE55, 2_000, &off).unwrap();
    assert_eq!(out.sender, again.sender);
    assert_eq!(out.receiver, again.receiver);
    assert_eq!(out.faults_injected, again.faults_injected);
}
