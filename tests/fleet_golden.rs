//! Golden pins for the joint-LP planes (tier-1): one seeded script per
//! plane, hashed down to literals recorded before `FleetPlanner` and
//! `SchedulePlanner` were rebased onto the shared joint core. Any
//! refactor of the assembly, the warm cache or the solve path must
//! leave every literal below untouched — same verdicts, same bits.
//! (Three were re-recorded once, with every verdict unchanged, when the
//! joint LP moved to the paper's units — capacity rows in bit/s, each
//! objective segment weighted by its flow's volume: predicted qualities
//! and plans moved in their last bits.)
//!
//! Two were re-recorded once more when a gridded region came to hold
//! one planner for its instant and windowed flows instead of two:
//!
//! * `SERVICE_PLAN_BITS` (`0xbffc…` → `0x4ffa…`): the instant flows now
//!   sit in the origin slot of the region's 6-slot LP, whose other five
//!   slots add empty capacity rows; every instant verdict is unchanged
//!   (`SERVICE_DECISION_HASH` holds) and the plans moved in their last
//!   bits.
//! * `SERVICE_WINDOWED` (`0x134e…` → `0xe3a4…`): the windowed offers now
//!   see the instant flows of their region. In region 0 they fill slot
//!   0, so the strict 70 Mbps offer that was scheduled there beside them
//!   (120 Mbps of floors on 100 Mbps of links) is reserved for slot 1,
//!   and the 60 Mbps one behind it for slot 2; the buffered 3-slot flow
//!   plans a quality of 0.998 instead of 1. Windowed ids continue the
//!   region's instant ids (one id counter per region).
//!
//! `SERVICE_PLAN_BITS` was re-recorded once more (`0x4ffa…` →
//! `0xbffc…`, the value it held before the re-pin above) when the joint
//! core's compaction floor stopped scaling with the horizon: a region's
//! 6-slot LP now compacts at 8 slots, where a one-slot planner always
//! did, instead of at 48. The instant flows' column layout after churn
//! is again the one-slot planner's, and so are their plans' last bits;
//! every verdict is unchanged (`SERVICE_DECISION_HASH` and
//! `SERVICE_WINDOWED` hold, and so does `SLIDING_HORIZON_VERDICTS`,
//! recorded under the old floor, over which the new one compacted 226
//! times instead of 34).
//!
//! Since then a departed flow's block is cut out of the LP at the next
//! solve, the carried basis with it, instead of staying as a tombstone
//! until a compaction: the LP after every solve is the roster's, the
//! same `Problem` the one-slot planner builds. Every literal here held
//! through that change, `SERVICE_PLAN_BITS` and
//! `SLIDING_HORIZON_VERDICTS` included.
//!
//! * **Instant plane** — a gridded [`FleetService`] over three 2-path
//!   regions: plain (region-spanning), path-restricted and explicitly
//!   spanning offers, a batch that falls back to greedy admission,
//!   departs, and `Fail`/`SetBandwidth`/`Recover` link changes that
//!   shed and revive. Pinned: `decision_hash()` and an FNV-1a over
//!   every surviving leg plan's `strategy().x()` bits.
//! * **Reservation plane, through the service** — windowed offers (one
//!   buffered 3-slot window, one that must be reserved later) and two
//!   `advance_to` slides. Pinned: FNV-1a over every decision/advance.
//! * **Reservation plane, bare** — the same with a maintenance slot and
//!   a link change, where plans are visible. Pinned: FNV-1a over every
//!   decision/shuffle/advance and every surviving plan's bits.
//! * **Reservation plane, long** — 400 slides of an 8-slot grid with
//!   windowed offers and departures (`common/sliding_horizon.rs`),
//!   through which the core cuts hundreds of departed blocks out of
//!   its LP. Pinned: FNV-1a over every verdict (decision kind and
//!   window, advance lists) — never a plan's bits: on an LP this large,
//!   ties below the solver's tolerance can leave the per-flow split
//!   path-dependent in its last bits (`crates/fleet/src/joint.rs`).

use deadline_multipath::fleet::{
    FleetConfig, FleetService, FlowRequest, ScheduleDecision, SchedulePlanner, ScheduleRequest,
    ServiceConfig, ServiceEvent, SlotWindow, TimeGrid,
};
use deadline_multipath::model::ScenarioPath;
use deadline_multipath::obs::{fnv1a_extend, FNV_BASIS};
use deadline_multipath::sim::LinkChange;
use deadline_multipath::stats::rng::SplitMix64;

const SERVICE_DECISION_HASH: u64 = 0xaeef_22fb_3a60_1647;
const SERVICE_PLAN_BITS: u64 = 0xbffc_6ebf_fcfa_4609;
const SERVICE_WINDOWED: u64 = 0xe3a4_61c3_ecb1_49ab;
const BARE_SCHEDULE_EVENTS: u64 = 0x51cc_98cf_c4cd_e2d6;
const BARE_SCHEDULE_PLAN_BITS: u64 = 0xc710_c73a_f5ef_bbc7;
const SLIDING_HORIZON_VERDICTS: u64 = 0xb64d_7fa1_6aad_e797;

#[path = "common/sliding_horizon.rs"]
mod sliding_horizon;

/// FNV-1a 64 accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_BASIS)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

fn six_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).unwrap(),
        ScenarioPath::constant(20e6, 0.150, 0.0).unwrap(),
        ScenarioPath::constant(30e6, 0.250, 0.05).unwrap(),
        ScenarioPath::constant(40e6, 0.350, 0.1).unwrap(),
        ScenarioPath::constant(60e6, 0.300, 0.02).unwrap(),
        ScenarioPath::constant(25e6, 0.120, 0.0).unwrap(),
    ]
}

fn gridded_service() -> FleetService {
    FleetService::new(
        six_paths(),
        &[vec![0, 1], vec![2, 3], vec![4, 5]],
        ServiceConfig {
            workers: 1,
            fleet: FleetConfig::default(),
            grid: Some(TimeGrid::new(0.5, 6).unwrap()),
        },
    )
    .unwrap()
}

/// A seeded request: 4–24 Mbps, 0.4–1.2 s lifetime, a floor two times
/// in three, a budget one time in four, a priority one time in three,
/// `m = 1` one time in five.
fn seeded_request(rng: &mut SplitMix64) -> FlowRequest {
    let mut r = FlowRequest::new(rng.f64(4e6..24e6), rng.f64(0.4..1.2)).unwrap();
    if rng.int(0u64..3) > 0 {
        r = r.with_min_quality(rng.f64(0.3..0.9));
    }
    if rng.int(0u64..4) == 0 {
        r = r.with_cost_budget(rng.f64(1.0..4.0));
    }
    if rng.int(0u64..3) == 0 {
        r = r.with_priority(rng.f64(1.0..6.0));
    }
    if rng.int(0u64..5) == 0 {
        r = r.with_transmissions(1);
    }
    r
}

/// What the instant script observed, for the coverage assertions.
#[derive(Default)]
struct Seen {
    admitted: Vec<u64>,
    refused: usize,
    shed: usize,
    revived: usize,
}

fn tick(service: &mut FleetService, seen: &mut Seen) {
    for event in service.tick().unwrap() {
        match event {
            ServiceEvent::Decision { seq, admitted, .. } => {
                if admitted {
                    seen.admitted.push(seq);
                } else {
                    seen.refused += 1;
                }
            }
            ServiceEvent::Capacity { shed, revived, .. } => {
                seen.shed += shed.len();
                seen.revived += revived.len();
            }
            ServiceEvent::Departed { flow, found, .. } => {
                assert!(found, "the script only departs live flows");
                seen.admitted.retain(|&f| f != flow);
            }
            ServiceEvent::InvalidOffer { .. } => panic!("the script submits only valid offers"),
        }
    }
}

#[test]
fn seeded_script_reproduces_the_recorded_bits() {
    let mut service = gridded_service();
    let mut rng = SplitMix64::new(0x00D1_5EA5_E0F1_EE75);
    let mut seen = Seen::default();

    // Tick 1: a seeded mix — path-restricted inside one region, plain
    // (no path set: spans all three regions), and explicitly spanning.
    for i in 0..12 {
        let request = seeded_request(&mut rng);
        let request = match i % 4 {
            0 => request,
            1 => request.with_paths(vec![2 * rng.int(0usize..3)]),
            2 => {
                let region = 2 * rng.int(0usize..3);
                request.with_paths(vec![region, region + 1])
            }
            _ => request.with_paths(vec![1, 2, 5]),
        };
        service.submit(request).unwrap();
    }
    tick(&mut service, &mut seen);

    // Tick 2: a batch into region 0 that cannot fit whole (three strict
    // 45 Mbps flows over ~100 Mbps), so `offer_batch` falls back to
    // greedy, deadline-ordered admission.
    let refused_before = seen.refused;
    for lifetime in [0.9, 0.7, 0.8] {
        let strict = FlowRequest::new(45e6, lifetime)
            .unwrap()
            .with_min_quality(0.85)
            .with_paths(vec![0, 1]);
        service.submit(strict).unwrap();
    }
    tick(&mut service, &mut seen);
    assert!(
        seen.refused > refused_before,
        "the oversized batch must take the greedy fallback and refuse someone"
    );

    // Tick 3: departs (every third live flow) and fresh arrivals ride
    // the same tick.
    let leaving: Vec<u64> = seen.admitted.iter().copied().step_by(3).collect();
    for flow in leaving {
        service.submit_depart(flow);
    }
    for _ in 0..4 {
        let region = 2 * rng.int(0usize..3);
        service
            .submit(seeded_request(&mut rng).with_paths(vec![region, region + 1]))
            .unwrap();
    }
    tick(&mut service, &mut seen);

    // Ticks 4–5: lose the fat path of region 0 (sheds lowest priority
    // first), then recover it (revives under the original ids).
    service.submit_link(0, LinkChange::Fail).unwrap();
    tick(&mut service, &mut seen);
    assert!(seen.shed > 0, "failing path 0 must shed a floored flow");
    service.submit_link(0, LinkChange::Recover).unwrap();
    tick(&mut service, &mut seen);
    assert!(seen.revived > 0, "recovery must revive a shed flow");

    // Tick 6: throttle the same path instead — sheds again, and this
    // time the queue backs off across the following capacity events.
    let shed_before = seen.shed;
    service
        .submit_link(0, LinkChange::SetBandwidth(25e6))
        .unwrap();
    tick(&mut service, &mut seen);
    assert!(seen.shed > shed_before, "the throttle must shed again");

    // Tick 7: churn on the warmed-up assemblies (the departed blocks are
    // cut out); the departs are capacity events that retry the shed
    // queue.
    let leaving: Vec<u64> = seen.admitted.iter().copied().skip(1).step_by(4).collect();
    for flow in leaving {
        service.submit_depart(flow);
    }
    for _ in 0..6 {
        service.submit(seeded_request(&mut rng)).unwrap();
    }
    tick(&mut service, &mut seen);

    // Ticks 8–9: restore the bandwidth, then one more capacity event so
    // the backed-off queue gets its retry.
    service
        .submit_link(0, LinkChange::SetBandwidth(80e6))
        .unwrap();
    tick(&mut service, &mut seen);
    service
        .submit_link(1, LinkChange::SetBandwidth(24e6))
        .unwrap();
    tick(&mut service, &mut seen);

    let mut plan_bits = Fnv::new();
    let mut legs = 0;
    for flow in 0..service.submissions() {
        for plan in service.leg_plans(flow) {
            plan_bits.bytes(&flow.to_le_bytes());
            plan_bits.floats(plan.strategy().x());
            legs += 1;
        }
    }
    assert_eq!(legs, service.num_admitted_legs());
    assert!(legs >= 12, "the script should leave a populated fleet");

    // The reservation plane of the same service: windowed offers never
    // ride the tick queue, so the instant hash above is unaffected; they
    // are planned beside the instant flows of their region.
    let mut windowed = Fnv::new();
    let window = |start, end| SlotWindow::new(start, end).unwrap();
    let offers = [
        ScheduleRequest::new(
            FlowRequest::new(30e6, 0.8).unwrap().with_paths(vec![0, 1]),
            window(0, 3),
        )
        .with_buffer(0.5),
        ScheduleRequest::new(
            FlowRequest::new(70e6, 0.8)
                .unwrap()
                .with_min_quality(0.9)
                .with_paths(vec![0, 1]),
            SlotWindow::instant(0),
        ),
        // Cannot share slot 0 with the strict flow above: reserved.
        ScheduleRequest::new(
            FlowRequest::new(60e6, 0.8)
                .unwrap()
                .with_min_quality(0.9)
                .with_paths(vec![0, 1]),
            SlotWindow::instant(0),
        ),
        ScheduleRequest::new(
            FlowRequest::new(20e6, 0.6)
                .unwrap()
                .with_min_quality(0.5)
                .with_cost_budget(3.0)
                .with_paths(vec![2, 3]),
            window(1, 4),
        ),
        ScheduleRequest::new(
            FlowRequest::new(35e6, 0.7).unwrap().with_paths(vec![4]),
            window(2, 6),
        ),
    ];
    let mut reserved = 0;
    for offer in offers {
        let (region, decision) = service.offer_windowed(offer).unwrap();
        reserved += usize::from(decision.is_reserved());
        windowed.debug(&(region, &decision));
    }
    assert!(reserved > 0, "the contended slot must yield a reservation");
    for origin in [1, 3] {
        windowed.debug(&service.advance_to(origin).unwrap());
        windowed.debug(&service.windowed_flows());
    }

    let observed = (service.decision_hash(), plan_bits.0, windowed.0);
    assert_eq!(
        observed,
        (SERVICE_DECISION_HASH, SERVICE_PLAN_BITS, SERVICE_WINDOWED),
        "observed {observed:#018x?}"
    );
}

#[test]
fn bare_schedule_script_reproduces_the_recorded_bits() {
    let mut sched = SchedulePlanner::new(
        six_paths()[..2].to_vec(),
        TimeGrid::new(0.5, 6).unwrap(),
        FleetConfig::default(),
    )
    .unwrap();
    let mut rng = SplitMix64::new(0x5C4E_D01E_0000_0001);
    let mut events = Fnv::new();
    let mut ids = Vec::new();

    // One buffered 3-slot window first, then seeded windows.
    let buffered = sched
        .offer(
            ScheduleRequest::new(
                FlowRequest::new(30e6, 0.8).unwrap(),
                SlotWindow::new(0, 3).unwrap(),
            )
            .with_buffer(0.5),
        )
        .unwrap();
    assert!(buffered.is_scheduled());
    events.debug(&buffered);
    ids.push(buffered.id());
    let mut reserved = 0;
    for _ in 0..8 {
        let start = rng.int(0u64..4);
        let len = 1 + rng.int(0u64..3);
        let mut request = ScheduleRequest::new(
            seeded_request(&mut rng),
            SlotWindow::new(start, start + len).unwrap(),
        );
        if rng.int(0u64..3) == 0 {
            request = request.with_buffer(rng.f64(0.2..1.0));
        }
        let decision = sched.offer(request).unwrap();
        reserved += usize::from(decision.is_reserved());
        if decision.is_admitted() {
            ids.push(decision.id());
        }
        events.debug(&decision);
    }
    // A strict pair contending for slot 1: the second must be reserved.
    for rate in [70e6, 60e6] {
        let decision = sched
            .offer(ScheduleRequest::new(
                FlowRequest::new(rate, 0.8).unwrap().with_min_quality(0.9),
                SlotWindow::instant(1),
            ))
            .unwrap();
        reserved += usize::from(decision.is_reserved());
        if decision.is_admitted() {
            ids.push(decision.id());
        }
        events.debug(&decision);
    }
    assert!(reserved > 0, "the contended slot must yield a reservation");

    // A maintenance slot on the fat path, a slide, a withdrawal, a link
    // retune, a second slide.
    events.debug(&sched.set_maintenance(2, 0).unwrap());
    events.debug(&sched.advance_to(1).unwrap());
    sched.depart(ids[1]).unwrap();
    events.debug(
        &sched
            .apply_link_change(1, &LinkChange::SetBandwidth(12e6))
            .unwrap(),
    );
    events.debug(&sched.advance_to(3).unwrap());

    let mut plan_bits = Fnv::new();
    assert!(sched.num_flows() >= 3, "the script should leave live flows");
    for id in sched.flow_ids() {
        plan_bits.debug(&(id, sched.window_of(id)));
        plan_bits.floats(sched.plan_of(id).unwrap().strategy().x());
        plan_bits.floats(&sched.slot_quality_of(id).unwrap());
        plan_bits.floats(&[sched.peak_carry_of(id).unwrap()]);
    }
    plan_bits.floats(&[sched.objective_value(), sched.aggregate_quality()]);

    let observed = (events.0, plan_bits.0);
    assert_eq!(
        observed,
        (BARE_SCHEDULE_EVENTS, BARE_SCHEDULE_PLAN_BITS),
        "observed {observed:#018x?}"
    );
}

#[test]
fn long_sliding_horizon_script_reproduces_the_recorded_verdicts() {
    let observed = sliding_horizon::run(FleetConfig::default(), |_| {});
    assert_eq!(
        observed, SLIDING_HORIZON_VERDICTS,
        "observed {observed:#018x}"
    );
}
