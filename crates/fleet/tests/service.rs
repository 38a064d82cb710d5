//! `dmc-fleetd` service-layer contracts:
//!
//! 1. **Sharded = monolithic** (property test): for any partition of the
//!    shared paths into capacity regions and any script of path-subset
//!    offers and departures that respects the partition, the sharded
//!    service admits/rejects exactly the flows a single monolithic
//!    [`FleetPlanner`] admits, and every admitted plan agrees to 1e-9
//!    (the capacity rows are in bit/s, so a region's rows are the
//!    monolith's rows for its paths; what differs is the other regions'
//!    blocks beside them and the objective's scale, which the solver
//!    takes from the largest coefficient of each problem).
//! 2. **Two-phase spanning admission**: a flow whose path set spans
//!    regions is split by live-bandwidth share and reserved leg by leg;
//!    any refusal rolls the reserved legs back completely.
//! 3. **Worker-count determinism**: a fixed script produces bitwise
//!    identical event streams and decision hashes at 1 and 4 workers.
//! 4. **The slotted reservation plane**: windowed offers, advances, and
//!    one capacity per region — an instant flow and a windowed one never
//!    hold the same slot's capacity twice.
//! 5. **Typed submissions are validated at the door**: a request the
//!    joint LP cannot take is refused by `submit`, and never reaches a
//!    tick.

use dmc_core::ScenarioPath;
use dmc_fleet::{
    FleetConfig, FleetPlanner, FleetService, FlowRequest, ServiceConfig, ServiceEvent,
};
use dmc_obs::fnv1a;
use dmc_sim::LinkChange;
use dmc_stats::rng::{run_cases, SplitMix64};

const TOL: f64 = 1e-9;

fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid path"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid path"),
        ScenarioPath::constant(30e6, 0.250, 0.05).expect("valid path"),
        ScenarioPath::constant(40e6, 0.350, 0.1).expect("valid path"),
    ]
}

fn service(groups: &[Vec<usize>], workers: usize) -> FleetService {
    FleetService::new(
        shared_paths(),
        groups,
        ServiceConfig {
            workers,
            fleet: FleetConfig::default(),
            grid: None,
        },
    )
    .expect("valid service")
}

// ---------------------------------------------------------------------
// 1. Sharded vs monolithic parity
// ---------------------------------------------------------------------

/// One scripted action over a partitioned fleet.
#[derive(Debug, Clone)]
enum Action {
    /// Offer a request restricted to a subset of one region's paths
    /// (`region_sel` picks the region, `mask` the within-region subset).
    Offer {
        request: FlowRequest,
        region_sel: usize,
        mask: u8,
    },
    /// Depart the `k`-th currently admitted flow (mod the live count).
    Depart(usize),
}

fn arb_request(rng: &mut SplitMix64) -> FlowRequest {
    let rate = rng.f64(4.0..40.0); // rate Mbps
    let delta = rng.f64(0.4..1.5); // lifetime s
    let floor = rng.f64(0.0..0.9); // floor
    let budgeted = rng.bool();
    let mut r = FlowRequest::new(rate * 1e6, delta).expect("valid request");
    if floor > 0.05 {
        r = r.with_min_quality(floor);
    }
    if budgeted {
        r = r.with_cost_budget(2.0);
    }
    r
}

fn arb_action(rng: &mut SplitMix64) -> Action {
    let tag = rng.next_u64();
    let request = arb_request(rng);
    let region_sel = rng.next_u64() as usize;
    let mask = rng.next_u64() as u8;
    let k = rng.int(0usize..6);
    if tag % 4 == 3 {
        Action::Depart(k)
    } else {
        Action::Offer {
            request,
            region_sel,
            mask,
        }
    }
}

/// Resolves an offer's path subset: the selected region's paths filtered
/// by the mask bits, falling back to the whole region when the mask
/// selects nothing.
fn subset_for(regions: &[Vec<usize>], region_sel: usize, mask: u8) -> Vec<usize> {
    let region = &regions[region_sel % regions.len()];
    let masked: Vec<usize> = region
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
        .map(|(_, &k)| k)
        .collect();
    if masked.is_empty() {
        region.clone()
    } else {
        masked
    }
}

/// Random partitions × random in-region offer/depart scripts: the
/// sharded service and the monolithic planner agree on every
/// admission outcome and on every admitted plan to 1e-9.
#[test]
fn sharded_matches_monolithic() {
    run_cases(fnv1a(b"sharded_matches_monolithic"), 12, |rng| {
        let labels = (0..rng.int(4usize..5))
            .map(|_| rng.int(0usize..3))
            .collect::<Vec<_>>();
        let script = (0..rng.int(1usize..10))
            .map(|_| arb_action(rng))
            .collect::<Vec<_>>();
        // Partition the 4 paths by random label; groups declare the
        // partition to the service, and drive the monolith's subsets.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for label in 0..3 {
            let members: Vec<usize> = (0..4).filter(|&k| labels[k] == label).collect();
            if !members.is_empty() {
                groups.push(members);
            }
        }
        let mut service = service(&groups, 2);
        // The service's normalized regions (not the raw groups) define
        // the offer subsets, so every offer stays within one region.
        let regions: Vec<Vec<usize>> = (0..service.region_map().num_regions())
            .map(|r| service.region_map().region_paths(r).to_vec())
            .collect();
        let mut mono =
            FleetPlanner::new(shared_paths(), FleetConfig::default()).expect("valid fleet");

        // (service global id, monolithic id) of still-admitted flows.
        let mut admitted: Vec<(u64, dmc_fleet::FlowId)> = Vec::new();
        for action in &script {
            match action {
                Action::Offer {
                    request,
                    region_sel,
                    mask,
                } => {
                    let subset = subset_for(&regions, *region_sel, *mask);
                    let request = request.clone().with_paths(subset);
                    let seq = service.submit(request.clone()).expect("in-range subset");
                    let events = service.tick().expect("tick succeeds");
                    let mono_decision = mono.offer(request).expect("offer succeeds");
                    let [ServiceEvent::Decision {
                        seq: dseq,
                        admitted: ok,
                        predicted_quality,
                    }] = &events[..]
                    else {
                        panic!("expected exactly one decision, got {events:?}");
                    };
                    assert_eq!(*dseq, seq);
                    assert_eq!(
                        *ok,
                        mono_decision.is_admitted(),
                        "admission diverged on {:?}",
                        action
                    );
                    if *ok {
                        if let dmc_fleet::AdmissionDecision::Admitted {
                            id,
                            predicted_quality: mono_quality,
                        } = mono_decision
                        {
                            assert!(
                                (predicted_quality - mono_quality).abs() <= TOL,
                                "predicted quality {} vs {}",
                                predicted_quality,
                                mono_quality
                            );
                            admitted.push((seq, id));
                        }
                    }
                }
                Action::Depart(k) => {
                    if admitted.is_empty() {
                        continue;
                    }
                    let (seq, mono_id) = admitted.remove(k % admitted.len());
                    service.submit_depart(seq);
                    let events = service.tick().expect("tick succeeds");
                    assert!(
                        events.iter().any(|e| matches!(
                            e,
                            ServiceEvent::Departed { flow, found: true, .. } if *flow == seq
                        )),
                        "departure of {} unanswered: {:?}",
                        seq,
                        events
                    );
                    mono.depart(mono_id).expect("known id");
                }
            }
        }

        // Every surviving plan agrees to 1e-9 (plans are built over the
        // flow's path subset in both worlds, so they align index-wise).
        for &(seq, mono_id) in &admitted {
            let legs = service.leg_plans(seq);
            assert_eq!(legs.len(), 1, "single-region flow has one leg");
            let sharded = legs[0];
            let mono_plan = mono.plan_of(mono_id).expect("admitted plan");
            assert!((sharded.quality() - mono_plan.quality()).abs() <= TOL);
            assert!((sharded.cost_rate() - mono_plan.cost_rate()).abs() <= TOL);
            for (a, b) in sharded.strategy().x().iter().zip(mono_plan.strategy().x()) {
                assert!((a - b).abs() <= TOL, "x: {} vs {}", a, b);
            }
            for (a, b) in sharded.send_rates().iter().zip(mono_plan.send_rates()) {
                assert!((a - b).abs() <= TOL * a.abs().max(1.0), "S: {} vs {}", a, b);
            }
        }
        // And the aggregate per-path picture matches.
        let util = service.utilization();
        for (a, b) in util.iter().zip(mono.utilization()) {
            assert!(
                (a - b).abs() <= TOL * a.abs().max(1.0),
                "util: {} vs {}",
                a,
                b
            );
        }
    });
}

// ---------------------------------------------------------------------
// 2. Spanning flows: two-phase reserve/commit with rollback
// ---------------------------------------------------------------------

#[test]
fn spanning_flow_is_split_and_committed_across_regions() {
    // Regions {0,1} and {2,3}; an unrestricted flow spans both.
    let mut svc = service(&[vec![0, 1], vec![2, 3]], 1);
    let seq = svc
        .submit(
            FlowRequest::new(30e6, 0.9)
                .expect("valid")
                .with_min_quality(0.5),
        )
        .expect("in range");
    let events = svc.tick().expect("tick succeeds");
    assert!(matches!(
        events[..],
        [ServiceEvent::Decision { admitted: true, .. }]
    ));
    // One committed leg per region, both sides of the split live.
    assert_eq!(svc.leg_plans(seq).len(), 2);
    assert_eq!(svc.num_admitted_legs(), 2);
    let util = svc.utilization();
    let region_a: f64 = util[0] + util[1];
    let region_b: f64 = util[2] + util[3];
    assert!(
        region_a > 0.0 && region_b > 0.0,
        "both legs carry rate: {util:?}"
    );
    // The λ split follows the live-bandwidth share: region A holds
    // 100 of the 170 Mbps, region B the other 70.
    let legs = svc.leg_plans(seq);
    assert!((legs[0].scenario().data_rate() - 30e6 * 100.0 / 170.0).abs() <= 1.0);
    assert!((legs[1].scenario().data_rate() - 30e6 * 70.0 / 170.0).abs() <= 1.0);

    // Departing the spanning flow clears every leg.
    svc.submit_depart(seq);
    let events = svc.tick().expect("tick succeeds");
    assert!(events.iter().any(|e| matches!(
        e,
        ServiceEvent::Departed { flow, found: true, .. } if *flow == seq
    )));
    assert_eq!(svc.num_admitted_legs(), 0);
    assert!(svc.utilization().iter().all(|&u| u.abs() <= TOL));
}

#[test]
fn spanning_refusal_rolls_back_the_reserved_leg() {
    let mut svc = service(&[vec![0, 1], vec![2, 3]], 1);
    // Saturate region B so a spanning flow's B-leg must be refused.
    for _ in 0..3 {
        let seq = svc
            .submit(
                FlowRequest::new(20e6, 0.5)
                    .expect("valid")
                    .with_min_quality(0.9)
                    .with_paths(vec![2, 3]),
            )
            .expect("in range");
        let _ = (seq, svc.tick().expect("tick succeeds"));
    }
    let legs_before = svc.num_admitted_legs();
    let util_before = svc.utilization();

    // The spanning offer: region A could take its share, region B
    // cannot — the whole flow must be refused and A's reservation
    // rolled back.
    let seq = svc
        .submit(
            FlowRequest::new(40e6, 0.5)
                .expect("valid")
                .with_min_quality(0.95),
        )
        .expect("in range");
    let events = svc.tick().expect("tick succeeds");
    assert!(
        events.iter().any(|e| matches!(
            e,
            ServiceEvent::Decision { seq: s, admitted: false, .. } if *s == seq
        )),
        "spanning refusal expected: {events:?}"
    );
    assert!(svc.leg_plans(seq).is_empty());
    assert_eq!(
        svc.num_admitted_legs(),
        legs_before,
        "the reserved leg must be rolled back"
    );
    for (a, b) in svc.utilization().iter().zip(&util_before) {
        assert!(
            (a - b).abs() <= TOL * b.abs().max(1.0),
            "rollback left residue: {a} vs {b}"
        );
    }

    // The service still works: a modest A-only flow is admitted.
    let seq = svc
        .submit(
            FlowRequest::new(10e6, 0.9)
                .expect("valid")
                .with_paths(vec![0, 1]),
        )
        .expect("in range");
    let events = svc.tick().expect("tick succeeds");
    assert!(events.iter().any(|e| matches!(
        e,
        ServiceEvent::Decision { seq: s, admitted: true, .. } if *s == seq
    )));
}

// ---------------------------------------------------------------------
// 3. Worker-count determinism
// ---------------------------------------------------------------------

/// Replays a fixed mixed script (batched offers, a spanning flow,
/// departures, an outage/recovery cycle) and returns every tick's events
/// plus the final decision hash.
fn run_script(workers: usize) -> (Vec<Vec<ServiceEvent>>, u64) {
    let (ticks, hash, _) = run_script_with(workers, dmc_obs::Obs::disabled());
    (ticks, hash)
}

/// [`run_script`] with a telemetry registry; additionally returns the
/// service's merged [`dmc_obs::Snapshot`].
fn run_script_with(
    workers: usize,
    obs: dmc_obs::Obs,
) -> (Vec<Vec<ServiceEvent>>, u64, dmc_obs::Snapshot) {
    // Six singleton regions so the worker chunking actually splits.
    let paths: Vec<ScenarioPath> = (0..6)
        .map(|k| {
            ScenarioPath::constant(
                30e6 + 10e6 * k as f64,
                0.200 + 0.050 * k as f64,
                0.02 * k as f64,
            )
            .expect("valid path")
        })
        .collect();
    let mut svc = FleetService::new(
        paths,
        &[],
        ServiceConfig {
            workers,
            fleet: FleetConfig {
                obs,
                ..FleetConfig::default()
            },
            grid: None,
        },
    )
    .expect("valid service");
    let mut ticks = Vec::new();

    // Tick 1: one offer per region (all shards busy) + one spanning flow.
    let mut flows = Vec::new();
    for k in 0..6 {
        let seq = svc
            .submit(
                FlowRequest::new(8e6 + 2e6 * k as f64, 0.8)
                    .expect("valid")
                    .with_min_quality(0.6)
                    .with_paths(vec![k]),
            )
            .expect("in range");
        flows.push(seq);
    }
    let spanning = svc
        .submit(
            FlowRequest::new(24e6, 1.0)
                .expect("valid")
                .with_min_quality(0.4),
        )
        .expect("in range");
    ticks.push(svc.tick().expect("tick succeeds"));

    // Tick 2: depart two flows, fail a path, more offers.
    svc.submit_depart(flows[1]);
    svc.submit_depart(spanning);
    svc.submit_link(3, LinkChange::Fail).expect("valid change");
    for k in 0..3 {
        svc.submit(
            FlowRequest::new(6e6, 0.7)
                .expect("valid")
                .with_min_quality(0.5)
                .with_paths(vec![k * 2]),
        )
        .expect("in range");
    }
    ticks.push(svc.tick().expect("tick succeeds"));

    // Tick 3: recovery plus a bandwidth retune.
    svc.submit_link(3, LinkChange::Recover)
        .expect("valid change");
    svc.submit_link(0, LinkChange::SetBandwidth(45e6))
        .expect("valid change");
    ticks.push(svc.tick().expect("tick succeeds"));

    let snapshot = svc.obs_snapshot();
    (ticks, svc.decision_hash(), snapshot)
}

#[test]
fn decision_stream_is_bitwise_identical_across_worker_counts() {
    let (ticks_1, hash_1) = run_script(1);
    let (ticks_4, hash_4) = run_script(4);
    assert_eq!(
        ticks_1, ticks_4,
        "event streams diverged across worker counts"
    );
    assert_eq!(
        hash_1, hash_4,
        "decision hashes diverged across worker counts"
    );
    // And the hash really covers the stream: a rerun reproduces it.
    let (_, hash_again) = run_script(4);
    assert_eq!(hash_4, hash_again);
}

#[test]
fn telemetry_snapshot_is_identical_across_worker_counts() {
    let (_, _, snap_1) = run_script_with(1, dmc_obs::Obs::enabled());
    let (_, _, snap_4) = run_script_with(4, dmc_obs::Obs::enabled());
    assert_eq!(
        snap_1.fnv_hash(),
        snap_4.fnv_hash(),
        "telemetry snapshots diverged across worker counts:\n{}\nvs\n{}",
        snap_1.to_jsonl(),
        snap_4.to_jsonl()
    );

    // The script's shape is visible in the merged registry.
    assert_eq!(snap_1.counter("service.ticks"), Some(3));
    assert_eq!(snap_1.counter("service.spanning_offers"), Some(1));
    assert_eq!(
        snap_1.counter("service.spanning_commits").unwrap_or(0)
            + snap_1.counter("service.spanning_refusals").unwrap_or(0),
        1,
        "every spanning offer either commits or refuses"
    );
    let depth = snap_1
        .histogram("service.queue_depth")
        .expect("queue depth recorded per shard per tick");
    assert_eq!(depth.count, 3 * 6, "three ticks over six shards");
    assert!(snap_1.histogram("service.batch_size").is_some());
    assert!(snap_1.counter("fleet.admits").unwrap_or(0) > 0);
    assert!(
        snap_1.counter("lp.solves").unwrap_or(0) > 0,
        "shard forks carry the solver metrics into the merged snapshot"
    );
}

// ---------------------------------------------------------------------
// 4. The slotted reservation plane (ServiceConfig::grid)
// ---------------------------------------------------------------------

#[test]
fn windowed_offers_ride_the_reservation_plane() {
    use dmc_fleet::{ScheduleRequest, SlotWindow, TimeGrid};

    let mut svc = FleetService::new(
        shared_paths(),
        &[vec![0, 1, 2, 3]], // one capacity region
        ServiceConfig {
            workers: 1,
            fleet: FleetConfig::default(),
            grid: Some(TimeGrid::new(1.0, 8).expect("valid grid")),
        },
    )
    .expect("valid service");

    let request = ScheduleRequest::new(
        FlowRequest::new(30e6, 0.8)
            .expect("valid request")
            .with_min_quality(0.8),
        SlotWindow::new(0, 2).expect("valid window"),
    );
    let (region, decision) = svc.offer_windowed(request).expect("windowed offer runs");
    assert_eq!(region, 0);
    assert!(decision.is_scheduled(), "plenty of capacity: {decision:?}");
    assert_eq!(svc.windowed_flows(), vec![1]);
    // The instant admission plane is untouched by windowed offers.
    assert_eq!(svc.num_admitted_legs(), 0);
    assert_eq!(svc.submissions(), 0);

    // Advancing past the window completes the flow in every region.
    let advances = svc.advance_to(2).expect("advance runs");
    assert_eq!(advances.len(), 1);
    assert_eq!(advances[0].completed, vec![decision.id()]);
    assert_eq!(svc.windowed_flows(), vec![0]);

    // An origin whose horizon would overflow the slot numbers is refused
    // whole (it used to succeed and abort the next windowed offer).
    assert!(matches!(
        svc.advance_to(u64::MAX),
        Err(dmc_fleet::FleetError::Invalid(_))
    ));
    let next = ScheduleRequest::new(
        FlowRequest::new(30e6, 0.8).expect("valid request"),
        SlotWindow::new(2, 4).expect("valid window"),
    );
    let (_, again) = svc.offer_windowed(next).expect("still serving");
    assert!(again.is_scheduled());
}

#[test]
fn windowed_departure_frees_the_reservation() {
    use dmc_fleet::{ScheduleRequest, SlotWindow, TimeGrid};

    let mut svc = FleetService::new(
        shared_paths(),
        &[vec![0, 1, 2, 3]],
        ServiceConfig {
            workers: 1,
            fleet: FleetConfig::default(),
            grid: Some(TimeGrid::new(1.0, 8).expect("valid grid")),
        },
    )
    .expect("valid service");
    let (region, decision) = svc
        .offer_windowed(ScheduleRequest::new(
            FlowRequest::new(20e6, 0.8).expect("valid request"),
            SlotWindow::new(1, 3).expect("valid window"),
        ))
        .expect("windowed offer runs");
    svc.depart_windowed(region, decision.id())
        .expect("known windowed flow departs");
    assert_eq!(svc.windowed_flows(), vec![0]);
    // Departing it again is an UnknownFlow error, not a silent no-op.
    assert!(svc.depart_windowed(region, decision.id()).is_err());
}

#[test]
fn spanning_windowed_offers_and_gridless_services_are_rejected() {
    use dmc_fleet::{ScheduleRequest, SlotWindow, TimeGrid};

    // Two regions: an unpinned windowed offer touches both -> invalid.
    let mut split = FleetService::new(
        shared_paths(),
        &[vec![0, 1], vec![2, 3]],
        ServiceConfig {
            workers: 1,
            fleet: FleetConfig::default(),
            grid: Some(TimeGrid::new(1.0, 4).expect("valid grid")),
        },
    )
    .expect("valid service");
    let unpinned = ScheduleRequest::new(
        FlowRequest::new(10e6, 0.5).expect("valid request"),
        SlotWindow::instant(0),
    );
    assert!(split.offer_windowed(unpinned.clone()).is_err());
    // Pinned to one region it goes through.
    let pinned = ScheduleRequest::new(
        FlowRequest::new(10e6, 0.5)
            .expect("valid request")
            .with_paths(vec![2, 3]),
        SlotWindow::instant(0),
    );
    let (region, decision) = split.offer_windowed(pinned).expect("pinned offer runs");
    assert_eq!(region, 1);
    assert!(decision.is_admitted());

    // Without a grid the whole plane is off.
    let mut gridless = service(&[vec![0, 1, 2, 3]], 1);
    assert!(gridless.offer_windowed(unpinned).is_err());
    assert!(gridless.advance_to(1).is_err());
}

#[test]
fn a_gridded_region_never_admits_its_capacity_twice() {
    use dmc_fleet::{ScheduleDecision, ScheduleRequest, SlotWindow, TimeGrid};

    // The Table III pair, 100 Mb/s of links, on a 1 s × 4 grid.
    let table3 = vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid path"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid path"),
    ];
    let mut svc = FleetService::new(
        table3,
        &[vec![0, 1]],
        ServiceConfig {
            workers: 1,
            fleet: FleetConfig::default(),
            grid: Some(TimeGrid::new(1.0, 4).expect("valid grid")),
        },
    )
    .expect("valid service");
    let strict = || {
        FlowRequest::new(60e6, 0.8)
            .expect("valid request")
            .with_min_quality(0.9)
    };
    // The instant plane admits one 60 Mb/s floor-0.9 flow and refuses
    // two more.
    let first = svc.submit(strict()).expect("valid offer");
    for _ in 0..2 {
        svc.submit(strict()).expect("valid offer");
    }
    let admitted: Vec<bool> = svc
        .tick()
        .expect("tick runs")
        .iter()
        .filter_map(|e| match e {
            ServiceEvent::Decision { admitted, .. } => Some(*admitted),
            _ => None,
        })
        .collect();
    assert_eq!(admitted, [true, false, false]);
    // The same flow, windowed into slot 0, used to be scheduled there
    // beside it: 120 Mb/s of floors on 100 Mb/s of links.
    let copy = ScheduleRequest::new(strict(), SlotWindow::instant(0));
    let (region, decision) = svc.offer_windowed(copy).expect("windowed offer runs");
    assert!(
        !decision.is_scheduled(),
        "scheduled beside the instant flow"
    );
    assert!(matches!(
        decision,
        ScheduleDecision::Reserved { window, .. } if window == SlotWindow::instant(1)
    ));
    let within = |svc: &FleetService| svc.utilization().iter().all(|&u| u <= 1.0 + TOL);
    assert!(within(&svc), "origin slot {:?}", svc.utilization());
    assert_eq!(
        (svc.num_admitted_legs(), svc.windowed_flows()),
        (1, vec![1])
    );

    // Advancing into slot 1 moves the instant flow onto the reserved
    // one: it no longer fits, and is shed — reported at the next tick,
    // under a seq of the advance's own.
    svc.advance_to(1).expect("advance runs");
    assert!(within(&svc), "origin slot {:?}", svc.utilization());
    assert_eq!(svc.num_admitted_legs(), 0);
    let shed = ServiceEvent::Capacity {
        seq: 3,
        shed: vec![first],
        revived: Vec::new(),
        rejected: Vec::new(),
    };
    assert_eq!(svc.tick().expect("tick runs"), vec![shed]);
    // Once the reserved flow's window has passed, the next advance is the
    // capacity event that revives it.
    svc.advance_to(2).expect("advance runs");
    assert_eq!(svc.windowed_flows(), vec![0]);
    let revived = ServiceEvent::Capacity {
        seq: 4,
        shed: Vec::new(),
        revived: vec![first],
        rejected: Vec::new(),
    };
    assert_eq!(svc.tick().expect("tick runs"), vec![revived]);
    assert_eq!(svc.leg_plans(first).len(), 1);
    assert!(within(&svc), "origin slot {:?}", svc.utilization());
    // A windowed departure does not take an instant flow's id (the
    // region's first offer, id 0).
    assert!(matches!(
        svc.depart_windowed(region, dmc_fleet::FlowId::from_index(0)),
        Err(dmc_fleet::FleetError::UnknownFlow(_))
    ));
}

// ---------------------------------------------------------------------
// 5. Typed submissions are validated at the door
// ---------------------------------------------------------------------

#[test]
fn a_typed_submit_the_lp_cannot_take_does_not_poison_the_tick() {
    let mut svc = service(&[vec![0, 1, 2, 3]], 1);
    let ok = || FlowRequest::new(10e6, 0.8).expect("valid request");
    let before = svc.submit(ok()).expect("valid offer");
    // A rate the joint LP cannot scale, and more path combinations than
    // a model may have: both used to be queued, and failed the tick that
    // ran them, taking every good offer of the tick down with them.
    let huge = FlowRequest::new(1e200, 0.8).expect("a finite rate");
    assert!(matches!(
        svc.submit(huge),
        Err(dmc_fleet::FleetError::Invalid(_))
    ));
    let wide = ok().with_transmissions(40);
    assert!(matches!(
        svc.submit(wide),
        Err(dmc_fleet::FleetError::Invalid(_))
    ));
    let after = svc.submit(ok()).expect("valid offer");
    assert_eq!((before, after), (0, 1), "a refused submission takes no seq");
    let events = svc.tick().expect("the refusals never reach the tick");
    let answered: Vec<(u64, bool)> = events
        .iter()
        .filter_map(|e| match e {
            ServiceEvent::Decision { seq, admitted, .. } => Some((*seq, *admitted)),
            _ => None,
        })
        .collect();
    assert_eq!(answered, [(0, true), (1, true)]);
}
