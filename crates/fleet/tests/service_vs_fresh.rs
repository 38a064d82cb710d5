//! Stateful test of the sharded service against from-scratch
//! references: seeded random ticks of offers, departures and link
//! changes through a `FleetService` (single-region flows, equal
//! priorities, at 1 and at 4 workers). After every tick each admitted
//! flow's leg plan must agree, to 1e-9, with its plan in a fresh
//! per-region `FleetPlanner` over the region's current paths, offered
//! the region's surviving flows in roster order as one batch
//! ([`common::fresh_fleet`]).
//!
//! The roster order is read off the event stream: admitted and revived
//! flows append; departed, shed and rejected ones leave. Two policies of
//! the planner reorder it, and the mirror follows them: a batch of
//! offers that one solve could not admit whole falls back to one-by-one
//! admission in deadline order (the default `MaxAdmitted` objective),
//! and a link change that sheds flows re-admitted every resident first,
//! in admission order.

mod common;

use common::{assert_plans_close, fresh_fleet};
use dmc_core::ScenarioPath;
use dmc_fleet::{FleetConfig, FleetService, FlowRequest, ServiceConfig, ServiceEvent};
use dmc_sim::LinkChange;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// `(bandwidth, delay, loss)` of the shared paths.
const PATHS: [(f64, f64, f64); 5] = [
    (80e6, 0.450, 0.2),
    (20e6, 0.150, 0.0),
    (30e6, 0.250, 0.05),
    (40e6, 0.350, 0.1),
    (25e6, 0.200, 0.02),
];

/// Regions {0, 1}, {2, 3} and the singleton {4}.
fn groups() -> Vec<Vec<usize>> {
    vec![vec![0, 1], vec![2, 3]]
}

/// One submission of a tick.
#[derive(Debug, Clone)]
enum Op {
    /// Offer `request` on the paths of region `region_sel` that `mask`
    /// selects (the whole region when it selects none).
    Offer {
        request: FlowRequest,
        region_sel: usize,
        mask: u8,
    },
    /// Depart the `k`-th known flow, admitted or shed (mod their count).
    Depart(usize),
    Link(usize, LinkChange),
}

/// What the test knows of the service: the paths' state, every offered
/// flow's region and region-local request, and each region's roster.
struct Mirror {
    regions: Vec<Vec<usize>>,
    bandwidth: Vec<f64>,
    failed: Vec<bool>,
    /// Offer seq → (region, request with region-local path indices).
    flows: BTreeMap<u64, (usize, FlowRequest)>,
    /// Per region, the admitted flows in roster order.
    rosters: Vec<Vec<u64>>,
    /// Flows waiting in a re-admission queue.
    shed: BTreeSet<u64>,
}

impl Mirror {
    /// The region's paths as its planner plans against them (a failed
    /// path with loss 1).
    fn region_paths(&self, region: usize) -> Vec<ScenarioPath> {
        let path = |&k: &usize| {
            let (_, delay, loss) = PATHS[k];
            let loss = if self.failed[k] { 1.0 } else { loss };
            ScenarioPath::constant(self.bandwidth[k], delay, loss).expect("valid path")
        };
        self.regions[region].iter().map(path).collect()
    }

    fn region_of(&self, flow: u64) -> usize {
        self.flows[&flow].0
    }

    fn leave(&mut self, flow: u64) {
        let region = self.region_of(flow);
        self.rosters[region].retain(|&f| f != flow);
    }

    /// Submits one tick's ops and returns the offer batches each shard
    /// will run: runs of consecutive offers to one region.
    fn submit(&mut self, service: &mut FleetService, ops: &[Op]) -> Vec<Vec<u64>> {
        let known: Vec<u64> = self
            .rosters
            .iter()
            .flatten()
            .chain(&self.shed)
            .copied()
            .collect();
        let mut batches: Vec<Vec<u64>> = Vec::new();
        // Per region, the batch its next offer would join.
        let mut open: Vec<Option<usize>> = vec![None; self.regions.len()];
        for op in ops {
            match op {
                Op::Offer {
                    request,
                    region_sel,
                    mask,
                } => {
                    let region = region_sel % self.regions.len();
                    let paths = &self.regions[region];
                    let mut local: Vec<usize> =
                        (0..paths.len()).filter(|i| mask & (1 << i) != 0).collect();
                    if local.is_empty() {
                        local = (0..paths.len()).collect();
                    }
                    let global = local.iter().map(|&i| paths[i]).collect();
                    let seq = service
                        .submit(request.clone().with_paths(global))
                        .expect("in-range paths");
                    self.flows
                        .insert(seq, (region, request.clone().with_paths(local)));
                    match open[region] {
                        Some(b) => batches[b].push(seq),
                        None => {
                            open[region] = Some(batches.len());
                            batches.push(vec![seq]);
                        }
                    }
                }
                Op::Depart(k) => {
                    if let Some(&flow) = known.get(k % known.len().max(1)) {
                        service.submit_depart(flow);
                        open[self.region_of(flow)] = None;
                    }
                }
                Op::Link(path, change) => {
                    match change {
                        LinkChange::SetBandwidth(bps) => self.bandwidth[*path] = *bps,
                        LinkChange::Fail => self.failed[*path] = true,
                        LinkChange::Recover => self.failed[*path] = false,
                        LinkChange::SetLoss(_) => unreachable!("not scripted"),
                    }
                    service
                        .submit_link(*path, change.clone())
                        .expect("valid change");
                    let region = self.regions.iter().position(|r| r.contains(path));
                    let region = region.expect("every path has a region");
                    open[region] = None;
                }
            }
        }
        batches
    }

    /// Follows one tick's event stream.
    fn follow(&mut self, events: &[ServiceEvent], batches: &[Vec<u64>]) {
        let verdicts: BTreeMap<u64, bool> = events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::Decision { seq, admitted, .. } => Some((*seq, *admitted)),
                _ => None,
            })
            .collect();
        for event in events {
            match event {
                ServiceEvent::Decision { seq, .. } => {
                    // A batch joins the roster at its first decision.
                    let Some(batch) = batches.iter().find(|b| b[0] == *seq) else {
                        continue;
                    };
                    let mut admitted: Vec<u64> =
                        batch.iter().copied().filter(|s| verdicts[s]).collect();
                    if admitted.len() < batch.len() && batch.len() > 1 {
                        // The greedy fallback, earliest deadline first.
                        let lifetime = |s: &u64| self.flows[s].1.lifetime();
                        admitted.sort_by(|a, b| lifetime(a).total_cmp(&lifetime(b)));
                    }
                    let region = self.region_of(batch[0]);
                    self.rosters[region].extend(admitted);
                }
                ServiceEvent::Departed {
                    flow, found: true, ..
                } => {
                    self.leave(*flow);
                    self.shed.remove(flow);
                }
                ServiceEvent::Capacity {
                    shed,
                    revived,
                    rejected,
                    ..
                } => {
                    if let Some(&first) = shed.first() {
                        // The resettle re-admitted everyone in admission
                        // order; the shed are the ones that did not fit.
                        let region = self.region_of(first);
                        self.rosters[region].retain(|f| !shed.contains(f));
                        self.rosters[region].sort_unstable();
                        self.shed.extend(shed);
                    }
                    for &flow in revived {
                        let region = self.region_of(flow);
                        self.rosters[region].push(flow);
                        self.shed.remove(&flow);
                    }
                    for flow in rejected {
                        self.shed.remove(flow);
                    }
                }
                ServiceEvent::Departed { .. } | ServiceEvent::InvalidOffer { .. } => {}
            }
        }
    }

    /// Holds every admitted flow's plan to its region's fresh reference.
    fn assert_matches_fresh(&self, service: &FleetService, ctx: &str) {
        let admitted: usize = self.rosters.iter().map(Vec::len).sum();
        assert_eq!(service.num_admitted_legs(), admitted, "{ctx}: roster size");
        for (region, roster) in self.rosters.iter().enumerate() {
            let requests = roster.iter().map(|s| self.flows[s].1.clone()).collect();
            let paths = self.region_paths(region);
            let (fresh, all_in) = fresh_fleet(paths, FleetConfig::default(), requests);
            assert!(all_in, "{ctx}: region {region}'s reference refuses a flow");
            for (&seq, (_, want)) in roster.iter().zip(fresh.plans()) {
                let legs = service.leg_plans(seq);
                assert_eq!(legs.len(), 1, "{ctx}: flow {seq} has one leg");
                assert_plans_close(
                    legs[0],
                    want,
                    &format!("{ctx}, region {region}, flow {seq}"),
                );
            }
        }
    }
}

/// Runs the script at `workers` workers, checking after every tick, and
/// returns the decision hash.
fn run(script: &[Vec<Op>], workers: usize) -> u64 {
    let paths = PATHS
        .iter()
        .map(|&(bw, delay, loss)| ScenarioPath::constant(bw, delay, loss).expect("valid path"))
        .collect();
    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let mut service = FleetService::new(paths, &groups(), config).expect("valid service");
    let map = service.region_map();
    let regions: Vec<Vec<usize>> = (0..map.num_regions())
        .map(|r| map.region_paths(r).to_vec())
        .collect();
    let mut mirror = Mirror {
        rosters: vec![Vec::new(); regions.len()],
        regions,
        bandwidth: PATHS.iter().map(|p| p.0).collect(),
        failed: vec![false; PATHS.len()],
        flows: BTreeMap::new(),
        shed: BTreeSet::new(),
    };
    for (t, ops) in script.iter().enumerate() {
        let batches = mirror.submit(&mut service, ops);
        let events = service.tick().expect("tick succeeds");
        mirror.follow(&events, &batches);
        mirror.assert_matches_fresh(&service, &format!("{workers} worker(s), tick {t}"));
    }
    service.decision_hash()
}

fn arb_request() -> impl Strategy<Value = FlowRequest> {
    (
        4.0f64..40.0, // rate Mbps
        0.4f64..1.5,  // lifetime s
        0.0f64..0.9,  // floor
        proptest::prelude::any::<bool>(),
    )
        .prop_map(|(rate, delta, floor, budgeted)| {
            let mut r = FlowRequest::new(rate * 1e6, delta).expect("valid request");
            if floor > 0.05 {
                r = r.with_min_quality(floor);
            }
            if budgeted {
                r = r.with_cost_budget(2.0);
            }
            r
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        proptest::prelude::any::<u64>(),
        arb_request(),
        proptest::prelude::any::<usize>(),
        proptest::prelude::any::<u8>(),
        0usize..5,
        15.0f64..90.0,
    )
        .prop_map(|(tag, request, sel, mask, path, bw)| match tag % 10 {
            0..=4 => Op::Offer {
                request,
                region_sel: sel,
                mask,
            },
            5 | 6 => Op::Depart(sel),
            7 => Op::Link(path, LinkChange::SetBandwidth(bw * 1e6)),
            8 => Op::Link(path, LinkChange::Fail),
            _ => Op::Link(path, LinkChange::Recover),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random ticks through the service at 1 and 4 workers: every
    /// admitted plan matches its region's from-scratch reference after
    /// every tick, and both worker counts produce one event stream.
    #[test]
    fn service_matches_fresh_region_planners(
        script in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..6), 2..16),
    ) {
        let one = run(&script, 1);
        let four = run(&script, 4);
        prop_assert_eq!(one, four);
    }
}

/// The gridded dimension: a [`ServiceConfig::grid`] service whose regions
/// hold instant and windowed flows in one planner each.
///
/// Seeded scripts (seeds 1–12, 48 steps each, at 1 and at 4 workers)
/// mix `submit`, `submit_depart` and `submit_link` ticks with
/// `offer_windowed`, `depart_windowed` and `advance_to`, each of those
/// followed by an empty tick that collects the capacity event it may
/// report. The mirror follows every roster reordering of the engine:
/// batches (greedy fallback in deadline order), windowed offers at their
/// granted window, the horizon advance (straddlers first, in roster
/// order, then the instant flows at the new origin, priority then
/// admission order) and the re-settle of a link change (every flow
/// re-admitted in priority-then-admission order when the roster no
/// longer fits together). Where the service reports nothing — which
/// windowed flows a link change slid or dropped, which instant flows an
/// advance or a re-settle will shed — a fresh `SchedulePlanner` offered
/// the flows in the engine's order predicts it, and every reported shed
/// list is held to that prediction.
///
/// After every step each region's roster, offered in roster order to a
/// fresh `SchedulePlanner` on the region's grid (instant flows at
/// `SlotWindow::instant(origin)`), is scheduled whole, every instant
/// leg plan agrees with it to 1e-9, and so does the service's origin-slot
/// utilization (windowed flows included). `depart_windowed` refuses an
/// instant flow's id with `UnknownFlow`.
///
/// Reached over the twelve scripts at one worker count (the test prints
/// it under `--nocapture`): 298 ticks of typed submissions, 111
/// advances, 142 windowed offers (9 reserved, 21 rejected), 49 instant
/// flows shed by link changes and 10 by advances, 22 revived.
mod gridded {
    use super::common::assert_plans_close;
    use super::PATHS;
    use dmc_core::ScenarioPath;
    use dmc_fleet::{
        FleetConfig, FleetError, FleetService, FlowId, FlowRequest, ScheduleAdvance,
        ScheduleDecision, SchedulePlanner, ScheduleRequest, ServiceConfig, ServiceEvent,
        SlotWindow, TimeGrid,
    };
    use dmc_sim::LinkChange;
    use std::collections::BTreeMap;

    const SLOT_WIDTH: f64 = 0.5;
    const HORIZON: u64 = 4;

    /// SplitMix64, the scripts' only entropy.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// One flow of a region's roster, as the mirror knows it.
    #[derive(Debug, Clone)]
    struct Flow {
        /// The region-local id (the engine's offer-order counter).
        id: u64,
        /// The global id of an instant flow; `None` for a windowed one.
        seq: Option<u64>,
        /// The request, path indices region-local.
        request: FlowRequest,
        window: SlotWindow,
        buffer: f64,
    }

    /// A typed submission of a tick step.
    enum Op {
        Offer(usize, FlowRequest),
        Depart(u64),
        Link(usize, LinkChange),
    }

    #[derive(Default)]
    struct Reached {
        ticks: usize,
        advances: usize,
        windowed: usize,
        reserved: usize,
        rejected: usize,
        link_sheds: usize,
        advance_sheds: usize,
        revived: usize,
    }

    struct Mirror {
        regions: Vec<Vec<usize>>,
        bandwidth: Vec<f64>,
        failed: Vec<bool>,
        origin: u64,
        next_id: Vec<u64>,
        rosters: Vec<Vec<Flow>>,
        /// Shed instant flows, by global id.
        shed: BTreeMap<u64, Flow>,
        /// Global id → region of every instant flow offered.
        region_of: BTreeMap<u64, usize>,
        reached: Reached,
    }

    impl Mirror {
        fn region_paths(&self, region: usize) -> Vec<ScenarioPath> {
            let path = |&k: &usize| {
                let (_, delay, loss) = PATHS[k];
                let loss = if self.failed[k] { 1.0 } else { loss };
                ScenarioPath::constant(self.bandwidth[k], delay, loss).expect("valid path")
            };
            self.regions[region].iter().map(path).collect()
        }

        fn request(&self, flow: &Flow) -> ScheduleRequest {
            let window = match flow.seq {
                Some(_) => SlotWindow::instant(self.origin),
                None => flow.window,
            };
            ScheduleRequest::new(flow.request.clone(), window).with_buffer(flow.buffer)
        }

        /// A fresh planner on the region's grid, offered `flows` in order.
        fn fresh(&self, region: usize, flows: &[Flow]) -> (SchedulePlanner, Vec<ScheduleDecision>) {
            let grid = TimeGrid::new(SLOT_WIDTH, HORIZON as usize).expect("valid grid");
            let paths = self.region_paths(region);
            let mut fresh =
                SchedulePlanner::new(paths, grid, FleetConfig::default()).expect("valid paths");
            fresh.advance_to(self.origin).expect("empty advance");
            let decisions = flows
                .iter()
                .map(|f| fresh.offer(self.request(f)).expect("offer runs"))
                .collect();
            (fresh, decisions)
        }

        /// Re-admits `flows` one by one, as the engine does after an
        /// eviction: an instant flow that does not fit at the origin is
        /// shed (its global id returned), a windowed one slides or drops.
        fn readmit(&mut self, region: usize, mut flows: Vec<Flow>) -> Vec<u64> {
            flows.sort_by(|a, b| {
                let (pa, pb) = (a.request.priority(), b.request.priority());
                pb.total_cmp(&pa).then(a.id.cmp(&b.id))
            });
            let (mut oracle, _) = self.fresh(region, &self.rosters[region]);
            let mut shed = Vec::new();
            for mut flow in flows {
                let decision = oracle.offer(self.request(&flow)).expect("offer runs");
                match (flow.seq, &decision) {
                    (Some(_), ScheduleDecision::Scheduled { .. })
                    | (None, ScheduleDecision::Scheduled { .. }) => self.rosters[region].push(flow),
                    (None, ScheduleDecision::Reserved { window, .. }) => {
                        flow.window = *window;
                        self.rosters[region].push(flow);
                    }
                    (None, _) => {}
                    (Some(seq), _) => {
                        if decision.is_admitted() {
                            oracle.depart(decision.id()).expect("just reserved");
                        }
                        shed.push(seq);
                        self.shed.insert(seq, flow);
                    }
                }
            }
            shed
        }

        /// The displaced-flow routine after a capacity change: nothing
        /// moves while the roster still fits together.
        fn settle(&mut self, region: usize) -> Vec<u64> {
            let (_, decisions) = self.fresh(region, &self.rosters[region]);
            if decisions.iter().all(ScheduleDecision::is_scheduled) {
                return Vec::new();
            }
            let evicted = std::mem::take(&mut self.rosters[region]);
            self.readmit(region, evicted)
        }

        /// Applies a capacity event's revivals and rejections, after
        /// checking its shed list against the prediction.
        fn capacity(&mut self, event: &ServiceEvent, predicted: &mut BTreeMap<usize, Vec<u64>>) {
            let ServiceEvent::Capacity {
                shed,
                revived,
                rejected,
                ..
            } = event
            else {
                return;
            };
            let region = shed
                .iter()
                .chain(revived)
                .chain(rejected)
                .map(|seq| self.region_of[seq])
                .next();
            let want = region
                .and_then(|r| predicted.remove(&r))
                .unwrap_or_default();
            assert_eq!(shed, &want, "shed list vs the fresh planner's verdicts");
            for seq in revived {
                let mut flow = self.shed.remove(seq).expect("revived from the queue");
                flow.window = SlotWindow::instant(self.origin);
                self.rosters[self.region_of[seq]].push(flow);
                self.reached.revived += 1;
            }
            for seq in rejected {
                self.shed.remove(seq).expect("rejected from the queue");
            }
        }

        fn instant_ids(&self) -> Vec<u64> {
            let admitted = self.rosters.iter().flatten().filter_map(|f| f.seq);
            admitted.chain(self.shed.keys().copied()).collect()
        }

        /// One tick of typed submissions.
        fn tick(&mut self, service: &mut FleetService, ops: Vec<Op>) {
            // Per seq: the offer batch it opens, or the link change it is.
            let mut batches: BTreeMap<u64, (usize, Vec<(u64, FlowRequest)>)> = BTreeMap::new();
            let mut links: BTreeMap<u64, (usize, LinkChange)> = BTreeMap::new();
            let mut open: Vec<Option<u64>> = vec![None; self.regions.len()];
            for op in ops {
                match op {
                    Op::Offer(region, local) => {
                        let global = local.paths().expect("pinned").iter();
                        let global = global.map(|&i| self.regions[region][i]).collect();
                        let seq = service
                            .submit(local.clone().with_paths(global))
                            .expect("valid offer");
                        self.region_of.insert(seq, region);
                        let first = *open[region].get_or_insert(seq);
                        let batch = batches.entry(first).or_insert((region, Vec::new()));
                        batch.1.push((seq, local));
                    }
                    Op::Depart(flow) => {
                        service.submit_depart(flow);
                        open[self.region_of[&flow]] = None;
                    }
                    Op::Link(path, change) => {
                        let seq = service.submit_link(path, change.clone()).expect("valid");
                        let region = self.regions.iter().position(|r| r.contains(&path));
                        let region = region.expect("every path has a region");
                        open[region] = None;
                        links.insert(seq, (path, change));
                    }
                }
            }
            let events = service.tick().expect("tick succeeds");
            self.reached.ticks += 1;
            let verdicts: BTreeMap<u64, bool> = events
                .iter()
                .filter_map(|e| match e {
                    ServiceEvent::Decision { seq, admitted, .. } => Some((*seq, *admitted)),
                    _ => None,
                })
                .collect();
            let mut predicted = BTreeMap::new();
            for event in &events {
                if let Some((region, batch)) = batches.remove(&event.seq()) {
                    let mut admitted = Vec::new();
                    for (seq, request) in batch.iter().cloned() {
                        let id = self.next_id[region];
                        self.next_id[region] += 1;
                        let flow = Flow {
                            id,
                            seq: Some(seq),
                            request,
                            window: SlotWindow::instant(self.origin),
                            buffer: 0.0,
                        };
                        if verdicts[&seq] {
                            admitted.push(flow);
                        }
                    }
                    if admitted.len() < batch.len() && batch.len() > 1 {
                        let lifetime = |f: &Flow| f.request.lifetime();
                        admitted.sort_by(|a, b| lifetime(a).total_cmp(&lifetime(b)));
                    }
                    self.rosters[region].extend(admitted);
                }
                if let ServiceEvent::Capacity { seq, .. } = event {
                    if let Some((path, change)) = links.remove(seq) {
                        match change {
                            LinkChange::SetBandwidth(bps) => self.bandwidth[path] = bps,
                            LinkChange::Fail => self.failed[path] = true,
                            LinkChange::Recover => self.failed[path] = false,
                            LinkChange::SetLoss(_) => unreachable!("not scripted"),
                        }
                        let region = self.regions.iter().position(|r| r.contains(&path));
                        let region = region.expect("every path has a region");
                        let shed = self.settle(region);
                        self.reached.link_sheds += shed.len();
                        predicted.insert(region, shed);
                    }
                }
                match event {
                    ServiceEvent::Departed {
                        flow, found: true, ..
                    } => {
                        let region = self.region_of[flow];
                        self.rosters[region].retain(|f| f.seq != Some(*flow));
                        self.shed.remove(flow);
                    }
                    ServiceEvent::Capacity { .. } => self.capacity(event, &mut predicted),
                    _ => {}
                }
            }
            assert!(predicted.values().all(Vec::is_empty), "unreported sheds");
        }

        /// An empty tick: the capacity events a windowed verb or an
        /// advance reported, checked against `predicted` sheds.
        fn collect(
            &mut self,
            service: &mut FleetService,
            mut predicted: BTreeMap<usize, Vec<u64>>,
        ) {
            for event in service.tick().expect("tick succeeds") {
                assert!(matches!(event, ServiceEvent::Capacity { .. }), "{event:?}");
                self.capacity(&event, &mut predicted);
            }
            assert!(predicted.values().all(Vec::is_empty), "unreported sheds");
        }

        fn offer_windowed(&mut self, service: &mut FleetService, region: usize, flow: Flow) {
            let global = flow.request.paths().expect("pinned").iter();
            let global = global.map(|&i| self.regions[region][i]).collect();
            let request =
                ScheduleRequest::new(flow.request.clone().with_paths(global), flow.window)
                    .with_buffer(flow.buffer);
            let (at, decision) = service.offer_windowed(request).expect("offer runs");
            assert_eq!(at, region);
            assert_eq!(decision.id(), FlowId::from_index(flow.id));
            self.next_id[region] += 1;
            self.reached.windowed += 1;
            match &decision {
                ScheduleDecision::Scheduled { .. } => self.rosters[region].push(flow),
                ScheduleDecision::Reserved { window, .. } => {
                    self.reached.reserved += 1;
                    self.rosters[region].push(Flow {
                        window: *window,
                        ..flow
                    });
                }
                ScheduleDecision::Rejected { .. } => self.reached.rejected += 1,
            }
            if let Some(quality) = decision.predicted_quality() {
                let (fresh, _) = self.fresh(region, &self.rosters[region]);
                let id = FlowId::from_index(self.rosters[region].len() as u64 - 1);
                let want = fresh.plan_of(id).expect("scheduled").quality();
                assert!((quality - want).abs() <= 1e-9, "{quality} vs {want}");
            }
        }

        fn advance(&mut self, service: &mut FleetService, origin: u64) {
            let advances: Vec<ScheduleAdvance> = service.advance_to(origin).expect("advance runs");
            self.origin = origin;
            self.reached.advances += 1;
            let mut predicted = BTreeMap::new();
            for (region, adv) in advances.iter().enumerate() {
                let roster = std::mem::take(&mut self.rosters[region]);
                let (begun, kept): (Vec<Flow>, Vec<Flow>) =
                    roster.into_iter().partition(|f| f.window.start() < origin);
                self.rosters[region] = kept;
                let mut completed = Vec::new();
                let mut instant = Vec::new();
                for mut flow in begun {
                    let id = FlowId::from_index(flow.id);
                    if flow.seq.is_some() {
                        instant.push(flow);
                    } else if flow.window.end() <= origin {
                        completed.push(id);
                    } else if adv.truncated.contains(&id) {
                        flow.window = SlotWindow::new(origin, flow.window.end()).expect("valid");
                        self.rosters[region].push(flow);
                    } else if let Some(&(_, window)) = adv.rescheduled.iter().find(|r| r.0 == id) {
                        flow.window = window;
                        self.rosters[region].push(flow);
                    } else {
                        assert!(adv.dropped.contains(&id), "{id} vanished");
                    }
                }
                assert_eq!(adv.completed, completed);
                let mut shed = self.readmit(region, instant);
                shed.extend(self.settle(region));
                self.reached.advance_sheds += shed.len();
                predicted.insert(region, shed);
            }
            self.collect(service, predicted);
        }

        /// Holds every region to its fresh reference.
        fn check(&self, service: &FleetService, ctx: &str) {
            let instant: usize = self
                .rosters
                .iter()
                .flatten()
                .filter(|f| f.seq.is_some())
                .count();
            assert_eq!(service.num_admitted_legs(), instant, "{ctx}: instant legs");
            let windowed: Vec<usize> = self
                .rosters
                .iter()
                .map(|r| r.iter().filter(|f| f.seq.is_none()).count())
                .collect();
            assert_eq!(service.windowed_flows(), windowed, "{ctx}: windowed flows");
            let util = service.utilization();
            for (region, roster) in self.rosters.iter().enumerate() {
                let (fresh, decisions) = self.fresh(region, roster);
                for (flow, decision) in roster.iter().zip(&decisions) {
                    assert!(
                        decision.is_scheduled(),
                        "{ctx}: region {region} refuses {flow:?}"
                    );
                    let Some(seq) = flow.seq else { continue };
                    let legs = service.leg_plans(seq);
                    assert_eq!(legs.len(), 1, "{ctx}: flow {seq} has one leg");
                    let want = fresh.plan_of(decision.id()).expect("scheduled");
                    assert_plans_close(legs[0], want, &format!("{ctx}, flow {seq}"));
                }
                let origin_slot = &fresh.utilization()[0];
                for (&k, want) in self.regions[region].iter().zip(origin_slot) {
                    assert!(util[k] <= 1.0 + 1e-9, "{ctx}: path {k} at {}", util[k]);
                    assert!(
                        (util[k] - want).abs() <= 1e-9,
                        "{ctx}: path {k}: {} vs {want}",
                        util[k]
                    );
                }
            }
        }
    }

    /// A seeded request on a mask-selected subset of `region`'s paths.
    fn request(rng: &mut Rng, n_paths: usize) -> FlowRequest {
        let mut r = FlowRequest::new(rng.range(4e6, 30e6), rng.range(0.4, 1.5)).expect("valid");
        if rng.below(3) > 0 {
            r = r.with_min_quality(rng.range(0.3, 0.9));
        }
        if rng.below(4) == 0 {
            r = r.with_cost_budget(2.0);
        }
        let mask = rng.below((1 << n_paths) - 1) + 1;
        r.with_paths((0..n_paths).filter(|i| mask & (1 << i) != 0).collect())
    }

    /// Runs seed `seed`'s script at `workers` workers; returns the
    /// decision hash and what the script reached.
    fn run(seed: u64, workers: usize) -> (u64, Reached) {
        let paths = PATHS
            .iter()
            .map(|&(bw, delay, loss)| ScenarioPath::constant(bw, delay, loss).expect("valid"))
            .collect();
        let config = ServiceConfig {
            workers,
            fleet: FleetConfig::default(),
            grid: Some(TimeGrid::new(SLOT_WIDTH, HORIZON as usize).expect("valid grid")),
        };
        let mut service =
            FleetService::new(paths, &super::groups(), config).expect("valid service");
        let map = service.region_map();
        let regions: Vec<Vec<usize>> = (0..map.num_regions())
            .map(|r| map.region_paths(r).to_vec())
            .collect();
        let mut mirror = Mirror {
            next_id: vec![0; regions.len()],
            rosters: vec![Vec::new(); regions.len()],
            regions,
            bandwidth: PATHS.iter().map(|p| p.0).collect(),
            failed: vec![false; PATHS.len()],
            origin: 0,
            shed: BTreeMap::new(),
            region_of: BTreeMap::new(),
            reached: Reached::default(),
        };
        let mut rng = Rng(seed);
        for step in 0..48 {
            let region = rng.below(mirror.regions.len() as u64) as usize;
            let n_paths = mirror.regions[region].len();
            match rng.below(20) {
                0..=9 => {
                    let mut ops = Vec::new();
                    for _ in 0..1 + rng.below(5) {
                        let region = rng.below(mirror.regions.len() as u64) as usize;
                        let known = mirror.instant_ids();
                        ops.push(match rng.below(20) {
                            0..=10 => {
                                Op::Offer(region, request(&mut rng, mirror.regions[region].len()))
                            }
                            11..=14 if !known.is_empty() => {
                                Op::Depart(known[rng.below(known.len() as u64) as usize])
                            }
                            15 => {
                                Op::Link(rng.below(PATHS.len() as u64) as usize, LinkChange::Fail)
                            }
                            16 => Op::Link(
                                rng.below(PATHS.len() as u64) as usize,
                                LinkChange::Recover,
                            ),
                            _ => Op::Link(
                                rng.below(PATHS.len() as u64) as usize,
                                LinkChange::SetBandwidth(rng.range(15e6, 90e6)),
                            ),
                        });
                    }
                    mirror.tick(&mut service, ops);
                }
                10..=14 => {
                    // Half of them ask for the origin slot, beside the
                    // instant flows.
                    let start = mirror.origin + rng.below(HORIZON).saturating_sub(rng.below(2) * 3);
                    let room = mirror.origin + HORIZON - start;
                    let window = SlotWindow::new(start, start + 1 + rng.below(room.min(3)))
                        .expect("valid window");
                    let flow = Flow {
                        id: mirror.next_id[region],
                        seq: None,
                        request: request(&mut rng, n_paths),
                        window,
                        buffer: if rng.below(3) == 0 { 0.5 } else { 0.0 },
                    };
                    mirror.offer_windowed(&mut service, region, flow);
                    mirror.collect(&mut service, BTreeMap::new());
                }
                15 => {
                    let roster = &mirror.rosters[region];
                    let windowed: Vec<u64> = roster
                        .iter()
                        .filter(|f| f.seq.is_none())
                        .map(|f| f.id)
                        .collect();
                    if let Some(&id) =
                        windowed.get(rng.below(windowed.len().max(1) as u64) as usize)
                    {
                        service
                            .depart_windowed(region, FlowId::from_index(id))
                            .expect("a windowed flow departs");
                        mirror.rosters[region].retain(|f| f.id != id);
                        mirror.collect(&mut service, BTreeMap::new());
                    }
                    let instant = mirror.rosters[region].iter().find(|f| f.seq.is_some());
                    if let Some(flow) = instant {
                        let refused = service.depart_windowed(region, FlowId::from_index(flow.id));
                        assert!(matches!(refused, Err(FleetError::UnknownFlow(_))));
                    }
                }
                _ => {
                    let origin = mirror.origin + 1 + rng.below(2);
                    mirror.advance(&mut service, origin);
                }
            }
            mirror.check(
                &service,
                &format!("seed {seed}, {workers} worker(s), step {step}"),
            );
        }
        (service.decision_hash(), mirror.reached)
    }

    #[test]
    fn gridded_service_matches_fresh_region_schedules() {
        let mut total = Reached::default();
        for seed in 1..=12 {
            let (one, reached) = run(seed, 1);
            let (four, _) = run(seed, 4);
            assert_eq!(one, four, "seed {seed}: worker counts diverge");
            total.ticks += reached.ticks;
            total.advances += reached.advances;
            total.windowed += reached.windowed;
            total.reserved += reached.reserved;
            total.rejected += reached.rejected;
            total.link_sheds += reached.link_sheds;
            total.advance_sheds += reached.advance_sheds;
            total.revived += reached.revived;
        }
        let t = &total;
        eprintln!(
            "reached: {} ticks, {} advances, {} windowed offers ({} reserved, {} rejected), \
             {} link sheds, {} advance sheds, {} revived",
            t.ticks,
            t.advances,
            t.windowed,
            t.reserved,
            t.rejected,
            t.link_sheds,
            t.advance_sheds,
            t.revived
        );
        assert!(t.reserved > 0 && t.link_sheds > 0 && t.advance_sheds > 0 && t.revived > 0);
    }
}
