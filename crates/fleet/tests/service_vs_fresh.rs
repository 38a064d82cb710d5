//! Stateful test of the sharded service against from-scratch
//! references: seeded random ticks of offers, departures and link
//! changes through a `FleetService` (single-region flows, equal
//! priorities, at 1 and at 4 workers). After every tick each admitted
//! flow's leg plan must agree, bit for bit, with its plan in a fresh
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

use common::{assert_bitwise, fresh_fleet};
use dmc_core::ScenarioPath;
use dmc_fleet::{FleetConfig, FleetService, FlowRequest, ServiceConfig, ServiceEvent};
use dmc_obs::fnv1a;
use dmc_sim::LinkChange;
use dmc_stats::rng::{run_cases, SplitMix64};
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
                assert_bitwise(
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

fn arb_op(rng: &mut SplitMix64) -> Op {
    let tag = rng.next_u64();
    let request = arb_request(rng);
    let sel = rng.next_u64() as usize;
    let mask = rng.next_u64() as u8;
    let path = rng.int(0usize..5);
    let bw = rng.f64(15.0..90.0);
    match tag % 10 {
        0..=4 => Op::Offer {
            request,
            region_sel: sel,
            mask,
        },
        5 | 6 => Op::Depart(sel),
        7 => Op::Link(path, LinkChange::SetBandwidth(bw * 1e6)),
        8 => Op::Link(path, LinkChange::Fail),
        _ => Op::Link(path, LinkChange::Recover),
    }
}

/// Random ticks through the service at 1 and 4 workers: every
/// admitted plan matches its region's from-scratch reference after
/// every tick, and both worker counts produce one event stream.
#[test]
fn service_matches_fresh_region_planners() {
    run_cases(fnv1a(b"service_matches_fresh_region_planners"), 24, |rng| {
        let script = (0..rng.int(2usize..16))
            .map(|_| {
                (0..rng.int(1usize..6))
                    .map(|_| arb_op(rng))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        let one = run(&script, 1);
        let four = run(&script, 4);
        assert_eq!(one, four);
    });
}

/// The gridded dimension: a [`ServiceConfig::grid`] service whose regions
/// hold instant and windowed flows in one planner each.
///
/// Seeded scripts (seeds 1–12 of two step mixes, 48 steps each, at 1
/// and at 4 workers) mix `submit`, `submit_depart` and `submit_link` ticks with
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
/// The mirror keeps each region's shed queue itself and runs its revive
/// sweep at every capacity event the engine runs one at: a link change
/// and an advance (after the re-settle, before the newly shed join), a
/// `depart_batch` that freed an admitted flow, a windowed departure.
/// The sweep tries the flows highest priority first (region-local id
/// within ties), skips those sitting out their back-off, and revives,
/// backs off or rejects each on a fresh planner's verdict; every
/// capacity event's revived and rejected lists are held to it, and an
/// event the sweep predicts must not be missing.
///
/// After every step each region's roster, offered in roster order to a
/// fresh `SchedulePlanner` on the region's grid (instant flows at
/// `SlotWindow::instant(origin)`), is scheduled whole, every instant
/// leg plan agrees with it bit for bit, and the service's origin-slot
/// utilization (windowed flows included) to 1e-9. `depart_windowed` refuses an
/// instant flow's id with `UnknownFlow`.
///
/// Reached over the 24 scripts at one worker count (the test prints it
/// under `--nocapture`): 525 ticks of typed submissions, 199 advances,
/// 254 windowed offers (16 reserved, 28 rejected), 288 instant
/// departures, 63 windowed departures (10 with shed flows queued in
/// their region, 2 revivals there), 78 instant flows shed by link
/// changes and 13 by advances, 32 revived, 1 rejected from the queue.
/// A windowed departure that skips its sweep fails the scripts.
mod gridded {
    use super::common::assert_bitwise;
    use super::PATHS;
    use dmc_core::ScenarioPath;
    use dmc_fleet::{
        FleetConfig, FleetError, FleetPlanner, FleetService, FlowId, FlowRequest, ScheduleAdvance,
        ScheduleDecision, SchedulePlanner, ScheduleRequest, ServiceConfig, ServiceEvent,
        SlotWindow, TimeGrid,
    };
    use dmc_sim::LinkChange;
    use dmc_stats::rng::SplitMix64;
    use std::collections::BTreeMap;

    const SLOT_WIDTH: f64 = 0.5;
    const HORIZON: u64 = 4;

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

    /// A shed instant flow in its region's queue.
    struct Shed {
        flow: Flow,
        /// Failed re-admission attempts so far.
        attempts: u32,
        /// Capacity events to sit out before the next attempt.
        skip: u32,
    }

    /// A typed submission of a tick step.
    enum Op {
        Offer(usize, FlowRequest),
        Depart(u64),
        Link(usize, LinkChange),
    }

    /// A region's share of a tick, as its shard runs it: consecutive
    /// offers are one batch, consecutive departures one `depart_batch`.
    #[derive(Clone)]
    enum Run {
        Offers(Vec<(u64, FlowRequest)>),
        Departs(Vec<u64>),
        Link(u64, usize, LinkChange),
    }

    /// What one capacity event of a region must report, by global id.
    #[derive(Debug, Default, PartialEq)]
    struct Expected {
        shed: Vec<u64>,
        revived: Vec<u64>,
        rejected: Vec<u64>,
    }

    impl Expected {
        fn is_empty(&self) -> bool {
            self.shed.is_empty() && self.revived.is_empty() && self.rejected.is_empty()
        }
    }

    #[derive(Default)]
    struct Reached {
        ticks: usize,
        advances: usize,
        windowed: usize,
        reserved: usize,
        rejected: usize,
        departs: usize,
        windowed_departs: usize,
        /// Windowed departures that found their region's queue non-empty.
        windowed_departs_with_shed: usize,
        link_sheds: usize,
        advance_sheds: usize,
        revived: usize,
        /// Revivals a windowed departure's sweep made.
        windowed_revived: usize,
        shed_rejected: usize,
    }

    struct Mirror {
        regions: Vec<Vec<usize>>,
        bandwidth: Vec<f64>,
        failed: Vec<bool>,
        origin: u64,
        next_id: Vec<u64>,
        rosters: Vec<Vec<Flow>>,
        /// Shed instant flows, by global id.
        shed: BTreeMap<u64, Shed>,
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
        /// displaced (returned with its global id, for the queue), a
        /// windowed one slides or drops.
        fn readmit(&mut self, region: usize, mut flows: Vec<Flow>) -> Vec<(u64, Flow)> {
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
                        shed.push((seq, flow));
                    }
                }
            }
            shed
        }

        /// The displaced-flow routine after a capacity change: nothing
        /// moves while the roster still fits together.
        fn settle(&mut self, region: usize) -> Vec<(u64, Flow)> {
            let (_, decisions) = self.fresh(region, &self.rosters[region]);
            if decisions.iter().all(ScheduleDecision::is_scheduled) {
                return Vec::new();
            }
            let evicted = std::mem::take(&mut self.rosters[region]);
            self.readmit(region, evicted)
        }

        /// One sweep of `region`'s shed queue, as every capacity event
        /// runs it: highest priority first (region-local id within
        /// ties), each flow not sitting out tried at the origin beside
        /// the roster. A refused flow sits out `2^attempts − 1` events;
        /// the last allowed refusal rejects it for good. Returns the
        /// revived and the rejected, in sweep order.
        fn sweep(&mut self, region: usize) -> (Vec<u64>, Vec<u64>) {
            let mut queue: Vec<u64> = self.shed.keys().copied().collect();
            queue.retain(|seq| self.region_of[seq] == region);
            queue.sort_by(|a, b| {
                let (fa, fb) = (&self.shed[a].flow, &self.shed[b].flow);
                let (pa, pb) = (fa.request.priority(), fb.request.priority());
                pb.total_cmp(&pa).then(fa.id.cmp(&fb.id))
            });
            let (mut oracle, _) = self.fresh(region, &self.rosters[region]);
            let (mut revived, mut rejected) = (Vec::new(), Vec::new());
            for seq in queue {
                if self.shed[&seq].skip > 0 {
                    self.shed.get_mut(&seq).expect("queued").skip -= 1;
                    continue;
                }
                let request = self.request(&self.shed[&seq].flow);
                let decision = oracle.offer(request).expect("offer runs");
                if decision.is_scheduled() {
                    let mut flow = self.shed.remove(&seq).expect("queued").flow;
                    flow.window = SlotWindow::instant(self.origin);
                    self.rosters[region].push(flow);
                    revived.push(seq);
                    continue;
                }
                if decision.is_admitted() {
                    oracle.depart(decision.id()).expect("just reserved");
                }
                let entry = self.shed.get_mut(&seq).expect("queued");
                entry.attempts += 1;
                if entry.attempts >= FleetPlanner::MAX_SHED_ATTEMPTS {
                    self.shed.remove(&seq);
                    rejected.push(seq);
                } else {
                    entry.skip = (1 << entry.attempts) - 1;
                }
            }
            (revived, rejected)
        }

        /// A capacity change in `region` (a link change, an advance):
        /// the displaced-flow routine, one sweep of the queue as it
        /// stood, and only then the displaced join the queue.
        fn capacity_change(&mut self, region: usize, mut displaced: Vec<(u64, Flow)>) -> Expected {
            displaced.extend(self.settle(region));
            let (revived, rejected) = self.sweep(region);
            let shed = displaced.iter().map(|&(seq, _)| seq).collect();
            for (seq, flow) in displaced {
                let entry = Shed {
                    flow,
                    attempts: 0,
                    skip: 0,
                };
                self.shed.insert(seq, entry);
            }
            Expected {
                shed,
                revived,
                rejected,
            }
        }

        /// Holds a capacity event, or its absence, to `want`. A link
        /// change reports one `always`; other events only when they
        /// shed, revive or reject something.
        fn expect(&mut self, event: Option<&ServiceEvent>, want: Expected, always: bool) {
            match event {
                Some(ServiceEvent::Capacity {
                    shed,
                    revived,
                    rejected,
                    ..
                }) => {
                    let got = Expected {
                        shed: shed.clone(),
                        revived: revived.clone(),
                        rejected: rejected.clone(),
                    };
                    assert_eq!(got, want, "capacity event vs the reference sweep");
                }
                Some(other) => panic!("{other:?} where a capacity event was due"),
                None => assert!(
                    want.is_empty() && !always,
                    "no capacity event where {want:?} was due"
                ),
            }
            self.reached.revived += want.revived.len();
            self.reached.shed_rejected += want.rejected.len();
        }

        fn instant_ids(&self) -> Vec<u64> {
            let admitted = self.rosters.iter().flatten().filter_map(|f| f.seq);
            admitted.chain(self.shed.keys().copied()).collect()
        }

        /// One tick of typed submissions, replayed region by region in
        /// the order each shard runs them.
        fn tick(&mut self, service: &mut FleetService, ops: Vec<Op>) {
            let mut queues: Vec<Vec<Run>> = vec![Vec::new(); self.regions.len()];
            for op in ops {
                match op {
                    Op::Offer(region, local) => {
                        let global = local.paths().expect("pinned").iter();
                        let global = global.map(|&i| self.regions[region][i]).collect();
                        let seq = service
                            .submit(local.clone().with_paths(global))
                            .expect("valid offer");
                        self.region_of.insert(seq, region);
                        match queues[region].last_mut() {
                            Some(Run::Offers(batch)) => batch.push((seq, local)),
                            _ => queues[region].push(Run::Offers(vec![(seq, local)])),
                        }
                    }
                    Op::Depart(flow) => {
                        let seq = service.submit_depart(flow);
                        let region = self.region_of[&flow];
                        match queues[region].last_mut() {
                            Some(Run::Departs(batch)) => batch.push(seq),
                            _ => queues[region].push(Run::Departs(vec![seq])),
                        }
                    }
                    Op::Link(path, change) => {
                        let seq = service.submit_link(path, change.clone()).expect("valid");
                        let region = self.regions.iter().position(|r| r.contains(&path));
                        let region = region.expect("every path has a region");
                        queues[region].push(Run::Link(seq, path, change));
                    }
                }
            }
            let events = service.tick().expect("tick succeeds");
            self.reached.ticks += 1;
            let (mut verdicts, mut departed, mut capacity) =
                (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
            for event in &events {
                match *event {
                    ServiceEvent::Decision { seq, admitted, .. } => {
                        verdicts.insert(seq, admitted);
                    }
                    ServiceEvent::Departed { seq, flow, found } => {
                        departed.insert(seq, (flow, found));
                    }
                    ServiceEvent::Capacity { seq, .. } => {
                        capacity.insert(seq, event);
                    }
                    _ => panic!("unexpected {event:?}"),
                }
            }
            for (region, runs) in queues.into_iter().enumerate() {
                for run in runs {
                    match run {
                        Run::Offers(batch) => self.admit_batch(region, &batch, &verdicts),
                        Run::Departs(seqs) => {
                            // One `depart_batch`: it sweeps the queue once
                            // when it freed an admitted flow's capacity.
                            let (mut freed, mut last) = (false, None);
                            for seq in seqs {
                                let (flow, found) = departed[&seq];
                                if !found {
                                    continue;
                                }
                                last = Some(seq);
                                self.reached.departs += 1;
                                let roster = &mut self.rosters[region];
                                let before = roster.len();
                                roster.retain(|f| f.seq != Some(flow));
                                if roster.len() < before {
                                    freed = true;
                                } else {
                                    self.shed.remove(&flow).expect("admitted or queued");
                                }
                            }
                            if freed {
                                let (revived, rejected) = self.sweep(region);
                                let want = Expected {
                                    shed: Vec::new(),
                                    revived,
                                    rejected,
                                };
                                let event = capacity.remove(&last.expect("a departure freed"));
                                self.expect(event, want, false);
                            }
                        }
                        Run::Link(seq, path, change) => {
                            match change {
                                LinkChange::SetBandwidth(bps) => self.bandwidth[path] = bps,
                                LinkChange::Fail => self.failed[path] = true,
                                LinkChange::Recover => self.failed[path] = false,
                                LinkChange::SetLoss(_) => unreachable!("not scripted"),
                            }
                            let want = self.capacity_change(region, Vec::new());
                            self.reached.link_sheds += want.shed.len();
                            self.expect(capacity.remove(&seq), want, true);
                        }
                    }
                }
            }
            assert!(
                capacity.is_empty(),
                "unexpected capacity events: {capacity:?}"
            );
        }

        /// A batch of instant offers: the admitted join the roster, in
        /// deadline order when the batch fell back to one by one.
        fn admit_batch(
            &mut self,
            region: usize,
            batch: &[(u64, FlowRequest)],
            verdicts: &BTreeMap<u64, bool>,
        ) {
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

        /// An empty tick: the capacity events a windowed verb or an
        /// advance reported, one per region in region order, held to
        /// `expected` (indexed by region; empty for none anywhere).
        fn collect(&mut self, service: &mut FleetService, expected: Vec<Expected>) {
            let mut events = service.tick().expect("tick succeeds").into_iter();
            for want in expected {
                let event = if want.is_empty() { None } else { events.next() };
                self.expect(event.as_ref(), want, false);
            }
            let rest: Vec<ServiceEvent> = events.collect();
            assert!(rest.is_empty(), "unexpected events: {rest:?}");
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
            let mut expected = Vec::new();
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
                let displaced = self.readmit(region, instant);
                let want = self.capacity_change(region, displaced);
                self.reached.advance_sheds += want.shed.len();
                expected.push(want);
            }
            self.collect(service, expected);
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
                    assert_bitwise(legs[0], want, &format!("{ctx}, flow {seq}"));
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
    fn request(rng: &mut SplitMix64, n_paths: usize) -> FlowRequest {
        let mut r = FlowRequest::new(rng.f64(4e6..30e6), rng.f64(0.4..1.5)).expect("valid");
        if rng.int(0u64..3) > 0 {
            r = r.with_min_quality(rng.f64(0.3..0.9));
        }
        if rng.int(0u64..4) == 0 {
            r = r.with_cost_budget(2.0);
        }
        let mask = rng.int(0u64..(1 << n_paths) - 1) + 1;
        r.with_paths((0..n_paths).filter(|i| mask & (1 << i) != 0).collect())
    }

    /// The kinds of script step.
    enum Step {
        Tick,
        WindowedOffer,
        WindowedDepart,
        Advance,
    }

    /// A script's mix of steps.
    #[derive(Clone, Copy)]
    enum Mix {
        /// Ticks half the time, a windowed departure one step in 20.
        Ticks,
        /// A windowed departure one step in four, so that many find shed
        /// instant flows queued in their region.
        Departures,
    }

    impl Mix {
        fn step(self, rng: &mut SplitMix64) -> Step {
            match (self, rng.int(0u64..20)) {
                (Mix::Ticks, 0..=9) | (Mix::Departures, 0..=7) => Step::Tick,
                (Mix::Ticks, 10..=14) | (Mix::Departures, 8..=11) => Step::WindowedOffer,
                (Mix::Ticks, 15) | (Mix::Departures, 12..=16) => Step::WindowedDepart,
                _ => Step::Advance,
            }
        }
    }

    /// Runs seed `seed`'s script of `mix` at `workers` workers; returns
    /// the decision hash and what the script reached.
    fn run(seed: u64, workers: usize, mix: Mix) -> (u64, Reached) {
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
        let mut rng = SplitMix64::new(seed);
        for step in 0..48 {
            let region = rng.int(0u64..mirror.regions.len() as u64) as usize;
            let n_paths = mirror.regions[region].len();
            match mix.step(&mut rng) {
                Step::Tick => {
                    let mut ops = Vec::new();
                    for _ in 0..1 + rng.int(0u64..5) {
                        let region = rng.int(0u64..mirror.regions.len() as u64) as usize;
                        let known = mirror.instant_ids();
                        ops.push(match rng.int(0u64..20) {
                            0..=10 => {
                                Op::Offer(region, request(&mut rng, mirror.regions[region].len()))
                            }
                            11..=14 if !known.is_empty() => {
                                Op::Depart(known[rng.int(0u64..known.len() as u64) as usize])
                            }
                            15 => Op::Link(
                                rng.int(0u64..PATHS.len() as u64) as usize,
                                LinkChange::Fail,
                            ),
                            16 => Op::Link(
                                rng.int(0u64..PATHS.len() as u64) as usize,
                                LinkChange::Recover,
                            ),
                            _ => Op::Link(
                                rng.int(0u64..PATHS.len() as u64) as usize,
                                LinkChange::SetBandwidth(rng.f64(15e6..90e6)),
                            ),
                        });
                    }
                    mirror.tick(&mut service, ops);
                }
                Step::WindowedOffer => {
                    // Half of them ask for the origin slot, beside the
                    // instant flows.
                    let start =
                        mirror.origin + rng.int(0u64..HORIZON).saturating_sub(rng.int(0u64..2) * 3);
                    let room = mirror.origin + HORIZON - start;
                    let window = SlotWindow::new(start, start + 1 + rng.int(0u64..room.min(3)))
                        .expect("valid window");
                    let flow = Flow {
                        id: mirror.next_id[region],
                        seq: None,
                        request: request(&mut rng, n_paths),
                        window,
                        buffer: if rng.int(0u64..3) == 0 { 0.5 } else { 0.0 },
                    };
                    mirror.offer_windowed(&mut service, region, flow);
                    mirror.collect(&mut service, Vec::new());
                }
                Step::WindowedDepart => {
                    let roster = &mirror.rosters[region];
                    let windowed: Vec<u64> = roster
                        .iter()
                        .filter(|f| f.seq.is_none())
                        .map(|f| f.id)
                        .collect();
                    if let Some(&id) =
                        windowed.get(rng.int(0u64..windowed.len().max(1) as u64) as usize)
                    {
                        service
                            .depart_windowed(region, FlowId::from_index(id))
                            .expect("a windowed flow departs");
                        mirror.rosters[region].retain(|f| f.id != id);
                        // The freed capacity is a capacity event: one sweep.
                        let queued = mirror.shed.keys().any(|s| mirror.region_of[s] == region);
                        let (revived, rejected) = mirror.sweep(region);
                        let reached = &mut mirror.reached;
                        reached.windowed_departs += 1;
                        reached.windowed_departs_with_shed += usize::from(queued);
                        reached.windowed_revived += revived.len();
                        let mut expected: Vec<Expected> =
                            mirror.regions.iter().map(|_| Expected::default()).collect();
                        expected[region] = Expected {
                            shed: Vec::new(),
                            revived,
                            rejected,
                        };
                        mirror.collect(&mut service, expected);
                    }
                    let instant = mirror.rosters[region].iter().find(|f| f.seq.is_some());
                    if let Some(flow) = instant {
                        let refused = service.depart_windowed(region, FlowId::from_index(flow.id));
                        assert!(matches!(refused, Err(FleetError::UnknownFlow(_))));
                    }
                }
                Step::Advance => {
                    let origin = mirror.origin + 1 + rng.int(0u64..2);
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
        let mut t = Reached::default();
        for (seed, mix) in (1..=12)
            .map(|s| (s, Mix::Ticks))
            .chain((1..=12).map(|s| (s, Mix::Departures)))
        {
            let (one, r) = run(seed, 1, mix);
            let (four, _) = run(seed, 4, mix);
            assert_eq!(one, four, "seed {seed}: worker counts diverge");
            t.ticks += r.ticks;
            t.advances += r.advances;
            t.windowed += r.windowed;
            t.reserved += r.reserved;
            t.rejected += r.rejected;
            t.departs += r.departs;
            t.windowed_departs += r.windowed_departs;
            t.windowed_departs_with_shed += r.windowed_departs_with_shed;
            t.link_sheds += r.link_sheds;
            t.advance_sheds += r.advance_sheds;
            t.revived += r.revived;
            t.windowed_revived += r.windowed_revived;
            t.shed_rejected += r.shed_rejected;
        }
        eprintln!(
            "reached: {} ticks, {} advances, {} windowed offers ({} reserved, {} rejected), \
             {} instant departures, {} windowed departures ({} with a shed queue, \
             {} revivals there), {} link sheds, {} advance sheds, {} revived, \
             {} rejected from the queue",
            t.ticks,
            t.advances,
            t.windowed,
            t.reserved,
            t.rejected,
            t.departs,
            t.windowed_departs,
            t.windowed_departs_with_shed,
            t.windowed_revived,
            t.link_sheds,
            t.advance_sheds,
            t.revived,
            t.shed_rejected
        );
        assert!(t.reserved > 0 && t.link_sheds > 0 && t.advance_sheds > 0 && t.revived > 0);
        assert!(t.windowed_departs_with_shed > 0 && t.windowed_revived > 0);
    }
}
