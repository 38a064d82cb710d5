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
