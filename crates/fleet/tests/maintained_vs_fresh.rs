//! Differential testing of the fleet's maintained joint LP against a
//! from-scratch reference, over admission, rejection, departure (the
//! block cut out, the carried basis cut with it) and link-change
//! resettles.
//!
//! After every step of a script the reference is a fresh `FleetPlanner`
//! over the maintained fleet's `shared_paths()`, offered the residents'
//! requests in `flow_ids()` order as one batch
//! ([`common::fresh_fleet`]): the `Problem` the maintained LP would be
//! had it been assembled from scratch, solved cold. The maintained fleet
//! runs warm and cold. (The joint LP against the dense tableau oracle is
//! `joint.rs`'s own test, where the residents' assembly is in reach.)
//!
//! Contract:
//! * verdicts: the reference admits every resident, and refuses a
//!   refused offer — or a flow a link change shed — beside them;
//! * plans: after every step, churn included, the maintained LP *is*
//!   the reference's `Problem` (departed blocks are cut out, not kept),
//!   and the solver's answer is a function of the problem, so every
//!   resident's allocation, quality, cost and send rates match the
//!   reference's **bitwise**, warm and cold;
//! * warm and cold maintained fleets agree bitwise.

mod common;

use common::{assert_bitwise, fresh_fleet};
use dmc_core::{Plan, PlannerConfig, ScenarioPath};
use dmc_fleet::{FleetConfig, FleetPlanner, FlowId, FlowRequest};
use dmc_obs::fnv1a;
use dmc_sim::LinkChange;
use dmc_stats::rng::{run_cases, SplitMix64};
use std::collections::BTreeMap;

fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"),
        ScenarioPath::constant(30e6, 0.250, 0.05).expect("valid"),
    ]
}

fn config(warm: bool) -> FleetConfig {
    FleetConfig {
        planner: PlannerConfig {
            warm_start: warm,
            ..PlannerConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// One scripted fleet action.
#[derive(Debug, Clone)]
enum Action {
    Offer(FlowRequest),
    /// Depart the `k`-th currently admitted flow (mod the live count).
    Depart(usize),
    Link(usize, LinkChange),
}

/// The maintained fleet after one step, with what the reference needs.
struct Step {
    paths: Vec<ScenarioPath>,
    /// The residents' requests, in `flow_ids()` order.
    residents: Vec<FlowRequest>,
    /// Their plans, in the same order.
    plans: Vec<Plan>,
    aggregate: f64,
    /// Flows the step's verdicts say do not fit beside the residents: a
    /// refused offer, or the flows a link change shed.
    refused: Vec<FlowRequest>,
}

/// Replays a script on a maintained fleet and records every step.
fn replay(cfg: FleetConfig, script: &[Action]) -> Vec<Step> {
    let mut fleet = FleetPlanner::new(shared_paths(), cfg).expect("valid paths");
    let mut requests: BTreeMap<FlowId, FlowRequest> = BTreeMap::new();
    let mut steps = Vec::with_capacity(script.len());
    for action in script {
        let mut refused = Vec::new();
        match action {
            Action::Offer(req) => {
                let d = fleet.offer(req.clone()).expect("offer succeeds");
                if !d.is_admitted() {
                    refused.push(req.clone());
                }
                requests.insert(d.id(), req.clone());
            }
            Action::Depart(k) => {
                let ids = fleet.flow_ids();
                if !ids.is_empty() {
                    fleet.depart(ids[k % ids.len()]).expect("known id");
                }
            }
            Action::Link(path, change) => {
                let shed = fleet
                    .apply_link_change(*path, change)
                    .expect("valid change");
                refused.extend(shed.iter().map(|id| requests[id].clone()));
            }
        }
        let ids = fleet.flow_ids();
        steps.push(Step {
            paths: fleet.shared_paths().expect("valid paths"),
            residents: ids.iter().map(|id| requests[id].clone()).collect(),
            plans: ids
                .iter()
                .map(|&id| fleet.plan_of(id).expect("resident").clone())
                .collect(),
            aggregate: fleet.aggregate_quality(),
            refused,
        });
    }
    steps
}

/// Holds every recorded step to a fresh fleet run with `reference`.
fn assert_matches_fresh(steps: &[Step], reference: &FleetConfig, ctx: &str) {
    for (i, step) in steps.iter().enumerate() {
        let ctx = format!("{ctx}, step {i}");
        let batch = step.residents.clone();
        let (fresh, all_in) = fresh_fleet(step.paths.clone(), reference.clone(), batch);
        assert!(all_in, "{ctx}: the reference refuses a resident");
        for late in &step.refused {
            let mut batch = step.residents.clone();
            batch.push(late.clone());
            let (_, fits) = fresh_fleet(step.paths.clone(), reference.clone(), batch);
            assert!(!fits, "{ctx}: a refused flow fits beside the residents");
        }
        let fresh_plans = fresh.plans().map(|(_, p)| p);
        for (k, (mine, theirs)) in step.plans.iter().zip(fresh_plans).enumerate() {
            assert_bitwise(mine, theirs, &format!("{ctx}, resident {k}"));
        }
        let (a, b) = (step.aggregate, fresh.aggregate_quality());
        assert!((a - b).abs() <= 1e-6, "{ctx}: aggregate quality {a} vs {b}");
    }
}

/// Warm and cold replays of one script agree bit for bit.
fn assert_warm_is_cold(warm: &[Step], cold: &[Step]) {
    for (i, (w, c)) in warm.iter().zip(cold).enumerate() {
        assert_eq!(w.plans.len(), c.plans.len(), "step {i}: residents");
        assert_eq!(w.refused.len(), c.refused.len(), "step {i}: refusals");
        for (k, (a, b)) in w.plans.iter().zip(&c.plans).enumerate() {
            assert_bitwise(a, b, &format!("step {i}, resident {k}: warm vs cold"));
        }
    }
}

fn churn_script() -> Vec<Action> {
    vec![
        Action::Offer(FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.7)),
        Action::Offer(FlowRequest::new(20e6, 0.6).unwrap()),
        Action::Offer(
            FlowRequest::new(15e6, 1.0)
                .unwrap()
                .with_min_quality(0.5)
                .with_cost_budget(1.0),
        ),
        Action::Depart(0),
        Action::Offer(FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.7)), // after the cut
        Action::Offer(FlowRequest::new(90e6, 0.8).unwrap().with_min_quality(0.95)), // rejected
        Action::Depart(1),
        Action::Link(0, LinkChange::SetBandwidth(50e6)),
        Action::Offer(FlowRequest::new(10e6, 0.9).unwrap().with_transmissions(3)),
        Action::Link(2, LinkChange::Fail),
        Action::Link(2, LinkChange::Recover),
        Action::Offer(FlowRequest::new(12e6, 0.7).unwrap().with_min_quality(0.4)),
    ]
}

#[test]
fn churn_script_agrees_across_all_configurations() {
    let script = churn_script();
    let reference = config(true);
    let warm = replay(config(true), &script);
    let cold = replay(config(false), &script);
    assert!(
        warm.iter().any(|s| !s.refused.is_empty()),
        "the script refuses a flow"
    );
    assert_matches_fresh(&warm, &reference, "warm");
    assert_matches_fresh(&cold, &reference, "cold");
    assert_warm_is_cold(&warm, &cold);
}

#[test]
fn fresh_population_is_bitwise_identical_to_the_reference() {
    // Without churn the maintained LP is the very Problem the reference
    // builds, so with the same solver every solve — and every decomposed
    // plan — matches bit for bit.
    let script: Vec<Action> = vec![
        Action::Offer(FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.7)),
        Action::Offer(FlowRequest::new(20e6, 0.6).unwrap()),
        Action::Offer(
            FlowRequest::new(15e6, 1.0)
                .unwrap()
                .with_min_quality(0.5)
                .with_cost_budget(1.0),
        ),
    ];
    let cfg = config(false);
    let steps = replay(cfg.clone(), &script);
    assert_eq!(steps.last().map(|s| s.plans.len()), Some(3));
    assert_matches_fresh(&steps, &cfg, "cold");
}

fn arb_request(rng: &mut SplitMix64) -> FlowRequest {
    let rate = rng.f64(5.0..60.0); // rate Mbps
    let delta = rng.f64(0.3..1.5); // lifetime s
    let floor = rng.f64(0.0..0.95); // floor
    let budgeted = rng.bool();
    let m = rng.int(1usize..3); // transmissions
    let mut r = FlowRequest::new(rate * 1e6, delta)
        .expect("valid")
        .with_transmissions(m);
    if floor > 0.05 {
        r = r.with_min_quality(floor.min(0.9));
    }
    if budgeted {
        r = r.with_cost_budget(2.0);
    }
    r
}

fn arb_action(rng: &mut SplitMix64) -> Action {
    let tag = rng.next_u64();
    let req = arb_request(rng);
    let k = rng.int(0usize..8);
    let path = rng.int(0usize..3);
    let bw = rng.f64(40.0..90.0);
    match tag % 7 {
        0..=3 => Action::Offer(req),
        4 | 5 => Action::Depart(k),
        _ => Action::Link(path, LinkChange::SetBandwidth(bw * 1e6)),
    }
}

/// Arbitrary churn sequences (offers with random floors/budgets/
/// widths, departures, bandwidth changes): the maintained fleet —
/// warm *and* cold — agrees with the from-scratch reference on every
/// verdict and, bit for bit, every plan after every step.
#[test]
fn random_churn_sequences_agree() {
    run_cases(fnv1a(b"random_churn_sequences_agree"), 12, |rng| {
        let script = (0..rng.int(1usize..14))
            .map(|_| arb_action(rng))
            .collect::<Vec<_>>();
        let reference = config(true);
        let warm = replay(config(true), &script);
        let cold = replay(config(false), &script);
        assert_matches_fresh(&warm, &reference, "warm");
        assert_matches_fresh(&cold, &reference, "cold");
        assert_warm_is_cold(&warm, &cold);
    });
}
