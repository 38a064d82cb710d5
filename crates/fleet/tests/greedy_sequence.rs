//! Differential test of the greedy admission sequences. `offer_batch`'s
//! fallback and the re-settle after a link change admit one candidate
//! at a time on a verdict only (the solver's phase 1) and end with one
//! optimal solve. The oracle is what they did before: offer each
//! candidate alone, one full solve per offer, in the same order, on a
//! planner of its own.
//!
//! On seeded random fleets past saturation, for every
//! [`FleetObjective`]:
//! - the batch's verdicts equal the oracle's, flow for flow;
//! - every `Admitted.predicted_quality` is `plan_of(id).quality()` once
//!   the batch is in, and after a fallback the plans equal the oracle's
//!   bit for bit (the two planners hold the same joint LP);
//! - after a link change, the shed set equals what re-offering the
//!   fleet one flow at a time — highest priority first, admission order
//!   within ties — to a planner that starts on the changed paths
//!   refuses.

use dmc_core::ScenarioPath;
use dmc_fleet::{
    AdmissionDecision, FleetConfig, FleetObjective, FleetPlanner, FlowId, FlowRequest,
};
use dmc_sim::LinkChange;
use dmc_stats::rng::SplitMix64;
use std::collections::BTreeMap;

/// The script's draws from its SplitMix64 stream, its only entropy
/// source.
trait Draw {
    fn range(&mut self, lo: f64, hi: f64) -> f64;
    fn below(&mut self, n: usize) -> usize;
}

impl Draw for SplitMix64 {
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// 130 Mbit/s over three paths.
fn paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).unwrap(),
        ScenarioPath::constant(20e6, 0.150, 0.0).unwrap(),
        ScenarioPath::constant(30e6, 0.250, 0.05).unwrap(),
    ]
}

fn planner(objective: FleetObjective) -> FleetPlanner {
    let config = FleetConfig {
        objective,
        ..FleetConfig::default()
    };
    FleetPlanner::new(paths(), config).unwrap()
}

/// 15–45 Mbit/s (nine of them average twice the capacity), a floor
/// two times in three, sometimes a priority, a path subset or a single
/// transmission.
fn seeded_request(rng: &mut SplitMix64) -> FlowRequest {
    let mut r = FlowRequest::new(rng.range(15e6, 45e6), rng.range(0.4, 1.2)).unwrap();
    if rng.below(3) > 0 {
        r = r.with_min_quality(rng.range(0.5, 0.95));
    }
    if rng.below(3) == 0 {
        r = r.with_priority(rng.range(1.0, 4.0));
    }
    if rng.below(4) == 0 {
        let first = rng.below(2);
        r = r.with_paths(vec![first, first + 1]);
    }
    if rng.below(5) == 0 {
        r = r.with_transmissions(1);
    }
    r
}

fn plan_bits(fleet: &FleetPlanner, id: FlowId) -> Vec<u64> {
    let plan = fleet.plan_of(id).expect("admitted");
    let x = plan.strategy().x().iter().map(|v| v.to_bits());
    x.chain([plan.quality().to_bits()]).collect()
}

/// The order the fallback offers a batch in: by deadline under
/// `MaxAdmitted` (stable), as given otherwise.
fn fallback_order(objective: FleetObjective, batch: &[FlowRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    if objective == FleetObjective::MaxAdmitted {
        order.sort_by(|&a, &b| batch[a].lifetime().total_cmp(&batch[b].lifetime()));
    }
    order
}

#[test]
fn greedy_sequences_match_one_solve_per_offer() {
    let objectives = [
        FleetObjective::MaxAdmitted,
        FleetObjective::MaxTotalQuality,
        FleetObjective::WeightedFair,
    ];
    let (mut fallbacks, mut sheds) = (0, 0);
    for objective in objectives {
        for seed in 1..=12u64 {
            let ctx = format!("{objective:?} seed {seed}");
            let mut rng = SplitMix64::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let mut fleet = planner(objective);
            let mut oracle = planner(objective);
            // Who is in: the fleet's id and the request.
            let mut residents: BTreeMap<FlowId, FlowRequest> = BTreeMap::new();
            // Incumbents, offered alike to both.
            for _ in 0..3 {
                let request = seeded_request(&mut rng);
                let d = fleet.offer(request.clone()).unwrap();
                let o = oracle.offer(request.clone()).unwrap();
                assert_eq!(format!("{d:?}"), format!("{o:?}"), "{ctx}");
                if d.is_admitted() {
                    residents.insert(d.id(), request);
                }
            }
            // A batch past saturation: the fleet offers it whole, the
            // oracle one flow at a time in fallback order.
            let batch: Vec<FlowRequest> = (0..6).map(|_| seeded_request(&mut rng)).collect();
            let decisions = fleet.offer_batch(batch.clone()).unwrap();
            let order = fallback_order(objective, &batch);
            let mut answers: Vec<Option<AdmissionDecision>> = vec![None; batch.len()];
            for &i in &order {
                answers[i] = Some(oracle.offer(batch[i].clone()).unwrap());
            }
            // Refused flows mean the whole batch did not fit: the fleet
            // took the fallback and placed the batch in the oracle's
            // order, so the two hold the same joint LP.
            let fell_back = decisions.iter().any(|d| !d.is_admitted());
            fallbacks += usize::from(fell_back);
            for ((d, answer), request) in decisions.iter().zip(answers).zip(&batch) {
                let o = answer.expect("the oracle answered every flow");
                assert_eq!(
                    d.is_admitted(),
                    o.is_admitted(),
                    "{ctx}: verdict of {}",
                    d.id()
                );
                let AdmissionDecision::Admitted {
                    id,
                    predicted_quality,
                } = *d
                else {
                    continue;
                };
                let plan = fleet.plan_of(id).expect("admitted");
                assert_eq!(
                    predicted_quality.to_bits(),
                    plan.quality().to_bits(),
                    "{ctx}"
                );
                if fell_back {
                    assert_eq!(
                        plan_bits(&fleet, id),
                        plan_bits(&oracle, o.id()),
                        "{ctx}: {id}"
                    );
                }
                residents.insert(id, request.clone());
            }
            assert_eq!(fleet.num_flows(), residents.len(), "{ctx}");

            // A link change; the reference re-offers the fleet one flow
            // at a time to a planner on the changed paths.
            let path = rng.below(3);
            let change = if rng.below(2) == 0 {
                LinkChange::Fail
            } else {
                LinkChange::SetBandwidth(paths()[path].bandwidth() * rng.range(0.2, 0.6))
            };
            let shed = fleet.apply_link_change(path, &change).unwrap();
            let mut reference = planner(objective);
            reference.apply_link_change(path, &change).unwrap();
            // Highest priority first; the map's id order within ties.
            let mut readmission: Vec<(&FlowId, &FlowRequest)> = residents.iter().collect();
            readmission.sort_by(|a, b| b.1.priority().total_cmp(&a.1.priority()));
            let mut refused = Vec::new();
            for (&id, request) in readmission {
                if !reference.offer(request.clone()).unwrap().is_admitted() {
                    refused.push(id);
                }
            }
            refused.sort();
            let mut shed_sorted = shed.clone();
            shed_sorted.sort();
            assert_eq!(
                shed_sorted, refused,
                "{ctx}: shed after {change:?} on path {path}"
            );
            sheds += shed.len();
            assert_eq!(fleet.shed_flows(), shed, "{ctx}");
        }
    }
    // The scripts do exercise what they are for.
    assert!(
        fallbacks >= 12,
        "only {fallbacks} batches took the fallback"
    );
    assert!(sheds >= 6, "only {sheds} flows were shed");
}
