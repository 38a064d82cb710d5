//! What the test files share: the from-scratch reference a maintained
//! fleet is held to, and the bit-for-bit plan comparison.

use dmc_core::{Plan, ScenarioPath};
use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};

/// A fresh planner over `paths`, offered `requests` as one batch, and
/// whether it admitted all of them. When they fit together this is one
/// cold solve of the `Problem` a maintained fleet holding exactly these
/// residents, in this order, would assemble from scratch: the blocks
/// placed in order over the shared capacity rows, no carried basis.
pub fn fresh_fleet(
    paths: Vec<ScenarioPath>,
    config: FleetConfig,
    requests: Vec<FlowRequest>,
) -> (FleetPlanner, bool) {
    let mut fleet = FleetPlanner::new(paths, config).expect("valid paths");
    let decisions = fleet.offer_batch(requests).expect("batch runs");
    let all_in = decisions.iter().all(|d| d.is_admitted());
    (fleet, all_in)
}

/// Two plans of one flow agree bit for bit on allocation, quality, cost
/// and send rates: a maintained LP is the reference's `Problem`, and
/// the solver's answer is a function of the problem.
#[track_caller]
pub fn assert_bitwise(a: &Plan, b: &Plan, ctx: &str) {
    assert_eq!(a.strategy().x(), b.strategy().x(), "{ctx}: x");
    assert_eq!(a.quality(), b.quality(), "{ctx}: quality");
    assert_eq!(a.cost_rate(), b.cost_rate(), "{ctx}: cost");
    assert_eq!(a.send_rates(), b.send_rates(), "{ctx}: send rates");
}
