//! What the test files share: the from-scratch reference a maintained
//! fleet is held to, and the 1e-9 plan comparison.

use dmc_core::{Plan, ScenarioPath};
use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};

/// The contract's tolerance on allocations, quality and cost (send
/// rates, in bit/s, relative to the rate).
pub const TOL: f64 = 1e-9;

/// A fresh planner over `paths`, offered `requests` as one batch, and
/// whether it admitted all of them. When they fit together this is one
/// cold solve of the `Problem` a maintained fleet holding exactly these
/// residents, in this order, would assemble from scratch: the blocks
/// placed in order over the shared capacity rows, no tombstone, no
/// carried basis.
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

/// Two plans of one flow agree on allocation, quality, cost and send
/// rates to [`TOL`].
#[track_caller]
pub fn assert_plans_close(a: &Plan, b: &Plan, ctx: &str) {
    let (xa, xb) = (a.strategy().x(), b.strategy().x());
    assert_eq!(xa.len(), xb.len(), "{ctx}: combo count");
    for (j, (va, vb)) in xa.iter().zip(xb).enumerate() {
        assert!((va - vb).abs() <= TOL, "{ctx}: x[{j}] = {va} vs {vb}");
    }
    let (qa, qb) = (a.quality(), b.quality());
    assert!((qa - qb).abs() <= TOL, "{ctx}: quality {qa} vs {qb}");
    let (ca, cb) = (a.cost_rate(), b.cost_rate());
    assert!((ca - cb).abs() <= TOL, "{ctx}: cost {ca} vs {cb}");
    for (k, (va, vb)) in a.send_rates().iter().zip(b.send_rates()).enumerate() {
        assert!(
            (va - vb).abs() <= TOL * va.abs().max(1.0),
            "{ctx}: S_{k} = {va} vs {vb}"
        );
    }
}
