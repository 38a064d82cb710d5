//! Differential testing of the fleet's two assembly paths: the default
//! **incremental** assembly against the **rebuild-per-solve** baseline,
//! each warm and cold, on the solver's one kernel for the joint LP (the
//! sparse one: the joint LP declares its blocks), with the dense tableau
//! as the oracle, over admission, rejection, departure (tombstoning and
//! slot reuse), compaction and link-change resettles.
//!
//! Contract: every configuration must admit/reject the *same* flows and
//! agree on every admitted plan's allocation, quality, cost and send
//! rates to 1e-9. On a freshly populated fleet (no churn yet) the
//! incremental assembly produces the *identical* `Problem` the rebuild
//! path assembles, so with the same solver the plans match **bitwise**
//! — pinned here as the structural anchor.

use dmc_core::{PlannerConfig, ScenarioPath, SolverOptions};
use dmc_fleet::{FleetConfig, FleetPlanner, FlowRequest};
use dmc_lp::Backend;
use dmc_sim::LinkChange;
use proptest::prelude::*;

const TOL: f64 = 1e-9;

fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid"),
        ScenarioPath::constant(30e6, 0.250, 0.05).expect("valid"),
    ]
}

fn config(incremental: bool, backend: Backend, warm: bool) -> FleetConfig {
    FleetConfig {
        incremental,
        planner: PlannerConfig {
            warm_start: warm,
            solver: SolverOptions {
                backend,
                ..SolverOptions::default()
            },
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

/// Replays a script and returns, per step, the decision outcomes, the
/// final per-flow plans `(id, x, quality, cost_rate, send_rates)`, and
/// the final rate-weighted aggregate quality (the joint objective).
#[allow(clippy::type_complexity)]
fn replay(
    cfg: FleetConfig,
    script: &[Action],
) -> (Vec<bool>, Vec<(u64, Vec<f64>, f64, f64, Vec<f64>)>, f64) {
    let mut fleet = FleetPlanner::new(shared_paths(), cfg).expect("valid paths");
    let mut outcomes = Vec::new();
    for action in script {
        match action {
            Action::Offer(req) => {
                let d = fleet.offer(req.clone()).expect("offer succeeds");
                outcomes.push(d.is_admitted());
            }
            Action::Depart(k) => {
                let ids = fleet.flow_ids();
                if !ids.is_empty() {
                    fleet.depart(ids[k % ids.len()]).expect("known id");
                }
                outcomes.push(true);
            }
            Action::Link(path, change) => {
                fleet
                    .apply_link_change(*path, change)
                    .expect("valid change");
                outcomes.push(true);
            }
        }
    }
    let plans = fleet
        .plans()
        .map(|(id, p)| {
            (
                id.index(),
                p.strategy().x().to_vec(),
                p.quality(),
                p.cost_rate(),
                p.send_rates().to_vec(),
            )
        })
        .collect();
    let agg = fleet.aggregate_quality();
    (outcomes, plans, agg)
}

#[allow(clippy::type_complexity)]
fn assert_replays_agree(
    script: &[Action],
    a: (Vec<bool>, Vec<(u64, Vec<f64>, f64, f64, Vec<f64>)>, f64),
    b: (Vec<bool>, Vec<(u64, Vec<f64>, f64, f64, Vec<f64>)>, f64),
    ctx: &str,
) {
    assert_eq!(a.0, b.0, "{ctx}: admission outcomes diverged\n{script:?}");
    assert_eq!(a.1.len(), b.1.len(), "{ctx}: admitted counts diverged");
    for ((id_a, x_a, q_a, c_a, s_a), (id_b, x_b, q_b, c_b, s_b)) in a.1.iter().zip(&b.1) {
        assert_eq!(id_a, id_b, "{ctx}: flow order");
        assert_eq!(x_a.len(), x_b.len(), "{ctx}: flow#{id_a} combo count");
        for (j, (va, vb)) in x_a.iter().zip(x_b).enumerate() {
            assert!(
                (va - vb).abs() <= TOL,
                "{ctx}: flow#{id_a} x[{j}] = {va} vs {vb}"
            );
        }
        assert!((q_a - q_b).abs() <= TOL, "{ctx}: flow#{id_a} quality");
        assert!((c_a - c_b).abs() <= TOL, "{ctx}: flow#{id_a} cost");
        for (k, (va, vb)) in s_a.iter().zip(s_b).enumerate() {
            assert!(
                (va - vb).abs() <= TOL * va.abs().max(1.0),
                "{ctx}: flow#{id_a} S_{k} = {va} vs {vb}"
            );
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
        Action::Offer(FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.7)), // reuses slot
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
    let baseline = replay(config(false, Backend::Revised, true), &script);
    for (name, cfg) in [
        ("incremental", config(true, Backend::Revised, true)),
        ("incremental/cold", config(true, Backend::Revised, false)),
        ("rebuild/cold", config(false, Backend::Revised, false)),
    ] {
        let other = replay(cfg, &script);
        assert_replays_agree(&script, baseline.clone(), other, name);
    }
    // The dense tableau does not canonicalize across alternate optima —
    // on the (massively degenerate) joint LP it may report a different
    // optimal vertex — so it is compared on the backend-independent
    // quantities only: admission outcomes and each flow's quality (its
    // floors and the shared objective pin these at the optimum).
    let dense = replay(config(false, Backend::DenseTableau, true), &script);
    assert_eq!(baseline.0, dense.0, "dense: admission outcomes");
    assert!(
        (baseline.2 - dense.2).abs() <= 1e-6,
        "dense: aggregate quality {} vs {}",
        baseline.2,
        dense.2
    );
}

#[test]
fn fresh_population_is_bitwise_identical_across_assembly_paths() {
    // Without churn the incremental assembly builds the very same
    // Problem the rebuild path does, so with the same solver the final
    // joint solve — and every decomposed plan — matches bit for bit.
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
    for backend in [Backend::Revised, Backend::DenseTableau] {
        let incremental = replay(config(true, backend, false), &script);
        let rebuild = replay(config(false, backend, false), &script);
        assert_eq!(incremental.0, rebuild.0, "{backend:?}: outcomes");
        for ((ida, xa, qa, ca, sa), (idb, xb, qb, cb, sb)) in incremental.1.iter().zip(&rebuild.1) {
            assert_eq!(ida, idb);
            assert_eq!(xa, xb, "{backend:?}: flow#{ida} x");
            assert_eq!(qa, qb, "{backend:?}: flow#{ida} quality");
            assert_eq!(ca, cb, "{backend:?}: flow#{ida} cost");
            assert_eq!(sa, sb, "{backend:?}: flow#{ida} send rates");
        }
    }
}

fn arb_request() -> impl Strategy<Value = FlowRequest> {
    (
        5.0f64..60.0, // rate Mbps
        0.3f64..1.5,  // lifetime s
        0.0f64..0.95, // floor
        proptest::prelude::any::<bool>(),
        1usize..3, // transmissions
    )
        .prop_map(|(rate, delta, floor, budgeted, m)| {
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
        })
}

fn arb_action() -> impl Strategy<Value = Action> {
    (
        proptest::prelude::any::<u64>(),
        arb_request(),
        0usize..8,
        0usize..3,
        40.0f64..90.0,
    )
        .prop_map(|(tag, req, k, path, bw)| match tag % 7 {
            0..=3 => Action::Offer(req),
            4 | 5 => Action::Depart(k),
            _ => Action::Link(path, LinkChange::SetBandwidth(bw * 1e6)),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary churn sequences (offers with random floors/budgets/
    /// widths, departures, bandwidth changes): the default incremental
    /// assembly — warm *and* cold — agrees with the rebuild baseline on
    /// every admission outcome and every plan.
    #[test]
    fn random_churn_sequences_agree(script in proptest::collection::vec(arb_action(), 1..14)) {
        let baseline = replay(config(false, Backend::Revised, true), &script);
        let warm = replay(config(true, Backend::Revised, true), &script);
        let cold = replay(config(true, Backend::Revised, false), &script);
        assert_replays_agree(&script, baseline.clone(), warm.clone(), "incremental warm");
        assert_replays_agree(&script, baseline, cold.clone(), "incremental cold");
        // Warm vs cold within the incremental path: bitwise.
        prop_assert_eq!(warm.0, cold.0);
        for ((ida, xa, qa, ca, sa), (idb, xb, qb, cb, sb)) in warm.1.iter().zip(&cold.1) {
            prop_assert_eq!(ida, idb);
            prop_assert_eq!(xa, xb, "flow#{} warm != cold", ida);
            prop_assert_eq!(qa, qb);
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(sa, sb);
        }
    }
}
