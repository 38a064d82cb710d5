//! Golden pins for the single-flow planner (tier-1): the paper's own
//! scenarios through `Scenario → Planner → Plan`, each plan hashed down
//! to a literal recorded while the pre-`Planner` entry points (the free
//! solve functions and the per-regime model types) still existed and
//! hashed identically. Any refactor of the coefficient
//! fills, the LP assembly or the strategy packaging must leave every
//! literal below untouched — same vertex, same bits. (Six of the eleven
//! this file held then were re-recorded once since, same vertices, last
//! bits of `x`: when
//! `dmc-lp`'s extraction stopped depending on the order the basis slots
//! were filled in, which is what makes a warm and a cold `Planner` agree
//! bit for bit. One more, `TABLE3_90_800_M3`, same vertex, when the LP's
//! objective became `λ·p` and its bandwidth rows `λ·usage ≤ b`, the
//! fleet's units. Four more — `TABLE3_90_800`, `TABLE3_90_800_M3`,
//! `COSTED_MIN_COST` and `TABLE3_MARGIN` — same vertices, same support,
//! last bits of `x`, when every revised solve moved to the one sparse
//! basis kernel.)
//!
//! Hashed per plan (FNV-1a 64 over little-endian bit patterns): `x`,
//! `quality`, `send_rates`, `cost_rate`, then every stage of the
//! [`TimeoutSchedule`] (presence, delay, retransmit flag).

use deadline_multipath::experiments::scenarios;
use deadline_multipath::obs::{fnv1a_extend, FNV_BASIS};
use deadline_multipath::prelude::*;

const TABLE3_10_800: u64 = 0xaf6a_5f7e_b0f3_072e;
const TABLE3_90_800: u64 = 0x25a8_07d5_da98_677d;
const TABLE3_120_800: u64 = 0x166b_f3ea_e774_0ab0;
const TABLE3_90_450: u64 = 0xf320_42ba_32e1_bacf;
const TABLE3_90_800_M3: u64 = 0x97cb_ac2e_a067_bd5a;
const COSTED_MIN_COST: u64 = 0x359d_a713_240f_24d7;
const COSTED_BUDGET: u64 = 0x66dc_d415_48c4_c51d;
const TABLE5_MIDPOINT: u64 = 0xf478_05f5_6871_82c3;
const TABLE3_MARGIN: u64 = 0xea90_d91d_55cf_7c3d;

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

    fn strategy(&mut self, s: &Strategy) {
        self.floats(s.x());
        self.floats(&[s.quality()]);
        self.floats(s.send_rates());
        self.floats(&[s.cost_rate()]);
    }

    fn schedule(&mut self, schedule: &TimeoutSchedule) {
        for l in 0..schedule.num_combos() {
            for stage in schedule.stages(l) {
                match stage {
                    Some(spec) => {
                        self.bytes(&[1, u8::from(spec.retransmit)]);
                        self.floats(&[spec.delay]);
                    }
                    None => self.bytes(&[0]),
                }
            }
        }
    }
}

fn plan_hash(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    h.strategy(plan.strategy());
    h.schedule(plan.schedule());
    h.0
}

#[track_caller]
fn pin(plan: &Plan, want: u64, what: &str) {
    let got = plan_hash(plan);
    assert_eq!(got, want, "{what}: plan bits moved (got {got:#018x})");
}

/// Table III with per-bit prices (3 and 1 units per Gbit).
fn costed_table3() -> Scenario {
    Scenario::builder()
        .path(ScenarioPath::constant_with_cost(80e6, 0.450, 0.2, 3e-9).unwrap())
        .path(ScenarioPath::constant_with_cost(20e6, 0.150, 0.0, 1e-9).unwrap())
        .data_rate(90e6)
        .lifetime(0.8)
        .build()
        .unwrap()
}

const COSTED_BUDGET_PER_S: f64 = 0.2;

const TABLE3_POINTS: [(f64, f64, usize, u64, &str); 5] = [
    (10e6, 0.8, 2, TABLE3_10_800, "Table III λ=10 δ=0.8"),
    (90e6, 0.8, 2, TABLE3_90_800, "Table III λ=90 δ=0.8"),
    (120e6, 0.8, 2, TABLE3_120_800, "Table III λ=120 δ=0.8"),
    (90e6, 0.45, 2, TABLE3_90_450, "Table III λ=90 δ=0.45"),
    (90e6, 0.8, 3, TABLE3_90_800_M3, "Table III λ=90 δ=0.8 m=3"),
];

#[test]
fn table3_plans_are_pinned() {
    let mut planner = Planner::new();
    for (lambda, delta, m, want, what) in TABLE3_POINTS {
        let scenario = scenarios::table3_model_scenario(lambda, delta).with_transmissions(m);
        let plan = planner.plan(&scenario, Objective::MaxQuality).unwrap();
        pin(&plan, want, what);
    }
}

#[test]
fn costed_plans_are_pinned() {
    let mut planner = Planner::new();
    let plan = planner
        .plan(&costed_table3(), Objective::MinCost { min_quality: 0.9 })
        .unwrap();
    pin(&plan, COSTED_MIN_COST, "costed Table III, MinCost 0.9");
    let budgeted = costed_table3().with_cost_budget(COSTED_BUDGET_PER_S);
    let plan = planner
        .plan(&budgeted, Objective::MaxQualityUnderBudget)
        .unwrap();
    assert!(plan.cost_rate() <= COSTED_BUDGET_PER_S * (1.0 + 1e-9));
    pin(&plan, COSTED_BUDGET, "costed Table III, budget");
}

#[test]
fn table5_plan_is_pinned() {
    let scenario = scenarios::table5_scenario(90e6, 0.75);
    let plan = Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .unwrap();
    pin(&plan, TABLE5_MIDPOINT, "Table V (plateau midpoints)");
}

#[test]
fn margin_plan_is_pinned() {
    let measured = scenarios::table3_scenario(90e6, 0.8);
    let plan = Planner::new()
        .plan_with_margin(&measured, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
        .unwrap();
    pin(&plan, TABLE3_MARGIN, "Table III, measured delays + margin");
}
