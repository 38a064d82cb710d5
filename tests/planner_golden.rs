//! Golden pins for the single-flow planner (tier-1): the paper's own
//! scenarios through `Scenario → Planner → Plan`, each plan hashed down
//! to a literal recorded while the pre-`Planner` entry points (the free
//! solve functions and the per-regime model types) still existed and
//! hashed identically. Any refactor of the coefficient
//! fills, the LP assembly or the strategy packaging must leave every
//! literal below untouched — same vertex, same bits. (Six of the eleven
//! were re-recorded once since, same vertices, last bits of `x`: when
//! `dmc-lp`'s extraction stopped depending on the order the basis slots
//! were filled in, which is what makes a warm and a cold `Planner` agree
//! bit for bit.)
//!
//! Hashed per plan (FNV-1a 64 over little-endian bit patterns): `x`,
//! `quality`, `send_rates`, `cost_rate`, then every stage of the
//! [`TimeoutSchedule`] (presence, delay, retransmit flag).

use deadline_multipath::experiments::scenarios;
use deadline_multipath::prelude::*;

const TABLE3_10_800: u64 = 0xaf6a_5f7e_b0f3_072e;
const TABLE3_90_800: u64 = 0x34f8_6317_8fbe_4332;
const TABLE3_120_800: u64 = 0x166b_f3ea_e774_0ab0;
const TABLE3_90_450: u64 = 0xf320_42ba_32e1_bacf;
const TABLE3_90_800_M3: u64 = 0x1233_9cf9_5382_8712;
const COSTED_MIN_COST: u64 = 0x6ec0_edac_13fc_48d4;
const COSTED_BUDGET: u64 = 0x66dc_d415_48c4_c51d;
const TABLE5_FIRST: u64 = 0x9314_9a93_7eed_b276;
const TABLE5_MIDPOINT: u64 = 0xf478_05f5_6871_82c3;
const TABLE5_LAST: u64 = 0x410e_fc05_c662_e6f9;
const TABLE3_MARGIN: u64 = 0x9d9b_60ea_1dfd_d44e;

/// FNV-1a 64 accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
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

fn plateau_planner(plateau: PlateauRule) -> Planner {
    Planner::with_config(PlannerConfig {
        plateau,
        ..PlannerConfig::default()
    })
}

const PLATEAUS: [(PlateauRule, u64, &str); 3] = [
    (PlateauRule::First, TABLE5_FIRST, "Table V, first"),
    (PlateauRule::Midpoint, TABLE5_MIDPOINT, "Table V, midpoint"),
    (PlateauRule::Last, TABLE5_LAST, "Table V, last"),
];

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
fn table5_plans_are_pinned_under_every_plateau_rule() {
    let scenario = scenarios::table5_scenario(90e6, 0.75);
    for (plateau, want, what) in PLATEAUS {
        let plan = plateau_planner(plateau)
            .plan(&scenario, Objective::MaxQuality)
            .unwrap();
        pin(&plan, want, what);
    }
}

#[test]
fn margin_plan_is_pinned() {
    let measured = scenarios::table3_scenario(90e6, 0.8);
    let plan = Planner::new()
        .plan_with_margin(&measured, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
        .unwrap();
    pin(&plan, TABLE3_MARGIN, "Table III, measured delays + margin");
}
