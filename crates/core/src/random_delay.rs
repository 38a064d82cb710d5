//! The random-delay extension of the model (paper §VI-B, Eq. 24–30/34).
//!
//! Delays are random variables (shifted gamma in the paper's experiments);
//! the sender must additionally choose, per combination stage, a
//! *retransmission timeout*: long enough that an acknowledgment would have
//! arrived, short enough that the retransmission can still meet the
//! deadline. Eq. 26/34 picks the timeout maximizing
//!
//! ```text
//! g(t) = P(t + d_j ≤ δ) · P(d_i + d_min ≤ t)
//! ```
//!
//! where `d_i + d_min` (data out, ack back) is computed by *convolving*
//! the two delay distributions on a discrete grid ([`DiscreteDist`]).
//! The product often has a plateau of equally good timeouts — the paper
//! notes the maximizer "does not necessarily produce a unique solution" —
//! so the plateau tie-break is configurable ([`PlateauRule`]).
//!
//! Because a retransmission fires exactly when the timeout expires, the
//! *send time* of stage `s` is deterministic (the sum of the earlier
//! stages' timeouts), which is what lets the model generalize cleanly to
//! `m > 2` transmissions: stage `s` delivers in time with probability
//! `P(T_s + d_{i_s} ≤ δ)` and is reached with probability
//! `Π_{u<s} P(retrans_u)` (Eq. 27).
//!
//! [`Planner`](crate::Planner) routes any [`Scenario`](crate::Scenario)
//! with a non-constant delay through the coefficient fill implemented
//! here.

use crate::combo::{ComboTable, Slot};
use crate::scenario::ScenarioPath;
use dmc_stats::{Delay, DiscreteDist};
use std::sync::Arc;

/// Index of the path with the smallest expected delay (Eq. 25).
pub(crate) fn ack_path_of(paths: &[ScenarioPath]) -> usize {
    let mut best = 0;
    for (i, p) in paths.iter().enumerate() {
        if p.delay().mean() < paths[best].delay().mean() {
            best = i;
        }
    }
    best
}

/// Tie-break used when Eq. 34's product is maximal over a plateau.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlateauRule {
    /// Earliest maximizing timeout (retransmit as soon as safe).
    First,
    /// Middle of the plateau: robust to estimation error on both sides.
    /// The default.
    #[default]
    Midpoint,
    /// Latest maximizing timeout (give the ack every chance).
    Last,
}

/// The per-combination coefficients of the random-delay LP, written into
/// the vectors of the model [`Planner::model`](crate::Planner::model) is
/// building; `stage_timeouts` is the planner's scratch, turned into the
/// model's timeout schedule afterwards.
///
/// `usage` must arrive with one inner vector per path (cleared/overwritten
/// here); the other buffers are cleared and refilled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_random_coeffs(
    paths: &[ScenarioPath],
    lifetime: f64,
    grid_step: f64,
    plateau: PlateauRule,
    table: &ComboTable,
    ack_path: usize,
    p: &mut Vec<f64>,
    usage: &mut [Vec<f64>],
    cost: &mut Vec<f64>,
    stage_timeouts: &mut Vec<Vec<Option<f64>>>,
) {
    assert!(
        grid_step > 0.0 && grid_step.is_finite(),
        "grid step must be positive"
    );
    let n = paths.len();
    debug_assert_eq!(usage.len(), n);
    let step = grid_step;

    // F_{d_i + d_min}: convolution of each path's delay with an
    // independent copy of the ack path's delay (Eq. 34's
    // `F_Xi ∗ f_Xmin`).
    let ack_delay = Arc::clone(paths[ack_path].delay());
    let delay_dists: Vec<DiscreteDist> = paths
        .iter()
        .map(|p| DiscreteDist::from_delay(p.delay().as_ref(), step))
        .collect();
    let ack_disc = DiscreteDist::from_delay(ack_delay.as_ref(), step);
    let rtt_dists: Vec<DiscreteDist> = delay_dists.iter().map(|d| d.convolve(&ack_disc)).collect();

    let delta = lifetime;
    let ncombos = table.num_combos();
    p.clear();
    p.reserve(ncombos);
    cost.clear();
    cost.reserve(ncombos);
    stage_timeouts.clear();
    stage_timeouts.reserve(ncombos);
    for row in usage.iter_mut() {
        row.clear();
        row.resize(ncombos, 0.0);
    }

    for (l, slots) in table.iter() {
        let mut reach = 1.0; // Π P(retrans) over earlier stages
        let mut send_time = 0.0; // deterministic send time T_s
        let mut pl = 0.0;
        let mut costl = 0.0;
        let mut timeouts = vec![None; slots.len()];
        for (s, &slot) in slots.iter().enumerate() {
            let Slot::Path(i) = slot else {
                break; // blackhole absorbs
            };
            let path = &paths[i];
            usage[i][l] += reach;
            costl += reach * path.cost();
            // P(T_s + d_i ≤ δ) · (1 − τ_i), Eq. 28 generalized.
            let in_time = path.delay().cdf(delta - send_time);
            pl += reach * in_time * (1.0 - path.loss());

            // Arm the next stage's timeout if there is a real next path.
            let Some(&next) = slots.get(s + 1) else {
                break;
            };
            let Slot::Path(j) = next else {
                break; // retransmitting into the blackhole = dropping
            };
            let remaining = delta - send_time;
            let opt = optimize_timeout(
                &rtt_dists[i],
                paths[j].delay().as_ref(),
                remaining,
                step,
                plateau,
            );
            let Some(theta) = opt else {
                break; // no timeout can meet the deadline (t₁,₁ case)
            };
            timeouts[s] = Some(theta);

            // Duplicate-delivery correction (beyond the paper; see
            // DESIGN.md): Eq. 28 adds the retransmission's delivery
            // probability unconditionally, double-counting the event
            // "the stage-s copy arrived in time AND its ack missed
            // the timeout, so the s+1 copy also arrived in time".
            // The receiver deduplicates, so that mass must be
            // subtracted — without it, tight deadlines (frequent
            // spurious retransmissions) yield p > 1.
            let next_in_time = paths[j].delay().cdf(delta - send_time - theta);
            let spurious_and_first_ok = joint_in_time_no_ack(
                &delay_dists[i],
                ack_delay.as_ref(),
                delta - send_time,
                theta,
            );
            pl -= reach
                * (1.0 - path.loss())
                * spurious_and_first_ok
                * (1.0 - paths[j].loss())
                * next_in_time;

            // Eq. 27: retransmit unless the ack beat the timeout.
            let ack_in_time = lookup_cdf(&rtt_dists[i], theta);
            reach *= 1.0 - ack_in_time * (1.0 - path.loss());
            send_time += theta;
            if reach <= 1e-15 {
                break;
            }
        }
        p.push(pl.clamp(0.0, 1.0));
        cost.push(costl);
        stage_timeouts.push(timeouts);
        let _ = l;
    }
}

/// The combination index encoding the paper's `t_{i,j}` lookup: first
/// transmission on path `i`, retransmission on path `j`, remaining
/// stages absorbed ([`Plan::timeout`](crate::Plan::timeout)).
pub(crate) fn pairwise_combo_index(table: &ComboTable, i: usize, j: usize) -> Option<usize> {
    let mut slots = vec![Slot::Blackhole; table.transmissions()];
    if !table.has_blackhole() {
        slots = vec![Slot::Path(j); table.transmissions()];
    }
    slots[0] = Slot::Path(i);
    if table.transmissions() >= 2 {
        slots[1] = Slot::Path(j);
    }
    table.index_of(&slots)
}

/// CDF lookup on a discretized distribution (0 below support, 1 above).
fn lookup_cdf(dist: &DiscreteDist, t: f64) -> f64 {
    dist.cdf(t)
}

/// `P(d ≤ in_time_bound  AND  d + d_ack > theta)`: the data copy arrives
/// in time, yet its acknowledgment misses the retransmission timeout —
/// the "spurious retransmission after successful delivery" event used by
/// the duplicate-delivery correction. Computed by conditioning on the
/// discretized data delay.
fn joint_in_time_no_ack(
    delay: &DiscreteDist,
    ack: &dyn Delay,
    in_time_bound: f64,
    theta: f64,
) -> f64 {
    let mut total = 0.0;
    for (k, &mass) in delay.pmf().iter().enumerate() {
        // dmc-lint: allow(float-exact) a PMF bin with exactly zero mass is structurally empty; skipping it is lossless
        if mass == 0.0 {
            continue;
        }
        let d = delay.offset() + k as f64 * delay.step();
        if d > in_time_bound {
            break;
        }
        total += mass * (1.0 - ack.cdf(theta - d));
    }
    total.clamp(0.0, 1.0)
}

/// Eq. 34: returns the timeout `θ ∈ [0, remaining]` maximizing
/// `F_{d_j}(remaining − θ) · F_{d_i + d_min}(θ)`, or `None` when the
/// maximum is zero (no retransmission can meet the deadline).
fn optimize_timeout(
    rtt: &DiscreteDist,
    next_delay: &dyn Delay,
    remaining: f64,
    step: f64,
    plateau: PlateauRule,
) -> Option<f64> {
    if remaining <= 0.0 {
        return None;
    }
    let steps = (remaining / step).floor() as usize;
    let mut best = 0.0f64;
    let mut values = Vec::with_capacity(steps + 1);
    for k in 0..=steps {
        let theta = k as f64 * step;
        let g = next_delay.cdf(remaining - theta) * rtt.cdf(theta);
        values.push(g);
        if g > best {
            best = g;
        }
    }
    if best <= 0.0 {
        return None;
    }
    // Plateau: all grid points within a relative hair of the maximum.
    let threshold = best * (1.0 - 1e-9);
    let first = values.iter().position(|&g| g >= threshold)?;
    let last = values.iter().rposition(|&g| g >= threshold)?;
    let idx = match plateau {
        PlateauRule::First => first,
        PlateauRule::Last => last,
        PlateauRule::Midpoint => (first + last) / 2,
    };
    Some(idx as f64 * step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Objective, Plan, Planner, PlannerConfig, Scenario};
    use dmc_stats::{ConstantDelay, ShiftedGamma, UniformDelay};

    /// The paper's Table V network (Experiment 2).
    fn table5_scenario() -> Scenario {
        let p1 = ScenarioPath::new(
            80e6,
            Arc::new(ShiftedGamma::new(10.0, 0.004, 0.400).unwrap()),
            0.2,
            0.0,
        )
        .unwrap();
        let p2 = ScenarioPath::new(
            20e6,
            Arc::new(ShiftedGamma::new(5.0, 0.002, 0.100).unwrap()),
            0.0,
            0.0,
        )
        .unwrap();
        Scenario::builder()
            .path(p1)
            .path(p2)
            .data_rate(90e6)
            .lifetime(0.750)
            .build()
            .unwrap()
    }

    /// A delay that is constant in all but name: 1 ns wide, so the planner
    /// takes the random branch.
    fn nearly_constant(bandwidth: f64, delay: f64, loss: f64, cost: f64) -> ScenarioPath {
        let jitter = Arc::new(UniformDelay::new(delay, delay + 1e-9));
        ScenarioPath::new(bandwidth, jitter, loss, cost).unwrap()
    }

    fn solve(scenario: &Scenario) -> Plan {
        Planner::new()
            .plan(scenario, Objective::MaxQuality)
            .unwrap()
    }

    #[test]
    fn ack_path_is_lowest_expected_delay() {
        assert_eq!(table5_scenario().ack_path(), 1);
    }

    #[test]
    fn experiment2_timeouts_near_paper_values() {
        let model = solve(&table5_scenario());
        // t(1,2): paper reports 615 ms. The product has a narrow peak; any
        // maximizer lands within a few ms of it.
        let t12 = model.timeout(0, 1).expect("t(1,2) defined");
        assert!(
            (0.585..=0.645).contains(&t12),
            "t(1,2) = {:.0} ms, paper: 615 ms",
            t12 * 1e3
        );
        // t(2,1): paper reports 252 ms.
        let t21 = model.timeout(1, 0).expect("t(2,1) defined");
        assert!(
            (0.230..=0.270).contains(&t21),
            "t(2,1) = {:.0} ms, paper: 252 ms",
            t21 * 1e3
        );
        // t(2,2) sits on a wide plateau (paper picked 323 ms); any point
        // on the plateau is optimal.
        let t22 = model.timeout(1, 1).expect("t(2,2) defined");
        assert!(
            (0.240..=0.600).contains(&t22),
            "t(2,2) = {:.0} ms",
            t22 * 1e3
        );
        // t(1,1): paper: undefined — a path-1 retransmission cannot meet
        // the 750 ms deadline after a path-1 timeout.
        assert_eq!(model.timeout(0, 0), None, "t(1,1) must be undefined");
    }

    #[test]
    fn experiment2_expected_quality_matches_paper() {
        let plan = solve(&table5_scenario());
        let s = plan.strategy();
        // Paper: expected quality 93.3% (93,332 of 100,000 in simulation).
        assert!(
            (s.quality() - 0.9333).abs() < 0.005,
            "Q = {:.4}, paper: 0.9333",
            s.quality()
        );
        assert!(s.is_well_formed(1e-9));
        // Send rates respect bandwidth.
        assert!(s.send_rates()[0] <= 80e6 * (1.0 + 1e-9));
        assert!(s.send_rates()[1] <= 20e6 * (1.0 + 1e-9));
    }

    #[test]
    fn constant_delays_reduce_to_deterministic_model() {
        // With (all but) constant delays the random branch must reproduce
        // the deterministic optimum (Eq. 28 → Eq. 12).
        let scenario = Scenario::builder()
            .path(nearly_constant(80e6, 0.450, 0.2, 0.0))
            .path(nearly_constant(20e6, 0.150, 0.0, 0.0))
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        assert!(!scenario.is_deterministic());
        let s = solve(&scenario);
        assert!(
            (s.quality() - 42.0 / 45.0).abs() < 1e-6,
            "Q = {}",
            s.quality()
        );
    }

    #[test]
    fn plateau_rules_are_ordered() {
        let scenario = table5_scenario();
        let t22 = |plateau| {
            Planner::with_config(PlannerConfig {
                plateau,
                ..PlannerConfig::default()
            })
            .plan(&scenario, Objective::MaxQuality)
            .unwrap()
            .timeout(1, 1)
            .unwrap()
        };
        let first = t22(PlateauRule::First);
        let mid = t22(PlateauRule::Midpoint);
        let last = t22(PlateauRule::Last);
        assert!(first <= mid && mid <= last, "{first} {mid} {last}");
    }

    #[test]
    fn validation_errors() {
        let good = Arc::new(ConstantDelay::new(0.1));
        assert!(ScenarioPath::new(0.0, good.clone(), 0.0, 0.0).is_err());
        assert!(ScenarioPath::new(1e6, good.clone(), 1.5, 0.0).is_err());
        assert!(ScenarioPath::new(1e6, good.clone(), 0.0, -1.0).is_err());
        let inf = Arc::new(ConstantDelay::new(f64::INFINITY));
        assert!(ScenarioPath::new(1e6, inf, 0.0, 0.0).is_err());
        let p = ScenarioPath::new(1e6, good, 0.0, 0.0).unwrap();
        let with = |paths: Vec<ScenarioPath>, lambda, delta| {
            Scenario::builder()
                .paths(paths)
                .data_rate(lambda)
                .lifetime(delta)
                .build()
        };
        assert!(with(vec![], 1e6, 1.0).is_err());
        assert!(with(vec![p.clone()], 0.0, 1.0).is_err());
        assert!(with(vec![p], 1e6, 0.0).is_err());
    }

    #[test]
    fn cost_budget_row_present() {
        let scenario = Scenario::builder()
            .path(nearly_constant(80e6, 0.450, 0.2, 1.0))
            .path(nearly_constant(20e6, 0.150, 0.0, 0.0))
            .data_rate(90e6)
            .lifetime(0.8)
            .cost_budget(1.0)
            .build()
            .unwrap();
        assert!(!scenario.is_deterministic());
        let s = solve(&scenario);
        // Path 0 unaffordable → only path 1's 20 Mbps of 90 → Q ≈ 2/9.
        assert!(
            (s.quality() - 2.0 / 9.0).abs() < 1e-6,
            "Q = {}",
            s.quality()
        );
    }
}
