//! Fleet / multi-flow experiment: admission rate, per-flow delivery
//! probability and aggregate utilization **vs. offered load**, on the
//! paper's Table III path pair shared by many concurrent flows.
//!
//! Per trial, a deterministic arrival trace (rates, deadlines and quality
//! floors drawn from the trial's seed stream) is replayed through a fresh
//! [`FleetPlanner`]; each admitted flow's decomposed [`Plan`] is then
//! **verified by simulation** on its allocated slice of the shared paths
//! (link bandwidth = the flow's joint-LP send rates, over-provisioned 2×
//! like Experiment 2 so queueing bursts don't mask the allocation
//! itself). Trials run through the parallel Monte-Carlo engine and are
//! folded in trial order, so every reported aggregate is bit-identical at
//! any thread count (`DMC_THREADS`).

use crate::montecarlo::{run_trials_parallel, trial_seed, MonteCarloConfig};
use crate::runner::{run_plan, RunConfig, TrueLink, TrueNetwork};
use dmc_core::{Plan, ScenarioPath};
use dmc_fleet::{FleetConfig, FleetObjective, FleetPlanner, FleetTrace, FlowRequest};
use dmc_stats::rng::to_unit;
use dmc_stats::TrialStats;
use std::sync::Arc;

/// Default flows offered per trial (`--flows`/`FLOWS` override it; the
/// joint LP is maintained in place and solved on the block-structured
/// sparse kernel, which keeps sweeps with hundreds of concurrent flows
/// tractable).
pub const FLOWS_PER_TRIAL: u64 = 10;

/// The shared links every flow contends for: the paper's Table III pair
/// (80 Mbps / 450 ms / 20 % and 20 Mbps / 150 ms / 0 %), 100 Mbps of
/// aggregate capacity.
pub fn shared_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("literal path parameters are valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("literal path parameters are valid"),
    ]
}

/// Aggregate capacity of [`shared_paths`] in bits/second.
pub fn total_capacity() -> f64 {
    shared_paths().iter().map(ScenarioPath::bandwidth).sum()
}

/// The swept offered loads `ρ = Σλ_f / Σb_k` (0.25 … 2.0): past 1.0 the
/// blackhole absorbs best-effort surplus, and once the *floored* demand
/// alone exceeds what the shared paths can deliver, admission control
/// starts rejecting.
pub fn paper_loads() -> Vec<f64> {
    (1..=8).map(|i| i as f64 * 0.25).collect()
}

/// Deterministic scalar stream derived from a trial seed (stateless
/// SplitMix64 finalization via [`trial_seed`], so a trace is a pure
/// function of its seed).
pub(crate) struct SeedStream {
    seed: u64,
    k: u64,
}

impl SeedStream {
    pub(crate) fn new(seed: u64) -> Self {
        SeedStream { seed, k: 0 }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.k += 1;
        trial_seed(self.seed, self.k)
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * to_unit(self.next_u64())
    }

    pub(crate) fn pick(&mut self, xs: &[f64]) -> f64 {
        xs[(self.next_u64() % xs.len() as u64) as usize]
    }
}

/// The arrival trace of one trial at offered load `load`:
/// [`FLOWS_PER_TRIAL`] flows whose rates sum to ≈ `load × total
/// capacity`, with deadlines in `[0.3 s, 1.2 s)` and quality floors
/// drawn from `{best-effort, 0.8, 0.9, 0.95}`.
pub fn offered_trace(load: f64, seed: u64) -> FleetTrace {
    offered_trace_n(load, seed, FLOWS_PER_TRIAL)
}

/// [`offered_trace`] with an explicit flow count (the `--flows` knob):
/// the aggregate offered rate stays `load × total capacity`, split over
/// `flows` arrivals.
pub fn offered_trace_n(load: f64, seed: u64, flows: u64) -> FleetTrace {
    let flows = flows.max(1);
    let mut rng = SeedStream::new(seed);
    let mean_rate = load * total_capacity() / flows as f64;
    let mut trace = FleetTrace::new();
    for i in 0..flows {
        let rate = mean_rate * rng.in_range(0.5, 1.5);
        let lifetime = rng.in_range(0.3, 1.2);
        let floor = rng.pick(&[0.0, 0.8, 0.9, 0.95]);
        let request = FlowRequest::new(rate, lifetime)
            .expect("valid request")
            .with_min_quality(floor);
        trace = trace
            .arrive(i as f64, request)
            .expect("arrival times increase with flow index");
    }
    trace
}

/// The true network of one admitted flow's *allocated slice*: each
/// shared path's bandwidth replaced by the flow's joint-LP send rate
/// (floored at 1 kbps so unused paths still construct — they carry no
/// traffic anyway), over-provisioned 2× for queueing slack per the
/// paper's Experiment-2 practice. This is the verification convention
/// the fleet driver and `examples/fleet.rs` share.
pub fn allocated_slice(plan: &Plan) -> TrueNetwork {
    let links: Vec<TrueLink> = plan
        .scenario()
        .paths()
        .iter()
        .zip(plan.send_rates())
        .map(|(path, &rate)| TrueLink {
            bandwidth: rate.max(1e3),
            delay: Arc::clone(path.delay()),
            loss: path.loss().into(),
        })
        .collect();
    TrueNetwork::from_links(links).over_provisioned(2.0)
}

/// Simulates one admitted flow's plan on its allocated slice of the
/// shared paths and returns the measured in-time delivery fraction.
fn measure_flow(plan: &Plan, cfg: &RunConfig, seed: u64) -> Result<f64, String> {
    let mut trial_cfg = cfg.clone();
    trial_cfg.seed = seed;
    run_plan(plan, &allocated_slice(plan), &trial_cfg).map(|o| o.quality)
}

/// Per-trial outcome (folded into a [`FleetPoint`] in trial order).
struct TrialOutcome {
    admission_rate: f64,
    predicted_quality: f64,
    measured_quality: f64,
    utilization: f64,
}

fn run_trial(load: f64, seed: u64, cfg: &RunConfig, flows: u64) -> Result<TrialOutcome, String> {
    let mut fleet =
        FleetPlanner::new(shared_paths(), FleetConfig::default()).map_err(|e| e.to_string())?;
    fleet
        .replay(&offered_trace_n(load, seed, flows))
        .map_err(|e| e.to_string())?;
    let admitted = fleet.flow_ids();
    let admission_rate = admitted.len() as f64 / flows.max(1) as f64;
    let predicted_quality = fleet.aggregate_quality();
    // Capacity-weighted aggregate utilization: Σ_k util_k·b_k / Σ_k b_k.
    let caps: Vec<f64> = shared_paths().iter().map(|p| p.bandwidth()).collect();
    let utilization = fleet
        .utilization()
        .iter()
        .zip(&caps)
        .map(|(u, b)| u * b)
        .sum::<f64>()
        / caps.iter().sum::<f64>();
    // Verify each admitted flow's plan by simulation on its slice.
    let mut weighted = 0.0;
    let mut lambda_tot = 0.0;
    for (i, id) in admitted.iter().enumerate() {
        let plan = fleet
            .plan_of(*id)
            .expect("id was taken from the admitted list");
        let lambda = plan.scenario().data_rate();
        let q = measure_flow(plan, cfg, trial_seed(seed, 1_000 + i as u64))?;
        weighted += lambda * q;
        lambda_tot += lambda;
    }
    let measured_quality = if lambda_tot > 0.0 {
        weighted / lambda_tot
    } else {
        0.0
    };
    Ok(TrialOutcome {
        admission_rate,
        predicted_quality,
        measured_quality,
        utilization,
    })
}

/// One point of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Offered load `ρ` (aggregate requested rate / aggregate capacity).
    pub offered_load: f64,
    /// Flows offered per trial.
    pub offered: u64,
    /// Fraction of offered flows admitted, across trials.
    pub admission_rate: TrialStats,
    /// Rate-weighted LP-predicted delivery probability of admitted flows.
    pub predicted_quality: TrialStats,
    /// Rate-weighted *simulated* delivery fraction of admitted flows
    /// (each on its allocated slice).
    pub measured_quality: TrialStats,
    /// Capacity-weighted aggregate utilization of the shared paths.
    pub utilization: TrialStats,
}

/// Sweeps offered load through the parallel Monte-Carlo engine: per
/// point, `mc.trials` independent traces are generated, replayed and
/// simulated, and the aggregates are folded in trial order
/// (bit-identical at any thread count).
///
/// # Panics
///
/// Panics if a trial fails (invalid topology — not reachable from the
/// library's own scenario set).
pub fn load_sweep_mc(loads: &[f64], cfg: &RunConfig, mc: &MonteCarloConfig) -> Vec<FleetPoint> {
    load_sweep_mc_n(loads, cfg, mc, FLOWS_PER_TRIAL)
}

/// [`load_sweep_mc`] with an explicit per-trial flow count (the
/// `--flows` knob of the fleet driver).
pub fn load_sweep_mc_n(
    loads: &[f64],
    cfg: &RunConfig,
    mc: &MonteCarloConfig,
    flows: u64,
) -> Vec<FleetPoint> {
    loads
        .iter()
        .map(|&load| {
            let outcomes =
                run_trials_parallel(mc, |_trial, seed| run_trial(load, seed, cfg, flows));
            let mut point = FleetPoint {
                offered_load: load,
                offered: flows.max(1),
                admission_rate: TrialStats::new(),
                predicted_quality: TrialStats::new(),
                measured_quality: TrialStats::new(),
                utilization: TrialStats::new(),
            };
            for outcome in outcomes {
                let o = outcome.expect("fleet trial failed");
                point.admission_rate.push(o.admission_rate);
                point.predicted_quality.push(o.predicted_quality);
                point.measured_quality.push(o.measured_quality);
                point.utilization.push(o.utilization);
            }
            point
        })
        .collect()
}

/// Renders the sweep as a markdown table; with multiple trials per point
/// a `±95 % CI` column (Student-t half-width, percentage points) follows
/// the simulated delivery column.
pub fn render(points: &[FleetPoint]) -> String {
    let with_ci = points.iter().any(|p| p.admission_rate.count() > 1);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![
                format!("{:.1}", p.offered_load),
                format!("{:.0} %", p.admission_rate.mean() * 100.0),
                crate::report::pct(p.predicted_quality.mean()),
                crate::report::pct(p.measured_quality.mean()),
            ];
            if with_ci {
                row.push(format!(
                    "±{:.2}",
                    p.measured_quality.half_width(0.95) * 100.0
                ));
            }
            row.push(format!("{:.0} %", p.utilization.mean() * 100.0));
            row
        })
        .collect();
    let mut header = vec!["ρ", "admitted", "predicted Q", "sim Q"];
    if with_ci {
        header.push("±95% CI");
    }
    header.push("utilization");
    crate::report::markdown_table(&header, &rows)
}

/// One row of the objective-mode comparison (LP only, no simulation).
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Mode name.
    pub mode: &'static str,
    /// Admitted flows out of [`FLOWS_PER_TRIAL`].
    pub admitted: usize,
    /// Rate-weighted aggregate quality of the admitted set.
    pub aggregate_quality: f64,
    /// The *worst* admitted flow's delivery probability.
    pub min_flow_quality: f64,
}

/// Compares the three [`FleetObjective`] modes on the same offered trace
/// (admission is floor-feasibility based in all three, so the admitted
/// *sets* agree for sequential arrivals; the allocations differ).
///
/// # Panics
///
/// Panics only on internal solver failure.
pub fn objective_comparison(load: f64, seed: u64) -> Vec<ModeRow> {
    let modes = [
        ("MaxAdmitted", FleetObjective::MaxAdmitted),
        ("MaxTotalQuality", FleetObjective::MaxTotalQuality),
        ("WeightedFair", FleetObjective::WeightedFair),
    ];
    modes
        .iter()
        .map(|(name, objective)| {
            let mut fleet = FleetPlanner::new(
                shared_paths(),
                FleetConfig {
                    objective: *objective,
                    ..FleetConfig::default()
                },
            )
            .expect("literal path parameters are valid");
            fleet
                .replay(&offered_trace(load, seed))
                .expect("replay succeeds");
            let min_flow_quality = fleet
                .plans()
                .map(|(_, p)| p.quality())
                .fold(f64::INFINITY, f64::min);
            ModeRow {
                mode: name,
                admitted: fleet.num_flows(),
                aggregate_quality: fleet.aggregate_quality(),
                min_flow_quality: if min_flow_quality.is_finite() {
                    min_flow_quality
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Renders the mode comparison as a markdown table.
pub fn render_modes(rows: &[ModeRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{}/{}", r.admitted, FLOWS_PER_TRIAL),
                crate::report::pct(r.aggregate_quality),
                crate::report::pct(r.min_flow_quality),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &["objective", "admitted", "aggregate Q", "worst flow Q"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::default();
        cfg.messages = 800;
        cfg
    }

    #[test]
    fn traces_are_pure_functions_of_their_seed() {
        let a = offered_trace(0.8, 42);
        let b = offered_trace(0.8, 42);
        assert_eq!(a.events().len(), b.events().len());
        let c = offered_trace(0.8, 43);
        // Different seed ⇒ different rates (overwhelmingly likely).
        let rate = |t: &FleetTrace, i: usize| match &t.events()[i].event {
            dmc_fleet::FleetEvent::Arrive(r) => r.data_rate(),
            _ => panic!("arrival trace"),
        };
        assert_eq!(rate(&a, 0), rate(&b, 0));
        assert_ne!(rate(&a, 0), rate(&c, 0));
    }

    #[test]
    fn aggregates_are_bit_identical_across_thread_counts() {
        let cfg = quick_cfg();
        let run = |threads| {
            load_sweep_mc(
                &[0.6],
                &cfg,
                &MonteCarloConfig {
                    trials: 3,
                    threads,
                    base_seed: 7,
                },
            )
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq[0].admission_rate, par[0].admission_rate); // bitwise
        assert_eq!(seq[0].predicted_quality, par[0].predicted_quality);
        assert_eq!(seq[0].measured_quality, par[0].measured_quality);
        assert_eq!(seq[0].utilization, par[0].utilization);
    }

    #[test]
    fn admission_tightens_and_utilization_grows_with_load() {
        let cfg = quick_cfg();
        let mc = MonteCarloConfig {
            trials: 2,
            threads: 0,
            base_seed: 11,
        };
        let pts = load_sweep_mc(&[0.25, 2.0], &cfg, &mc);
        assert!(
            pts[0].admission_rate.mean() > pts[1].admission_rate.mean(),
            "admission must tighten under heavy floored demand: {} vs {}",
            pts[0].admission_rate.mean(),
            pts[1].admission_rate.mean()
        );
        assert!(pts[1].utilization.mean() > pts[0].utilization.mean());
        // At 25 % load everything fits and floors are easy.
        assert!(pts[0].admission_rate.mean() > 0.99);
        assert!(pts[0].predicted_quality.mean() > 0.9);
        // Simulation tracks the joint LP's prediction (loose bar: these
        // are short per-flow verification runs, and overload points pay
        // queueing/discretization noise on tiny allocated slices).
        for p in &pts {
            assert!(
                (p.measured_quality.mean() - p.predicted_quality.mean()).abs() < 0.10,
                "ρ={}: sim {} vs predicted {}",
                p.offered_load,
                p.measured_quality.mean(),
                p.predicted_quality.mean()
            );
        }
    }

    #[test]
    fn objective_modes_share_admission_but_differ_in_shape() {
        let rows = objective_comparison(1.2, 5);
        assert_eq!(rows.len(), 3);
        // Floor-based admission: all modes admit the same count for a
        // sequential trace.
        assert!(rows.iter().all(|r| r.admitted == rows[0].admitted));
        for r in &rows {
            assert!(r.aggregate_quality > 0.0 && r.aggregate_quality <= 1.0 + 1e-9);
            assert!(r.min_flow_quality <= r.aggregate_quality + 1e-9);
        }
        let table = render_modes(&rows);
        assert!(table.contains("MaxAdmitted"), "{table}");
    }
}
