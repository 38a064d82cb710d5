//! dmc-chaos: seeded fault scripts replayed against invariant checkers.
//!
//! Two legs, one seed discipline:
//!
//! * **fleet chaos** — a seeded [`FleetTrace`] (mixed-priority floored
//!   arrivals, a capacity retune, a *correlated two-link outage*, a
//!   recovery, and enough trailing capacity events to drain the shed
//!   queue) is replayed through a [`FleetPlanner`] with
//!   [`FleetConfig::certify`] on, so **every** joint-LP solution is
//!   re-checked against its constraint system in release builds. The
//!   snapshots then go through [`check_invariants`]:
//!
//!   1. per-path allocation never exceeds surviving capacity
//!      (`utilization ≤ 1` after every event);
//!   2. every shed flow is revived or definitively rejected within
//!      [`FleetPlanner::SHED_HORIZON`] capacity events of being shed
//!      (the capped-backoff telescoping bound);
//!   3. the whole run — decisions, shed/revive order, bitwise
//!      utilizations — reproduces exactly from the seed
//!      ([`fleet_chaos_trial`] replays twice and compares FNV-1a trace
//!      hashes).
//!
//! * **proto chaos** — the paper's Table III scenario simulated under a
//!   packet-level [`FaultPlan`] (payload corruption, frame duplication,
//!   bounded reordering): corrupted frames must be caught by the wire
//!   checksum (they surface as `malformed`, never as deliveries),
//!   duplicates must be discarded by the receiver's dedup window, and
//!   the run must be bit-identical when repeated with the same seed.
//!
//! Both legs run per-trial through the Monte-Carlo engine and fold in
//! trial order, so the aggregate report is thread-count independent.

use crate::montecarlo::{run_trials_parallel, trial_seed, MonteCarloConfig};
use crate::runner::{run_plan, RunConfig, RunOutcome, TrueNetwork};
use crate::scenarios;
use dmc_core::{Objective, Planner, ScenarioPath};
use dmc_fleet::{
    FleetConfig, FleetEvent, FleetPlanner, FleetSnapshot, FleetTrace, FlowId, FlowRequest,
    TraceEvent,
};
use dmc_sim::{FaultPlan, LinkChange, SimDuration};
use std::collections::BTreeMap;

/// Default flows offered per chaos trial.
pub const CHAOS_FLOWS: u64 = 8;

/// Utilization slack: the joint LP's own feasibility tolerance.
const UTIL_EPS: f64 = 1e-6;

/// The chaos topology: the Table III pair plus a third mid-grade path,
/// so a *two*-link correlated outage still leaves a survivor.
pub fn chaos_paths() -> Vec<ScenarioPath> {
    vec![
        ScenarioPath::constant(80e6, 0.450, 0.2).expect("literal path parameters are valid"),
        ScenarioPath::constant(20e6, 0.150, 0.0).expect("literal path parameters are valid"),
        ScenarioPath::constant(40e6, 0.250, 0.05).expect("literal path parameters are valid"),
    ]
}

/// Aggregate capacity of [`chaos_paths`] in bits/second.
pub fn chaos_capacity() -> f64 {
    chaos_paths().iter().map(ScenarioPath::bandwidth).sum()
}

/// Deterministic scalar stream derived from a trial seed (the same
/// stateless SplitMix64 finalization the fleet experiment uses).
struct SeedStream {
    seed: u64,
    k: u64,
}

impl SeedStream {
    fn new(seed: u64) -> Self {
        SeedStream { seed, k: 0 }
    }

    fn next_u64(&mut self) -> u64 {
        self.k += 1;
        trial_seed(self.seed, self.k)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn pick(&mut self, xs: &[f64]) -> f64 {
        xs[(self.next_u64() % xs.len() as u64) as usize]
    }
}

/// The seeded chaos script: `flows` mixed-priority arrivals summing to
/// ≈ 90 % of aggregate capacity, then a retune of the clean path, then a
/// correlated outage of paths 0 and 2 (one fault domain, identical
/// instant), then recovery — followed by [`FleetPlanner::SHED_HORIZON`]
/// no-op retunes, which give the re-admission queue enough capacity
/// events to resolve every shed flow (revive it or definitively reject
/// it) before the trace ends.
pub fn chaos_trace(seed: u64, flows: u64) -> FleetTrace {
    let flows = flows.max(1);
    let mut rng = SeedStream::new(seed);
    let mean_rate = 0.9 * chaos_capacity() / flows as f64;
    let mut trace = FleetTrace::new();
    for i in 0..flows {
        let rate = mean_rate * rng.in_range(0.5, 1.5);
        let lifetime = rng.in_range(0.4, 1.2);
        let floor = rng.pick(&[0.0, 0.7, 0.8, 0.9]);
        let priority = rng.pick(&[1.0, 2.0, 4.0, 8.0]);
        let request = FlowRequest::new(rate, lifetime)
            .expect("valid request")
            .with_min_quality(floor)
            .with_priority(priority);
        trace = trace
            .arrive(i as f64, request)
            .expect("arrival times increase with flow index");
    }
    let t0 = flows as f64;
    let retune = rng.in_range(15e6, 20e6);
    trace = trace
        .link(t0, 1, LinkChange::SetBandwidth(retune))
        .expect("literal event times are finite")
        // The correlated fault domain: both failures at the same instant.
        .link(t0 + 1.0, 0, LinkChange::Fail)
        .expect("literal event times are finite")
        .link(t0 + 1.0, 2, LinkChange::Fail)
        .expect("literal event times are finite")
        .link(t0 + 2.0, 0, LinkChange::Recover)
        .expect("literal event times are finite")
        .link(t0 + 2.0, 2, LinkChange::Recover)
        .expect("literal event times are finite");
    // Trailing no-op retunes: capacity events that shed nothing but give
    // the backoff queue its full horizon of revival sweeps.
    for k in 0..FleetPlanner::SHED_HORIZON {
        trace = trace
            .link(t0 + 3.0 + k as f64, 1, LinkChange::SetBandwidth(retune))
            .expect("literal event times are finite");
    }
    trace
}

/// Replays the chaos script of `seed` through a fresh certifying fleet
/// and returns the snapshots plus the planner's end state.
///
/// Certification is the first invariant: with [`FleetConfig::certify`]
/// set, every joint-LP solution along the way is re-verified against
/// its constraint system (release builds included) and a violation
/// panics instead of propagating silently.
///
/// # Errors
///
/// Forwards planner construction/replay errors as strings.
pub fn chaos_replay(seed: u64, flows: u64) -> Result<(Vec<FleetSnapshot>, FleetPlanner), String> {
    chaos_replay_obs(seed, flows, &dmc_obs::Obs::disabled())
}

/// [`chaos_replay`] with the planner's telemetry (`fleet.*`, `lp.*`)
/// recorded into `obs`.
///
/// # Errors
///
/// Forwards planner construction/replay errors as strings.
pub fn chaos_replay_obs(
    seed: u64,
    flows: u64,
    obs: &dmc_obs::Obs,
) -> Result<(Vec<FleetSnapshot>, FleetPlanner), String> {
    let mut fleet = FleetPlanner::new(
        chaos_paths(),
        FleetConfig {
            certify: true,
            obs: obs.clone(),
            ..FleetConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let snaps = fleet
        .replay(&chaos_trace(seed, flows))
        .map_err(|e| e.to_string())?;
    Ok((snaps, fleet))
}

/// FNV-1a over the debug rendering of every snapshot plus the planner's
/// terminal shed/rejected/anomaly state: two runs hash equal iff they
/// agree on every decision, shed/revive sequence and every bit of every
/// utilization figure.
pub fn trace_hash(snaps: &[FleetSnapshot], fleet: &FleetPlanner) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in snaps {
        eat(format!("{s:?}").as_bytes());
    }
    eat(format!("{:?}", fleet.shed_rejected()).as_bytes());
    eat(format!("{:?}", fleet.revived_flows()).as_bytes());
    eat(format!("{}", fleet.warm_anomalies()).as_bytes());
    h
}

/// Checks the replayed snapshots against the trace's structure and
/// returns every violation found (empty = all invariants hold):
///
/// * **capacity**: after every event, every path's allocation stays
///   within its surviving capacity (`utilization ≤ 1 + ε`);
/// * **bounded re-admission**: every shed flow is revived or
///   definitively rejected within [`FleetPlanner::SHED_HORIZON`]
///   capacity events of the event that shed it (flows shed too close to
///   the end of the trace for the horizon to elapse are exempt).
///
/// # Panics
///
/// Panics if `snaps` was not produced by replaying `trace` (length
/// mismatch).
pub fn check_invariants(
    trace: &FleetTrace,
    snaps: &[FleetSnapshot],
    fleet: &FleetPlanner,
) -> Vec<String> {
    assert_eq!(
        trace.events().len(),
        snaps.len(),
        "snapshots must come from replaying this trace"
    );
    let mut violations = Vec::new();
    // Per-id: capacity-event index at which the flow was (last) shed.
    let mut pending: BTreeMap<FlowId, usize> = BTreeMap::new();
    let mut cap_events = 0usize;
    for (i, (e, s)) in trace.events().iter().zip(snaps).enumerate() {
        for (k, u) in s.utilization.iter().enumerate() {
            if *u > 1.0 + UTIL_EPS {
                violations.push(format!(
                    "event {i}: path {k} allocated {:.4}× its surviving capacity",
                    u
                ));
            }
        }
        // Capacity events are the ones that run a revival sweep: link
        // changes and *effective* departures (a no-op departure of a
        // never-admitted id frees nothing and sweeps nothing).
        let is_capacity_event = matches!(e.event, FleetEvent::Link { .. })
            || (matches!(e.event, FleetEvent::Depart(_)) && s.departed.is_some());
        if is_capacity_event {
            cap_events += 1;
        }
        for id in &s.revived {
            if let Some(shed_at) = pending.remove(id) {
                let elapsed = cap_events - shed_at;
                if elapsed > FleetPlanner::SHED_HORIZON {
                    violations.push(format!(
                        "event {i}: {id} revived only after {elapsed} capacity events \
                         (horizon {})",
                        FleetPlanner::SHED_HORIZON
                    ));
                }
            }
        }
        for id in &s.shed {
            pending.insert(*id, cap_events);
        }
    }
    // Definitive rejection happens on the final failed attempt, which the
    // backoff schedule places exactly at the horizon — resolved by
    // construction.
    for id in fleet.shed_rejected() {
        pending.remove(id);
    }
    for (id, shed_at) in pending {
        let elapsed = cap_events - shed_at;
        if elapsed > FleetPlanner::SHED_HORIZON {
            violations.push(format!(
                "{id} still queued {elapsed} capacity events after being shed \
                 (horizon {})",
                FleetPlanner::SHED_HORIZON
            ));
        }
    }
    violations
}

/// One fleet-chaos trial's summary.
#[derive(Debug, Clone)]
pub struct FleetChaosOutcome {
    /// The trial seed.
    pub seed: u64,
    /// Flows shed (over the whole trace, with multiplicity).
    pub shed: usize,
    /// Flows revived from the queue.
    pub revived: usize,
    /// Flows definitively rejected after exhausting their attempts.
    pub rejected: usize,
    /// Warm-start anomalies absorbed (basis dropped, cold re-solve).
    pub warm_anomalies: u64,
    /// The run's trace hash (bit-identical across same-seed replays).
    pub hash: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

/// Runs one seeded fleet-chaos trial: replays the script **twice**
/// (fresh planners), demands bitwise-identical trace hashes, and checks
/// the capacity and bounded-re-admission invariants.
///
/// # Errors
///
/// Forwards planner construction/replay errors as strings.
pub fn fleet_chaos_trial(seed: u64, flows: u64) -> Result<FleetChaosOutcome, String> {
    fleet_chaos_trial_obs(seed, flows, &dmc_obs::Obs::disabled())
}

/// [`fleet_chaos_trial`] with the **first** replay's telemetry recorded
/// into `obs` (the verification replay stays unrecorded, so counter
/// deltas describe exactly one run of the script). With an enabled
/// registry the trial gains a third invariant class: the telemetry
/// deltas over the replay ([`dmc_obs::Obs::diff`] against the
/// pre-replay snapshot) must agree with the ground truth the planner's
/// own state reports — `fleet.sheds`, `fleet.revives`,
/// `fleet.shed_rejects` and `fleet.warm_anomalies` each cross-checked
/// against the outcome. A mismatch means the instrumentation itself
/// drifted and is reported as an invariant violation.
///
/// # Errors
///
/// Forwards planner construction/replay errors as strings.
pub fn fleet_chaos_trial_obs(
    seed: u64,
    flows: u64,
    obs: &dmc_obs::Obs,
) -> Result<FleetChaosOutcome, String> {
    let before = obs.snapshot();
    let (snaps, fleet) = chaos_replay_obs(seed, flows, obs)?;
    let (snaps2, fleet2) = chaos_replay(seed, flows)?;
    let trace = chaos_trace(seed, flows);
    let hash = trace_hash(&snaps, &fleet);
    let mut violations = check_invariants(&trace, &snaps, &fleet);
    if trace_hash(&snaps2, &fleet2) != hash {
        violations.push(format!(
            "seed {seed:#x}: same-seed replays diverge (trace hashes differ)"
        ));
    }
    if obs.is_enabled() {
        let delta = obs.diff(&before);
        let shed: usize = snaps.iter().map(|s| s.shed.len()).sum();
        let revived: usize = snaps.iter().map(|s| s.revived.len()).sum();
        for (name, want) in [
            ("fleet.sheds", shed as u64),
            ("fleet.revives", revived as u64),
            ("fleet.shed_rejects", fleet.shed_rejected().len() as u64),
            ("fleet.warm_anomalies", fleet.warm_anomalies()),
        ] {
            let got = delta.counter(name).unwrap_or(0);
            if got != want {
                violations.push(format!(
                    "seed {seed:#x}: telemetry counter {name} recorded {got} \
                     but the planner's own state says {want}"
                ));
            }
        }
    }
    Ok(FleetChaosOutcome {
        seed,
        shed: snaps.iter().map(|s| s.shed.len()).sum(),
        revived: snaps.iter().map(|s| s.revived.len()).sum(),
        rejected: fleet.shed_rejected().len(),
        warm_anomalies: fleet.warm_anomalies(),
        hash,
        violations,
    })
}

/// Runs `mc.trials` fleet-chaos trials through the parallel Monte-Carlo
/// engine (results folded in trial order: thread-count independent).
///
/// # Panics
///
/// Panics if a trial fails outright (planner construction — not
/// reachable from the library's own scenario set).
pub fn fleet_chaos_mc(mc: &MonteCarloConfig, flows: u64) -> Vec<FleetChaosOutcome> {
    fleet_chaos_mc_obs(mc, flows, &dmc_obs::Obs::disabled())
}

/// [`fleet_chaos_mc`] with telemetry. Each trial records into its own
/// [`dmc_obs::Obs::fork`] (trials run on arbitrary worker threads; span
/// and warning order inside a shared registry would depend on
/// scheduling), and the forks' snapshots are absorbed into `obs` in
/// trial order afterwards — so the merged registry is bit-identical at
/// any `--threads` setting.
///
/// # Panics
///
/// Panics if a trial fails outright (planner construction — not
/// reachable from the library's own scenario set).
pub fn fleet_chaos_mc_obs(
    mc: &MonteCarloConfig,
    flows: u64,
    obs: &dmc_obs::Obs,
) -> Vec<FleetChaosOutcome> {
    run_trials_parallel(mc, |_trial, seed| {
        let fork = obs.fork();
        let outcome = fleet_chaos_trial_obs(seed, flows, &fork);
        (outcome, fork.snapshot())
    })
    .into_iter()
    .map(|(r, trial_obs)| {
        obs.absorb(&trial_obs);
        r.expect("fleet chaos trial failed")
    })
    .collect()
}

/// Renders fleet-chaos trials as a markdown table.
pub fn render(outcomes: &[FleetChaosOutcome]) -> String {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                format!("{:#018x}", o.seed),
                o.shed.to_string(),
                o.revived.to_string(),
                o.rejected.to_string(),
                o.warm_anomalies.to_string(),
                format!("{:#018x}", o.hash),
                if o.violations.is_empty() {
                    "pass".into()
                } else {
                    format!("{} VIOLATIONS", o.violations.len())
                },
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "seed",
            "shed",
            "revived",
            "rejected",
            "warm anomalies",
            "trace hash",
            "invariants",
        ],
        &rows,
    )
}

/// The proto-chaos fault mix: 2 % payload corruption, 2 % duplication,
/// 5 % bounded reordering within 5 ms.
///
/// # Panics
///
/// Never — the literal probabilities are valid.
pub fn proto_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_corruption(0.02)
        .expect("literal probability")
        .with_duplication(0.02)
        .expect("literal probability")
        .with_reordering(0.05, SimDuration::from_millis(5))
        .expect("literal probability")
}

/// Simulates the paper's Table III scenario (λ = 60 Mbps, δ = 800 ms)
/// under [`proto_fault_plan`]: corrupted frames are rejected by the wire
/// checksum (surfacing as `receiver.malformed`), duplicates are
/// discarded by the dedup window, and the protocol's retransmission
/// machinery recovers the losses.
///
/// # Errors
///
/// Forwards model/solver and topology errors as strings.
pub fn proto_chaos_run(seed: u64, messages: u64) -> Result<RunOutcome, String> {
    proto_chaos_run_obs(seed, messages, &dmc_obs::Obs::disabled())
}

/// [`proto_chaos_run`] with the run's telemetry (`proto.tx.*`,
/// `proto.rx.*`, `sim.*`, `runner.runs`) recorded into `obs`.
///
/// # Errors
///
/// Forwards model/solver and topology errors as strings.
pub fn proto_chaos_run_obs(
    seed: u64,
    messages: u64,
    obs: &dmc_obs::Obs,
) -> Result<RunOutcome, String> {
    let measured = scenarios::table3_scenario(60e6, 0.8);
    let truth = TrueNetwork::from_scenario(&measured);
    let mut cfg = RunConfig::default();
    cfg.messages = messages;
    cfg.seed = trial_seed(seed, 1);
    cfg.faults = Some(proto_fault_plan(trial_seed(seed, 2)));
    cfg.obs = obs.clone();
    let plan = Planner::new()
        .plan_with_margin(&measured, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
        .map_err(|e| e.to_string())?;
    run_plan(&plan, &truth, &cfg)
}

/// Convenience: the priority each arrival in `trace` asked for, keyed by
/// the [`FlowId`] it will receive (ids are offer-ordered, so the k-th
/// arrival becomes flow k). Used by acceptance tests to assert that the
/// outage sheds only lowest-priority flows.
pub fn trace_priorities(trace: &FleetTrace) -> BTreeMap<FlowId, f64> {
    trace
        .events()
        .iter()
        .filter_map(|e: &TraceEvent| match &e.event {
            FleetEvent::Arrive(r) => Some(r),
            _ => None,
        })
        .enumerate()
        .map(|(k, r)| (FlowId::from_index(k as u64), r.priority()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_trace_is_a_pure_function_of_its_seed() {
        let a = chaos_trace(7, CHAOS_FLOWS);
        let b = chaos_trace(7, CHAOS_FLOWS);
        assert_eq!(a.events().len(), b.events().len());
        let rate = |t: &FleetTrace, i: usize| match &t.events()[i].event {
            FleetEvent::Arrive(r) => r.data_rate(),
            _ => panic!("expected an arrival"),
        };
        assert_eq!(rate(&a, 0), rate(&b, 0));
        assert_ne!(rate(&a, 0), rate(&chaos_trace(8, CHAOS_FLOWS), 0));
        // Arrivals + retune + 2 fails + 2 recovers + horizon of no-ops.
        assert_eq!(
            a.events().len(),
            CHAOS_FLOWS as usize + 5 + FleetPlanner::SHED_HORIZON
        );
    }

    #[test]
    fn fleet_chaos_trials_hold_all_invariants() {
        for seed in [1u64, 0xC0FFEE, 0xD15EA5E] {
            let o = fleet_chaos_trial(seed, CHAOS_FLOWS).unwrap();
            assert!(
                o.violations.is_empty(),
                "seed {seed:#x}: {:?}",
                o.violations
            );
            assert!(
                o.shed > 0,
                "seed {seed:#x}: a 120-of-140-Mbps outage must shed something"
            );
            // Everything shed is accounted for: revived (possibly after
            // being shed more than once) or definitively rejected.
            assert!(o.revived + o.rejected > 0);
        }
    }

    #[test]
    fn fleet_chaos_aggregate_is_thread_count_independent() {
        let run = |threads| {
            fleet_chaos_mc(
                &MonteCarloConfig {
                    trials: 3,
                    threads,
                    base_seed: 42,
                },
                CHAOS_FLOWS,
            )
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.hash, b.hash, "trace hash must not depend on threads");
            assert_eq!(a.shed, b.shed);
            assert_eq!(a.revived, b.revived);
            assert_eq!(a.rejected, b.rejected);
        }
        let table = render(&seq);
        assert!(table.contains("pass"), "{table}");
    }

    #[test]
    fn chaos_telemetry_reproduces_bitwise_across_thread_counts() {
        let run = |threads| {
            let obs = dmc_obs::Obs::enabled();
            let outcomes = fleet_chaos_mc_obs(
                &MonteCarloConfig {
                    trials: 3,
                    threads,
                    base_seed: 42,
                },
                CHAOS_FLOWS,
                &obs,
            );
            for o in &outcomes {
                assert!(
                    o.violations.is_empty(),
                    "seed {:#x}: {:?} (telemetry cross-check included)",
                    o.seed,
                    o.violations
                );
            }
            obs.snapshot()
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(
            seq.fnv_hash(),
            par.fnv_hash(),
            "merged telemetry must not depend on worker threads"
        );
        // The script sheds under the correlated outage, and every joint
        // solve lands in the shared registry.
        assert!(seq.counter("fleet.sheds").unwrap_or(0) > 0);
        assert!(seq.counter("lp.solves").unwrap_or(0) > 0);
    }

    #[test]
    fn check_invariants_flags_a_capacity_breach() {
        // Forge a snapshot claiming 2× allocation on path 0: the checker
        // must catch it (guards against the checker rotting into a no-op).
        let (mut snaps, fleet) = chaos_replay(3, 4).unwrap();
        let trace = chaos_trace(3, 4);
        assert!(check_invariants(&trace, &snaps, &fleet).is_empty());
        snaps[0].utilization[0] = 2.0;
        let v = check_invariants(&trace, &snaps, &fleet);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("surviving capacity"), "{v:?}");
    }

    #[test]
    fn proto_chaos_detects_corruption_and_discards_duplicates() {
        let out = proto_chaos_run(11, 3_000).unwrap();
        let inj = out.faults_injected;
        assert!(inj.corrupted > 0 && inj.duplicated > 0 && inj.reordered > 0);
        // Every corrupted frame that arrived was caught by the checksum —
        // none parsed as a delivery — and some did arrive. A corrupted
        // frame that was *also* duplicated is rejected twice, so the
        // ceiling adds the duplicate budget.
        assert!(out.receiver.malformed > 0);
        assert!(out.receiver.malformed <= inj.corrupted + inj.duplicated);
        // Injected duplicates that arrived were discarded alongside the
        // protocol's own retransmission duplicates.
        assert!(out.receiver.duplicates > 0);
        // The retransmission machinery absorbs the 2 % corruption rate.
        assert!(out.quality > 0.9, "quality {}", out.quality);
        // Bitwise reproducible from the seed.
        let again = proto_chaos_run(11, 3_000).unwrap();
        assert_eq!(out.sender, again.sender);
        assert_eq!(out.receiver, again.receiver);
        assert_eq!(out.faults_injected, again.faults_injected);
    }
}
