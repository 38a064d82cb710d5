//! Wires the protocol into the simulator and measures communication
//! quality — the paper's experimental loop (§VII-A).
//!
//! [`run_plan`] takes a solved [`Plan`] (from `Scenario` → `Planner`) and
//! builds its sender from it.

use dmc_core::{Plan, Scenario, Strategy};
use dmc_proto::wire::DATA_HEADER_BYTES;
use dmc_proto::{
    DmcReceiver, DmcSender, ReceiverConfig, ReceiverStats, SenderConfig, SenderStats, TimeoutPlan,
};
use dmc_sim::{
    Dir, Dynamics, FaultPlan, FaultStats, LinkConfig, LossModel, SimDuration, TwoHostSim,
};
use dmc_stats::Delay;
use std::sync::Arc;

/// The *actual* network the simulation runs on (as opposed to the model
/// the sender solved — they differ in the sensitivity experiments).
#[derive(Debug, Clone)]
pub struct TrueNetwork {
    links: Vec<TrueLink>,
}

/// One true path: what the simulator links are configured with.
#[derive(Debug, Clone)]
pub struct TrueLink {
    /// Link rate, bits/second.
    pub bandwidth: f64,
    /// Propagation-delay distribution.
    pub delay: Arc<dyn Delay>,
    /// Packet erasure process (Bernoulli or Gilbert–Elliott).
    pub loss: LossModel,
}

impl TrueNetwork {
    /// True links from explicit per-link configurations — e.g. the fleet
    /// experiment running each admitted flow on its *allocated slice* of
    /// the shared paths rather than on their full bandwidth.
    pub fn from_links(links: Vec<TrueLink>) -> Self {
        TrueNetwork { links }
    }

    /// True links from a [`Scenario`] (either regime: the delay
    /// distributions are shared with the simulator links).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        TrueNetwork {
            links: scenario
                .paths()
                .iter()
                .map(|p| TrueLink {
                    bandwidth: p.bandwidth(),
                    delay: Arc::clone(p.delay()),
                    loss: p.loss().into(),
                })
                .collect(),
        }
    }

    /// Scales every link's bandwidth by `factor` — the paper's Exp. 2
    /// over-provisioning ("we over-provisioned both paths … but only used
    /// the allowed amount specified in the model"), which prevents the
    /// sender's 100 %-utilization optimum from building an unbounded
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics unless `factor ≥ 1`.
    #[must_use]
    pub fn over_provisioned(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "over-provisioning factor must be ≥ 1");
        for l in &mut self.links {
            l.bandwidth *= factor;
        }
        self
    }

    /// Replaces one path's erasure process — e.g. swap a Bernoulli
    /// truth for a Gilbert–Elliott chain with the same stationary rate
    /// while the model keeps planning against `τ_i`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range or the model is invalid.
    #[must_use]
    pub fn with_loss_model(mut self, path: usize, model: LossModel) -> Self {
        model.validate().expect("invalid loss model");
        self.links[path].loss = model;
        self
    }

    /// Number of paths.
    pub fn num_paths(&self) -> usize {
        self.links.len()
    }

    /// The links.
    pub fn links(&self) -> &[TrueLink] {
        &self.links
    }
}

/// Knobs of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Messages to generate (paper: 100,000).
    pub messages: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Extra slack on retransmission timeouts (paper Exp. 1: 100 ms).
    pub rto_extra: SimDuration,
    /// On-wire message size (paper: 1024 B).
    pub message_bytes: usize,
    /// Link queue capacity in bytes.
    pub queue_capacity: usize,
    /// Fast-retransmit dup threshold (§VIII-D), `None` = off.
    pub fast_retransmit: Option<u32>,
    /// Scheduled link dynamics (path failures, bandwidth steps, loss
    /// changes); empty = the paper's static links.
    pub dynamics: Dynamics,
    /// Seeded fault injection (payload corruption, duplication, bounded
    /// reordering, flaps, correlated fault domains); `None` = a clean
    /// run. The plan's link schedule composes with `dynamics`.
    pub faults: Option<FaultPlan>,
    /// Telemetry registry. When enabled, every run publishes its
    /// endpoint counters (`proto.tx.*` / `proto.rx.*`), the simulator's
    /// fault and event counters (`sim.*`), and a `runner.runs` counter;
    /// the registry's logical clock advances to the dispatched-event
    /// total. Disabled (the default) costs nothing.
    pub obs: dmc_obs::Obs,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            messages: 100_000,
            seed: 0xDEAD_BEEF,
            rto_extra: SimDuration::from_millis(100),
            message_bytes: 1024,
            // 100 × 1024-byte packets: ns-3's default drop-tail queue, the
            // substrate the paper ran on. This bounds queueing delay to
            // ~10 ms (80 Mbps) / ~41 ms (20 Mbps) — the "up to 50 ms"
            // deviation the paper reports — and produces the
            // overflow-loss behaviour Fig. 3 (top, right half) relies on.
            queue_capacity: 100 * 1024,
            fast_retransmit: None,
            dynamics: Dynamics::new(),
            faults: None,
            obs: dmc_obs::Obs::disabled(),
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Measured quality: unique in-time deliveries / generated.
    pub quality: f64,
    /// The model's predicted quality for the strategy that ran.
    pub predicted_quality: f64,
    /// Sender counters.
    pub sender: SenderStats,
    /// Receiver counters.
    pub receiver: ReceiverStats,
    /// Packet faults injected on the data direction (all zero when
    /// [`RunConfig::faults`] is `None`).
    pub faults_injected: FaultStats,
}

/// Runs a solved [`Plan`] on a true network: the sender, its timeouts,
/// the data rate, the receiver deadline and the ack path all come from
/// the plan — nothing is hand-wired.
///
/// Timeout slack follows the paper's practice: deterministic plans add
/// `cfg.rto_extra` (Exp. 1's 100 ms jitter margin); random-delay plans
/// add none, because Eq. 34 already accounts for the delay distribution.
///
/// # Errors
///
/// Returns a message when the plan's path count does not match the true
/// network, [`RunConfig::message_bytes`] cannot hold the data header
/// ([`DATA_HEADER_BYTES`]), or topology construction fails.
pub fn run_plan(
    plan: &Plan,
    true_net: &TrueNetwork,
    cfg: &RunConfig,
) -> Result<RunOutcome, String> {
    let extra = if plan.scenario().is_deterministic() {
        cfg.rto_extra
    } else {
        SimDuration::ZERO
    };
    run_strategy(
        plan.strategy().clone(),
        TimeoutPlan::from_plan(plan, extra),
        true_net,
        plan.scenario().data_rate(),
        plan.scenario().lifetime(),
        plan.ack_path(),
        cfg,
    )
}

/// The body of [`run_plan`]: `lambda` is the generation rate, `lifetime`
/// the receiver's deadline, `ack_path` the reverse path acknowledgments
/// use.
fn run_strategy(
    strategy: Strategy,
    timeouts: TimeoutPlan,
    true_net: &TrueNetwork,
    lambda: f64,
    lifetime: f64,
    ack_path: usize,
    cfg: &RunConfig,
) -> Result<RunOutcome, String> {
    if strategy.table().num_paths() != true_net.num_paths() {
        return Err(format!(
            "strategy has {} paths, true network {}",
            strategy.table().num_paths(),
            true_net.num_paths()
        ));
    }
    if cfg.message_bytes < DATA_HEADER_BYTES {
        return Err(format!(
            "messages of {} bytes cannot hold the data header (DATA_HEADER_BYTES = {DATA_HEADER_BYTES})",
            cfg.message_bytes
        ));
    }
    let predicted_quality = strategy.quality();
    let mk_links = || -> Vec<LinkConfig> {
        true_net
            .links
            .iter()
            .map(|l| LinkConfig {
                bandwidth_bps: l.bandwidth,
                propagation: Arc::clone(&l.delay),
                loss: l.loss.clone(),
                queue_capacity_bytes: cfg.queue_capacity,
            })
            .collect()
    };
    let mut sender_cfg = SenderConfig::new(strategy, timeouts, lambda, cfg.messages);
    sender_cfg.message_wire_bytes = cfg.message_bytes;
    sender_cfg.fast_retransmit = cfg.fast_retransmit;
    let sender = DmcSender::new(sender_cfg);
    let receiver = DmcReceiver::new(ReceiverConfig::new(
        SimDuration::from_secs_f64(lifetime),
        ack_path,
    ));
    let mut sim = TwoHostSim::new(mk_links(), mk_links(), sender, receiver, cfg.seed)?;
    sim.apply_dynamics(&cfg.dynamics)?;
    if let Some(plan) = &cfg.faults {
        sim.apply_faults(plan)?;
    }
    sim.run_to_completion();
    if cfg.obs.is_enabled() {
        cfg.obs.counter("runner.runs").inc();
        sim.client().stats().publish_obs(&cfg.obs);
        sim.server().stats().publish_obs(&cfg.obs);
        sim.publish_obs(&cfg.obs);
    }
    let faults_injected = sim.fault_stats(Dir::Forward);
    let sender = sim.client().stats();
    let receiver = sim.server().stats();
    let quality = if sender.generated == 0 {
        0.0
    } else {
        receiver.unique_in_time as f64 / sender.generated as f64
    };
    Ok(RunOutcome {
        quality,
        predicted_quality,
        sender,
        receiver,
        faults_injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use dmc_core::{Objective, Planner};

    /// The paper's Experiment-1 procedure on `measured`: LP on delays
    /// inflated by the queueing margin, timeouts from the measured ones.
    fn run_with_margin(measured: &Scenario, truth: &TrueNetwork, cfg: &RunConfig) -> RunOutcome {
        let plan = Planner::new()
            .plan_with_margin(measured, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
            .unwrap();
        run_plan(&plan, truth, cfg).unwrap()
    }

    #[test]
    fn experiment1_point_tracks_theory() {
        // λ = 60 Mbps, δ = 800 ms: theory says Q = 1.0 (Table IV).
        let measured = scenarios::table3_scenario(60e6, 0.8);
        let truth = TrueNetwork::from_scenario(&measured);
        let mut cfg = RunConfig::default();
        cfg.messages = 5_000;
        let out = run_with_margin(&measured, &truth, &cfg);
        assert!((out.predicted_quality - 1.0).abs() < 1e-9);
        assert!(out.quality > 0.99, "sim quality {}", out.quality);
    }

    #[test]
    fn overloaded_point_matches_lower_theory() {
        // λ = 120 Mbps: theory says 70 % (Table IV); the blackhole absorbs
        // the rest at the source.
        let measured = scenarios::table3_scenario(120e6, 0.8);
        let truth = TrueNetwork::from_scenario(&measured);
        let mut cfg = RunConfig::default();
        cfg.messages = 5_000;
        let out = run_with_margin(&measured, &truth, &cfg);
        assert!((out.predicted_quality - 0.70).abs() < 1e-9);
        assert!(
            (out.quality - 0.70).abs() < 0.02,
            "sim quality {}",
            out.quality
        );
        assert!(out.sender.blackholed > 0);
    }

    #[test]
    fn gilbert_elliott_truth_under_bernoulli_model() {
        // Same stationary loss rate (20 %) on path 0, but bursty: mean
        // burst length 5. The plan (solved against Bernoulli τ = 0.2)
        // still runs; the paper's quality only needs the *rate*, so the
        // measured quality stays in the same regime — but bursts overrun
        // the per-message retransmit budget more often, so it must not
        // exceed the i.i.d. result by more than noise.
        use dmc_sim::GilbertElliott;
        let measured = scenarios::table3_scenario(60e6, 0.8);
        let truth = TrueNetwork::from_scenario(&measured);
        let ge = GilbertElliott::classic(0.05, 0.2).unwrap();
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
        let bursty_truth = truth.clone().with_loss_model(0, ge.into());
        let mut cfg = RunConfig::default();
        cfg.messages = 8_000;
        let q_iid = run_with_margin(&measured, &truth, &cfg).quality;
        let q_bursty = run_with_margin(&measured, &bursty_truth, &cfg).quality;
        assert!(q_iid > 0.99, "i.i.d. baseline {q_iid}");
        assert!(
            q_bursty > 0.9 && q_bursty <= q_iid + 0.005,
            "bursty {q_bursty} vs i.i.d. {q_iid}"
        );
    }

    #[test]
    fn strategy_path_count_must_match() {
        let model = scenarios::table3_model_scenario(60e6, 0.8);
        let plan = Planner::new().plan(&model, Objective::MaxQuality).unwrap();
        let single = TrueNetwork::from_scenario(&model.restricted_to_path(0));
        assert!(run_plan(&plan, &single, &RunConfig::default()).is_err());
    }

    #[test]
    fn messages_smaller_than_the_header_are_an_error() {
        let model = scenarios::table3_model_scenario(60e6, 0.8);
        let plan = Planner::new().plan(&model, Objective::MaxQuality).unwrap();
        let truth = TrueNetwork::from_scenario(&model);
        for message_bytes in [0, 16, DATA_HEADER_BYTES - 1] {
            let cfg = RunConfig {
                messages: 10,
                message_bytes,
                ..RunConfig::default()
            };
            let err = run_plan(&plan, &truth, &cfg).expect_err("undersized messages are refused");
            assert!(err.contains("DATA_HEADER_BYTES"), "{err}");
        }
        let cfg = RunConfig {
            messages: 10,
            message_bytes: DATA_HEADER_BYTES,
            ..RunConfig::default()
        };
        assert!(run_plan(&plan, &truth, &cfg).is_ok());
    }
}
