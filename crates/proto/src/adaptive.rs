//! Closed-loop operation: estimate → re-solve → retarget (paper §VIII-A/B:
//! "the problem must be solved … when the estimations of network
//! characteristics vary significantly").

use crate::notice::{NoticeGuard, NoticeSeq};
use crate::sender::{DmcSender, SenderConfig, TimeoutPlan, RESERVED_KEY_BASE};
use crate::wire::{NoticeKind, PathNotice};
use dmc_core::{
    NetworkSpec, Objective, PathSpec, Plan, Planner, PlannerConfig, Scenario, SolverOptions,
};
use dmc_sim::{Agent, Packet, SimApi, SimDuration};
use dmc_stats::rng::SplitMix64;

/// Timer key reserved for the periodic re-solve.
const ADAPT_KEY: u64 = RESERVED_KEY_BASE;

/// Cap on the probe-backoff exponent: after this many unanswered probes
/// on a path, the wait between probes stops growing (at `2^cap − 1`
/// adaptation ticks plus jitter). Probing never stops entirely —
/// recovery can only be observed by a probe getting through.
const MAX_BACKOFF_EXP: u32 = 3;

/// Stepwise quality-floor relaxation schedule (fractions of the
/// configured floor tried in order when the full floor is infeasible).
const FLOOR_RELAX_STEPS: [f64; 3] = [0.75, 0.5, 0.25];

/// Cap on the retained degradation-ladder event log.
const MAX_LADDER_EVENTS: usize = 4096;

/// The rung of the degradation ladder that finally produced a plan when
/// a re-solve at the configured operating point was infeasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LadderRung {
    /// The quality floor was relaxed to the embedded value (a fraction of
    /// the configured floor) and the cheaper problem solved.
    RelaxedFloor {
        /// The relaxed floor that was feasible.
        floor: f64,
    },
    /// The floor was dropped entirely: best-effort quality maximization.
    BestEffort,
    /// Everything is routed onto the single best surviving path, with
    /// the offered rate clamped to that path's bandwidth.
    SinglePath {
        /// The surviving path carrying all traffic.
        path: usize,
    },
    /// Even the single-path fallback failed; the previous plan stays in
    /// force.
    Stuck,
}

/// One engagement of the degradation ladder (a clean full re-plan is not
/// an event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderEvent {
    /// Simulation time of the re-solve, in nanoseconds.
    pub at_ns: u64,
    /// The rung that produced (or failed to produce) a plan.
    pub rung: LadderRung,
}

/// Per-path probe backoff state.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeBackoff {
    /// Unanswered probes so far (exponent; capped at [`MAX_BACKOFF_EXP`]).
    exp: u32,
    /// Adaptation ticks left to skip before the next probe.
    skip: u64,
}

/// Configuration for [`AdaptiveSender`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Prior scenario (bandwidths are taken as configured — the paper's
    /// §VIII-A position is that bandwidth comes from congestion control;
    /// delay and loss priors are refined from measurements).
    pub prior: NetworkSpec,
    /// How often to re-estimate and re-solve.
    pub interval: SimDuration,
    /// Number of transmissions `m` per data unit in the re-solved model
    /// (the paper's base model is 2: one transmission + one
    /// retransmission).
    pub transmissions: usize,
    /// Include the blackhole path in the re-solved model (`true` keeps
    /// the LP feasible under overload, Eq. 19).
    pub blackhole: bool,
    /// LP solver options of the internal [`Planner`].
    pub solver: SolverOptions,
    /// Slack added to re-derived retransmission timeouts.
    pub rto_extra: SimDuration,
    /// Minimum RTT samples on a path before its delay estimate replaces
    /// the prior.
    pub min_samples: u64,
    /// Required quality floor: when set, re-solves minimize cost subject
    /// to `Q ≥ floor` ([`Objective::MinCost`]) instead of maximizing
    /// quality, and mid-transfer infeasibility walks the degradation
    /// ladder (stepwise relaxation → best effort → single path).
    pub quality_floor: Option<f64>,
    /// Seed for the deterministic probe-backoff jitter stream.
    pub jitter_seed: u64,
}

/// A [`DmcSender`] that periodically refits path characteristics from its
/// own estimators, re-plans through an owned [`Planner`], and retargets
/// Algorithm 1 from the fresh [`Plan`] — the paper's complete practical
/// loop. Receiver-issued [`PathNotice`]s short-circuit the periodic
/// cadence: a failure notice re-plans immediately with the dead path's
/// loss pinned to 1, and a recovery notice re-admits it.
///
/// The planner's LP workspace is reused across every re-solve, so the
/// periodic re-planning allocates nothing once warm — and because
/// successive estimates share the LP's shape, every re-solve after the
/// first warm-starts from the previous optimal basis and typically
/// re-enters phase 2 with a handful of pivots (see
/// `dmc_core::PlannerConfig::warm_start`).
#[derive(Debug)]
pub struct AdaptiveSender {
    inner: DmcSender,
    config: AdaptiveConfig,
    planner: Planner,
    resolves: u64,
    /// Paths reported down by the receiver ([`PathNotice`]); while set,
    /// the re-solved model pins the path's loss to 1 so the LP routes
    /// around it.
    failed: Vec<bool>,
    /// Immediate re-solves triggered by failure/recovery notices.
    notice_replans: u64,
    /// Recovery probes sent on failed paths.
    probes: u64,
    /// Drops duplicated/stale-reordered receiver notices before they can
    /// re-trigger outage handling.
    notice_guard: NoticeGuard,
    /// Stale or duplicated notices dropped by the guard.
    stale_notices_dropped: u64,
    /// Stamps `(at_ns, seq)` on outgoing probes so the receiver can drop
    /// duplicated copies.
    probe_seq: NoticeSeq,
    /// Per-path exponential probe backoff.
    backoff: Vec<ProbeBackoff>,
    /// Deterministic jitter stream for the backoff.
    jitter: SplitMix64,
    /// Degradation-ladder engagements, oldest first (capped at
    /// [`MAX_LADDER_EVENTS`]).
    ladder: Vec<LadderEvent>,
    /// Ladder engagements dropped once the log was full.
    ladder_dropped: u64,
}

impl AdaptiveSender {
    /// Wraps a sender configuration with the adaptive loop.
    pub fn new(sender: SenderConfig, config: AdaptiveConfig) -> Self {
        let planner = Planner::with_config(PlannerConfig {
            blackhole: config.blackhole,
            solver: config.solver.clone(),
            ..PlannerConfig::default()
        });
        let num_paths = config.prior.num_paths();
        let jitter = SplitMix64::new(config.jitter_seed);
        AdaptiveSender {
            inner: DmcSender::new(sender),
            config,
            planner,
            resolves: 0,
            failed: vec![false; num_paths],
            notice_replans: 0,
            probes: 0,
            notice_guard: NoticeGuard::new(),
            stale_notices_dropped: 0,
            probe_seq: NoticeSeq::new(),
            backoff: vec![ProbeBackoff::default(); num_paths],
            jitter,
            ladder: Vec::new(),
            ladder_dropped: 0,
        }
    }

    /// Builds the initial sender from a solved [`Plan`] and wraps it with
    /// the adaptive loop.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DmcSender::new`].
    pub fn from_plan(plan: &Plan, config: AdaptiveConfig, total_messages: u64) -> Self {
        let sender = SenderConfig::from_plan(plan, config.rto_extra, total_messages);
        AdaptiveSender::new(sender, config)
    }

    /// The wrapped sender (stats, estimators).
    pub fn inner(&self) -> &DmcSender {
        &self.inner
    }

    /// How many times the LP was re-solved.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Immediate re-solves triggered by path-failure/recovery notices.
    pub fn notice_replans(&self) -> u64 {
        self.notice_replans
    }

    /// Paths currently believed failed (set by receiver notices).
    pub fn failed_paths(&self) -> Vec<usize> {
        self.failed
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect()
    }

    /// Recovery probes sent on failed paths.
    pub fn probes_sent(&self) -> u64 {
        self.probes
    }

    /// Receiver notices discarded as duplicates or stale reorders.
    pub fn stale_notices_dropped(&self) -> u64 {
        self.stale_notices_dropped
    }

    /// Degradation-ladder engagements so far, oldest first (a clean
    /// full re-plan is not an event; the log caps at a few thousand
    /// entries — [`AdaptiveSender::ladder_events_dropped`] counts the
    /// overflow).
    pub fn ladder_events(&self) -> &[LadderEvent] {
        &self.ladder
    }

    /// Ladder engagements that no longer fit in the event log.
    pub fn ladder_events_dropped(&self) -> u64 {
        self.ladder_dropped
    }

    /// Publishes the adaptive loop's counters — and the wrapped sender's
    /// [`SenderStats`](crate::SenderStats) — into a telemetry registry:
    /// `proto.adapt.*` for the loop, per-rung `proto.ladder.*` counters
    /// for degradation-ladder engagements, and the `proto.backoff.exp`
    /// histogram of each path's *current* probe-backoff exponent. The
    /// counters are cumulative, so call this once per sender per run
    /// (publishing twice double-counts). Rung counters are derived from
    /// the retained event log and undercount once
    /// [`AdaptiveSender::ladder_events_dropped`] is nonzero (the drop
    /// count is published as `proto.ladder.dropped`).
    pub fn publish_obs(&self, obs: &dmc_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        self.inner.stats().publish_obs(obs);
        obs.counter("proto.adapt.resolves").add(self.resolves);
        obs.counter("proto.adapt.notice_replans")
            .add(self.notice_replans);
        obs.counter("proto.adapt.probes_sent").add(self.probes);
        obs.counter("proto.adapt.stale_notices")
            .add(self.stale_notices_dropped);
        for event in &self.ladder {
            let name = match event.rung {
                LadderRung::RelaxedFloor { .. } => "proto.ladder.relaxed_floor",
                LadderRung::BestEffort => "proto.ladder.best_effort",
                LadderRung::SinglePath { .. } => "proto.ladder.single_path",
                LadderRung::Stuck => "proto.ladder.stuck",
            };
            obs.counter(name).inc();
        }
        obs.counter("proto.ladder.dropped").add(self.ladder_dropped);
        let exp = obs.histogram("proto.backoff.exp");
        for state in &self.backoff {
            exp.record(u64::from(state.exp));
        }
    }

    /// Sends one [`PathNotice`]-framed probe on each failed path that is
    /// due under its exponential backoff. The re-planned strategy carries
    /// no data on those paths, so without probing a recovery could never
    /// be observed; a probe that gets through makes the receiver's
    /// detector report the path up. Consecutive unanswered probes back
    /// off exponentially (capped, never stopping) with deterministic
    /// jitter drawn from the seeded stream, so a long outage is not
    /// hammered with one probe per adaptation tick and simultaneous
    /// outages do not probe in lockstep.
    fn probe_failed_paths(&mut self, api: &mut SimApi<'_>) {
        for path in 0..self.failed.len() {
            if !self.failed[path] {
                continue;
            }
            if path >= self.backoff.len() {
                self.backoff.resize(path + 1, ProbeBackoff::default());
            }
            let state = &mut self.backoff[path];
            if state.skip > 0 {
                state.skip -= 1;
                continue;
            }
            let probe = PathNotice {
                path: path as u8,
                kind: NoticeKind::Down,
                seq: self.probe_seq.next(path),
                at_ns: api.now().as_nanos(),
            };
            if api.send(path, Packet::new(64, probe.encode())) {
                self.probes += 1;
            }
            let state = &mut self.backoff[path];
            let exp = state.exp.min(MAX_BACKOFF_EXP);
            let base = (1u64 << exp) - 1;
            let jitter = if exp > 0 {
                self.jitter.next_u64() % (u64::from(exp) + 1)
            } else {
                0
            };
            state.skip = base + jitter;
            state.exp = state.exp.saturating_add(1).min(MAX_BACKOFF_EXP);
        }
    }

    /// The owned planner (inspect warm-start statistics:
    /// `planner().warm_stats()`, a [`dmc_core::WarmStats`]).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Current best estimate of the network (prior refined by
    /// measurements).
    pub fn estimated_network(&self) -> NetworkSpec {
        let rtts = self.inner.rtt_estimators();
        let losses = self.inner.loss_estimators();
        let min_srtt = rtts
            .iter()
            .filter(|e| e.samples() >= self.config.min_samples)
            .filter_map(|e| e.srtt())
            .fold(f64::INFINITY, f64::min);
        let mut net = self.config.prior.clone();
        for k in 0..net.num_paths() {
            let prior = net.paths()[k];
            let delay = if rtts[k].samples() >= self.config.min_samples && min_srtt.is_finite() {
                rtts[k]
                    .srtt()
                    .map(|s| (s - min_srtt / 2.0).max(0.0))
                    .unwrap_or(prior.delay())
            } else {
                prior.delay()
            };
            // Gate on *window* occupancy: the recovery path resets the
            // window (outage timeouts are not evidence about the
            // recovered link), and an emptied window must fall back to
            // the prior rather than read as 0 % loss.
            let loss = if losses[k].window_samples() as u64 >= self.config.min_samples {
                losses[k].rate()
            } else {
                prior.loss()
            };
            // A failure notice overrides everything the estimators say:
            // the path delivers nothing until the receiver reports it up.
            let loss = if self.failed.get(k).copied().unwrap_or(false) {
                1.0
            } else {
                loss
            };
            let refined =
                PathSpec::with_cost(prior.bandwidth(), delay, loss.clamp(0.0, 1.0), prior.cost())
                    .unwrap_or(prior);
            net = net.with_path_replaced(k, refined);
        }
        net
    }

    /// Reacts to a receiver [`PathNotice`]: record the path state and
    /// re-plan *now* — timeouts on the failed path keep firing, but the
    /// fresh plan's combinations route new data (and the retransmit
    /// stages of anything still in flight at its next stage) onto live
    /// paths. Duplicated or stale-reordered notices are dropped by the
    /// guard before they reach this edge trigger: a stale `Down`
    /// arriving after the matching `Up` must not re-fail a live path.
    fn on_notice(&mut self, notice: &PathNotice, now_ns: u64) {
        if !self.notice_guard.fresh(notice) {
            self.stale_notices_dropped += 1;
            return;
        }
        let path = notice.path as usize;
        if path >= self.failed.len() {
            return;
        }
        let failed = matches!(notice.kind, NoticeKind::Down);
        if self.failed[path] != failed {
            self.failed[path] = failed;
            if !failed {
                // The outage's timeout losses are not evidence about the
                // recovered path; without discarding them the re-plan
                // would keep avoiding it and the receiver would re-declare
                // it down (flapping).
                self.inner.reset_loss_window(path);
                if let Some(state) = self.backoff.get_mut(path) {
                    *state = ProbeBackoff::default();
                }
            }
            self.resolve(now_ns);
            self.notice_replans += 1;
        }
    }

    /// Records a degradation-ladder engagement (bounded log).
    fn push_ladder(&mut self, at_ns: u64, rung: LadderRung) {
        if self.ladder.len() < MAX_LADDER_EVENTS {
            self.ladder.push(LadderEvent { at_ns, rung });
        } else {
            self.ladder_dropped += 1;
        }
    }

    /// Plans `scenario` under `objective`; on success retargets the inner
    /// sender and returns `true`.
    fn try_retarget(&mut self, scenario: &Scenario, objective: Objective) -> bool {
        match self.planner.plan(scenario, objective) {
            Ok(plan) => {
                let timeouts = TimeoutPlan::from_plan(&plan, self.config.rto_extra);
                self.inner.retarget(plan.into_strategy(), timeouts);
                true
            }
            Err(_) => false,
        }
    }

    /// The surviving path with the highest expected goodput
    /// (`(1 − loss) · bandwidth`), ties to the lowest index.
    fn best_surviving_path(&self, est: &NetworkSpec) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (k, p) in est.paths().iter().enumerate() {
            if self.failed.get(k).copied().unwrap_or(false) {
                continue;
            }
            let score = (1.0 - p.loss()) * p.bandwidth();
            if best.is_none_or(|(bs, _)| score > bs) {
                best = Some((score, k));
            }
        }
        best.map(|(_, k)| k)
    }

    /// Re-estimates and re-plans, walking the degradation ladder on
    /// mid-transfer infeasibility:
    ///
    /// 1. **Re-plan** at the configured operating point (the quality
    ///    floor when one is set, otherwise plain quality maximization).
    /// 2. **Relax the floor stepwise** ([`FLOOR_RELAX_STEPS`] fractions
    ///    of the configured floor), then drop it entirely (best-effort
    ///    quality maximization).
    /// 3. **Single-best-path fallback**: pin every other path's loss to
    ///    1, clamp the offered rate to the survivor's bandwidth, and
    ///    solve for best-effort quality.
    ///
    /// Every engaged rung is logged ([`AdaptiveSender::ladder_events`]);
    /// if even the fallback fails the previous plan stays in force. The
    /// ladder re-climbs automatically: every re-solve starts again at
    /// rung 1, so feasibility returning restores the configured floor.
    fn resolve(&mut self, now_ns: u64) {
        let est = self.estimated_network();
        let scenario = Scenario::from_network(&est).with_transmissions(self.config.transmissions);
        let objective = match self.config.quality_floor {
            Some(floor) => Objective::MinCost { min_quality: floor },
            None => Objective::MaxQuality,
        };
        if self.try_retarget(&scenario, objective) {
            self.resolves += 1;
            return;
        }
        if let Some(floor) = self.config.quality_floor {
            for fraction in FLOOR_RELAX_STEPS {
                let relaxed = floor * fraction;
                let objective = Objective::MinCost {
                    min_quality: relaxed,
                };
                if self.try_retarget(&scenario, objective) {
                    self.resolves += 1;
                    self.push_ladder(now_ns, LadderRung::RelaxedFloor { floor: relaxed });
                    return;
                }
            }
            if self.try_retarget(&scenario, Objective::MaxQuality) {
                self.resolves += 1;
                self.push_ladder(now_ns, LadderRung::BestEffort);
                return;
            }
        }
        if let Some(path) = self.best_surviving_path(&est) {
            let survivor = est.paths()[path];
            let mut solo = est.with_data_rate(est.data_rate().min(survivor.bandwidth()));
            for k in 0..solo.num_paths() {
                if k == path {
                    continue;
                }
                let p = solo.paths()[k];
                let dead = PathSpec::with_cost(p.bandwidth(), p.delay(), 1.0, p.cost());
                solo = solo.with_path_replaced(k, dead.unwrap_or(p));
            }
            let solo_scenario =
                Scenario::from_network(&solo).with_transmissions(self.config.transmissions);
            if self.try_retarget(&solo_scenario, Objective::MaxQuality) {
                self.resolves += 1;
                self.push_ladder(now_ns, LadderRung::SinglePath { path });
                return;
            }
        }
        self.push_ladder(now_ns, LadderRung::Stuck);
    }
}

impl Agent for AdaptiveSender {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        self.inner.on_start(api);
        api.set_timer(api.now() + self.config.interval, ADAPT_KEY);
    }

    fn on_packet(&mut self, path: usize, packet: Packet, api: &mut SimApi<'_>) {
        if let Some(notice) = PathNotice::decode(packet.payload()) {
            self.on_notice(&notice, api.now().as_nanos());
            return;
        }
        self.inner.on_packet(path, packet, api);
    }

    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        if key == ADAPT_KEY {
            self.resolve(api.now().as_nanos());
            self.probe_failed_paths(api);
            api.set_timer(api.now() + self.config.interval, ADAPT_KEY);
        } else {
            self.inner.on_timer(key, api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{DmcReceiver, ReceiverConfig};
    use dmc_sim::{LinkConfig, SimTime, TwoHostSim};
    use dmc_stats::ConstantDelay;
    use std::sync::Arc;

    fn link(bw: f64, delay: f64, loss: f64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps: bw,
            propagation: Arc::new(ConstantDelay::new(delay)),
            loss: loss.into(),
            queue_capacity_bytes: 1 << 22,
        }
    }

    /// Prior believes path 0 loses 2 %; it really loses 40 %. The static
    /// sender keeps retransmitting the unexpected losses onto the thin
    /// clean path (6 Mbps offered into 4 Mbps), whose queue fills and
    /// makes everything it carries late. The adaptive sender learns the
    /// real loss rate, re-solves, and rebalances within capacity.
    #[test]
    fn adaptation_learns_loss_and_improves_quality() {
        let prior = NetworkSpec::builder()
            .path(PathSpec::new(10e6, 0.100, 0.02).unwrap())
            .path(PathSpec::new(4e6, 0.050, 0.0).unwrap())
            .data_rate(12e6)
            .lifetime(0.4)
            .build()
            .unwrap();
        let messages = 40_000;
        let horizon = SimTime::from_secs_f64(40.0);
        // True links are over-provisioned relative to the configured b_i
        // (the paper does the same in Exp. 2): a path driven at exactly
        // 100 % of its true capacity builds an unbounded queue, so the
        // model's bandwidth bound must leave headroom. The static sender's
        // retransmission surge (6 Mbps into 5) still overloads path 1.
        let fwd = vec![link(12e6, 0.100, 0.40), link(5e6, 0.050, 0.0)];
        let bwd = vec![link(12e6, 0.100, 0.0), link(5e6, 0.050, 0.0)];

        let run = |adaptive: bool| -> f64 {
            let plan = Planner::new()
                .plan(&Scenario::from_network(&prior), Objective::MaxQuality)
                .unwrap();
            let base = SenderConfig::from_plan(&plan, SimDuration::from_millis(50), messages);
            let receiver =
                DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(0.4), 1));
            if adaptive {
                let sender = AdaptiveSender::new(
                    base,
                    AdaptiveConfig {
                        prior: prior.clone(),
                        interval: SimDuration::from_millis(250),
                        transmissions: 2,
                        blackhole: true,
                        solver: SolverOptions::default(),
                        rto_extra: SimDuration::from_millis(50),
                        min_samples: 30,
                        quality_floor: None,
                        jitter_seed: 0x5EED_0001,
                    },
                );
                let mut sim =
                    TwoHostSim::new(fwd.clone(), bwd.clone(), sender, receiver, 21).unwrap();
                sim.run_until(horizon);
                assert!(sim.client().resolves() > 10);
                // Re-solves share the LP shape, so all but the first must
                // have consulted the warm cache and most should have
                // skipped phase 1 outright.
                let warm = sim.client().planner().warm_stats();
                assert_eq!(warm.attempts(), sim.client().resolves() - 1);
                assert!(warm.hits > 0, "periodic re-solves never warm-started");
                let learned_loss = sim.client().estimated_network().paths()[0].loss();
                assert!(
                    (0.28..=0.52).contains(&learned_loss),
                    "learned loss {learned_loss}, truth 0.40"
                );
                sim.server().stats().unique_in_time as f64 / messages as f64
            } else {
                let sender = DmcSender::new(base);
                let mut sim =
                    TwoHostSim::new(fwd.clone(), bwd.clone(), sender, receiver, 21).unwrap();
                sim.run_until(horizon);
                sim.server().stats().unique_in_time as f64 / messages as f64
            }
        };

        let q_static = run(false);
        let q_adaptive = run(true);
        assert!(
            q_adaptive > q_static + 0.10,
            "adaptive {q_adaptive} vs static {q_static}"
        );
        // The oracle optimum for the true network is ≈ 0.875; the learner
        // should get most of the way there despite the warm-up.
        assert!(q_adaptive > 0.7, "adaptive quality {q_adaptive}");
    }

    /// Mid-transfer the wide path dies for a stretch. The failure-aware
    /// loop (receiver notices → immediate re-plan with loss=1) must beat
    /// the plain periodic estimator loop *and* clear its failure state
    /// after the recovery notice.
    #[test]
    fn failure_notice_replans_within_one_round() {
        use crate::receiver::FailureDetection;
        use dmc_sim::Dynamics;

        let prior = NetworkSpec::builder()
            .path(PathSpec::new(10e6, 0.100, 0.02).unwrap())
            .path(PathSpec::new(4e6, 0.050, 0.0).unwrap())
            .data_rate(10e6)
            .lifetime(0.4)
            .build()
            .unwrap();
        let messages = 30_000;
        let horizon = SimTime::from_secs_f64(40.0);
        let fwd = vec![link(12e6, 0.100, 0.02), link(5e6, 0.050, 0.0)];
        let bwd = vec![link(12e6, 0.100, 0.0), link(5e6, 0.050, 0.0)];
        // Path 0 (carrying most of the traffic) is down 8 s → 16 s.
        let dynamics = Dynamics::new().path_failure(0, 8.0, 16.0).unwrap();

        let run = |detect: bool| {
            let plan = Planner::new()
                .plan(&Scenario::from_network(&prior), Objective::MaxQuality)
                .unwrap();
            let sender = AdaptiveSender::from_plan(
                &plan,
                AdaptiveConfig {
                    prior: prior.clone(),
                    interval: SimDuration::from_millis(500),
                    transmissions: 2,
                    blackhole: true,
                    solver: SolverOptions::default(),
                    rto_extra: SimDuration::from_millis(50),
                    min_samples: 30,
                    quality_floor: None,
                    jitter_seed: 0x5EED_0002,
                },
                messages,
            );
            let mut cfg = ReceiverConfig::new(SimDuration::from_secs_f64(0.4), 1);
            if detect {
                cfg = cfg
                    .with_failure_detection(FailureDetection::new(SimDuration::from_millis(100)));
            }
            let receiver = DmcReceiver::new(cfg);
            let mut sim = TwoHostSim::new(fwd.clone(), bwd.clone(), sender, receiver, 33).unwrap();
            sim.apply_dynamics(&dynamics).unwrap();
            sim.run_until(horizon);
            let q = sim.server().stats().unique_in_time as f64 / messages as f64;
            let replans = sim.client().notice_replans();
            let still_failed = sim.client().failed_paths();
            (q, replans, still_failed)
        };

        let (q_blind, replans_blind, _) = run(false);
        let (q_aware, replans_aware, failed_after) = run(true);
        assert_eq!(replans_blind, 0, "no notices without detection");
        assert!(
            replans_aware >= 2,
            "expected a down and an up re-plan, got {replans_aware}"
        );
        assert!(
            failed_after.is_empty(),
            "recovery notice must clear failure state, got {failed_after:?}"
        );
        assert!(
            q_aware > q_blind + 0.02,
            "failure-aware {q_aware} vs blind {q_blind}"
        );
    }

    /// A scripted peer that replays pre-stamped notice frames at fixed
    /// times — including exact duplicates and stale reorders a chaotic
    /// network would produce.
    struct NoticeScript {
        /// `(send at, frame)` — frames carry *their own* stamps, so a
        /// late entry with an old stamp emulates reordering.
        script: Vec<(SimTime, PathNotice)>,
    }
    impl Agent for NoticeScript {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            for (i, &(at, _)) in self.script.iter().enumerate() {
                api.set_timer(at, i as u64);
            }
        }
        fn on_packet(&mut self, _path: usize, _p: Packet, _api: &mut SimApi<'_>) {}
        fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
            let (_, notice) = self.script[key as usize];
            let wire = notice.encode();
            api.send(1, Packet::new(wire.len().max(40), wire));
        }
    }

    fn two_path_prior() -> NetworkSpec {
        NetworkSpec::builder()
            .path(PathSpec::new(10e6, 0.050, 0.0).unwrap())
            .path(PathSpec::new(2.5e6, 0.050, 0.0).unwrap())
            .data_rate(8e6)
            .lifetime(0.4)
            .build()
            .unwrap()
    }

    fn adaptive_under_script(
        config: AdaptiveConfig,
        script: Vec<(SimTime, PathNotice)>,
        horizon: SimTime,
    ) -> AdaptiveSender {
        let plan = Planner::new()
            .plan(
                &Scenario::from_network(&config.prior),
                Objective::MaxQuality,
            )
            .unwrap();
        let sender = AdaptiveSender::from_plan(&plan, config, 100);
        let l = |bw| link(bw, 0.050, 0.0);
        let mut sim = TwoHostSim::new(
            vec![l(10e6), l(2.5e6)],
            vec![l(10e6), l(2.5e6)],
            sender,
            NoticeScript { script },
            11,
        )
        .unwrap();
        sim.run_until(horizon);
        assert!(sim.client().resolves() > 0, "periodic loop never ran");
        sim.into_agents().0
    }

    fn down(path: u8, seq: u8, at_ms: u64) -> PathNotice {
        PathNotice {
            path,
            kind: NoticeKind::Down,
            seq,
            at_ns: at_ms * 1_000_000,
        }
    }

    fn up(path: u8, seq: u8, at_ms: u64) -> PathNotice {
        PathNotice {
            path,
            kind: NoticeKind::Up,
            seq,
            at_ns: at_ms * 1_000_000,
        }
    }

    /// Duplicated and stale-reordered notice frames must not re-trigger
    /// outage handling: a stale `Down` replayed after the matching `Up`
    /// used to re-fail a live path.
    #[test]
    fn duplicated_and_reordered_notices_are_dropped() {
        let at = SimTime::from_secs_f64;
        let script = vec![
            (at(0.10), down(0, 0, 100)),
            (at(0.15), down(0, 0, 100)), // duplicate
            (at(0.20), down(0, 0, 100)), // duplicate
            (at(0.50), up(0, 1, 500)),
            (at(0.55), up(0, 1, 500)),   // duplicate
            (at(0.80), down(0, 0, 100)), // stale reorder: old stamp after the Up
        ];
        let config = AdaptiveConfig {
            prior: two_path_prior(),
            interval: SimDuration::from_millis(250),
            transmissions: 2,
            blackhole: true,
            solver: SolverOptions::default(),
            rto_extra: SimDuration::from_millis(50),
            min_samples: 30,
            quality_floor: None,
            jitter_seed: 0x5EED_0003,
        };
        let client = adaptive_under_script(config, script, SimTime::from_secs_f64(2.0));
        assert_eq!(client.notice_replans(), 2, "one down, one up");
        assert_eq!(
            client.stale_notices_dropped(),
            4,
            "2 dup downs + 1 dup up + 1 stale down"
        );
        assert!(
            client.failed_paths().is_empty(),
            "stale down re-failed a live path: {:?}",
            client.failed_paths()
        );
    }

    /// A quality floor that a mid-transfer failure makes unreachable must
    /// engage the ladder: stepwise relaxation, logged, and the full floor
    /// restored after recovery.
    #[test]
    fn infeasible_floor_relaxes_stepwise_and_restores() {
        let at = SimTime::from_secs_f64;
        let script = vec![(at(1.0), down(0, 0, 1_000)), (at(2.0), up(0, 1, 2_000))];
        let config = AdaptiveConfig {
            prior: two_path_prior(),
            interval: SimDuration::from_millis(250),
            transmissions: 2,
            blackhole: true,
            solver: SolverOptions::default(),
            rto_extra: SimDuration::from_millis(50),
            min_samples: 1_000_000, // pin estimates to the prior
            quality_floor: Some(0.8),
            jitter_seed: 0x5EED_0004,
        };
        let client = adaptive_under_script(config, script, SimTime::from_secs_f64(3.0));
        let events = client.ladder_events();
        assert!(!events.is_empty(), "floor infeasibility never logged");
        // With path 0 dead, path 1 (2.5 of 8 Mbps) caps quality ≈ 0.31:
        // 0.8 and the 0.6/0.4 relaxations are infeasible, 0.2 is not.
        for e in events {
            assert_eq!(
                e.rung,
                LadderRung::RelaxedFloor { floor: 0.8 * 0.25 },
                "unexpected rung at {} ns",
                e.at_ns
            );
        }
        // The ladder re-climbs: no engagement after the recovery notice
        // (plus one adaptation interval of slack).
        let cutoff = 2_000_000_000 + 250_000_000;
        assert!(
            events.iter().all(|e| e.at_ns <= cutoff),
            "ladder still engaged after recovery"
        );
        assert!(client.failed_paths().is_empty());
    }

    /// With the blackhole disabled and demand above total capacity, even
    /// best-effort planning is infeasible: the ladder must fall back to
    /// the single best surviving path instead of keeping a dead plan.
    #[test]
    fn overload_without_blackhole_falls_back_to_single_path() {
        let prior = NetworkSpec::builder()
            .path(PathSpec::new(5e6, 0.050, 0.0).unwrap())
            .path(PathSpec::new(2e6, 0.050, 0.0).unwrap())
            .data_rate(8e6) // exceeds 7 Mbps total: infeasible sans blackhole
            .lifetime(0.4)
            .build()
            .unwrap();
        let config = AdaptiveConfig {
            prior: prior.clone(),
            interval: SimDuration::from_millis(250),
            transmissions: 2,
            blackhole: false,
            solver: SolverOptions::default(),
            rto_extra: SimDuration::from_millis(50),
            min_samples: 1_000_000,
            quality_floor: None,
            jitter_seed: 0x5EED_0005,
        };
        // The initial plan comes from a blackhole-enabled planner (the
        // operator admitted the overload); the adaptive loop's stricter
        // model then cannot re-plan at the full rate.
        let plan = Planner::new()
            .plan(&Scenario::from_network(&prior), Objective::MaxQuality)
            .unwrap();
        let sender = AdaptiveSender::from_plan(&plan, config, 100);
        let l = |bw| link(bw, 0.050, 0.0);
        let mut sim = TwoHostSim::new(
            vec![l(5e6), l(2e6)],
            vec![l(5e6), l(2e6)],
            sender,
            NoticeScript { script: vec![] },
            13,
        )
        .unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        let events = sim.client().ladder_events();
        assert!(!events.is_empty(), "overload never engaged the ladder");
        for e in events {
            assert_eq!(e.rung, LadderRung::SinglePath { path: 0 });
        }
        assert!(
            sim.client().resolves() > 0,
            "fallback never produced a plan"
        );
    }
}
