//! The sending endpoint: constant-rate generation, Algorithm-1 combination
//! assignment, per-stage retransmission timers, ack processing and
//! optional fast retransmit (paper §VII-A client, §VIII-D).

use crate::estimator::{LossEstimator, RttEstimator};
use crate::wire::{Ack, DataHeader};
use dmc_core::{Plan, SchedulePolicy, Slot, Strategy};
use dmc_sim::{Agent, Packet, SimApi, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Maximum supported transmissions per combination (timer-key encoding).
pub const MAX_STAGES: usize = 8;

/// Timer key for the message-generation tick.
const TICK_KEY: u64 = 0;
/// Timer keys ≥ this are reserved for wrappers (e.g. the adaptive
/// re-solver).
pub(crate) const RESERVED_KEY_BASE: u64 = u64::MAX - 1024;

fn retx_key(seq: u64, stage: usize) -> u64 {
    1 + seq * MAX_STAGES as u64 + stage as u64
}

fn decode_key(key: u64) -> (u64, usize) {
    let k = key - 1;
    (k / MAX_STAGES as u64, (k % MAX_STAGES as u64) as usize)
}

/// What happens when a stage's timer expires without an ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTimeout {
    /// Time between sending the stage and the timer firing.
    pub delay: SimDuration,
    /// `true`: advance to the next stage (retransmit). `false`: record the
    /// loss and give the message up (used on terminal stages and when
    /// Eq. 34 says no retransmission can meet the deadline — loss
    /// *detection* still needs a timer, or the estimators of §VIII-A
    /// would never observe losses on non-retransmitted combinations).
    pub retransmit: bool,
}

/// Per-stage timeouts for every combination.
///
/// `plan[combo][stage]` describes the timer armed after sending stage
/// `stage`; `None` means no timer at all (unreachable stages).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutPlan {
    per_combo: Vec<Vec<Option<StageTimeout>>>,
}

impl TimeoutPlan {
    /// Timeouts from a solved [`Plan`]'s schedule plus `extra` slack (the
    /// paper's Exp. 1 adds 100 ms to absorb queueing jitter).
    /// Deterministic plans carry Eq. 4 timers (`t = d_i + d_min`),
    /// random-delay plans carry Eq. 34 optima; stages no retransmission
    /// can follow in time get a detect-only timer.
    pub fn from_plan(plan: &Plan, extra: SimDuration) -> Self {
        let schedule = plan.schedule();
        let per_combo = (0..schedule.num_combos())
            .map(|l| {
                schedule
                    .stages(l)
                    .iter()
                    .map(|spec| {
                        spec.map(|spec| StageTimeout {
                            delay: SimDuration::from_secs_f64(spec.delay) + extra,
                            retransmit: spec.retransmit,
                        })
                    })
                    .collect()
            })
            .collect();
        TimeoutPlan { per_combo }
    }

    /// The timer armed after sending stage `stage` of `combo`.
    pub fn stage(&self, combo: usize, stage: usize) -> Option<StageTimeout> {
        self.per_combo
            .get(combo)
            .and_then(|v| v.get(stage))
            .copied()
            .flatten()
    }

    /// Number of combinations covered.
    pub fn num_combos(&self) -> usize {
        self.per_combo.len()
    }
}

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// The solved strategy (assignment fractions + combination table).
    pub strategy: Strategy,
    /// Per-stage retransmission timeouts.
    pub timeouts: TimeoutPlan,
    /// On-wire message size in bytes (paper: 1024, header included).
    pub message_wire_bytes: usize,
    /// Application data rate `λ` in bits/second (messages are spaced
    /// `message_wire_bytes·8 / λ` apart).
    pub data_rate: f64,
    /// Stop after generating this many messages.
    pub total_messages: u64,
    /// Fast retransmit (§VIII-D): advance a stage early after this many
    /// later-sent packets on the same path are acked first. `None`
    /// disables it (the paper leaves the threshold an open question;
    /// TCP uses 3).
    pub fast_retransmit: Option<u32>,
    /// Sliding window for the per-path loss estimators.
    pub loss_window: usize,
    /// Packet-discretization policy (Algorithm 1 deficit by default).
    pub schedule: SchedulePolicy,
}

impl SenderConfig {
    /// Creates a config with the paper's defaults (1024-byte messages, no
    /// fast retransmit, 512-transmission loss window, Algorithm-1
    /// scheduling).
    pub fn new(
        strategy: Strategy,
        timeouts: TimeoutPlan,
        data_rate: f64,
        total_messages: u64,
    ) -> Self {
        SenderConfig {
            strategy,
            timeouts,
            message_wire_bytes: 1024,
            data_rate,
            total_messages,
            fast_retransmit: None,
            loss_window: 512,
            schedule: SchedulePolicy::Deficit,
        }
    }

    /// Builds a ready sender configuration from a solved [`Plan`] — the
    /// strategy, timeout schedule (plus `rto_extra` jitter slack) and
    /// data rate all come from the plan; nothing is hand-wired.
    pub fn from_plan(plan: &Plan, rto_extra: SimDuration, total_messages: u64) -> Self {
        SenderConfig::new(
            plan.strategy().clone(),
            TimeoutPlan::from_plan(plan, rto_extra),
            plan.scenario().data_rate(),
            total_messages,
        )
    }
}

/// Sender-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SenderStats {
    /// Messages generated (the quality denominator).
    pub generated: u64,
    /// Messages assigned to the blackhole at stage 0 (dropped at source).
    pub blackholed: u64,
    /// Transmissions handed to the NIC (initial + retransmissions).
    pub transmissions: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Transmissions the NIC rejected (link queue full).
    pub nic_dropped: u64,
    /// Unique messages acknowledged.
    pub acked: u64,
    /// Messages that exhausted all stages without an ack.
    pub expired: u64,
    /// Fast-retransmit triggers (§VIII-D).
    pub fast_retransmits: u64,
}

impl SenderStats {
    /// Publishes the counters into a telemetry registry under the
    /// `proto.tx.*` names. The stats are cumulative, so call this once
    /// per sender per run (publishing twice double-counts).
    pub fn publish_obs(&self, obs: &dmc_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("proto.tx.generated").add(self.generated);
        obs.counter("proto.tx.blackholed").add(self.blackholed);
        obs.counter("proto.tx.transmissions")
            .add(self.transmissions);
        obs.counter("proto.tx.retransmissions")
            .add(self.retransmissions);
        obs.counter("proto.tx.nic_dropped").add(self.nic_dropped);
        obs.counter("proto.tx.acked").add(self.acked);
        obs.counter("proto.tx.expired").add(self.expired);
        obs.counter("proto.tx.fast_retransmits")
            .add(self.fast_retransmits);
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    combo: usize,
    stage: usize,
    created: SimTime,
    path: usize,
    sent_at: SimTime,
    path_send_idx: u64,
    dup_indications: u32,
}

/// The sending endpoint ("client" in the paper's simulation).
#[derive(Debug)]
pub struct DmcSender {
    config: SenderConfig,
    scheduler: dmc_core::Scheduler,
    // dmc-lint: allow(det-unordered-map) key-lookup-only: get/insert/remove/contains_key by seq, never iterated
    in_flight: HashMap<u64, InFlight>,
    /// Per path: send counter and outstanding transmissions by send index
    /// (for fast retransmit).
    path_send_count: Vec<u64>,
    outstanding: Vec<BTreeMap<u64, u64>>,
    rtt: Vec<RttEstimator>,
    loss: Vec<LossEstimator>,
    next_seq: u64,
    start_time: SimTime,
    stats: SenderStats,
    num_paths: usize,
}

impl DmcSender {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics if the strategy's combination table uses more than
    /// [`MAX_STAGES`] transmissions or the strategy is malformed.
    pub fn new(config: SenderConfig) -> Self {
        let table = config.strategy.table();
        assert!(
            table.transmissions() <= MAX_STAGES,
            "at most {MAX_STAGES} transmissions supported"
        );
        let num_paths = table.num_paths();
        let scheduler = dmc_core::Scheduler::new(config.strategy.x().to_vec(), config.schedule)
            .expect("valid strategy");
        DmcSender {
            scheduler,
            // dmc-lint: allow(det-unordered-map) constructor of the key-lookup-only in-flight map above
            in_flight: HashMap::new(),
            path_send_count: vec![0; num_paths],
            outstanding: vec![BTreeMap::new(); num_paths],
            rtt: vec![RttEstimator::new(); num_paths],
            loss: vec![LossEstimator::new(config.loss_window); num_paths],
            next_seq: 0,
            start_time: SimTime::ZERO,
            stats: SenderStats::default(),
            num_paths,
            config,
        }
    }

    /// Builds a sender straight from a solved [`Plan`] (see
    /// [`SenderConfig::from_plan`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`DmcSender::new`].
    pub fn from_plan(plan: &Plan, rto_extra: SimDuration, total_messages: u64) -> Self {
        DmcSender::new(SenderConfig::from_plan(plan, rto_extra, total_messages))
    }

    /// Counters so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Per-path RTT estimators (fed by ack echoes).
    pub fn rtt_estimators(&self) -> &[RttEstimator] {
        &self.rtt
    }

    /// Per-path loss estimators (timeout = loss, ack = success).
    pub fn loss_estimators(&self) -> &[LossEstimator] {
        &self.loss
    }

    /// Messages still awaiting an ack or further stages.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Clears one path's windowed loss history (see
    /// [`LossEstimator::reset_window`]): outcomes recorded across a
    /// discontinuous path-state change would poison the next estimate.
    pub(crate) fn reset_loss_window(&mut self, path: usize) {
        if let Some(e) = self.loss.get_mut(path) {
            e.reset_window();
        }
    }

    /// Interval between message generations.
    fn tick_interval(&self) -> SimDuration {
        let bits = self.config.message_wire_bytes as f64 * 8.0;
        SimDuration::from_secs_f64(bits / self.config.data_rate)
    }

    /// Replaces the target distribution (adaptive re-solving); the new
    /// strategy must use the same combination table shape.
    ///
    /// History is reset: otherwise Algorithm 1 would steer the
    /// *cumulative* empirical distribution to the new target, bursting
    /// ~100 % of traffic onto historically underrepresented combinations
    /// and overloading their paths during the transition.
    pub(crate) fn retarget(&mut self, strategy: Strategy, timeouts: TimeoutPlan) {
        if self.scheduler.retarget(strategy.x().to_vec()).is_ok() {
            self.scheduler.reset_history();
            self.config.strategy = strategy;
            self.config.timeouts = timeouts;
        }
    }

    fn generate(&mut self, api: &mut SimApi<'_>) {
        if self.next_seq >= self.config.total_messages {
            return;
        }
        let now = api.now();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.generated += 1;
        let combo = self.scheduler.next_combo();
        self.send_stage(seq, combo, 0, now, now, api);
        if self.next_seq < self.config.total_messages {
            // Drift-free schedule: tick k fires at start + k·interval.
            let k = self.next_seq;
            let at = self.start_time
                + SimDuration::from_nanos(k.saturating_mul(self.tick_interval().as_nanos()));
            api.set_timer(at.max(now), TICK_KEY);
        }
    }

    fn send_stage(
        &mut self,
        seq: u64,
        combo: usize,
        stage: usize,
        created: SimTime,
        now: SimTime,
        api: &mut SimApi<'_>,
    ) {
        let slots = self.config.strategy.table().slots_of(combo);
        match slots.get(stage) {
            None | Some(Slot::Blackhole) => {
                // Dropped at source (stage 0) or retransmissions exhausted
                // into the blackhole.
                if stage == 0 {
                    self.stats.blackholed += 1;
                } else {
                    self.stats.expired += 1;
                }
                self.in_flight.remove(&seq);
            }
            Some(Slot::Path(i)) => {
                let path = *i;
                let idx = self.path_send_count[path];
                self.path_send_count[path] += 1;
                let header = DataHeader {
                    seq,
                    created_ns: created.as_nanos(),
                    sent_ns: now.as_nanos(),
                    path: path as u8,
                    stage: stage as u8,
                };
                let ok = api.send(
                    path,
                    Packet::new(self.config.message_wire_bytes, header.encode()),
                );
                self.stats.transmissions += 1;
                if stage > 0 {
                    self.stats.retransmissions += 1;
                }
                if !ok {
                    self.stats.nic_dropped += 1;
                }
                // Track (replacing any earlier-stage record).
                if let Some(prev) = self.in_flight.insert(
                    seq,
                    InFlight {
                        combo,
                        stage,
                        created,
                        path,
                        sent_at: now,
                        path_send_idx: idx,
                        dup_indications: 0,
                    },
                ) {
                    self.outstanding[prev.path].remove(&prev.path_send_idx);
                }
                self.outstanding[path].insert(idx, seq);
                if let Some(timeout) = self.config.timeouts.stage(combo, stage) {
                    api.set_timer(now + timeout.delay, retx_key(seq, stage));
                }
            }
        }
    }

    /// Marks `seq` acknowledged; returns true if it was outstanding.
    fn mark_acked(&mut self, seq: u64) -> bool {
        if let Some(state) = self.in_flight.remove(&seq) {
            self.outstanding[state.path].remove(&state.path_send_idx);
            self.loss[state.path].record(false);
            self.stats.acked += 1;
            true
        } else {
            false
        }
    }

    /// Advances a stalled message to its next stage (shared by timeout
    /// and fast-retransmit paths).
    fn advance_stage(&mut self, seq: u64, api: &mut SimApi<'_>) {
        let Some(state) = self.in_flight.get(&seq).cloned() else {
            return;
        };
        self.loss[state.path].record(true);
        self.outstanding[state.path].remove(&state.path_send_idx);
        self.send_stage(
            seq,
            state.combo,
            state.stage + 1,
            state.created,
            api.now(),
            api,
        );
    }

    fn on_ack(&mut self, ack: &Ack, api: &mut SimApi<'_>) {
        let now = api.now();
        // RTT sample: only when the echo matches the transmission we still
        // track (Karn-safe: retransmitted-and-reacked packets mismatch on
        // sent_ns and are skipped).
        if let Some(state) = self.in_flight.get(&ack.just_received) {
            if state.sent_at.as_nanos() == ack.echo_sent_ns && state.path == ack.echo_path as usize
            {
                let rtt = now.since(state.sent_at).as_secs_f64();
                self.rtt[state.path].record(rtt);
            }
        }
        // The echoed packet plus everything the bitmap covers is acked.
        let echo_info = self
            .in_flight
            .get(&ack.just_received)
            .map(|s| (s.path, s.path_send_idx));
        self.mark_acked(ack.just_received);
        let bitmap_acks: Vec<u64> = ack
            .received_seqs()
            .filter(|seq| self.in_flight.contains_key(seq))
            .collect();
        for seq in bitmap_acks {
            self.mark_acked(seq);
        }
        // Fast retransmit (§VIII-D): packets sent on the same path
        // *before* the acked one, still outstanding, gather duplicate
        // indications; at the threshold they advance early.
        if let (Some(threshold), Some((path, idx))) = (self.config.fast_retransmit, echo_info) {
            let lagging: Vec<u64> = self.outstanding[path]
                .range(..idx)
                .map(|(_, &seq)| seq)
                .collect();
            let mut to_advance = Vec::new();
            for seq in lagging {
                if let Some(state) = self.in_flight.get_mut(&seq) {
                    state.dup_indications += 1;
                    if state.dup_indications >= threshold {
                        to_advance.push(seq);
                    }
                }
            }
            for seq in to_advance {
                self.stats.fast_retransmits += 1;
                self.advance_stage(seq, api);
            }
        }
    }
}

impl Agent for DmcSender {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        assert_eq!(
            api.num_paths(),
            self.num_paths,
            "strategy path count must match the topology"
        );
        self.start_time = api.now();
        self.generate(api);
    }

    fn on_packet(&mut self, _path: usize, packet: Packet, api: &mut SimApi<'_>) {
        if let Some(ack) = Ack::decode(packet.payload()) {
            self.on_ack(&ack, api);
        }
    }

    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        if key == TICK_KEY {
            self.generate(api);
            return;
        }
        if key >= RESERVED_KEY_BASE {
            return; // wrapper-owned keys
        }
        let (seq, stage) = decode_key(key);
        // Stale if the message was acked or already advanced past `stage`
        // (e.g. by fast retransmit).
        let Some(state) = self.in_flight.get(&seq) else {
            return;
        };
        if state.stage != stage {
            return;
        }
        let retransmit = self
            .config
            .timeouts
            .stage(state.combo, stage)
            .is_none_or(|t| t.retransmit);
        if retransmit {
            self.advance_stage(seq, api);
        } else {
            // Detect-only timer: the transmission is presumed lost; record
            // it and give the message up.
            let state = self
                .in_flight
                .remove(&seq)
                .expect("membership in in_flight checked just above");
            self.loss[state.path].record(true);
            self.outstanding[state.path].remove(&state.path_send_idx);
            self.stats.expired += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{DmcReceiver, ReceiverConfig};
    use dmc_core::{NetworkSpec, Objective, PathSpec, Planner, Scenario};
    use dmc_sim::{LinkConfig, TwoHostSim};
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

    /// The quality-optimal sender for the believed network `model_net`.
    fn sender_config(model_net: &NetworkSpec, extra: SimDuration, messages: u64) -> SenderConfig {
        let plan = Planner::new()
            .plan(&Scenario::from_network(model_net), Objective::MaxQuality)
            .unwrap();
        SenderConfig::from_plan(&plan, extra, messages)
    }

    fn figure1_net() -> NetworkSpec {
        NetworkSpec::builder()
            .path(PathSpec::new(10e6, 0.600, 0.10).unwrap())
            .path(PathSpec::new(1e6, 0.200, 0.0).unwrap())
            .data_rate(8e6)
            .lifetime(1.5)
            .build()
            .unwrap()
    }

    fn run_figure1(messages: u64, seed: u64) -> (SenderStats, crate::receiver::ReceiverStats) {
        // Model solved with slightly inflated delays (queueing margin),
        // like the paper does for Experiment 1.
        let model_net = NetworkSpec::builder()
            .path(PathSpec::new(10e6, 0.650, 0.10).unwrap())
            .path(PathSpec::new(1e6, 0.250, 0.0).unwrap())
            .data_rate(8e6)
            .lifetime(1.5)
            .build()
            .unwrap();
        let sender = DmcSender::new(sender_config(
            &model_net,
            SimDuration::from_millis(100),
            messages,
        ));
        let receiver = DmcReceiver::new(ReceiverConfig::new(
            SimDuration::from_secs_f64(1.5),
            1, // lowest-delay path
        ));
        let mut sim = TwoHostSim::new(
            vec![link(10e6, 0.600, 0.10), link(1e6, 0.200, 0.0)],
            vec![link(10e6, 0.600, 0.10), link(1e6, 0.200, 0.0)],
            sender,
            receiver,
            seed,
        )
        .unwrap();
        sim.run_to_completion();
        (sim.client().stats(), sim.server().stats())
    }

    #[test]
    fn figure1_scenario_delivers_nearly_everything() {
        let (s, r) = run_figure1(2_000, 42);
        assert_eq!(s.generated, 2_000);
        let q = r.unique_in_time as f64 / s.generated as f64;
        // Theory says 100%; the simulation should be very close.
        assert!(q > 0.99, "quality {q}");
        // ~10% of path-0 transmissions are lost and must be retransmitted.
        assert!(
            s.retransmissions > 100,
            "retransmissions {}",
            s.retransmissions
        );
        // Everything eventually acked; nothing expired.
        assert!(s.expired < 10, "expired {}", s.expired);
    }

    #[test]
    fn timer_keys_round_trip() {
        for seq in [0u64, 1, 77, 1_000_000] {
            for stage in 0..MAX_STAGES {
                let (s, st) = decode_key(retx_key(seq, stage));
                assert_eq!((s, st), (seq, stage));
            }
        }
    }

    #[test]
    fn rtt_estimators_learn_path_delays() {
        let (_, _) = run_figure1(100, 1); // warm-up unused; below re-runs
        let model_net = figure1_net();
        let sender = DmcSender::new(sender_config(
            &model_net,
            SimDuration::from_millis(100),
            500,
        ));
        let receiver = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(1.5), 1));
        let mut sim = TwoHostSim::new(
            vec![link(10e6, 0.600, 0.0), link(1e6, 0.200, 0.0)],
            vec![link(10e6, 0.600, 0.0), link(1e6, 0.200, 0.0)],
            sender,
            receiver,
            9,
        )
        .unwrap();
        sim.run_to_completion();
        let rtt = sim.client().rtt_estimators();
        // Path 0 RTT ≈ 600 (data) + 200 (ack on path 1) = 800 ms + srlz.
        if let Some(srtt) = rtt[0].srtt() {
            assert!((srtt - 0.8).abs() < 0.05, "path0 srtt {srtt}");
        }
        // Path 1 RTT ≈ 400 ms + serialization (8.2ms at 1 Mbps).
        if let Some(srtt) = rtt[1].srtt() {
            assert!((srtt - 0.41) < 0.08, "path1 srtt {srtt}");
        }
    }

    #[test]
    fn loss_estimator_sees_path_loss() {
        let (s, _) = run_figure1(2_000, 7);
        let _ = s;
        // Re-run with direct access.
        let model_net = figure1_net();
        let sender = DmcSender::new(sender_config(
            &model_net,
            SimDuration::from_millis(100),
            2_000,
        ));
        let receiver = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(1.5), 1));
        let mut sim = TwoHostSim::new(
            vec![link(10e6, 0.600, 0.10), link(1e6, 0.200, 0.0)],
            vec![link(10e6, 0.600, 0.0), link(1e6, 0.200, 0.0)],
            sender,
            receiver,
            11,
        )
        .unwrap();
        sim.run_to_completion();
        let loss = &sim.client().loss_estimators()[0];
        assert!(loss.samples() > 500);
        assert!(
            (loss.lifetime_rate() - 0.10).abs() < 0.04,
            "estimated loss {}",
            loss.lifetime_rate()
        );
    }

    #[test]
    fn fast_retransmit_recovers_from_oversized_rto() {
        // RTO mis-set to 10 s; without fast retransmit a lost packet can
        // never be retransmitted within the lifetime.
        let run = |fast: Option<u32>| {
            let model_net = figure1_net();
            // Deliberately broken timeouts: huge extra.
            let mut cfg = sender_config(&model_net, SimDuration::from_secs_f64(10.0), 3_000);
            cfg.fast_retransmit = fast;
            let sender = DmcSender::new(cfg);
            let receiver =
                DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(1.5), 1));
            let mut sim = TwoHostSim::new(
                vec![link(10e6, 0.600, 0.10), link(1e6, 0.200, 0.0)],
                vec![link(10e6, 0.600, 0.0), link(1e6, 0.200, 0.0)],
                sender,
                receiver,
                13,
            )
            .unwrap();
            sim.run_to_completion();
            (
                sim.client().stats(),
                sim.server().stats().unique_in_time as f64 / 3_000.0,
            )
        };
        let (slow_stats, q_slow) = run(None);
        let (fast_stats, q_fast) = run(Some(3));
        assert_eq!(slow_stats.fast_retransmits, 0);
        assert!(
            fast_stats.fast_retransmits > 50,
            "fast retransmits {}",
            fast_stats.fast_retransmits
        );
        assert!(
            q_fast > q_slow + 0.03,
            "fast {q_fast} should beat slow {q_slow}"
        );
    }
}
