//! The sending endpoint: constant-rate generation, Algorithm-1 combination
//! assignment, per-stage retransmission timers, ack processing and
//! optional fast retransmit (paper §VII-A client, §VIII-D).

use crate::estimator::{LossEstimator, RttEstimator};
use crate::seqs::{SeqSet, SeqWindow};
use crate::wire::{Ack, DataHeader, DATA_HEADER_BYTES};
use dmc_core::{Plan, SchedulePolicy, Scheduler, Slot, Strategy};
use dmc_sim::{Agent, Packet, SimApi, SimDuration, SimTime};

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
}

impl SenderConfig {
    /// Creates a config with the paper's defaults (1024-byte messages, no
    /// fast retransmit, 512-transmission loss window).
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

/// One in-flight message. `stage` and `path` have the widths the data
/// header gives them on the wire, which keeps a window slot at 48 bytes
/// on 64-bit targets.
#[derive(Debug, Clone)]
struct InFlight {
    combo: usize,
    created: SimTime,
    sent_at: SimTime,
    path_send_idx: u64,
    dup_indications: u32,
    stage: u8,
    path: u8,
}

/// The sending endpoint ("client" in the paper's simulation).
///
/// Messages awaiting an ack or a further stage are kept in a ring
/// indexed by `seq − oldest live seq` (sequence numbers are handed out
/// densely from 0). A message that stays in flight much longer than the
/// ones around it — a stage with no timer whose ack never comes — moves
/// to an ordered side map, so the ring stays within a constant factor of
/// the live messages. An ack marks its echo acknowledged, then the bits
/// of its bitmap that no earlier ack set, in ascending order: a seq an
/// ack has named has left the window for good, so an ack costs one
/// indexed lookup per seq it newly names, not one per set bit.
#[derive(Debug)]
pub struct DmcSender {
    config: SenderConfig,
    scheduler: Scheduler,
    /// Messages awaiting an ack or a further stage, indexed by
    /// `seq − oldest live seq`.
    in_flight: SeqWindow<InFlight>,
    /// Per path: the send counter.
    path_send_count: Vec<u64>,
    /// Per path: the seq of each transmission still outstanding, indexed
    /// by its dense per-path send index (fast retransmit walks those
    /// sent before an acked one in send order).
    outstanding: Vec<SeqWindow<u64>>,
    /// Every seq below `next_seq` an ack has named: acked then, or gone
    /// before (acked, expired, blackholed). None of them is ever in
    /// flight again, so an ack's bitmap walk skips them.
    retired: SeqSet,
    /// In-flight lookups made by bitmap walks.
    #[cfg(test)]
    bitmap_lookups: u64,
    /// Every seq `mark_acked` removed, in order.
    #[cfg(test)]
    acked_log: Vec<u64>,
    /// Scratch list of the seqs an ack pushes over the fast-retransmit
    /// threshold, reused across acks.
    fast_due: Vec<u64>,
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
    /// [`MAX_STAGES`] transmissions, the strategy is malformed, or
    /// `message_wire_bytes` is smaller than [`DATA_HEADER_BYTES`].
    pub fn new(config: SenderConfig) -> Self {
        let table = config.strategy.table();
        assert!(
            table.transmissions() <= MAX_STAGES,
            "at most {MAX_STAGES} transmissions supported"
        );
        assert!(
            config.message_wire_bytes >= DATA_HEADER_BYTES,
            "messages of {} bytes cannot hold the {DATA_HEADER_BYTES}-byte data header",
            config.message_wire_bytes
        );
        let num_paths = table.num_paths();
        let scheduler = Scheduler::new(config.strategy.x().to_vec(), SchedulePolicy::Deficit)
            .expect("valid strategy");
        DmcSender {
            scheduler,
            in_flight: SeqWindow::default(),
            path_send_count: vec![0; num_paths],
            outstanding: (0..num_paths).map(|_| SeqWindow::default()).collect(),
            retired: SeqSet::default(),
            #[cfg(test)]
            bitmap_lookups: 0,
            #[cfg(test)]
            acked_log: Vec::new(),
            fast_due: Vec::new(),
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
        match self.config.strategy.table().slot_at(combo, stage) {
            None | Some(Slot::Blackhole) => {
                // Dropped at source (stage 0) or retransmissions exhausted
                // into the blackhole.
                if stage == 0 {
                    self.stats.blackholed += 1;
                } else {
                    self.stats.expired += 1;
                }
                self.in_flight.remove(seq);
            }
            Some(Slot::Path(path)) => {
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
                        created,
                        sent_at: now,
                        path_send_idx: idx,
                        dup_indications: 0,
                        stage: header.stage,
                        path: header.path,
                    },
                ) {
                    self.outstanding[usize::from(prev.path)].remove(prev.path_send_idx);
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
        if let Some(state) = self.in_flight.remove(seq) {
            let path = usize::from(state.path);
            self.outstanding[path].remove(state.path_send_idx);
            self.loss[path].record(false);
            self.stats.acked += 1;
            #[cfg(test)]
            self.acked_log.push(seq);
            true
        } else {
            false
        }
    }

    /// Advances a stalled message to its next stage (shared by timeout
    /// and fast-retransmit paths).
    fn advance_stage(&mut self, seq: u64, api: &mut SimApi<'_>) {
        let Some(state) = self.in_flight.get(seq).cloned() else {
            return;
        };
        let path = usize::from(state.path);
        self.loss[path].record(true);
        self.outstanding[path].remove(state.path_send_idx);
        self.send_stage(
            seq,
            state.combo,
            usize::from(state.stage) + 1,
            state.created,
            api.now(),
            api,
        );
    }

    fn on_ack(&mut self, ack: &Ack, api: &mut SimApi<'_>) {
        let now = api.now();
        let echo = self
            .in_flight
            .get(ack.just_received)
            .map(|s| (usize::from(s.path), s.path_send_idx, s.sent_at));
        // RTT sample: only when the echo matches the transmission we still
        // track (Karn-safe: retransmitted-and-reacked packets mismatch on
        // sent_ns and are skipped).
        if let Some((path, _, sent_at)) = echo {
            if sent_at.as_nanos() == ack.echo_sent_ns && path == ack.echo_path as usize {
                self.rtt[path].record(now.since(sent_at).as_secs_f64());
            }
        }
        // The echoed packet plus everything the bitmap names is acked.
        // Seqs at or above `next_seq` were never sent, and the retired
        // ones are out of flight for good: the walk visits the rest.
        self.mark_acked(ack.just_received);
        if ack.just_received < self.next_seq {
            self.retired.insert(ack.just_received);
        }
        let start = ack.window_start;
        let mut fresh = u128::from_le_bytes(ack.bitmap) & !self.retired.window(start);
        let sent = self.next_seq.saturating_sub(start);
        if sent < u64::from(u128::BITS) {
            fresh &= (1 << sent) - 1;
        }
        while fresh != 0 {
            let seq = start + u64::from(fresh.trailing_zeros());
            fresh &= fresh - 1;
            self.retired.insert(seq);
            #[cfg(test)]
            {
                self.bitmap_lookups += 1;
            }
            self.mark_acked(seq);
        }
        // Fast retransmit (§VIII-D): packets sent on the same path
        // *before* the acked one, still outstanding, gather duplicate
        // indications; at the threshold they advance early.
        if let (Some(threshold), Some((path, idx, _))) = (self.config.fast_retransmit, echo) {
            let mut due = std::mem::take(&mut self.fast_due);
            for (_, &seq) in self.outstanding[path].below(idx) {
                if let Some(state) = self.in_flight.get_mut(seq) {
                    state.dup_indications += 1;
                    if state.dup_indications >= threshold {
                        due.push(seq);
                    }
                }
            }
            for &seq in &due {
                self.stats.fast_retransmits += 1;
                self.advance_stage(seq, api);
            }
            due.clear();
            self.fast_due = due;
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
        let Some(state) = self.in_flight.get(seq) else {
            return;
        };
        if usize::from(state.stage) != stage {
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
                .remove(seq)
                .expect("membership in in_flight checked just above");
            let path = usize::from(state.path);
            self.loss[path].record(true);
            self.outstanding[path].remove(state.path_send_idx);
            self.stats.expired += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{DmcReceiver, ReceiverConfig};
    use dmc_core::{NetworkSpec, Objective, PathSpec, Plan, Planner, Scenario};
    use dmc_sim::{LinkConfig, TwoHostSim};
    use dmc_stats::rng::SplitMix64;
    use dmc_stats::ConstantDelay;
    use std::collections::BTreeSet;
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
    fn an_in_flight_slot_stays_small() {
        // The window holds one slot per seq between the oldest live
        // message and the newest, live or not.
        assert!(std::mem::size_of::<Option<InFlight>>() <= 48);
    }

    #[test]
    #[should_panic(expected = "cannot hold the 32-byte data header")]
    fn a_message_must_hold_the_data_header() {
        let mut config = sender_config(&figure1_net(), SimDuration::ZERO, 10);
        config.message_wire_bytes = DATA_HEADER_BYTES - 1;
        DmcSender::new(config);
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

    /// A receiver that answers every data packet with an honest ack and,
    /// now and then, a forged one (valid checksum) whose window lies
    /// ahead of what was sent, far behind it, or at the top of the seq
    /// space, with random bits.
    struct Forger {
        rng: SplitMix64,
        seen: BTreeSet<u64>,
        highest: u64,
    }

    impl Forger {
        fn bitmap(&self, start: u64) -> [u8; 16] {
            let last = start.saturating_add(127);
            let bits = self.seen.range(start..=last);
            let bits = bits.fold(0u128, |b, &seq| b | 1 << (seq - start));
            bits.to_le_bytes()
        }
    }

    impl Agent for Forger {
        fn on_start(&mut self, _api: &mut SimApi<'_>) {}

        fn on_packet(&mut self, _path: usize, packet: Packet, api: &mut SimApi<'_>) {
            let Some(h) = DataHeader::decode(packet.payload()) else {
                return;
            };
            self.seen.insert(h.seq);
            self.highest = self.highest.max(h.seq);
            let start = self.highest.saturating_sub(127);
            let mut ack = Ack::new(h.seq, h.sent_ns, h.path, start);
            ack.bitmap = self.bitmap(start);
            api.send(1, Packet::new(Ack::WIRE_BYTES, ack.encode()));
            if self.rng.int(0u64..2) == 0 {
                let start = match self.rng.int(0u64..3) {
                    0 => self.highest + self.rng.int(0u64..256),
                    1 => self.rng.int(0u64..self.highest + 1),
                    _ => u64::MAX - self.rng.int(0u64..128),
                };
                let echo = [h.seq, self.rng.next_u64(), u64::MAX][self.rng.int(0usize..3)];
                let mut forged = Ack::new(echo, h.sent_ns, h.path, start);
                forged.bitmap = (u128::from(self.rng.next_u64()) << 64
                    | u128::from(self.rng.next_u64()))
                .to_le_bytes();
                api.send(1, Packet::new(Ack::WIRE_BYTES, forged.encode()));
            }
        }

        fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
    }

    /// What the forged acks named, by what the named seq was then.
    #[derive(Debug, Default)]
    struct Named {
        in_flight: usize,
        never_sent: usize,
        acked_before: usize,
        gone_unacked: usize,
        top_windows: usize,
    }

    /// The sender, with every ack held to the contract: it removes
    /// exactly the in-flight seqs the ack names, the echo first, then
    /// the bitmap's in ascending order.
    struct Checked {
        sender: DmcSender,
        acked: BTreeSet<u64>,
        named: Named,
    }

    impl Agent for Checked {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            self.sender.on_start(api);
        }

        fn on_packet(&mut self, path: usize, packet: Packet, api: &mut SimApi<'_>) {
            let ack = Ack::decode(packet.payload()).expect("the forger seals every ack");
            let sender = &self.sender;
            let mut want = Vec::new();
            for seq in std::iter::once(ack.just_received).chain(ack.received_seqs()) {
                let n = &mut self.named;
                if sender.in_flight.get(seq).is_some() {
                    n.in_flight += 1;
                    if !want.contains(&seq) {
                        want.push(seq);
                    }
                } else if seq >= sender.next_seq {
                    n.never_sent += 1;
                } else if self.acked.contains(&seq) {
                    n.acked_before += 1;
                } else {
                    n.gone_unacked += 1;
                }
            }
            self.named.top_windows += usize::from(ack.window_start > u64::MAX - 127);
            self.sender.acked_log.clear();
            self.sender.on_packet(path, packet, api);
            assert_eq!(self.sender.acked_log, want, "ack {ack:?}");
            self.acked.extend(want);
        }

        fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
            self.sender.on_timer(key, api);
        }
    }

    /// `deliver_golden`'s table3@90: planned on delays 50 ms above the
    /// links', with 100 ms of timer slack; 7 % of the messages go to the
    /// blackhole.
    fn table3_at_90() -> Plan {
        let path = |bw, delay, loss| PathSpec::new(bw, delay, loss).unwrap();
        let net = NetworkSpec::builder()
            .path(path(80e6, 0.400, 0.2))
            .path(path(20e6, 0.100, 0.0))
            .data_rate(90e6)
            .lifetime(0.8)
            .build()
            .unwrap();
        Planner::new()
            .plan_with_margin(&Scenario::from_network(&net), 0.050, Objective::MaxQuality)
            .unwrap()
    }

    /// Table III's links with ns-3's 100-packet queues.
    fn table3_links() -> Vec<LinkConfig> {
        let link = |bw, delay, loss| LinkConfig {
            queue_capacity_bytes: 100 * 1024,
            ..link(bw, delay, loss)
        };
        vec![link(80e6, 0.400, 0.2), link(20e6, 0.100, 0.0)]
    }

    #[test]
    fn an_ack_removes_exactly_the_in_flight_seqs_it_names() {
        let plan = table3_at_90();
        for (seed, fast) in [(1, None), (2, Some(3)), (3, Some(1))] {
            let mut config = SenderConfig::from_plan(&plan, SimDuration::from_millis(100), 2_500);
            config.fast_retransmit = fast;
            let checked = Checked {
                sender: DmcSender::new(config),
                acked: BTreeSet::new(),
                named: Named::default(),
            };
            let forger = Forger {
                rng: SplitMix64::new(seed),
                seen: BTreeSet::new(),
                highest: 0,
            };
            let mut sim =
                TwoHostSim::new(table3_links(), table3_links(), checked, forger, seed).unwrap();
            sim.run_to_completion();
            let n = &sim.client().named;
            assert!(
                n.in_flight > 0
                    && n.never_sent > 0
                    && n.acked_before > 0
                    && n.gone_unacked > 0
                    && n.top_windows > 0,
                "seed {seed}: {n:?}"
            );
            let stats = sim.client().sender.stats();
            assert_eq!(stats.acked, sim.client().acked.len() as u64);
            assert!(
                stats.expired + stats.blackholed > 0,
                "seed {seed}: {stats:?}"
            );
        }
    }

    #[test]
    fn a_bitmap_walk_looks_up_only_the_seqs_no_ack_named_before() {
        // Seed 1, as `deliver_golden` pins it.
        let plan = table3_at_90();
        let sender = DmcSender::from_plan(&plan, SimDuration::from_millis(100), 2_500);
        let lifetime = SimDuration::from_secs_f64(plan.scenario().lifetime());
        let receiver = DmcReceiver::new(ReceiverConfig::new(lifetime, plan.ack_path()));
        let mut sim = TwoHostSim::new(table3_links(), table3_links(), sender, receiver, 1).unwrap();
        sim.run_to_completion();
        let (acks, acked) = (sim.server().stats().acks_sent, sim.client().stats().acked);
        assert_eq!((acks, acked), (2_333, 2_333), "deliver_golden's pin");
        // One lookup per set bit made 62 171 here.
        let lookups = sim.client().bitmap_lookups;
        assert!(
            lookups <= acks + acked,
            "{lookups} lookups for {acks} acks and {acked} messages acked"
        );
    }
}
