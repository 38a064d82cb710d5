//! The receiving endpoint: deadline verification, deduplication, and
//! acknowledgment generation (paper §VII-A server + §VIII-C ack scheme).

use crate::notice::{NoticeGuard, NoticeSeq};
use crate::seqs::SeqSet;
use crate::wire::{is_notice, Ack, DataHeader, NoticeKind, PathNotice};
use dmc_sim::{Agent, Packet, SimApi, SimDuration, SimTime};
use dmc_stats::OnlineMoments;

/// Timer key for the periodic path-silence check (the receiver owns its
/// whole key space; the sender's reserved range does not apply here).
const FAILURE_CHECK_KEY: u64 = 1;

/// Total transmissions of each Down declaration (initial + repeats on
/// the following check ticks). Three sends survive double-digit reverse
/// loss rates with overwhelming probability.
const DOWN_NOTICE_REPEATS: u8 = 3;

/// Path-failure detection knobs: a path that has delivered at least one
/// packet and then stays silent for `silence` is declared down and
/// reported with a [`PathNotice`]; a packet arriving on a downed path
/// triggers an `Up` notice.
#[derive(Debug, Clone, Copy)]
pub struct FailureDetection {
    /// Silence duration after which a previously active path is declared
    /// down. Must comfortably exceed the path's inter-arrival time at the
    /// planned send rate.
    pub silence: SimDuration,
    /// How often to check for silent paths.
    pub check_interval: SimDuration,
    /// Stop checking after this much silence on *all* paths (the transfer
    /// is over; without this the periodic timer would keep an otherwise
    /// finished simulation alive forever).
    pub idle_shutdown: SimDuration,
}

impl FailureDetection {
    /// Creates a detector with `check_interval = silence / 4` and
    /// `idle_shutdown = 16 · silence`.
    pub fn new(silence: SimDuration) -> Self {
        FailureDetection {
            silence,
            check_interval: SimDuration::from_nanos((silence.as_nanos() / 4).max(1)),
            idle_shutdown: SimDuration::from_nanos(silence.as_nanos().saturating_mul(16)),
        }
    }
}

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Data lifetime `δ`: a message arriving later than `created + δ` is
    /// late (counted but useless, §IV).
    pub lifetime: SimDuration,
    /// Path (0-based) to send acknowledgments on — the lowest-delay path
    /// (Eq. 25 / §VIII-C).
    pub ack_path: usize,
    /// On-wire ack size in bytes; defaults to the encoded size, may be
    /// padded up to model link-layer overhead.
    pub ack_wire_bytes: usize,
    /// Path-failure detection; `None` (the default) disables it.
    pub failure_detection: Option<FailureDetection>,
}

impl ReceiverConfig {
    /// Creates a config with the paper's defaults (ack ≈ 40 B, no
    /// failure detection).
    pub fn new(lifetime: SimDuration, ack_path: usize) -> Self {
        ReceiverConfig {
            lifetime,
            ack_path,
            ack_wire_bytes: Ack::WIRE_BYTES.max(40),
            failure_detection: None,
        }
    }

    /// Enables path-failure detection.
    #[must_use]
    pub fn with_failure_detection(mut self, fd: FailureDetection) -> Self {
        self.failure_detection = Some(fd);
        self
    }
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiverStats {
    /// Transmissions that reached the receiver (including duplicates).
    pub transmissions_received: u64,
    /// Unique messages whose *first* copy arrived within the lifetime —
    /// the numerator of the paper's quality metric.
    pub unique_in_time: u64,
    /// Unique messages whose first copy arrived late.
    pub unique_late: u64,
    /// Duplicate copies discarded.
    pub duplicates: u64,
    /// Packets that failed to parse.
    pub malformed: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Acks dropped at the NIC (reverse-path queue full).
    pub acks_nic_dropped: u64,
    /// Path-failure (`Down`) notices sent.
    pub failure_notices_sent: u64,
    /// Path-recovery (`Up`) notices sent.
    pub recovery_notices_sent: u64,
    /// Sender probes discarded as duplicates or stale reorders (each
    /// would otherwise have triggered a redundant `Up` reply).
    pub stale_probes_dropped: u64,
}

impl ReceiverStats {
    /// Publishes the counters into a telemetry registry under the
    /// `proto.rx.*` names. The stats are cumulative, so call this once
    /// per receiver per run (publishing twice double-counts).
    pub fn publish_obs(&self, obs: &dmc_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("proto.rx.transmissions")
            .add(self.transmissions_received);
        obs.counter("proto.rx.in_time").add(self.unique_in_time);
        obs.counter("proto.rx.late").add(self.unique_late);
        obs.counter("proto.rx.duplicates").add(self.duplicates);
        obs.counter("proto.rx.malformed").add(self.malformed);
        obs.counter("proto.rx.acks_sent").add(self.acks_sent);
        obs.counter("proto.rx.acks_nic_dropped")
            .add(self.acks_nic_dropped);
        obs.counter("proto.rx.failure_notices")
            .add(self.failure_notices_sent);
        obs.counter("proto.rx.recovery_notices")
            .add(self.recovery_notices_sent);
        obs.counter("proto.rx.stale_probes")
            .add(self.stale_probes_dropped);
    }
}

/// The receiving endpoint ("server" in the paper's simulation).
///
/// On every data packet it verifies the deadline with the enclosed
/// creation timestamp, deduplicates by sequence number, and responds with
/// an acknowledgment along the configured lowest-delay path carrying the
/// §VIII-C triple (echo, expected range, received bitmap).
///
/// Deduplication keeps every seq ever received in a bitset over the
/// sender's dense sequence numbers (one bit per seq; a seq far beyond
/// the received ones, such as a forged `u64::MAX`, is kept aside in an
/// ordered overflow instead of stretching the bitset). The ack's bitmap
/// is the 128 bits of that set ending at the highest seq received.
#[derive(Debug)]
pub struct DmcReceiver {
    config: ReceiverConfig,
    /// Every seq received: a bitset over the sender's dense seqs.
    seen: SeqSet,
    highest_seq: u64,
    stats: ReceiverStats,
    /// One-way delay samples (creation → arrival) per inbound path,
    /// over *all* transmissions on that path — validates the delay
    /// distribution the links were configured with.
    delay_by_path: Vec<OnlineMoments>,
    /// Last *data* arrival per inbound path (failure detection). Only
    /// data defines the "transfer is active" baseline.
    last_seen: Vec<Option<SimTime>>,
    /// Last sender-probe arrival per inbound path: protects that path
    /// from a down declaration without making other paths look stale.
    last_probe: Vec<Option<SimTime>>,
    /// Paths currently reported down.
    reported_down: Vec<bool>,
    /// Remaining Down-notice repeats per path: notices are fire-and-
    /// forget on lossy reverse paths, so each declaration is sent
    /// [`DOWN_NOTICE_REPEATS`]× across consecutive check ticks — a
    /// single in-flight erasure must not blind the sender for the whole
    /// outage.
    down_resends: Vec<u8>,
    /// When the last `Up` notice was sent per path — probation: a path
    /// can only be re-declared down once *data* newer than this arrives,
    /// so a lightly-used (or plan-starved) path cannot flap down/up on
    /// probe echoes alone.
    up_sent_at: Vec<Option<SimTime>>,
    /// Whether the silence-check timer is armed.
    checker_armed: bool,
    /// Stamps `(at_ns, seq)` on outgoing notices so the sender can drop
    /// duplicated/reordered copies.
    notice_seq: NoticeSeq,
    /// Drops duplicated/stale-reordered sender probes: a chaotic network
    /// that duplicates a probe frame must not elicit one `Up` reply per
    /// copy.
    probe_guard: NoticeGuard,
}

impl DmcReceiver {
    /// Creates a receiver.
    pub fn new(config: ReceiverConfig) -> Self {
        DmcReceiver {
            config,
            seen: SeqSet::default(),
            highest_seq: 0,
            stats: ReceiverStats::default(),
            delay_by_path: Vec::new(),
            last_seen: Vec::new(),
            last_probe: Vec::new(),
            reported_down: Vec::new(),
            down_resends: Vec::new(),
            up_sent_at: Vec::new(),
            checker_armed: false,
            notice_seq: NoticeSeq::new(),
            probe_guard: NoticeGuard::new(),
        }
    }

    /// Paths currently considered down by the failure detector.
    pub fn paths_reported_down(&self) -> Vec<usize> {
        self.reported_down
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect()
    }

    /// Counters so far.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Observed send→arrival delay moments for transmissions received on
    /// `path` (`sent_ns` → arrival; includes serialization and queueing).
    pub fn delay_moments(&self, path: usize) -> OnlineMoments {
        self.delay_by_path
            .get(path)
            .copied()
            .unwrap_or_else(OnlineMoments::new)
    }

    /// Fraction of `generated` messages that arrived in time — the
    /// paper's quality `Q` when `generated` is the sender's count.
    pub fn quality(&self, generated: u64) -> f64 {
        if generated == 0 {
            0.0
        } else {
            self.stats.unique_in_time as f64 / generated as f64
        }
    }

    /// Freshest path believed alive — where notices should travel.
    fn best_notice_path(&self) -> usize {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, t) in self.last_seen.iter().enumerate() {
            if self.reported_down.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some(t) = *t {
                if best.is_none_or(|(bt, _)| t > bt) {
                    best = Some((t, i));
                }
            }
        }
        best.map_or(self.config.ack_path, |(_, i)| i)
    }

    fn send_notice(&mut self, path: usize, kind: NoticeKind, api: &mut SimApi<'_>) {
        let notice = PathNotice {
            path: path as u8,
            kind,
            seq: self.notice_seq.next(path),
            at_ns: api.now().as_nanos(),
        };
        let wire = notice.encode();
        let out = self.best_notice_path();
        if api.send(out, Packet::new(wire.len().max(40), wire)) {
            match kind {
                NoticeKind::Down => self.stats.failure_notices_sent += 1,
                NoticeKind::Up => self.stats.recovery_notices_sent += 1,
            }
        }
    }

    fn note_arrival(&mut self, path: usize, is_probe: bool, api: &mut SimApi<'_>) {
        let Some(fd) = self.config.failure_detection else {
            return;
        };
        if path >= api.num_paths() {
            return; // a lying header must not grow state or crash sends
        }
        if path >= self.last_seen.len() {
            self.last_seen.resize(path + 1, None);
            self.last_probe.resize(path + 1, None);
            self.reported_down.resize(path + 1, false);
            self.down_resends.resize(path + 1, 0);
            self.up_sent_at.resize(path + 1, None);
        }
        if is_probe {
            self.last_probe[path] = Some(api.now());
        } else {
            self.last_seen[path] = Some(api.now());
        }
        if self.reported_down[path] {
            self.reported_down[path] = false;
            self.down_resends[path] = 0;
            self.up_sent_at[path] = Some(api.now());
            self.send_notice(path, NoticeKind::Up, api);
        } else if is_probe {
            // The sender only probes paths *it* believes failed; if this
            // receiver disagrees (it never declared the path, or its Up
            // notice was lost or reordered), answer every probe with an
            // Up so the sender's failed flag cannot stick on a live path.
            self.send_notice(path, NoticeKind::Up, api);
        }
        // Only data arrivals arm the checker: probes alone mean the
        // transfer itself is idle and there is nothing to declare.
        if !is_probe && !self.checker_armed {
            self.checker_armed = true;
            api.set_timer(api.now() + fd.check_interval, FAILURE_CHECK_KEY);
        }
    }

    fn check_silent_paths(&mut self, api: &mut SimApi<'_>) {
        let Some(fd) = self.config.failure_detection else {
            return;
        };
        let now = api.now();
        let newest = self.last_seen.iter().flatten().copied().max();
        // Everything has been silent for a long time: the transfer is
        // over. Go dormant (the next arrival re-arms the checker) so the
        // event queue can drain.
        if newest.is_none_or(|t| now.since(t) > fd.idle_shutdown) {
            self.checker_armed = false;
            return;
        }
        // Differential silence: a path is down only when it lags the
        // *freshest arrival across paths* by more than the threshold.
        // Plain `now − last_seen` would misread the end of the transfer
        // (every path goes quiet at once) as a mass failure; lagging a
        // still-active transfer is the actual failure signature. The
        // flip side — all paths dying simultaneously — is undetectable
        // and also unreportable (no live path to carry the notice).
        let active = newest.expect("checked above");
        let down: Vec<usize> = (0..self.last_seen.len())
            .filter(|&i| {
                let freshest = self.last_seen[i].max(self.last_probe[i]);
                // Probation: after an Up, re-declaration needs data newer
                // than the Up (a probe echo is not an expectation of
                // data). `d ≥ u` because the Up may have been triggered
                // by that very data arrival.
                let data_since_up =
                    self.last_seen[i].is_some_and(|d| self.up_sent_at[i].is_none_or(|u| d >= u));
                !self.reported_down[i]
                    && data_since_up
                    && freshest.is_some_and(|t| active.since(t) > fd.silence)
            })
            .collect();
        // Repeat recent Down declarations first (fire-and-forget notices
        // can be erased on the reverse path), then declare new ones.
        for path in 0..self.down_resends.len() {
            if self.reported_down[path] && self.down_resends[path] > 0 {
                self.down_resends[path] -= 1;
                self.send_notice(path, NoticeKind::Down, api);
            }
        }
        for path in down {
            self.reported_down[path] = true;
            self.down_resends[path] = DOWN_NOTICE_REPEATS - 1;
            self.send_notice(path, NoticeKind::Down, api);
        }
        api.set_timer(now + fd.check_interval, FAILURE_CHECK_KEY);
    }

    fn build_ack(&self, header: &DataHeader) -> Ack {
        let window_start = self
            .highest_seq
            .saturating_sub(crate::wire::ACK_BITMAP_BITS as u64 - 1);
        let mut ack = Ack::new(header.seq, header.sent_ns, header.path, window_start);
        // Nothing above `highest_seq` has been seen, so the window's bits
        // past it read 0.
        ack.bitmap = self.seen.window(window_start).to_le_bytes();
        ack
    }
}

impl Agent for DmcReceiver {
    fn on_start(&mut self, _api: &mut SimApi<'_>) {}

    fn on_packet(&mut self, _path: usize, packet: Packet, api: &mut SimApi<'_>) {
        // A sender-side probe of a suspect path: its arrival alone proves
        // the forward direction works again, so feed the detector (which
        // answers with an `Up` notice) without touching data accounting.
        let payload = packet.payload();
        if is_notice(payload) {
            let Some(probe) = PathNotice::decode(payload) else {
                self.stats.malformed += 1;
                return;
            };
            if self.probe_guard.fresh(&probe) {
                self.note_arrival(probe.path as usize, true, api);
            } else {
                self.stats.stale_probes_dropped += 1;
            }
            return;
        }
        let Some(header) = DataHeader::decode(payload) else {
            self.stats.malformed += 1;
            return;
        };
        self.stats.transmissions_received += 1;
        self.note_arrival(header.path as usize, false, api);
        let now_ns = api.now().as_nanos();
        let path_idx = header.path as usize;
        if path_idx >= self.delay_by_path.len() && path_idx < 64 {
            self.delay_by_path
                .resize_with(path_idx + 1, OnlineMoments::new);
        }
        if let Some(m) = self.delay_by_path.get_mut(path_idx) {
            m.push(now_ns.saturating_sub(header.sent_ns) as f64 / 1e9);
        }
        if self.seen.insert(header.seq) {
            let deadline = header.created_ns + self.config.lifetime.as_nanos();
            if now_ns <= deadline {
                self.stats.unique_in_time += 1;
            } else {
                self.stats.unique_late += 1;
            }
        } else {
            self.stats.duplicates += 1;
        }
        self.highest_seq = self.highest_seq.max(header.seq);
        // Acknowledge every transmission (even duplicates/late ones: the
        // ack suppresses pointless retransmissions).
        let ack = self.build_ack(&header);
        let wire = ack.encode();
        let size = self.config.ack_wire_bytes.max(wire.len());
        let sent = api.send(self.config.ack_path, Packet::new(size, wire));
        if sent {
            self.stats.acks_sent += 1;
        } else {
            self.stats.acks_nic_dropped += 1;
        }
    }

    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        if key == FAILURE_CHECK_KEY {
            self.check_silent_paths(api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_sim::{LinkConfig, SimTime, TwoHostSim};
    use dmc_stats::ConstantDelay;
    use std::sync::Arc;

    fn link(delay: f64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps: 1e8,
            propagation: Arc::new(ConstantDelay::new(delay)),
            loss: 0.0.into(),
            queue_capacity_bytes: 1 << 20,
        }
    }

    /// Test client: sends crafted data packets, collects acks.
    struct Probe {
        to_send: Vec<(u64, u64, SimTime)>, // (seq, created_ns, send at)
        acks: Vec<Ack>,
    }
    impl Agent for Probe {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            for (i, &(_, _, at)) in self.to_send.iter().enumerate() {
                api.set_timer(at, i as u64);
            }
        }
        fn on_packet(&mut self, _path: usize, p: Packet, _api: &mut SimApi<'_>) {
            self.acks.push(Ack::decode(p.payload()).expect("valid ack"));
        }
        fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
            let (seq, created_ns, _) = self.to_send[key as usize];
            let h = DataHeader {
                seq,
                created_ns,
                sent_ns: api.now().as_nanos(),
                path: 0,
                stage: 0,
            };
            api.send(0, Packet::new(1024, h.encode()));
        }
    }

    fn run(to_send: Vec<(u64, u64, SimTime)>, lifetime_ms: u64) -> (Probe, ReceiverStats) {
        let recv = DmcReceiver::new(ReceiverConfig::new(
            SimDuration::from_millis(lifetime_ms),
            0,
        ));
        let mut sim = TwoHostSim::new(
            vec![link(0.010)],
            vec![link(0.010)],
            Probe {
                to_send,
                acks: vec![],
            },
            recv,
            7,
        )
        .unwrap();
        sim.run_to_completion();
        let stats = sim.server().stats();
        let client_stats = sim.client().acks.clone();
        (
            Probe {
                to_send: vec![],
                acks: client_stats,
            },
            stats,
        )
    }

    #[test]
    fn in_time_vs_late() {
        // Packet created at t=0, sent at t=0 → arrives ~10 ms: in time for
        // δ=50 ms. Packet created at 0 but sent at 100 ms → late.
        let (probe, stats) = run(
            vec![(1, 0, SimTime::ZERO), (2, 0, SimTime::from_secs_f64(0.100))],
            50,
        );
        assert_eq!(stats.unique_in_time, 1);
        assert_eq!(stats.unique_late, 1);
        assert_eq!(stats.acks_sent, 2);
        assert_eq!(probe.acks.len(), 2);
        assert_eq!(probe.acks[0].just_received, 1);
    }

    #[test]
    fn duplicates_counted_once() {
        let (_, stats) = run(
            vec![
                (5, 0, SimTime::ZERO),
                (5, 0, SimTime::from_secs_f64(0.001)),
                (5, 0, SimTime::from_secs_f64(0.002)),
            ],
            1_000,
        );
        assert_eq!(stats.unique_in_time, 1);
        assert_eq!(stats.duplicates, 2);
        assert_eq!(stats.transmissions_received, 3);
    }

    #[test]
    fn ack_bitmap_reports_received_set() {
        let (probe, _) = run(
            vec![
                (10, 0, SimTime::ZERO),
                (12, 0, SimTime::from_secs_f64(0.001)),
                (11, 0, SimTime::from_secs_f64(0.002)),
            ],
            1_000,
        );
        let last = probe.acks.last().unwrap();
        assert!(last.is_received(10));
        assert!(last.is_received(11));
        assert!(last.is_received(12));
        assert!(!last.is_received(13));
    }

    #[test]
    fn quality_metric() {
        let (_, stats) = run(vec![(1, 0, SimTime::ZERO)], 1_000);
        let mut r = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_millis(1), 0));
        r.stats = stats;
        assert!((r.quality(2) - 0.5).abs() < 1e-12);
        assert_eq!(r.quality(0), 0.0);
    }

    #[test]
    fn delay_moments_track_path_latency() {
        // Packet sent over a 10 ms link arrives with ~10 ms + serialization
        // observed delay on its path's accumulator.
        let (_, _) = run(vec![(1, 0, SimTime::ZERO)], 1_000);
        let recv = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_millis(100), 0));
        let mut sim = TwoHostSim::new(
            vec![link(0.010)],
            vec![link(0.010)],
            Probe {
                to_send: vec![(7, 0, SimTime::ZERO)],
                acks: vec![],
            },
            recv,
            5,
        )
        .unwrap();
        sim.run_to_completion();
        let m = sim.server().delay_moments(0);
        assert_eq!(m.count(), 1);
        // 10 ms propagation + 1024 B at 100 Mbps ≈ 0.082 ms serialization.
        assert!((m.mean() - 0.010082).abs() < 1e-4, "mean {}", m.mean());
        // Unused path reports an empty accumulator.
        assert_eq!(sim.server().delay_moments(3).count(), 0);
    }

    #[test]
    fn silence_produces_down_notice_then_recovery_up_notice() {
        // Two paths; the probe sends on path 0 every 10 ms until 200 ms,
        // goes silent until 600 ms, then resumes — while path 1 keeps a
        // heartbeat throughout. The receiver must report path 0 down once
        // (on the live path) and up once when it resumes.
        struct TwoPathProbe {
            notices: Vec<PathNotice>,
        }
        impl Agent for TwoPathProbe {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                for i in 0..100u64 {
                    api.set_timer(SimTime::from_nanos(i * 10_000_000), i);
                }
            }
            fn on_packet(&mut self, _path: usize, p: Packet, _api: &mut SimApi<'_>) {
                if let Some(n) = PathNotice::decode(p.payload()) {
                    self.notices.push(n);
                }
            }
            fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
                let t_ms = key * 10;
                let send = |api: &mut SimApi<'_>, path: u8| {
                    let h = DataHeader {
                        seq: key * 2 + path as u64,
                        created_ns: api.now().as_nanos(),
                        sent_ns: api.now().as_nanos(),
                        path,
                        stage: 0,
                    };
                    api.send(path as usize, Packet::new(256, h.encode()));
                };
                send(api, 1); // heartbeat throughout
                if t_ms <= 200 || t_ms >= 600 {
                    send(api, 0);
                }
            }
        }
        let recv = DmcReceiver::new(
            ReceiverConfig::new(SimDuration::from_millis(500), 1)
                .with_failure_detection(FailureDetection::new(SimDuration::from_millis(100))),
        );
        let mut sim = TwoHostSim::new(
            vec![link(0.005), link(0.005)],
            vec![link(0.005), link(0.005)],
            TwoPathProbe { notices: vec![] },
            recv,
            17,
        )
        .unwrap();
        sim.run_to_completion();
        let stats = sim.server().stats();
        // One outage = one declaration, sent DOWN_NOTICE_REPEATS× against
        // reverse-path loss; one recovery = one Up.
        assert_eq!(
            stats.failure_notices_sent,
            u64::from(DOWN_NOTICE_REPEATS),
            "one declaration, repeated for loss-resilience"
        );
        assert_eq!(stats.recovery_notices_sent, 1);
        let notices = &sim.client().notices;
        assert_eq!(notices.len(), DOWN_NOTICE_REPEATS as usize + 1);
        for n in &notices[..DOWN_NOTICE_REPEATS as usize] {
            assert_eq!(n.path, 0);
            assert_eq!(n.kind, NoticeKind::Down);
        }
        assert_eq!(notices.last().unwrap().kind, NoticeKind::Up);
        assert!(sim.server().paths_reported_down().is_empty());
    }

    #[test]
    fn detector_goes_dormant_so_simulation_terminates() {
        // Without the idle shutdown the periodic check would re-arm
        // forever and run_to_completion would never return.
        struct OneShot;
        impl Agent for OneShot {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                let h = DataHeader {
                    seq: 1,
                    created_ns: 0,
                    sent_ns: 0,
                    path: 0,
                    stage: 0,
                };
                api.send(0, Packet::new(256, h.encode()));
            }
            fn on_packet(&mut self, _p: usize, _pk: Packet, _a: &mut SimApi<'_>) {}
            fn on_timer(&mut self, _k: u64, _a: &mut SimApi<'_>) {}
        }
        let recv = DmcReceiver::new(
            ReceiverConfig::new(SimDuration::from_millis(100), 0)
                .with_failure_detection(FailureDetection::new(SimDuration::from_millis(50))),
        );
        let mut sim =
            TwoHostSim::new(vec![link(0.010)], vec![link(0.010)], OneShot, recv, 7).unwrap();
        sim.run_to_completion(); // must terminate
        assert!(sim.now() < SimTime::from_secs_f64(5.0), "queue drained");
    }

    #[test]
    fn malformed_packets_ignored() {
        struct Garbage;
        impl Agent for Garbage {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                api.send(0, Packet::new(64, [0xFF; 64]));
            }
            fn on_packet(&mut self, _p: usize, _pk: Packet, _a: &mut SimApi<'_>) {}
            fn on_timer(&mut self, _k: u64, _a: &mut SimApi<'_>) {}
        }
        let recv = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_millis(10), 0));
        let mut sim =
            TwoHostSim::new(vec![link(0.01)], vec![link(0.01)], Garbage, recv, 3).unwrap();
        sim.run_to_completion();
        assert_eq!(sim.server().stats().malformed, 1);
        assert_eq!(sim.server().stats().acks_sent, 0);
    }
}
