//! Unidirectional point-to-point links.
//!
//! A link reproduces the three knobs the paper's ns-3 setup exposes per
//! path — bandwidth, propagation delay, loss — plus the drop-tail queue
//! whose side effects (§VII Exp. 1 measured up to 50 ms queueing delay,
//! §IX-A discusses overflow loss) the evaluation depends on:
//!
//! * **Serialization**: a packet of `s` bits occupies the transmitter for
//!   `s / bandwidth` seconds; packets queue FIFO behind it.
//! * **Queue**: bounded in bytes; arrivals that would overflow are
//!   dropped (this is how over-driving a path manifests, Fig. 3 top).
//! * **Loss**: a per-packet erasure process ([`LossModel`]) — either
//!   independent Bernoulli (the paper's binary erasure channel at
//!   transport granularity) or a Gilbert–Elliott two-state chain for
//!   correlated/bursty loss.
//! * **Propagation**: constant or random ([`Delay`]), sampled per packet.
//!   A constant delay keeps a path FIFO by construction (`§VIII-D`:
//!   per-path reordering is "relatively unlikely"; a point-to-point wire
//!   cannot reorder). A random delay is drawn i.i.d. per packet — the
//!   paper's Eq. 24 — so a later packet may overtake an earlier one.
//! * **Dynamics**: a link can be failed, recovered, or retuned
//!   mid-simulation via [`LinkChange`] (see the [`scenario`](crate::scenario)
//!   module for the schedule builder).

use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use dmc_stats::rng::Xoshiro256;
use dmc_stats::Delay;
use std::sync::Arc;

/// The Gilbert–Elliott two-state loss chain: a *good* and a *bad* state,
/// each with its own erasure probability, with per-packet transition
/// probabilities between them. Models the correlated/bursty losses of
/// interference-limited wireless links, which i.i.d. Bernoulli erasure
/// cannot express.
///
/// ```
/// use dmc_sim::GilbertElliott;
///
/// // Bursts of mean length 4 covering 1/6 of packets.
/// let ge = GilbertElliott::classic(0.05, 0.25).unwrap();
/// assert!((ge.stationary_loss() - 1.0 / 6.0).abs() < 1e-12);
/// assert!((ge.mean_burst_length() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of moving good → bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of moving bad → good.
    pub p_bad_to_good: f64,
    /// Erasure probability while in the good state.
    pub loss_good: f64,
    /// Erasure probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Creates a Gilbert–Elliott model.
    ///
    /// # Errors
    ///
    /// Returns a message when a probability is outside `[0, 1]`, or both
    /// transition probabilities are zero (the chain would never mix and
    /// the stationary loss rate would be undefined).
    pub fn new(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Result<Self, String> {
        for (name, p) in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        // Degenerate-chain detection: both transition probabilities exactly
        // zero means a frozen state, handled specially.
        if p_good_to_bad == 0.0 && p_bad_to_good == 0.0 {
            return Err("at least one transition probability must be positive".into());
        }
        Ok(GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
        })
    }

    /// The classic Gilbert channel: lossless good state, fully erasing
    /// bad state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GilbertElliott::new`].
    pub fn classic(p_good_to_bad: f64, p_bad_to_good: f64) -> Result<Self, String> {
        GilbertElliott::new(p_good_to_bad, p_bad_to_good, 0.0, 1.0)
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
    }

    /// Long-run loss rate: `π_G·loss_good + π_B·loss_bad` — the `τ_i`
    /// the LP model should be fed for this link.
    pub fn stationary_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        (1.0 - pb) * self.loss_good + pb * self.loss_bad
    }

    /// Expected number of consecutive packets spent in the bad state
    /// (`1/p_bad_to_good`; ∞ if the bad state is absorbing).
    pub fn mean_burst_length(&self) -> f64 {
        1.0 / self.p_bad_to_good
    }
}

/// The per-packet erasure process of a link.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// Independent erasure with the given probability (the paper's model).
    Bernoulli(f64),
    /// Correlated bursty erasure (two-state Markov chain).
    GilbertElliott(GilbertElliott),
}

impl LossModel {
    /// Validates the model's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message when a probability is out of range.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            LossModel::Bernoulli(p) => {
                if !(0.0..=1.0).contains(p) || p.is_nan() {
                    return Err(format!("loss must be in [0, 1], got {p}"));
                }
                Ok(())
            }
            LossModel::GilbertElliott(ge) => GilbertElliott::new(
                ge.p_good_to_bad,
                ge.p_bad_to_good,
                ge.loss_good,
                ge.loss_bad,
            )
            .map(|_| ()),
        }
    }

    /// The long-run loss rate of the process — what the LP's `τ_i`
    /// should be set to.
    pub fn stationary_loss(&self) -> f64 {
        match self {
            LossModel::Bernoulli(p) => *p,
            LossModel::GilbertElliott(ge) => ge.stationary_loss(),
        }
    }
}

impl From<f64> for LossModel {
    /// A bare probability is Bernoulli loss (the historical field type).
    fn from(p: f64) -> Self {
        LossModel::Bernoulli(p)
    }
}

impl From<GilbertElliott> for LossModel {
    fn from(ge: GilbertElliott) -> Self {
        LossModel::GilbertElliott(ge)
    }
}

/// A mid-simulation change to one link — the scenario library's
/// primitives for path failure/recovery and time-varying characteristics.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkChange {
    /// The link goes down: every subsequent send is dropped at the NIC
    /// until [`LinkChange::Recover`].
    Fail,
    /// The link comes back up.
    Recover,
    /// The transmission rate changes (piecewise time-varying bandwidth;
    /// the packet currently in service finishes at the old rate).
    SetBandwidth(f64),
    /// The erasure process changes.
    SetLoss(LossModel),
}

/// Static configuration of one unidirectional link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Transmission rate in bits/second.
    pub bandwidth_bps: f64,
    /// Propagation-delay distribution (constant for the base model).
    pub propagation: Arc<dyn Delay>,
    /// Per-packet erasure process (`f64` converts to Bernoulli).
    pub loss: LossModel,
    /// Drop-tail queue capacity in bytes (not counting the packet in
    /// service). The paper's buffers are finite; 256 KiB is the default.
    pub queue_capacity_bytes: usize,
}

impl LinkConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when bandwidth, loss, or capacity are out of
    /// range.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.bandwidth_bps > 0.0) || !self.bandwidth_bps.is_finite() {
            return Err(format!(
                "bandwidth must be finite and > 0, got {}",
                self.bandwidth_bps
            ));
        }
        self.loss.validate()?;
        if self.queue_capacity_bytes == 0 {
            return Err("queue capacity must be positive".into());
        }
        Ok(())
    }
}

/// Counters exposed per link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Packets accepted for transmission.
    pub sent: u64,
    /// Packets dropped on arrival because the queue was full.
    pub dropped_overflow: u64,
    /// Packets dropped because the link was down.
    pub dropped_down: u64,
    /// Packets erased in flight (loss-model erasures).
    pub lost: u64,
    /// Packets that will be delivered.
    pub delivered: u64,
    /// Bytes accepted for transmission.
    pub bytes_sent: u64,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, PartialEq)]
pub enum SendOutcome {
    /// The queue was full; the packet is gone.
    DroppedQueueFull,
    /// The link is down (scheduled failure); the packet is gone.
    DroppedLinkDown,
    /// The packet was serialized.
    Transmitted {
        /// When the last bit leaves the transmitter (queue slot freed).
        departure: SimTime,
        /// Arrival at the far end, or `None` if erased in flight.
        arrival: Option<SimTime>,
    },
}

/// One unidirectional link with its dynamic state.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    /// When the transmitter becomes idle.
    busy_until: SimTime,
    /// Bytes waiting or in service.
    queued_bytes: usize,
    /// Whether the link is up (scheduled failures flip this).
    up: bool,
    /// Gilbert–Elliott chain state (`true` = bad); unused for Bernoulli.
    loss_bad_state: bool,
    rng: Xoshiro256,
    stats: LinkStats,
}

impl Link {
    /// Creates a link; the RNG is seeded deterministically. A
    /// Gilbert–Elliott chain starts from a stationary draw, so loss
    /// statistics are unbiased from the first packet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`LinkConfig::validate`]).
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        config.validate().expect("invalid link configuration");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let loss_bad_state = match &config.loss {
            LossModel::Bernoulli(_) => false,
            LossModel::GilbertElliott(ge) => rng.unit() < ge.stationary_bad(),
        };
        Link {
            config,
            busy_until: SimTime::ZERO,
            queued_bytes: 0,
            up: true,
            loss_bad_state,
            rng,
            stats: LinkStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Bytes currently queued or in service.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Applies a scheduled change (failure, recovery, bandwidth or loss
    /// retune). Packets already serialized/in flight are unaffected;
    /// subsequent sends see the new state.
    ///
    /// # Panics
    ///
    /// Panics if the change carries invalid parameters (non-positive
    /// bandwidth, out-of-range loss) — schedules should be validated at
    /// construction (see [`crate::scenario::Dynamics`]).
    pub fn apply(&mut self, change: &LinkChange) {
        match change {
            LinkChange::Fail => self.up = false,
            LinkChange::Recover => self.up = true,
            LinkChange::SetBandwidth(bps) => {
                assert!(
                    *bps > 0.0 && bps.is_finite(),
                    "bandwidth must be finite and > 0, got {bps}"
                );
                self.config.bandwidth_bps = *bps;
            }
            LinkChange::SetLoss(model) => {
                model.validate().expect("invalid loss model");
                if let LossModel::GilbertElliott(ge) = model {
                    self.loss_bad_state = self.rng.unit() < ge.stationary_bad();
                }
                self.config.loss = model.clone();
            }
        }
    }

    /// Draws one erasure decision, advancing the loss process.
    fn draw_loss(&mut self) -> bool {
        match &self.config.loss {
            LossModel::Bernoulli(p) => self.rng.unit() < *p,
            LossModel::GilbertElliott(ge) => {
                let ge = *ge;
                let flip = if self.loss_bad_state {
                    ge.p_bad_to_good
                } else {
                    ge.p_good_to_bad
                };
                if self.rng.unit() < flip {
                    self.loss_bad_state = !self.loss_bad_state;
                }
                let p = if self.loss_bad_state {
                    ge.loss_bad
                } else {
                    ge.loss_good
                };
                self.rng.unit() < p
            }
        }
    }

    /// Offers `packet` to the link at time `now`.
    ///
    /// On `Transmitted`, the caller must credit the queue again at
    /// `departure` via [`Link::on_departure`], and deliver the packet at
    /// `arrival` if it is `Some`.
    pub fn send(&mut self, now: SimTime, packet: &mut Packet) -> SendOutcome {
        if !self.up {
            self.stats.dropped_down += 1;
            return SendOutcome::DroppedLinkDown;
        }
        let size = packet.size_bytes();
        if self.queued_bytes + size > self.config.queue_capacity_bytes {
            self.stats.dropped_overflow += 1;
            return SendOutcome::DroppedQueueFull;
        }
        self.queued_bytes += size;
        self.stats.sent += 1;
        self.stats.bytes_sent += size as u64;
        packet.stamp_sent(now);

        let tx_seconds = packet.size_bits() as f64 / self.config.bandwidth_bps;
        let start = self.busy_until.max(now);
        let departure = start + SimDuration::from_secs_f64(tx_seconds);
        self.busy_until = departure;

        if self.draw_loss() {
            self.stats.lost += 1;
            return SendOutcome::Transmitted {
                departure,
                arrival: None,
            };
        }
        let prop = self.config.propagation.sample(&mut self.rng);
        let arrival = departure + SimDuration::from_secs_f64(prop.max(0.0));
        // Constant-delay wires are FIFO by construction. Randomly-delayed
        // paths model the paper's Eq. 24 — *i.i.d.* per-packet end-to-end
        // delays — so later packets may overtake earlier ones (UDP does
        // not care). Clamping to FIFO here would turn dense traffic's
        // delay distribution into a running maximum of the samples,
        // inflating it far beyond the configured distribution.
        self.stats.delivered += 1;
        SendOutcome::Transmitted {
            departure,
            arrival: Some(arrival),
        }
    }

    /// Frees the queue space of a packet whose serialization finished.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if more bytes are credited than queued.
    pub fn on_departure(&mut self, size_bytes: usize) {
        debug_assert!(self.queued_bytes >= size_bytes, "queue underflow");
        self.queued_bytes = self.queued_bytes.saturating_sub(size_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_stats::{ConstantDelay, ShiftedGamma};

    fn mk(bw: f64, delay: f64, loss: f64) -> Link {
        Link::new(
            LinkConfig {
                bandwidth_bps: bw,
                propagation: Arc::new(ConstantDelay::new(delay)),
                loss: loss.into(),
                queue_capacity_bytes: 1 << 18,
            },
            42,
        )
    }

    fn pkt(bytes: usize) -> Packet {
        Packet::new(bytes, [])
    }

    #[test]
    fn serialization_plus_propagation() {
        // 1024 B at 1 Mbps = 8.192 ms serialization, +100 ms propagation.
        let mut link = mk(1e6, 0.100, 0.0);
        let mut p = pkt(1024);
        match link.send(SimTime::ZERO, &mut p) {
            SendOutcome::Transmitted {
                departure,
                arrival: Some(arrival),
            } => {
                assert_eq!(departure.as_nanos(), 8_192_000);
                assert_eq!(arrival.as_nanos(), 108_192_000);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = mk(1e6, 0.0, 0.0);
        let mut p1 = pkt(1024);
        let mut p2 = pkt(1024);
        let d1 = match link.send(SimTime::ZERO, &mut p1) {
            SendOutcome::Transmitted { departure, .. } => departure,
            _ => panic!(),
        };
        // Second packet sent at t=0 too: serialized after the first.
        let d2 = match link.send(SimTime::ZERO, &mut p2) {
            SendOutcome::Transmitted { departure, .. } => departure,
            _ => panic!(),
        };
        assert_eq!(d2.as_nanos(), 2 * d1.as_nanos());
    }

    #[test]
    fn overflow_drops() {
        let mut link = Link::new(
            LinkConfig {
                bandwidth_bps: 1e6,
                propagation: Arc::new(ConstantDelay::new(0.0)),
                loss: 0.0.into(),
                queue_capacity_bytes: 2048,
            },
            1,
        );
        assert!(matches!(
            link.send(SimTime::ZERO, &mut pkt(1024)),
            SendOutcome::Transmitted { .. }
        ));
        assert!(matches!(
            link.send(SimTime::ZERO, &mut pkt(1024)),
            SendOutcome::Transmitted { .. }
        ));
        assert_eq!(
            link.send(SimTime::ZERO, &mut pkt(1024)),
            SendOutcome::DroppedQueueFull
        );
        assert_eq!(link.stats().dropped_overflow, 1);
        // Departure frees space.
        link.on_departure(1024);
        assert!(matches!(
            link.send(SimTime::from_secs_f64(0.01), &mut pkt(1024)),
            SendOutcome::Transmitted { .. }
        ));
    }

    #[test]
    fn loss_rate_is_statistical() {
        let mut link = mk(1e9, 0.0, 0.2);
        let n = 50_000;
        let mut lost = 0;
        for _ in 0..n {
            match link.send(link.busy_until, &mut pkt(100)) {
                SendOutcome::Transmitted { arrival: None, .. } => lost += 1,
                SendOutcome::Transmitted { .. } => {}
                other => panic!("unexpected outcome {other:?}"),
            }
            link.on_departure(100);
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "loss rate {rate}");
        assert_eq!(link.stats().lost, lost);
    }

    #[test]
    fn random_propagation_is_iid_not_running_max() {
        // Eq. 24 models per-packet delays as i.i.d.; dense traffic on a
        // jittery path must therefore (a) reorder sometimes and (b) keep
        // the *mean* delay at the distribution's mean, not at a running
        // maximum.
        let jitter = ShiftedGamma::new(2.0, 0.010, 0.050).unwrap();
        let mean = jitter.mean();
        let mut link = Link::new(
            LinkConfig {
                bandwidth_bps: 1e9,
                propagation: Arc::new(jitter),
                loss: 0.0.into(),
                queue_capacity_bytes: 1 << 20,
            },
            7,
        );
        let mut prev = SimTime::ZERO;
        let mut reordered = 0u32;
        let mut total_delay = 0.0;
        let n = 10_000u64;
        for i in 0..n {
            let now = SimTime::from_nanos(i * 1000);
            match link.send(now, &mut pkt(100)) {
                SendOutcome::Transmitted {
                    departure,
                    arrival: Some(a),
                } => {
                    if a < prev {
                        reordered += 1;
                    }
                    prev = prev.max(a);
                    total_delay += a.since(departure).as_secs_f64();
                }
                _ => panic!(),
            }
            link.on_departure(100);
        }
        assert!(reordered > 100, "i.i.d. jitter must reorder: {reordered}");
        let observed_mean = total_delay / n as f64;
        assert!(
            (observed_mean - mean).abs() < 1e-3,
            "mean {observed_mean} vs spec {mean}"
        );
    }

    #[test]
    fn determinism_with_same_seed() {
        let run = |seed: u64| {
            let mut link = Link::new(
                LinkConfig {
                    bandwidth_bps: 1e7,
                    propagation: Arc::new(ShiftedGamma::new(5.0, 0.002, 0.1).unwrap()),
                    loss: 0.1.into(),
                    queue_capacity_bytes: 1 << 20,
                },
                seed,
            );
            let mut arrivals = Vec::new();
            for i in 0..1000u64 {
                if let SendOutcome::Transmitted {
                    arrival: Some(a), ..
                } = link.send(SimTime::from_nanos(i * 100_000), &mut pkt(512))
                {
                    arrivals.push(a.as_nanos());
                }
                link.on_departure(512);
            }
            arrivals
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = LinkConfig {
            bandwidth_bps: 0.0,
            propagation: Arc::new(ConstantDelay::new(0.0)),
            loss: 0.0.into(),
            queue_capacity_bytes: 1,
        };
        assert!(cfg.validate().is_err());
        let cfg = LinkConfig {
            bandwidth_bps: 1e6,
            propagation: Arc::new(ConstantDelay::new(0.0)),
            loss: 1.5.into(),
            queue_capacity_bytes: 1,
        };
        assert!(cfg.validate().is_err());
        let cfg = LinkConfig {
            bandwidth_bps: 1e6,
            propagation: Arc::new(ConstantDelay::new(0.0)),
            loss: 0.5.into(),
            queue_capacity_bytes: 0,
        };
        assert!(cfg.validate().is_err());
        // Loss-model parameter validation flows through LinkConfig too.
        assert!(GilbertElliott::new(1.2, 0.1, 0.0, 1.0).is_err());
        assert!(GilbertElliott::new(0.0, 0.0, 0.0, 1.0).is_err());
        let cfg = LinkConfig {
            bandwidth_bps: 1e6,
            propagation: Arc::new(ConstantDelay::new(0.0)),
            loss: LossModel::Bernoulli(f64::NAN),
            queue_capacity_bytes: 1,
        };
        assert!(cfg.validate().is_err());
    }

    fn mk_ge(ge: GilbertElliott, seed: u64) -> Link {
        Link::new(
            LinkConfig {
                bandwidth_bps: 1e9,
                propagation: Arc::new(ConstantDelay::new(0.0)),
                loss: ge.into(),
                queue_capacity_bytes: 1 << 20,
            },
            seed,
        )
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same stationary rate as Bernoulli(1/6), but losses must clump:
        // the mean run length of consecutive losses approaches the chain's
        // 1/p_bad_to_good = 4 instead of Bernoulli's 1/(1−p) = 1.2.
        let ge = GilbertElliott::classic(0.05, 0.25).unwrap();
        let mut link = mk_ge(ge, 9);
        let n = 40_000u64;
        let mut outcomes = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let lost = matches!(
                link.send(link.busy_until, &mut pkt(100)),
                SendOutcome::Transmitted { arrival: None, .. }
            );
            outcomes.push(lost);
            link.on_departure(100);
        }
        let mut bursts = 0u64;
        let mut lost_total = 0u64;
        for (i, &l) in outcomes.iter().enumerate() {
            if l {
                lost_total += 1;
                if i == 0 || !outcomes[i - 1] {
                    bursts += 1;
                }
            }
        }
        let mean_burst = lost_total as f64 / bursts as f64;
        assert!(
            (mean_burst - ge.mean_burst_length()).abs() < 0.5,
            "mean burst {mean_burst} vs chain {}",
            ge.mean_burst_length()
        );
        let rate = lost_total as f64 / n as f64;
        assert!(
            (rate - ge.stationary_loss()).abs() < 0.02,
            "rate {rate} vs stationary {}",
            ge.stationary_loss()
        );
    }

    #[test]
    fn gilbert_elliott_is_deterministic_per_seed() {
        let run = |seed| {
            let ge = GilbertElliott::new(0.1, 0.3, 0.01, 0.8).unwrap();
            let mut link = mk_ge(ge, seed);
            (0..500)
                .map(|_| {
                    let lost = matches!(
                        link.send(link.busy_until, &mut pkt(64)),
                        SendOutcome::Transmitted { arrival: None, .. }
                    );
                    link.on_departure(64);
                    lost
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn failed_link_drops_until_recovery() {
        let mut link = mk(1e6, 0.010, 0.0);
        assert!(link.is_up());
        link.apply(&LinkChange::Fail);
        assert!(!link.is_up());
        assert_eq!(
            link.send(SimTime::ZERO, &mut pkt(100)),
            SendOutcome::DroppedLinkDown
        );
        assert_eq!(link.stats().dropped_down, 1);
        assert_eq!(link.stats().sent, 0);
        link.apply(&LinkChange::Recover);
        assert!(matches!(
            link.send(SimTime::ZERO, &mut pkt(100)),
            SendOutcome::Transmitted { .. }
        ));
    }

    #[test]
    fn bandwidth_change_applies_to_subsequent_packets() {
        let mut link = mk(1e6, 0.0, 0.0);
        let d1 = match link.send(SimTime::ZERO, &mut pkt(1000)) {
            SendOutcome::Transmitted { departure, .. } => departure,
            other => panic!("{other:?}"),
        };
        assert_eq!(d1.as_nanos(), 8_000_000); // 8000 bits at 1 Mbps
        link.on_departure(1000);
        link.apply(&LinkChange::SetBandwidth(2e6));
        let d2 = match link.send(d1, &mut pkt(1000)) {
            SendOutcome::Transmitted { departure, .. } => departure,
            other => panic!("{other:?}"),
        };
        assert_eq!(d2.as_nanos() - d1.as_nanos(), 4_000_000); // twice as fast
    }

    #[test]
    fn loss_model_change_takes_effect() {
        let mut link = mk(1e9, 0.0, 0.0);
        link.apply(&LinkChange::SetLoss(LossModel::Bernoulli(1.0)));
        assert!(matches!(
            link.send(SimTime::ZERO, &mut pkt(100)),
            SendOutcome::Transmitted { arrival: None, .. }
        ));
        link.on_departure(100);
        link.apply(&LinkChange::SetLoss(LossModel::Bernoulli(0.0)));
        assert!(matches!(
            link.send(link.busy_until, &mut pkt(100)),
            SendOutcome::Transmitted {
                arrival: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn stationary_loss_formulas() {
        let ge = GilbertElliott::new(0.02, 0.18, 0.01, 0.60).unwrap();
        let pb = 0.02 / 0.20;
        assert!((ge.stationary_bad() - pb).abs() < 1e-12);
        let want = (1.0 - pb) * 0.01 + pb * 0.60;
        assert!((ge.stationary_loss() - want).abs() < 1e-12);
        assert_eq!(LossModel::from(0.3).stationary_loss(), 0.3);
        assert!((LossModel::from(ge).stationary_loss() - want).abs() < 1e-12);
    }
}
