//! Online estimation of path characteristics (paper §VIII-A).
//!
//! * **Delay**: EWMA smoothed RTT with variance (the RFC 6298 estimator),
//!   one per path; acks echo the transmission timestamp so retransmissions
//!   produce unambiguous samples. One-way delay is recovered assuming a
//!   symmetric ack path: `d_i ≈ SRTT_i − SRTT_min/2`.
//! * **Loss**: per-path sliding window of transmission outcomes; "the
//!   loss rate can first be set to 0% and the sending strategy … refined
//!   every time a loss is recorded".
//! * **Bandwidth**: taken from configuration or congestion control in
//!   practice (the paper's PCC argument); [`RateEstimator`] measures the
//!   achieved goodput as a lower-bound probe.

use dmc_stats::OnlineMoments;
use std::collections::VecDeque;

/// RFC 6298-style smoothed RTT estimator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    moments: OnlineMoments,
}

impl RttEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one RTT sample (seconds).
    pub fn record(&mut self, rtt: f64) {
        self.moments.push(rtt);
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - rtt).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * rtt);
            }
        }
    }

    /// Smoothed RTT (seconds); `None` before the first sample.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// RTT variation (seconds).
    pub fn rttvar(&self) -> f64 {
        self.rttvar
    }

    /// Retransmission timeout `SRTT + 4·RTTVAR`, floored at `min_rto`.
    pub fn rto(&self, min_rto: f64) -> Option<f64> {
        self.srtt.map(|s| (s + 4.0 * self.rttvar).max(min_rto))
    }

    /// Number of samples seen.
    pub fn samples(&self) -> u64 {
        self.moments.count()
    }

    /// Raw sample moments (for gamma fitting, §VIII-A delay estimation).
    pub fn moments(&self) -> &OnlineMoments {
        &self.moments
    }
}

/// Sliding-window loss-rate estimator for one path.
#[derive(Debug, Clone)]
pub struct LossEstimator {
    window: VecDeque<bool>,
    capacity: usize,
    losses_in_window: usize,
    total_losses: u64,
    total: u64,
}

impl LossEstimator {
    /// Creates an estimator over the last `window` transmissions.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        LossEstimator {
            window: VecDeque::with_capacity(window),
            capacity: window,
            losses_in_window: 0,
            total_losses: 0,
            total: 0,
        }
    }

    /// Clears the sliding window (lifetime totals are kept). Used when a
    /// path's state changes discontinuously — e.g. a recovery notice —
    /// and the windowed outcomes predate the change.
    pub fn reset_window(&mut self) {
        self.window.clear();
        self.losses_in_window = 0;
    }

    /// Records the outcome of one transmission.
    pub fn record(&mut self, lost: bool) {
        if self.window.len() == self.capacity && self.window.pop_front() == Some(true) {
            self.losses_in_window -= 1;
        }
        self.window.push_back(lost);
        if lost {
            self.losses_in_window += 1;
            self.total_losses += 1;
        }
        self.total += 1;
    }

    /// Estimated loss rate over the window. Starts at 0 with no data
    /// (the paper's §VIII-A bootstrap), refined as outcomes arrive.
    pub fn rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.losses_in_window as f64 / self.window.len() as f64
        }
    }

    /// Lifetime loss rate (all samples, not just the window).
    pub fn lifetime_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.total_losses as f64 / self.total as f64
        }
    }

    /// Number of outcomes recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Number of outcomes currently in the sliding window (≤ capacity;
    /// zero right after [`LossEstimator::reset_window`]). Gate on this —
    /// not on [`LossEstimator::samples`] — when deciding whether
    /// [`LossEstimator::rate`] is trustworthy.
    pub fn window_samples(&self) -> usize {
        self.window.len()
    }
}

/// Windowed achieved-rate estimator (bits per second over the last
/// `window` seconds).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: f64,
    events: VecDeque<(f64, u64)>, // (time s, bits)
    bits_in_window: u64,
}

impl RateEstimator {
    /// Creates an estimator over a `window`-second horizon.
    ///
    /// # Panics
    ///
    /// Panics unless `window > 0`.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0 && window.is_finite());
        RateEstimator {
            window,
            events: VecDeque::new(),
            bits_in_window: 0,
        }
    }

    /// Records `bits` delivered at time `now` (seconds; must be
    /// non-decreasing).
    pub fn record(&mut self, now: f64, bits: u64) {
        self.events.push_back((now, bits));
        self.bits_in_window += bits;
        self.evict(now);
    }

    fn evict(&mut self, now: f64) {
        while let Some(&(t, b)) = self.events.front() {
            if now - t > self.window {
                self.bits_in_window -= b;
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Achieved rate over the window ending at `now`, bits/second.
    pub fn rate(&mut self, now: f64) -> f64 {
        self.evict(now);
        self.bits_in_window as f64 / self.window
    }
}

/// Everything the sender learns about one path, combined into the
/// estimated characteristics the model consumes.
#[derive(Debug, Clone)]
pub struct PathEstimator {
    /// Configured/externally-provided bandwidth (the paper's stance:
    /// bandwidth comes from congestion control or provisioning, §VIII-A).
    bandwidth: f64,
    /// RTT estimator fed by ack echoes.
    pub rtt: RttEstimator,
    /// Loss estimator fed by timeout/ack outcomes.
    pub loss: LossEstimator,
}

impl PathEstimator {
    /// Creates the estimator with a configured bandwidth.
    pub fn new(bandwidth_bps: f64, loss_window: usize) -> Self {
        PathEstimator {
            bandwidth: bandwidth_bps,
            rtt: RttEstimator::new(),
            loss: LossEstimator::new(loss_window),
        }
    }

    /// Configured bandwidth (bits/second).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Replaces the configured bandwidth (e.g. from congestion control).
    pub fn set_bandwidth(&mut self, bps: f64) {
        self.bandwidth = bps;
    }

    /// One-way delay estimate given the smallest smoothed RTT among all
    /// paths (`d_i ≈ SRTT_i − SRTT_min/2`, symmetric ack path assumed).
    pub fn one_way_delay(&self, min_srtt: f64) -> Option<f64> {
        self.rtt.srtt().map(|s| (s - min_srtt / 2.0).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_first_sample_initializes() {
        let mut e = RttEstimator::new();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(0.01), None);
        e.record(0.2);
        assert_eq!(e.srtt(), Some(0.2));
        assert!((e.rttvar() - 0.1).abs() < 1e-12);
        assert!((e.rto(0.01).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rtt_converges_to_constant() {
        let mut e = RttEstimator::new();
        for _ in 0..200 {
            e.record(0.150);
        }
        assert!((e.srtt().unwrap() - 0.150).abs() < 1e-9);
        assert!(e.rttvar() < 1e-6);
        assert_eq!(e.rto(0.2), Some(0.2), "min_rto floor applies");
        assert_eq!(e.samples(), 200);
    }

    #[test]
    fn rtt_follows_rfc6298_recurrence() {
        // RFC 6298 §2 with G = 0: the first sample sets SRTT = R and
        // RTTVAR = R/2; later ones update RTTVAR from the *old* SRTT,
        // then SRTT, with α = 1/8, β = 1/4; RTO = SRTT + K·RTTVAR, K = 4,
        // floored at `min_rto`. The sequence steps from ~100 ms to
        // ~400 ms, where reading the new SRTT into RTTVAR would show.
        const ALPHA: f64 = 1.0 / 8.0;
        const BETA: f64 = 1.0 / 4.0;
        const K: f64 = 4.0;
        let min_rto = 0.35;
        let samples = [
            0.100, 0.120, 0.090, 0.110, 0.100, 0.105, 0.400, 0.410, 0.390, 0.420, 0.400, 0.380,
            0.405, 0.400,
        ];
        let mut e = RttEstimator::new();
        let mut oracle: Option<(f64, f64)> = None;
        let (mut floored, mut unfloored) = (0, 0);
        for (i, &r) in samples.iter().enumerate() {
            e.record(r);
            let (srtt, rttvar) = match oracle {
                None => (r, r / 2.0),
                Some((srtt, rttvar)) => (
                    (1.0 - ALPHA) * srtt + ALPHA * r,
                    (1.0 - BETA) * rttvar + BETA * (srtt - r).abs(),
                ),
            };
            oracle = Some((srtt, rttvar));
            let rto = (srtt + K * rttvar).max(min_rto);
            if srtt + K * rttvar < min_rto {
                floored += 1;
            } else {
                unfloored += 1;
            }
            for (name, got, want) in [
                ("srtt", e.srtt().unwrap(), srtt),
                ("rttvar", e.rttvar(), rttvar),
                ("rto", e.rto(min_rto).unwrap(), rto),
            ] {
                assert!(
                    (got - want).abs() < 1e-12,
                    "sample {i} (R = {r}): {name} {got} vs RFC 6298 {want}"
                );
            }
        }
        assert_eq!(e.samples(), samples.len() as u64);
        assert!(floored > 0 && unfloored > 0, "{floored} / {unfloored}");
    }

    #[test]
    fn rtt_tracks_shift() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.record(0.1);
        }
        for _ in 0..200 {
            e.record(0.3);
        }
        assert!((e.srtt().unwrap() - 0.3).abs() < 0.01);
    }

    #[test]
    fn loss_window_slides() {
        let mut e = LossEstimator::new(4);
        assert_eq!(e.rate(), 0.0);
        e.record(true);
        e.record(false);
        assert!((e.rate() - 0.5).abs() < 1e-12);
        e.record(false);
        e.record(false);
        assert!((e.rate() - 0.25).abs() < 1e-12);
        e.record(false); // evicts the loss
        assert_eq!(e.rate(), 0.0);
        assert!((e.lifetime_rate() - 0.2).abs() < 1e-12);
        assert_eq!(e.samples(), 5);
    }

    #[test]
    fn rate_estimator_windows() {
        let mut e = RateEstimator::new(1.0);
        for i in 0..10 {
            e.record(i as f64 * 0.1, 1000);
        }
        // 10 kb in the last second.
        assert!((e.rate(0.9) - 10_000.0).abs() < 1.0);
        // 5 events remain in window (1.1, 2.1] → ~5 kb/s... at t=2.0,
        // events at 0.0..0.9 are all older than 1 s except none.
        assert!(e.rate(2.0) < 1.0);
    }

    #[test]
    fn path_estimator_one_way_delay() {
        let mut p = PathEstimator::new(80e6, 100);
        for _ in 0..50 {
            p.rtt.record(0.600); // d_i + d_min = 450 + 150
        }
        // min SRTT across paths = 2·d_min = 300 ms.
        let d = p.one_way_delay(0.300).unwrap();
        assert!((d - 0.450).abs() < 1e-9);
        assert_eq!(p.bandwidth(), 80e6);
        p.set_bandwidth(40e6);
        assert_eq!(p.bandwidth(), 40e6);
    }
}
