//! Deterministic fault injection: the [`FaultPlan`].
//!
//! A `FaultPlan` bundles two layers of adversity and one seed:
//!
//! * **link-level faults** — flapping links and *correlated* fault
//!   domains (one event takes several paths down at the same instant) —
//!   expressed as an ordinary [`Dynamics`] schedule, so they compose
//!   with any script the caller already has;
//! * **packet-level faults** — payload corruption (a seeded bit flip),
//!   frame duplication, and bounded reordering (an extra in-window
//!   delivery delay) — applied by the simulator as packets are
//!   committed to a link.
//!
//! All randomness is drawn from per-direction SplitMix64 streams derived
//! from the plan seed with the same `mix_seed` discipline the links use
//! (links take salts 1/2; fault streams take salts 3/4), so a chaos run
//! is a pure function of `(topology, agents, plan)`: replaying the same
//! seed reproduces every corrupted byte, duplicate and reorder delay
//! bit-for-bit, regardless of `DMC_THREADS` or host.
//!
//! Install with [`crate::TwoHostSim::apply_faults`].

use crate::packet::Packet;
use crate::scenario::Dynamics;
use crate::sim::mix_seed;
use crate::time::{SimDuration, SimTime};
use dmc_stats::rng::SplitMix64;

/// Salt for the forward-direction packet-fault stream (links use 1/2).
pub(crate) const FAULT_SALT_FORWARD: u64 = 3;
/// Salt for the backward-direction packet-fault stream.
pub(crate) const FAULT_SALT_BACKWARD: u64 = 4;

/// A seeded, declarative fault-injection schedule. See the module docs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    corrupt_prob: f64,
    duplicate_prob: f64,
    reorder_prob: f64,
    reorder_window: SimDuration,
    dynamics: Dynamics,
}

impl FaultPlan {
    /// A fault-free plan around `seed`; chain builders to add faults.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_window: SimDuration::ZERO,
            dynamics: Dynamics::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Each delivered frame independently has its payload corrupted (one
    /// seeded bit flip) with probability `prob`.
    ///
    /// # Errors
    ///
    /// Rejects probabilities outside `[0, 1]` or non-finite.
    pub fn with_corruption(mut self, prob: f64) -> Result<Self, String> {
        self.corrupt_prob = checked_prob("corruption", prob)?;
        Ok(self)
    }

    /// Each delivered frame is independently duplicated with probability
    /// `prob`; the copy arrives within the reordering window.
    ///
    /// # Errors
    ///
    /// Rejects probabilities outside `[0, 1]` or non-finite.
    pub fn with_duplication(mut self, prob: f64) -> Result<Self, String> {
        self.duplicate_prob = checked_prob("duplication", prob)?;
        Ok(self)
    }

    /// Each delivered frame is independently held back by an extra delay
    /// drawn uniformly from `[0, window]` with probability `prob` —
    /// bounded reordering: a frame can fall behind later traffic, but
    /// never by more than `window`.
    ///
    /// # Errors
    ///
    /// Rejects probabilities outside `[0, 1]` or non-finite.
    pub fn with_reordering(mut self, prob: f64, window: SimDuration) -> Result<Self, String> {
        self.reorder_prob = checked_prob("reordering", prob)?;
        self.reorder_window = window;
        Ok(self)
    }

    /// Link flapping: path `path` goes down at `first_down_s + k·period_s`
    /// for `downtime_s` each, for `k = 0..cycles` (both directions).
    ///
    /// # Errors
    ///
    /// Rejects `cycles == 0`, non-positive periods, and downtimes that
    /// are not shorter than the period (the link must come back up before
    /// the next flap).
    pub fn flap(
        mut self,
        path: usize,
        first_down_s: f64,
        period_s: f64,
        downtime_s: f64,
        cycles: usize,
    ) -> Result<Self, String> {
        if cycles == 0 {
            return Err("flap needs at least one cycle".into());
        }
        if !(period_s > 0.0) || !(downtime_s > 0.0) {
            return Err("flap period and downtime must be positive".into());
        }
        if downtime_s >= period_s {
            return Err(format!(
                "flap downtime {downtime_s}s must be shorter than the period {period_s}s"
            ));
        }
        for k in 0..cycles {
            let down = first_down_s + k as f64 * period_s;
            self.dynamics = self.dynamics.path_failure(path, down, down + downtime_s)?;
        }
        Ok(self)
    }

    /// A correlated fault domain: every path in `paths` fails at
    /// `down_at_s` and recovers at `up_at_s`, both directions, at
    /// identical instants — one shared-risk group taking several paths
    /// down at once.
    ///
    /// # Errors
    ///
    /// Rejects an empty domain or an up time not after the down time.
    pub fn fault_domain(
        mut self,
        paths: &[usize],
        down_at_s: f64,
        up_at_s: f64,
    ) -> Result<Self, String> {
        if paths.is_empty() {
            return Err("fault domain names no paths".into());
        }
        for &p in paths {
            self.dynamics = self.dynamics.path_failure(p, down_at_s, up_at_s)?;
        }
        Ok(self)
    }

    /// The link-level schedule (flaps + fault domains) as an ordinary
    /// [`Dynamics`], for composing with caller-supplied scripts.
    pub fn dynamics(&self) -> &Dynamics {
        &self.dynamics
    }

    /// Whether any packet-level fault has a nonzero probability.
    pub fn has_packet_faults(&self) -> bool {
        self.corrupt_prob > 0.0 || self.duplicate_prob > 0.0 || self.reorder_prob > 0.0
    }

    pub(crate) fn stream(&self, salt: u64) -> FaultStream {
        FaultStream {
            corrupt_prob: self.corrupt_prob,
            duplicate_prob: self.duplicate_prob,
            reorder_prob: self.reorder_prob,
            reorder_window: self.reorder_window,
            rng: SplitMix64::new(mix_seed(self.seed, salt, 0)),
            stats: FaultStats::default(),
        }
    }
}

fn checked_prob(what: &str, prob: f64) -> Result<f64, String> {
    if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
        return Err(format!("{what} probability {prob} outside [0, 1]"));
    }
    Ok(prob)
}

/// Counters of packet-level faults actually injected on one direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames whose payload got a bit flipped.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back by an in-window reordering delay.
    pub reordered: u64,
}

/// How one packet should be delivered after fault injection.
pub(crate) struct Injection {
    /// When the (possibly corrupted) original arrives.
    pub deliver_at: SimTime,
    /// When the duplicate copy arrives, if one was injected.
    pub duplicate_at: Option<SimTime>,
}

/// Per-direction packet-fault state: the probabilities plus a dedicated
/// SplitMix64 stream consumed in event order (the simulator is
/// single-threaded, so "event order" is deterministic by construction).
#[derive(Debug)]
pub(crate) struct FaultStream {
    corrupt_prob: f64,
    duplicate_prob: f64,
    reorder_prob: f64,
    reorder_window: SimDuration,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultStream {
    /// Decides this packet's fate: possibly corrupts its payload in
    /// place, and returns when the original (and any duplicate) should
    /// arrive. Draw order is fixed (corrupt, reorder, duplicate) so the
    /// stream stays aligned across runs.
    pub(crate) fn inject(&mut self, arrival: SimTime, packet: &mut Packet) -> Injection {
        if self.corrupt_prob > 0.0
            && !packet.payload().is_empty()
            && self.rng.unit() < self.corrupt_prob
        {
            let len = packet.payload().len() as u64;
            let idx = (self.rng.next_u64() % len) as usize;
            let bit = (self.rng.next_u64() % 8) as u32;
            packet.payload_mut()[idx] ^= 1u8 << bit;
            self.stats.corrupted += 1;
        }
        let mut deliver_at = arrival;
        if self.reorder_prob > 0.0 && self.rng.unit() < self.reorder_prob {
            deliver_at += self.window_jitter();
            self.stats.reordered += 1;
        }
        let duplicate_at = if self.duplicate_prob > 0.0 && self.rng.unit() < self.duplicate_prob {
            self.stats.duplicated += 1;
            Some(arrival + self.window_jitter())
        } else {
            None
        };
        Injection {
            deliver_at,
            duplicate_at,
        }
    }

    /// A delay drawn uniformly from `[0, window]`.
    fn window_jitter(&mut self) -> SimDuration {
        let w = self.reorder_window.as_nanos();
        if w == 0 {
            return SimDuration::ZERO;
        }
        let draw = self.rng.next_u64();
        // The widest window, `u64::MAX` ns, spans every draw.
        SimDuration::from_nanos(match w.checked_add(1) {
            Some(span) => draw % span,
            None => draw,
        })
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_validate() {
        assert!(FaultPlan::new(1).with_corruption(1.5).is_err());
        assert!(FaultPlan::new(1).with_duplication(-0.1).is_err());
        assert!(FaultPlan::new(1)
            .with_reordering(f64::NAN, SimDuration::ZERO)
            .is_err());
        assert!(FaultPlan::new(1).flap(0, 1.0, 0.5, 0.5, 3).is_err());
        assert!(FaultPlan::new(1).flap(0, 1.0, 1.0, 0.2, 0).is_err());
        assert!(FaultPlan::new(1).fault_domain(&[], 1.0, 2.0).is_err());
        assert!(FaultPlan::new(1).fault_domain(&[0, 1], 2.0, 1.0).is_err());
    }

    #[test]
    fn flap_and_domain_generate_sorted_dynamics() {
        let plan = FaultPlan::new(7)
            .flap(0, 1.0, 2.0, 0.5, 3)
            .unwrap()
            .fault_domain(&[1, 2], 0.5, 4.0)
            .unwrap();
        let events = plan.dynamics().events();
        // 3 flap cycles × 4 events + 2 domain paths × 4 events.
        assert_eq!(events.len(), 3 * 4 + 2 * 4);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(plan.dynamics().max_path(), Some(2));
        // The domain takes both its paths down at the identical instant.
        let down_at: Vec<_> = events
            .iter()
            .filter(|e| e.at == SimTime::from_secs_f64(0.5))
            .map(|e| e.path)
            .collect();
        assert_eq!(down_at.len(), 4, "2 paths × 2 directions");
        assert!(down_at.contains(&1) && down_at.contains(&2));
    }

    #[test]
    fn streams_are_reproducible_and_direction_independent() {
        let plan = FaultPlan::new(0xC0FFEE)
            .with_corruption(0.5)
            .unwrap()
            .with_duplication(0.5)
            .unwrap()
            .with_reordering(0.5, SimDuration::from_millis(5))
            .unwrap();
        let mut a = plan.stream(FAULT_SALT_FORWARD);
        let mut b = plan.stream(FAULT_SALT_FORWARD);
        let mut c = plan.stream(FAULT_SALT_BACKWARD);
        let mut diverged = false;
        let mut flipped = 0;
        for i in 0..200u64 {
            let t = SimTime::from_nanos(i * 1_000);
            let mut pa = Packet::new(64, vec![0u8; 32]);
            let mut pb = Packet::new(64, vec![0u8; 32]);
            let mut pc = Packet::new(64, vec![0u8; 32]);
            let ia = a.inject(t, &mut pa);
            let ib = b.inject(t, &mut pb);
            let ic = c.inject(t, &mut pc);
            assert_eq!(ia.deliver_at, ib.deliver_at);
            assert_eq!(ia.duplicate_at, ib.duplicate_at);
            assert_eq!(pa, pb);
            // Corruption flips one bit of the all-zero payload, or none.
            let ones: u32 = pa.payload().iter().map(|b| b.count_ones()).sum();
            assert!(ones <= 1, "packet {i} has {ones} bits flipped");
            flipped += u64::from(ones);
            if ia.deliver_at != ic.deliver_at || pa != pc {
                diverged = true;
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert!(diverged, "forward and backward streams are independent");
        let s = a.stats();
        assert!(s.corrupted > 0 && s.duplicated > 0 && s.reordered > 0);
        assert_eq!(flipped, s.corrupted);
    }

    #[test]
    fn the_widest_window_draws_over_every_nanosecond() {
        // `window + 1` does not fit in a u64: the jitter spans the full
        // range (it panicked, on overflow in debug, on a remainder by zero
        // in release). A delivery saturates at the end of the clock.
        let plan = FaultPlan::new(11)
            .with_reordering(1.0, SimDuration::from_nanos(u64::MAX))
            .unwrap()
            .with_duplication(1.0)
            .unwrap();
        let mut s = plan.stream(FAULT_SALT_FORWARD);
        let mut reference = SplitMix64::new(mix_seed(11, FAULT_SALT_FORWARD, 0));
        for i in 0..100u64 {
            let t = SimTime::from_nanos(i);
            let inj = s.inject(t, &mut Packet::new(8, vec![1u8]));
            // The stream's draws: reorder coin, jitter, duplicate coin,
            // jitter.
            reference.unit();
            let jitter = reference.next_u64();
            reference.unit();
            let dup_jitter = reference.next_u64();
            assert_eq!(inj.deliver_at, t + SimDuration::from_nanos(jitter));
            assert_eq!(
                inj.duplicate_at,
                Some(t + SimDuration::from_nanos(dup_jitter))
            );
        }
        assert_eq!(s.stats().reordered, 100);
        assert_eq!(s.stats().duplicated, 100);
    }

    #[test]
    fn a_zero_window_reorders_in_place() {
        let plan = FaultPlan::new(12)
            .with_reordering(1.0, SimDuration::ZERO)
            .unwrap()
            .with_duplication(1.0)
            .unwrap();
        let mut s = plan.stream(FAULT_SALT_FORWARD);
        for i in 0..100u64 {
            let t = SimTime::from_nanos(i);
            let inj = s.inject(t, &mut Packet::new(8, vec![1u8]));
            assert_eq!(inj.deliver_at, t);
            assert_eq!(inj.duplicate_at, Some(t));
        }
        assert_eq!(s.stats().reordered, 100);
    }

    #[test]
    fn reordering_is_bounded_by_the_window() {
        let window = SimDuration::from_millis(3);
        let plan = FaultPlan::new(9).with_reordering(1.0, window).unwrap();
        let mut s = plan.stream(FAULT_SALT_FORWARD);
        for i in 0..500u64 {
            let t = SimTime::from_nanos(i);
            let mut p = Packet::new(8, vec![1u8]);
            let inj = s.inject(t, &mut p);
            assert!(inj.deliver_at.since(t).as_nanos() <= window.as_nanos());
        }
        assert_eq!(s.stats().reordered, 500);
    }
}
