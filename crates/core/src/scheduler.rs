//! Packet-level discretization of the LP solution — the paper's
//! Algorithm 1.
//!
//! The LP produces *fractions* of traffic per path combination; an actual
//! sender must assign whole packets. Algorithm 1 keeps, per combination,
//! the count of packets assigned so far and always picks the combination
//! whose empirical share lags its target share the most
//! (`argmin assigned[i]/total − x'_i`), which keeps the running empirical
//! distribution within one packet of the target — much tighter than
//! weighted random sampling (see the `scheduler` bench for the ablation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a [`Scheduler`] maps the solved fractions to whole packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulePolicy {
    /// Algorithm 1's deficit rule: always pick the combination lagging
    /// most behind its target share. `O(1/N)` convergence; the default.
    #[default]
    Deficit,
    /// I.i.d. weighted random sampling — the paper's ablation baseline
    /// (`O(1/√N)` convergence). Deterministic for a given seed.
    WeightedRandom {
        /// RNG seed for the sampler.
        seed: u64,
    },
}

/// The per-packet combination selector: Algorithm 1's deficit rule or,
/// for the ablation, weighted random sampling — pick the behavior with
/// [`SchedulePolicy`].
///
/// Obtain one from [`Plan::scheduler`](crate::Plan::scheduler), or build
/// it directly from an assignment vector:
///
/// ```
/// use dmc_core::{SchedulePolicy, Scheduler};
///
/// let mut sched = Scheduler::new(vec![0.75, 0.25], SchedulePolicy::Deficit).unwrap();
/// let picks: Vec<usize> = (0..4).map(|_| sched.next_combo()).collect();
/// assert_eq!(picks.iter().filter(|&&c| c == 0).count(), 3);
/// assert_eq!(picks.iter().filter(|&&c| c == 1).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    x: Vec<f64>,
    assigned: Vec<u64>,
    total: u64,
    /// `Some` under [`SchedulePolicy::WeightedRandom`].
    sampler: Option<WeightedSampler>,
}

/// I.i.d. weighted random assignment: converges to the target only as
/// `O(1/√N)` versus Algorithm 1's `O(1/N)`; the difference is what makes
/// Algorithm 1 track the LP solution "in the long run" (paper §VII,
/// Experiment 2) with short-horizon traffic too.
#[derive(Debug, Clone)]
struct WeightedSampler {
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl WeightedSampler {
    fn retarget(&mut self, x: &[f64]) {
        let mut acc = 0.0;
        self.cumulative.clear();
        self.cumulative.extend(x.iter().map(|v| {
            acc += v;
            acc
        }));
    }

    fn next_combo(&mut self) -> usize {
        let u: f64 = self.rng.random();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// `x` must be non-empty, non-negative and sum to 1 within `1e-6`.
fn validate(x: &[f64]) -> Result<(), String> {
    if x.is_empty() {
        return Err("empty distribution".into());
    }
    if x.iter().any(|&v| !v.is_finite() || v < -1e-12) {
        return Err("distribution entries must be finite and ≥ 0".into());
    }
    let total: f64 = x.iter().sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(format!("distribution sums to {total}, expected 1"));
    }
    Ok(())
}

impl Scheduler {
    /// Creates a scheduler for target distribution `x` (non-negative,
    /// summing to 1 within `1e-6`).
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for empty, negative or
    /// non-normalized input.
    pub fn new(x: Vec<f64>, policy: SchedulePolicy) -> Result<Self, String> {
        validate(&x)?;
        let sampler = match policy {
            SchedulePolicy::Deficit => None,
            SchedulePolicy::WeightedRandom { seed } => {
                let mut sampler = WeightedSampler {
                    cumulative: Vec::with_capacity(x.len()),
                    rng: StdRng::seed_from_u64(seed),
                };
                sampler.retarget(&x);
                Some(sampler)
            }
        };
        Ok(Scheduler {
            assigned: vec![0; x.len()],
            x,
            total: 0,
            sampler,
        })
    }

    /// Selects the combination for the next packet (under
    /// [`SchedulePolicy::Deficit`], Algorithm 1's `selectPathCombination`).
    pub fn next_combo(&mut self) -> usize {
        let res = match &mut self.sampler {
            Some(sampler) => sampler.next_combo(),
            // First packet: the combination with the largest share.
            None if self.total == 0 => argmax(&self.x),
            None => {
                // The combination lagging most behind its target share.
                // Zero-share combinations are skipped: their deficit can never
                // go negative, so they could only win exact ties — and
                // selecting them (e.g. the blackhole) would be wrong.
                let total = self.total as f64;
                let mut best = usize::MAX;
                let mut best_deficit = f64::INFINITY;
                for (i, (&a, &xi)) in self.assigned.iter().zip(&self.x).enumerate() {
                    if xi <= 0.0 {
                        continue;
                    }
                    let deficit = a as f64 / total - xi;
                    if deficit < best_deficit - 1e-15 {
                        best_deficit = deficit;
                        best = i;
                    }
                }
                debug_assert!(best != usize::MAX, "distribution sums to 1");
                best
            }
        };
        self.assigned[res] += 1;
        self.total += 1;
        res
    }

    /// Target distribution.
    pub fn target(&self) -> &[f64] {
        &self.x
    }

    /// Packets assigned per combination so far.
    pub fn assigned(&self) -> &[u64] {
        &self.assigned
    }

    /// Total packets assigned so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest deviation `|assigned_i/total − x_i|` of the empirical
    /// distribution from the target (0 when nothing assigned yet).
    pub fn max_deviation(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        self.assigned
            .iter()
            .zip(&self.x)
            .map(|(&a, &xi)| (a as f64 / total - xi).abs())
            .fold(0.0, f64::max)
    }

    /// Replaces the target distribution (same length) while keeping
    /// history, so an adaptive sender can re-solve mid-stream and
    /// converge smoothly to the new solution.
    ///
    /// # Errors
    ///
    /// Same validation as [`Scheduler::new`], plus a length check.
    pub fn retarget(&mut self, x: Vec<f64>) -> Result<(), String> {
        if x.len() != self.x.len() {
            return Err(format!(
                "new distribution has {} entries, expected {}",
                x.len(),
                self.x.len()
            ));
        }
        validate(&x)?;
        if let Some(sampler) = &mut self.sampler {
            sampler.retarget(&x);
        }
        self.x = x;
        Ok(())
    }

    /// Forgets assignment history (e.g. after a long pause when the old
    /// empirical distribution no longer matters).
    pub fn reset_history(&mut self) {
        self.assigned.iter_mut().for_each(|a| *a = 0);
        self.total = 0;
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deficit(x: Vec<f64>) -> Result<Scheduler, String> {
        Scheduler::new(x, SchedulePolicy::Deficit)
    }

    #[test]
    fn validation() {
        assert!(deficit(vec![]).is_err());
        assert!(deficit(vec![0.5, 0.6]).is_err());
        assert!(deficit(vec![-0.1, 1.1]).is_err());
        assert!(deficit(vec![f64::NAN, 1.0]).is_err());
        assert!(deficit(vec![0.5, 0.5]).is_ok());
    }

    #[test]
    fn first_pick_is_argmax() {
        let mut s = deficit(vec![0.2, 0.5, 0.3]).unwrap();
        assert_eq!(s.next_combo(), 1);
    }

    #[test]
    fn exact_quarters() {
        let mut s = deficit(vec![0.25, 0.75]).unwrap();
        let picks: Vec<usize> = (0..8).map(|_| s.next_combo()).collect();
        assert_eq!(picks.iter().filter(|&&c| c == 0).count(), 2);
        assert_eq!(picks.iter().filter(|&&c| c == 1).count(), 6);
        assert!(s.max_deviation() < 1e-12);
    }

    #[test]
    fn deviation_bounded_by_one_packet() {
        // Algorithm 1's deficit rule keeps every combination within one
        // packet of its target share at all times.
        let x = vec![4.0 / 25.0, 4.0 / 5.0, 1.0 / 25.0]; // Table IV λ=100 row
        let mut s = deficit(x.clone()).unwrap();
        for step in 1..=5_000u64 {
            s.next_combo();
            let bound = (x.len() as f64) / step as f64;
            assert!(
                s.max_deviation() <= bound,
                "step {step}: deviation {} > {bound}",
                s.max_deviation()
            );
        }
    }

    #[test]
    fn zero_entries_never_selected() {
        let mut s = deficit(vec![0.0, 1.0, 0.0]).unwrap();
        for _ in 0..100 {
            assert_eq!(s.next_combo(), 1);
        }
    }

    #[test]
    fn retarget_keeps_history_and_converges() {
        let mut s = deficit(vec![1.0, 0.0]).unwrap();
        for _ in 0..100 {
            s.next_combo();
        }
        s.retarget(vec![0.0, 1.0]).unwrap();
        assert_eq!(s.target(), &[0.0, 1.0]);
        for _ in 0..900 {
            s.next_combo();
        }
        // 100 on combo 0 then 900 on combo 1 → empirical (0.1, 0.9),
        // steering toward (0, 1).
        assert_eq!(s.assigned()[0], 100);
        assert_eq!(s.assigned()[1], 900);
        assert!(s.retarget(vec![1.0]).is_err());
    }

    #[test]
    fn reset_history() {
        let mut s = deficit(vec![0.5, 0.5]).unwrap();
        s.next_combo();
        s.reset_history();
        assert_eq!(s.total(), 0);
        assert_eq!(s.assigned(), &[0, 0]);
    }

    #[test]
    fn unified_scheduler_weighted_is_seeded_and_tracked() {
        let x = vec![0.6, 0.3, 0.1];
        let mk = || Scheduler::new(x.clone(), SchedulePolicy::WeightedRandom { seed: 9 }).unwrap();
        let (mut a, mut b) = (mk(), mk());
        let picks_a: Vec<usize> = (0..500).map(|_| a.next_combo()).collect();
        let picks_b: Vec<usize> = (0..500).map(|_| b.next_combo()).collect();
        assert_eq!(picks_a, picks_b, "same seed ⇒ same stream");
        assert_eq!(a.total(), 500);
        assert_eq!(a.assigned().iter().sum::<u64>(), 500);
        // Roughly follows the target.
        assert!(a.max_deviation() < 0.1, "dev {}", a.max_deviation());
        assert!(a.retarget(vec![1.0]).is_err());
        a.retarget(vec![0.0, 0.0, 1.0]).unwrap();
        a.reset_history();
        for _ in 0..50 {
            assert_eq!(a.next_combo(), 2);
        }
    }

    #[test]
    fn random_baseline_is_looser_than_algorithm1() {
        let x = vec![0.6, 0.3, 0.1];
        let n = 2_000;
        let mut det = deficit(x.clone()).unwrap();
        let mut random = Scheduler::new(x, SchedulePolicy::WeightedRandom { seed: 5 }).unwrap();
        for _ in 0..n {
            det.next_combo();
            random.next_combo();
        }
        assert!(
            det.max_deviation() < random.max_deviation(),
            "algorithm 1 {} should beat random {}",
            det.max_deviation(),
            random.max_deviation()
        );
        assert!(det.max_deviation() <= 3.0 / n as f64);
    }
}
