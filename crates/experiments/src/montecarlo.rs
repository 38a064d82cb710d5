//! The parallel Monte-Carlo experiment engine: shards independent
//! simulation trials across a scoped worker pool with deterministic
//! per-trial seed streams.
//!
//! Design invariants:
//!
//! * **Seed purity** — every trial's RNG seed is a pure function of
//!   `(base_seed, trial_index)` ([`trial_seed`], SplitMix64-derived), so
//!   a trial's outcome never depends on which worker ran it or in what
//!   order.
//! * **Deterministic aggregation** — workers return per-trial results;
//!   the engine reassembles them *in trial-index order* and folds the
//!   per-trial observations into [`dmc_stats::TrialStats`] sequentially.
//!   The fold therefore executes the identical floating-point operations
//!   at every thread count, making the aggregate **bit-identical**
//!   between `--threads 1` (the sequential oracle) and any parallel run
//!   (`tests/montecarlo_determinism.rs` pins this).
//!
//! ```
//! use dmc_experiments::montecarlo::{run_trials_parallel, trial_seed, MonteCarloConfig};
//!
//! let mc = MonteCarloConfig { trials: 8, threads: 2, base_seed: 42 };
//! let parallel = run_trials_parallel(&mc, |trial, seed| (trial, seed));
//! // Bit-identical to the sequential fold at any thread count:
//! let sequential: Vec<_> = (0..8).map(|t| (t, trial_seed(42, t))).collect();
//! assert_eq!(parallel, sequential);
//! ```

use crate::runner::{run_plan, RunConfig, RunOutcome, TrueNetwork};
use dmc_core::Plan;
use dmc_proto::{ReceiverStats, SenderStats};
use dmc_stats::TrialStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Derives trial `trial`'s RNG seed from the experiment's base seed.
///
/// Trial 0 uses the base seed **verbatim**, so a single-trial run
/// reproduces the historical single-run outputs for the same `SEED`
/// (the legacy `run`/`rate_sweep`/`curve` wrappers are byte-compatible
/// with their pre-engine behavior). Later trials get SplitMix64-style
/// finalized seeds, well spread even for consecutive indices and
/// correlated base seeds.
pub fn trial_seed(base_seed: u64, trial: u64) -> u64 {
    if trial == 0 {
        return base_seed;
    }
    let mut z = base_seed ^ trial.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How many trials to run, across how many workers, from which seed.
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    /// Number of independent trials.
    pub trials: u64,
    /// Worker threads; `0` resolves to `DMC_THREADS` (if set) or the
    /// machine's available parallelism. `1` is the sequential oracle.
    pub threads: usize,
    /// Base seed of the per-trial seed stream.
    pub base_seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            trials: 32,
            threads: 0,
            base_seed: 0xDEAD_BEEF,
        }
    }
}

impl MonteCarloConfig {
    /// One trial on one thread with `seed` as the stream base — the
    /// drop-in shape for legacy single-run entry points.
    pub fn single(seed: u64) -> Self {
        MonteCarloConfig {
            trials: 1,
            threads: 1,
            base_seed: seed,
        }
    }

    /// The worker count after resolving `0`, shared with the fleet
    /// service: the `DMC_THREADS` environment variable clamped to ≥ 1
    /// (`DMC_THREADS=0` means the sequential oracle, not a zero-width
    /// pool), an unparseable value warned about once and treated as
    /// unset, else the machine's available parallelism (at least 1).
    pub fn resolved_threads(&self) -> usize {
        dmc_fleet::service::resolved_workers(self.threads)
    }
}

/// Runs `mc.trials` independent trials of `trial_fn(trial, seed)` and
/// returns the results **in trial-index order**.
///
/// `trial_fn` must be a pure function of its arguments (plus shared
/// immutable captures); under that contract the returned vector is
/// identical for every thread count. Work is distributed by an atomic
/// counter, so stragglers do not idle the pool.
pub fn run_trials_parallel<R, F>(mc: &MonteCarloConfig, trial_fn: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64, u64) -> R + Sync,
{
    let n = mc.trials;
    let threads = mc.resolved_threads().min(n.max(1) as usize);
    if threads <= 1 {
        // The sequential oracle: a plain loop, no pool.
        return (0..n)
            .map(|t| trial_fn(t, trial_seed(mc.base_seed, t)))
            .collect();
    }
    let next = AtomicU64::new(0);
    let done: Mutex<Vec<(u64, R)>> = Mutex::new(Vec::with_capacity(n as usize));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local: Vec<(u64, R)> = Vec::new();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= n {
                        break;
                    }
                    local.push((t, trial_fn(t, trial_seed(mc.base_seed, t))));
                }
                done.lock().expect("no worker panicked").extend(local);
            });
        }
    });
    let mut all = done.into_inner().expect("workers joined");
    all.sort_unstable_by_key(|(t, _)| *t);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Aggregate of a Monte-Carlo sweep over one plan (see
/// [`run_plan_trials`]).
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Measured quality across trials, with Student-t CI support.
    pub quality: TrialStats,
    /// The model's predicted quality for the plan that ran.
    pub predicted_quality: f64,
    /// Summed sender counters over all trials.
    pub sender: SenderStats,
    /// Summed receiver counters over all trials.
    pub receiver: ReceiverStats,
    /// Trial 0's full outcome (for detail rendering).
    pub first: RunOutcome,
}

fn add_sender(a: &mut SenderStats, b: &SenderStats) {
    a.generated += b.generated;
    a.blackholed += b.blackholed;
    a.transmissions += b.transmissions;
    a.retransmissions += b.retransmissions;
    a.nic_dropped += b.nic_dropped;
    a.acked += b.acked;
    a.expired += b.expired;
    a.fast_retransmits += b.fast_retransmits;
}

fn add_receiver(a: &mut ReceiverStats, b: &ReceiverStats) {
    a.transmissions_received += b.transmissions_received;
    a.unique_in_time += b.unique_in_time;
    a.unique_late += b.unique_late;
    a.duplicates += b.duplicates;
    a.malformed += b.malformed;
    a.acks_sent += b.acks_sent;
    a.acks_nic_dropped += b.acks_nic_dropped;
    a.failure_notices_sent += b.failure_notices_sent;
    a.recovery_notices_sent += b.recovery_notices_sent;
}

/// Runs `mc.trials` independent simulations of one solved [`Plan`] on
/// `true_net` — trial `t` uses `cfg` with its seed replaced by
/// [`trial_seed`]`(mc.base_seed, t)` — and folds the measured qualities
/// into a [`TrialStats`] *in trial order* (bit-identical across thread
/// counts).
///
/// When `cfg.obs` is enabled, every trial records into a private
/// [`fork`](dmc_obs::Obs::fork) of it and the forks are absorbed back
/// into `cfg.obs` in trial order — the merged snapshot is bit-identical
/// at any thread count, like the quality fold.
///
/// # Errors
///
/// Forwards the first failing trial's error (by trial order).
pub fn run_plan_trials(
    plan: &Plan,
    true_net: &TrueNetwork,
    cfg: &RunConfig,
    mc: &MonteCarloConfig,
) -> Result<MonteCarloReport, String> {
    if mc.trials == 0 {
        return Err("at least one trial is required".into());
    }
    // Each trial publishes into a private fork of the caller's registry;
    // the forks are absorbed back *in trial order* below, so the merged
    // telemetry (clock included) is bit-identical at any thread count.
    let outcomes = run_trials_parallel(mc, |_trial, seed| {
        let mut trial_cfg = cfg.clone();
        trial_cfg.seed = seed;
        trial_cfg.obs = cfg.obs.fork();
        let outcome = run_plan(plan, true_net, &trial_cfg);
        (outcome, trial_cfg.obs.snapshot())
    });
    let mut quality = TrialStats::new();
    let mut sender = SenderStats::default();
    let mut receiver = ReceiverStats::default();
    let mut first = None;
    for (outcome, trial_obs) in outcomes {
        cfg.obs.absorb(&trial_obs);
        let outcome = outcome?;
        quality.push(outcome.quality);
        add_sender(&mut sender, &outcome.sender);
        add_receiver(&mut receiver, &outcome.receiver);
        if first.is_none() {
            first = Some(outcome);
        }
    }
    let first = first.expect("config validation guarantees trials >= 1");
    Ok(MonteCarloReport {
        quality,
        predicted_quality: first.predicted_quality,
        sender,
        receiver,
        first,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use dmc_core::{Objective, Planner};

    #[test]
    fn seed_stream_is_pure_and_spread() {
        assert_eq!(trial_seed(7, 0), trial_seed(7, 0));
        assert_ne!(trial_seed(7, 0), trial_seed(7, 1));
        assert_ne!(trial_seed(7, 0), trial_seed(8, 0));
        // No collisions over a realistic sweep.
        let mut seen = std::collections::HashSet::new();
        for t in 0..10_000u64 {
            assert!(seen.insert(trial_seed(0xDEAD_BEEF, t)));
        }
    }

    #[test]
    fn parallel_result_order_is_trial_order() {
        let mc = MonteCarloConfig {
            trials: 100,
            threads: 8,
            base_seed: 3,
        };
        let results = run_trials_parallel(&mc, |t, s| (t, s));
        for (i, &(t, s)) in results.iter().enumerate() {
            assert_eq!(t, i as u64);
            assert_eq!(s, trial_seed(3, t));
        }
    }

    #[test]
    fn zero_threads_resolves_positive() {
        let mc = MonteCarloConfig {
            trials: 1,
            threads: 0,
            base_seed: 0,
        };
        assert!(mc.resolved_threads() >= 1);
    }

    #[test]
    fn dmc_threads_zero_is_the_sequential_oracle() {
        // Regression: `DMC_THREADS=0` parsed "successfully" and used to
        // fall through to available parallelism; it must clamp to one
        // worker (the sequential oracle), and the trial results must be
        // identical either way.
        std::env::set_var("DMC_THREADS", "0");
        let mc = MonteCarloConfig {
            trials: 6,
            threads: 0,
            base_seed: 0x5EED,
        };
        assert_eq!(mc.resolved_threads(), 1);
        let clamped: Vec<u64> = run_trials_parallel(&mc, |t, seed| t ^ seed);
        std::env::remove_var("DMC_THREADS");
        let sequential: Vec<u64> = run_trials_parallel(
            &MonteCarloConfig {
                threads: 1,
                ..mc.clone()
            },
            |t, seed| t ^ seed,
        );
        assert_eq!(clamped, sequential);
    }

    #[test]
    fn plan_trials_tighten_with_more_trials() {
        // The Figure-2 flagship point: multiple short trials produce a CI
        // containing the theory value, and more trials shrink it.
        // Experiment-1 split: LP sees measured + margin, timeouts see the
        // measured delays (inflating both would push retransmissions past
        // the deadline and sink the simulated quality).
        let mut planner = Planner::new();
        let scenario = scenarios::table3_scenario(90e6, 0.8);
        let plan = planner
            .plan_with_margin(&scenario, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
            .unwrap();
        let truth = TrueNetwork::from_scenario(&scenario);
        let mut cfg = RunConfig::default();
        cfg.messages = 1_500;
        let run = |trials| {
            run_plan_trials(
                &plan,
                &truth,
                &cfg,
                &MonteCarloConfig {
                    trials,
                    threads: 2,
                    base_seed: 99,
                },
            )
            .unwrap()
        };
        let small = run(4);
        let large = run(12);
        assert_eq!(small.quality.count(), 4);
        assert_eq!(large.quality.count(), 12);
        assert_eq!(large.sender.generated, 12 * 1_500);
        let (lo, hi) = large.quality.confidence_interval(0.95);
        assert!(
            lo <= large.predicted_quality + 0.02 && large.predicted_quality - 0.05 <= hi,
            "CI [{lo:.4}, {hi:.4}] vs theory {:.4}",
            large.predicted_quality
        );
        // Same per-trial spread ⇒ more trials give a narrower interval.
        assert!(large.quality.half_width(0.95) < small.quality.half_width(0.95) + 1e-12);
    }
}
