//! The parallel Monte-Carlo engine's determinism pin: for a fixed seed,
//! the aggregate `TrialStats` (and every summed counter) must be
//! **bit-identical** at 1, 2, and 8 worker threads to the sequential
//! oracle, on the paper's Table V (Experiment 2) scenario.
//!
//! This is the property that makes `--threads N` safe to default on:
//! scaling out trial throughput can never change a reported number.

use deadline_multipath::experiments::montecarlo::{
    run_plan_trials, run_trials_parallel, trial_seed, MonteCarloConfig,
};
use deadline_multipath::experiments::runner::{RunConfig, TrueNetwork};
use deadline_multipath::experiments::scenarios;
use deadline_multipath::prelude::*;

fn table5_plan_and_truth() -> (Plan, TrueNetwork) {
    let scenario = scenarios::table5_scenario(90e6, 0.750);
    let plan = Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .expect("feasible");
    let truth = TrueNetwork::from_scenario(&scenario).over_provisioned(1.5);
    (plan, truth)
}

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::default();
    cfg.messages = 1_200; // enough protocol activity to surface ordering bugs
    cfg
}

#[test]
fn parallel_trialstats_bit_identical_to_sequential_oracle() {
    let (plan, truth) = table5_plan_and_truth();
    let cfg = quick_cfg();
    let mc = |threads| MonteCarloConfig {
        trials: 6,
        threads,
        base_seed: 0x00C0_FFEE,
    };
    // threads = 1 takes the plain-loop path: the sequential oracle.
    let oracle = run_plan_trials(&plan, &truth, &cfg, &mc(1)).expect("sequential run");
    assert_eq!(oracle.quality.count(), 6);
    assert!(
        oracle.quality.mean() > 0.85,
        "sanity: {}",
        oracle.quality.mean()
    );

    for threads in [2usize, 8] {
        let parallel = run_plan_trials(&plan, &truth, &cfg, &mc(threads)).expect("parallel run");
        // Bitwise equality of the folded statistics (TrialStats PartialEq
        // compares the Welford state fields exactly).
        assert_eq!(
            parallel.quality, oracle.quality,
            "{threads}-thread TrialStats diverged from the sequential oracle"
        );
        assert_eq!(
            parallel.quality.mean().to_bits(),
            oracle.quality.mean().to_bits()
        );
        assert_eq!(
            parallel.sender, oracle.sender,
            "{threads}-thread sender counters"
        );
        assert_eq!(
            parallel.receiver, oracle.receiver,
            "{threads}-thread receiver counters"
        );
        assert_eq!(
            parallel.first.quality.to_bits(),
            oracle.first.quality.to_bits()
        );
    }
}

#[test]
fn different_seeds_produce_different_aggregates() {
    let (plan, truth) = table5_plan_and_truth();
    let cfg = quick_cfg();
    let run = |base_seed| {
        run_plan_trials(
            &plan,
            &truth,
            &cfg,
            &MonteCarloConfig {
                trials: 4,
                threads: 2,
                base_seed,
            },
        )
        .expect("run")
    };
    let a = run(1);
    let b = run(2);
    // Quality is a ratio of small integers, so two streams can tie on the
    // mean; the full counter set cannot plausibly coincide.
    assert!(
        a.quality != b.quality || a.sender != b.sender || a.receiver != b.receiver,
        "distinct base seeds must yield distinct trial streams"
    );
    // And the same seed reproduces itself exactly.
    let a2 = run(1);
    assert_eq!(a.quality, a2.quality);
    assert_eq!(a.sender, a2.sender);
}

#[test]
fn engine_reassembles_results_in_trial_order_at_any_thread_count() {
    for threads in [1usize, 2, 3, 8] {
        let mc = MonteCarloConfig {
            trials: 64,
            threads,
            base_seed: 5,
        };
        let got = run_trials_parallel(&mc, |t, s| (t, s));
        let want: Vec<(u64, u64)> = (0..64).map(|t| (t, trial_seed(5, t))).collect();
        assert_eq!(got, want, "thread count {threads}");
    }
}
