//! Sim-vs-theory validation of the Gilbert–Elliott loss chain: the
//! simulated stationary loss rate must match the analytic stationary
//! probability within 3σ, where σ accounts for the chain's
//! autocorrelation (a naive i.i.d. binomial band would be too tight for
//! a bursty process and flag false failures).

use dmc_sim::{GilbertElliott, Link, LinkConfig, LossModel, Packet, SendOutcome, SimTime};
use dmc_stats::ConstantDelay;
use std::sync::Arc;

/// Asymptotic standard deviation of the empirical loss rate over `n`
/// packets of the classic Gilbert chain (loss ⇔ bad state): the loss
/// indicator is a two-state Markov chain with lag-1 correlation
/// `r = 1 − p_gb − p_bg`, so `Var[mean] ≈ p(1−p)/n · (1+r)/(1−r)`.
fn chain_sigma(ge: &GilbertElliott, n: u64) -> f64 {
    let p = ge.stationary_loss();
    let r = 1.0 - ge.p_good_to_bad - ge.p_bad_to_good;
    (p * (1.0 - p) / n as f64 * (1.0 + r) / (1.0 - r)).sqrt()
}

fn measured_loss_rate(ge: GilbertElliott, n: u64, seed: u64) -> f64 {
    let mut link = Link::new(
        LinkConfig {
            bandwidth_bps: 1e9,
            propagation: Arc::new(ConstantDelay::new(0.0)),
            loss: LossModel::GilbertElliott(ge),
            queue_capacity_bytes: 1 << 20,
        },
        seed,
    );
    let mut lost = 0u64;
    for i in 0..n {
        let now = SimTime::from_nanos(i * 1_000);
        match link.send(now, &mut Packet::new(100, [])) {
            SendOutcome::Transmitted { arrival: None, .. } => lost += 1,
            SendOutcome::Transmitted { .. } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        link.on_departure(100);
    }
    lost as f64 / n as f64
}

#[test]
fn stationary_loss_within_three_sigma_of_theory() {
    // ≥10k packets per chain; several operating points, classic Gilbert
    // (loss indicator = chain state, so the analytic σ is exact).
    let n = 20_000u64;
    for (seed, (p_gb, p_bg)) in [
        (11u64, (0.05, 0.25)), // bursty: mean burst 4, π_B = 1/6
        (12, (0.01, 0.09)),    // long bursts: mean burst ~11, π_B = 0.1
        (13, (0.30, 0.30)),    // fast-mixing: π_B = 1/2
    ] {
        let ge = GilbertElliott::classic(p_gb, p_bg).unwrap();
        let rate = measured_loss_rate(ge, n, seed);
        let p = ge.stationary_loss();
        let sigma = chain_sigma(&ge, n);
        assert!(
            (rate - p).abs() <= 3.0 * sigma,
            "p_gb={p_gb} p_bg={p_bg}: measured {rate:.4} vs stationary {p:.4} \
             (|Δ| = {:.4} > 3σ = {:.4})",
            (rate - p).abs(),
            3.0 * sigma
        );
    }
}

#[test]
fn general_ge_matches_mixed_stationary_loss() {
    // Non-degenerate state loss rates: stationary loss is the mixture
    // π_G·loss_good + π_B·loss_bad. The extra Bernoulli layer only
    // shrinks the variance, so the chain σ remains a valid (conservative)
    // band.
    let n = 30_000u64;
    let ge = GilbertElliott::new(0.04, 0.16, 0.02, 0.70).unwrap();
    let rate = measured_loss_rate(ge, n, 21);
    let p = ge.stationary_loss();
    let sigma = chain_sigma(&ge, n);
    assert!(
        (rate - p).abs() <= 3.0 * sigma,
        "measured {rate:.4} vs stationary {p:.4} (3σ = {:.4})",
        3.0 * sigma
    );
}

#[test]
fn bernoulli_same_rate_has_shorter_bursts_than_ge() {
    // The point of the model: identical stationary rate, different
    // correlation structure. Compare mean loss-burst lengths.
    let n = 30_000u64;
    let ge = GilbertElliott::classic(0.05, 0.25).unwrap();

    let burst_mean = |outcomes: &[bool]| {
        let (mut bursts, mut losses) = (0u64, 0u64);
        for (i, &l) in outcomes.iter().enumerate() {
            if l {
                losses += 1;
                if i == 0 || !outcomes[i - 1] {
                    bursts += 1;
                }
            }
        }
        losses as f64 / bursts.max(1) as f64
    };

    let run = |model: LossModel, seed: u64| -> Vec<bool> {
        let mut link = Link::new(
            LinkConfig {
                bandwidth_bps: 1e9,
                propagation: Arc::new(ConstantDelay::new(0.0)),
                loss: model,
                queue_capacity_bytes: 1 << 20,
            },
            seed,
        );
        (0..n)
            .map(|i| {
                let now = SimTime::from_nanos(i * 1_000);
                let lost = matches!(
                    link.send(now, &mut Packet::new(100, [])),
                    SendOutcome::Transmitted { arrival: None, .. }
                );
                link.on_departure(100);
                lost
            })
            .collect()
    };

    let ge_bursts = burst_mean(&run(LossModel::GilbertElliott(ge), 31));
    let bern_bursts = burst_mean(&run(LossModel::Bernoulli(ge.stationary_loss()), 31));
    assert!(
        ge_bursts > 2.0 * bern_bursts,
        "GE bursts {ge_bursts:.2} should dwarf Bernoulli bursts {bern_bursts:.2}"
    );
}
