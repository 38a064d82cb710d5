//! Experiment 2 end-to-end: Eq.-34 timeouts, expected quality, and the
//! gamma-delay simulation (paper: 93,332 / 100,000 ≈ 93.3 %).

use deadline_multipath::experiments::experiment2;
use deadline_multipath::experiments::runner::RunConfig;

#[test]
fn experiment2_full_pipeline() {
    let mut cfg = RunConfig::default();
    cfg.messages = 15_000;
    let r = experiment2::run(&cfg).expect("experiment");
    // Timeouts near the paper's (plateau tie-breaks differ slightly).
    let t12 = r.t12.expect("t(1,2)") * 1e3;
    let t21 = r.t21.expect("t(2,1)") * 1e3;
    assert!((585.0..=645.0).contains(&t12), "t(1,2) = {t12} ms vs 615");
    assert!((230.0..=270.0).contains(&t21), "t(2,1) = {t21} ms vs 252");
    assert!(r.t11.is_none(), "t(1,1) must be undefined");
    // Qualities.
    assert!(
        (r.expected_quality - 0.9333).abs() < 0.005,
        "expected {}",
        r.expected_quality
    );
    assert!(
        (r.outcome.quality - r.expected_quality).abs() < 0.01,
        "simulated {} vs expected {}",
        r.outcome.quality,
        r.expected_quality
    );
    // The render includes the paper comparison lines.
    let text = experiment2::render(&r);
    assert!(text.contains("93.3%"), "{text}");
}

#[test]
fn gamma_jitter_requires_eq34_timeouts() {
    // Using naive deterministic timeouts (mean delay based, no
    // distributional reasoning) must not beat the Eq.-34 plan — sanity
    // that the optimization is doing real work. We compare expected
    // quality of the solved model against a lifetime so tight that
    // timeout placement matters.
    use deadline_multipath::experiments::scenarios;
    use deadline_multipath::prelude::*;
    let net = scenarios::table5_scenario(90e6, 0.620);
    let model = Planner::new().plan(&net, Objective::MaxQuality).unwrap();
    let s = model.strategy();
    // With δ = 620 ms there is no time for path-1 retransmissions at all
    // (ack ≈ 550 + rescue 110 > 620); the model must discover this and
    // quality drops to the no-path1-retransmission regime.
    assert!(model.timeout(0, 1).is_none() || s.quality() < 0.92);
    assert!(s.quality() > 0.5);
}
