//! The paper's §I claim: complementary paths beat identical ones of the
//! same aggregate capacity in deadline-bound settings.

use deadline_multipath::prelude::*;

fn path(bandwidth: f64, delay: f64, loss: f64) -> ScenarioPath {
    ScenarioPath::constant(bandwidth, delay, loss).unwrap()
}

fn optimum<const N: usize>(paths: [ScenarioPath; N], lambda: f64, delta: f64) -> Plan {
    let scenario = Scenario::builder()
        .paths(paths)
        .data_rate(lambda)
        .lifetime(delta)
        .build()
        .unwrap();
    Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .unwrap()
}

fn q(paths: [ScenarioPath; 2], lambda: f64, delta: f64) -> f64 {
    optimum(paths, lambda, delta).quality()
}

#[test]
fn diverse_pair_dominates_uniform_pair_at_tight_deadlines() {
    let diverse = [path(80e6, 0.450, 0.2), path(20e6, 0.150, 0.0)];
    // Same total bandwidth, bandwidth-weighted delay/loss.
    let uniform = [path(50e6, 0.390, 0.16), path(50e6, 0.390, 0.16)];
    let mut diverse_wins = 0;
    for delta_ms in [300.0, 450.0, 600.0, 750.0, 900.0, 1050.0] {
        let qd = q(diverse.clone(), 90e6, delta_ms / 1e3);
        let qu = q(uniform.clone(), 90e6, delta_ms / 1e3);
        if qd > qu + 1e-9 {
            diverse_wins += 1;
        }
        assert!(
            qd >= qu - 1e-9 || delta_ms >= 1000.0,
            "uniform beat diverse at δ={delta_ms}: {qu} vs {qd}"
        );
    }
    assert!(
        diverse_wins >= 4,
        "diversity won only {diverse_wins}/6 points"
    );
}

#[test]
fn low_latency_path_specializes_in_retransmissions() {
    // In the diverse optimum at δ=800 ms, retransmissions ride the clean
    // fast path: the x[1→2] style combinations carry weight, while
    // x[2→1] (fast first, slow rescue) is pointless.
    let plan = optimum([path(80e6, 0.450, 0.2), path(20e6, 0.150, 0.0)], 90e6, 0.8);
    let s = plan.strategy();
    // All path-1-first traffic that plans a retransmission plans it on
    // path 2 (never back on the 450 ms path: it cannot return in time).
    let retrans_on_slow = s.fraction(&[Slot::Path(0), Slot::Path(0)]);
    assert!(retrans_on_slow < 1e-9, "x[1,1] = {retrans_on_slow}");
    // Path-2 capacity is exactly filled (fresh data + rescue copies).
    assert!((s.send_rates()[1] - 20e6).abs() < 1.0);
}

#[test]
fn three_diverse_paths_beat_two() {
    // Extension: adding a third, complementary mid-latency path can only
    // help, and strictly helps when capacity binds.
    let two = [path(80e6, 0.450, 0.2), path(20e6, 0.150, 0.0)];
    let three = [
        path(80e6, 0.450, 0.2),
        path(20e6, 0.150, 0.0),
        path(30e6, 0.250, 0.05),
    ];
    let q2 = optimum(two, 130e6, 0.8).quality();
    let q3 = optimum(three, 130e6, 0.8).quality();
    assert!(q3 > q2 + 0.05, "q2={q2} q3={q3}");
}
