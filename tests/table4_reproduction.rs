//! Cross-crate reproduction of Table IV: every quality value in the
//! paper's table, to 1e-9, plus the structural invariants of the
//! solutions.

use deadline_multipath::experiments::{scenarios, table4};
use deadline_multipath::prelude::*;

/// Optimal quality of `scenario` with `m` transmissions.
fn quality_with(scenario: &Scenario, m: usize) -> f64 {
    Planner::new()
        .plan(&scenario.with_transmissions(m), Objective::MaxQuality)
        .unwrap()
        .quality()
}

#[test]
fn every_table4_row_reproduces() {
    for &(lambda_mbps, want) in table4::PAPER_TOP {
        let rows = table4::top(&[lambda_mbps]);
        let got = rows[0].quality();
        assert!(
            (got - want).abs() < 1e-9,
            "Table IV top, λ={lambda_mbps} Mbps: Q={got}, paper {want}"
        );
    }
    for &(delta_ms, want) in table4::PAPER_BOTTOM {
        let rows = table4::bottom(&[delta_ms]);
        let got = rows[0].quality();
        assert!(
            (got - want).abs() < 1e-9,
            "Table IV bottom, δ={delta_ms} ms: Q={got}, paper {want}"
        );
    }
}

#[test]
fn solutions_satisfy_model_invariants() {
    for lambda in [10e6, 60e6, 100e6, 140e6] {
        let net = scenarios::table3_model_scenario(lambda, 0.8);
        let s = Planner::new().plan(&net, Objective::MaxQuality).unwrap();
        assert!(s.strategy().is_well_formed(1e-9), "Σx ≠ 1 at λ={lambda}");
        assert!(
            s.quality() >= -1e-12 && s.quality() <= 1.0 + 1e-9,
            "Q out of range at λ={lambda}"
        );
        for (k, (&rate, path)) in s.send_rates().iter().zip(net.paths()).enumerate() {
            assert!(
                rate <= path.bandwidth() * (1.0 + 1e-9),
                "S_{k} = {rate} exceeds b_{k} at λ={lambda}"
            );
        }
    }
}

#[test]
fn band_boundaries_are_sharp() {
    // The quality bands of Table IV (bottom) switch exactly at the
    // combination-arrival boundaries: 450 ms (path-1 direct) and 750 ms
    // (path-1 + retransmit-on-2).
    let q = |delta_ms: f64| table4::bottom(&[delta_ms])[0].quality();
    assert!((q(449.0) - 2.0 / 9.0).abs() < 1e-9);
    assert!((q(450.0) - 0.8444444444444444).abs() < 1e-9);
    assert!((q(749.0) - 0.8444444444444444).abs() < 1e-9);
    assert!((q(750.0) - 42.0 / 45.0).abs() < 1e-9);
}

#[test]
fn more_retransmissions_never_hurt_and_saturate() {
    // m = 3 adds a second retransmission stage: quality must be
    // monotone in m, and for the Table III network at δ = 800 ms a third
    // transmission cannot help (no time for two round trips), so m=2 and
    // m=3 agree.
    let net = scenarios::table3_model_scenario(90e6, 0.8);
    let q2 = quality_with(&net, 2);
    let q3 = quality_with(&net, 3);
    assert!(q3 >= q2 - 1e-9);
    assert!((q3 - q2).abs() < 1e-9, "q2={q2} q3={q3}");
    // A third transmission helps only when *loss* (not bandwidth) binds:
    // on Table III, path 2 is lossless so two attempts already reach
    // p = 1, and when bandwidth binds the retransmission exchange rate is
    // identical at every m. With both paths lossy and ample capacity,
    // m = 3 strictly wins: 1 − τ² → 1 − τ³.
    let lossy = Scenario::builder()
        .path(ScenarioPath::constant(80e6, 0.100, 0.3).unwrap())
        .path(ScenarioPath::constant(20e6, 0.050, 0.3).unwrap())
        .data_rate(10e6)
        .lifetime(1.0)
        .build()
        .unwrap();
    let q2 = quality_with(&lossy, 2);
    let q3 = quality_with(&lossy, 3);
    assert!((q2 - 0.91).abs() < 1e-9, "q2 = {q2}");
    assert!((q3 - 0.973).abs() < 1e-9, "q3 = {q3}");
}
