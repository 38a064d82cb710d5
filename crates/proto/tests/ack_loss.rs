//! Behavior under acknowledgment loss: the §VIII-C bitmap scheme makes
//! lost acks nearly free — every later ack's bitmap re-confirms recent
//! packets before their retransmission timers fire, so ack loss causes
//! neither data loss nor a spurious-retransmission storm.

use dmc_core::{Objective, Planner, Scenario, ScenarioPath};
use dmc_proto::{DmcReceiver, DmcSender, ReceiverConfig, SenderConfig};
use dmc_sim::{Dir, LinkConfig, SimDuration, TwoHostSim};
use dmc_stats::ConstantDelay;
use std::sync::Arc;

fn link(bw: f64, delay: f64, loss: f64) -> LinkConfig {
    LinkConfig {
        bandwidth_bps: bw,
        propagation: Arc::new(ConstantDelay::new(delay)),
        loss: loss.into(),
        queue_capacity_bytes: 100 * 1024,
    }
}

/// λ = 18 Mbps forces real traffic onto the lossy 20 Mbps path (path 2's
/// 10 Mbps can't carry it alone), so genuine retransmissions exist.
fn run(ack_loss: f64, messages: u64) -> (f64, u64, u64) {
    let scenario = Scenario::builder()
        .path(ScenarioPath::constant(20e6, 0.100, 0.05).unwrap())
        .path(ScenarioPath::constant(10e6, 0.050, 0.0).unwrap())
        .data_rate(18e6)
        .lifetime(0.8)
        .build()
        .unwrap();
    let plan = Planner::new()
        .plan(&scenario, Objective::MaxQuality)
        .unwrap();
    let sender = DmcSender::new(SenderConfig::from_plan(
        &plan,
        SimDuration::from_millis(50),
        messages,
    ));
    let receiver = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(0.8), 1));
    // Forward links as specified; the *reverse* ack path loses `ack_loss`.
    let mut sim = TwoHostSim::new(
        vec![link(20e6, 0.100, 0.05), link(10e6, 0.050, 0.0)],
        vec![link(20e6, 0.100, 0.0), link(10e6, 0.050, ack_loss)],
        sender,
        receiver,
        99,
    )
    .unwrap();
    sim.run_to_completion();
    let r = sim.server().stats();
    let s = sim.client().stats();
    assert!(
        s.retransmissions > 0,
        "scenario must exercise retransmission"
    );
    let quality = r.unique_in_time as f64 / s.generated as f64;
    let rev = sim.link_stats(Dir::Backward, 1);
    assert!(
        ack_loss == 0.0 || rev.lost > 0,
        "ack path must actually lose"
    );
    (quality, r.duplicates, s.retransmissions)
}

#[test]
fn ack_loss_is_nearly_free_with_bitmap_acks() {
    let n = 5_000;
    let (q_clean, dup_clean, retx_clean) = run(0.0, n);
    let (q_lossy, dup_lossy, retx_lossy) = run(0.3, n);
    // Quality unaffected: data still flows and deadlines are met.
    assert!(q_clean > 0.97, "clean quality {q_clean}");
    assert!(
        q_lossy > q_clean - 0.02,
        "ack loss broke delivery: {q_lossy} vs {q_clean}"
    );
    // No spurious-retransmission storm: a naive per-packet-ack design
    // would retransmit ~30 % of all messages (≈ 1500 here); the bitmap
    // keeps the increase to a small multiple of the genuine loss volume.
    assert!(
        retx_lossy < retx_clean * 3 + 50,
        "spurious storm: {retx_lossy} vs clean {retx_clean}"
    );
    // Duplicates at the receiver stay marginal.
    assert!(
        dup_lossy < n / 50,
        "duplicates {dup_lossy} exceed 2% of {n} (clean: {dup_clean})"
    );
}

#[test]
fn total_ack_blackout_degrades_to_expiry_not_deadlock() {
    // With 100 % ack loss every message times out through its stages and
    // is eventually given up; the simulation must terminate (no timer
    // leak) and the receiver still gets the data copies.
    let n = 1_000;
    let (quality, _dups, retx) = run(1.0, n);
    // Data still arrives (forward path works); quality from the
    // receiver's perspective is high even though the sender never learns.
    assert!(quality > 0.9, "quality {quality}");
    // Everything on a retransmittable combo got retransmitted.
    assert!(retx > n / 4, "retransmissions {retx}");
}
