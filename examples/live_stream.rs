//! A live stream with *online estimation* (§VIII-A): the sender starts
//! with an optimistic prior, discovers the real loss rate from acks and
//! timeouts, re-plans through its owned `Planner`, and retargets
//! Algorithm 1 from each fresh `Plan`.
//!
//! Compares the static (mis-informed) sender against the adaptive one on
//! the same network. Both are constructed from the same initial `Plan` —
//! no hand-wired strategy/timeout/config assembly.
//!
//! Run: `cargo run --example live_stream --release`

use deadline_multipath::prelude::*;
use dmc_sim::LinkConfig;
use std::sync::Arc;

fn link(bw: f64, delay: f64, loss: f64) -> LinkConfig {
    LinkConfig {
        bandwidth_bps: bw,
        propagation: Arc::new(ConstantDelay::new(delay)),
        loss: loss.into(),
        queue_capacity_bytes: 100 * 1024,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The sender believes: primary 10 Mbps / 100 ms / 2 % loss,
    //                      backup   4 Mbps /  50 ms / clean.
    // (The adaptive loop refines a NetworkSpec prior, so build that and
    // derive the unified Scenario from it.)
    let prior = NetworkSpec::builder()
        .path(PathSpec::new(10e6, 0.100, 0.02)?)
        .path(PathSpec::new(4e6, 0.050, 0.0)?)
        .data_rate(12e6)
        .lifetime(0.4)
        .build()?;
    // Reality: the primary is losing 40 % (interference), and the true
    // links have headroom over the configured rates (provisioning slack).
    let fwd = vec![link(12e6, 0.100, 0.40), link(5e6, 0.050, 0.0)];
    let bwd = vec![link(12e6, 0.100, 0.0), link(5e6, 0.050, 0.0)];
    let messages = 40_000;

    let mut planner = Planner::new();
    let plan = planner.plan(&Scenario::from_network(&prior), Objective::MaxQuality)?;
    let rto_extra = SimDuration::from_millis(50);
    let receiver = || DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(0.4), 1));

    // --- static sender ---------------------------------------------------
    let mut sim = TwoHostSim::new(
        fwd.clone(),
        bwd.clone(),
        DmcSender::from_plan(&plan, rto_extra, messages),
        receiver(),
        1,
    )?;
    sim.run_until(SimTime::from_secs_f64(60.0));
    let q_static = sim.server().stats().unique_in_time as f64 / messages as f64;
    println!("static sender (wrong prior): Q = {:.1}%", q_static * 100.0);

    // --- adaptive sender ---------------------------------------------------
    let adaptive = AdaptiveSender::from_plan(
        &plan,
        AdaptiveConfig {
            prior: prior.clone(),
            interval: SimDuration::from_millis(250),
            transmissions: 2,
            blackhole: true,
            solver: SolverOptions::default(),
            rto_extra,
            min_samples: 30,
            quality_floor: None,
            jitter_seed: 0x11_7E57,
        },
        messages,
    );
    let mut sim = TwoHostSim::new(fwd, bwd, adaptive, receiver(), 1)?;
    sim.run_until(SimTime::from_secs_f64(60.0));
    let q_adaptive = sim.server().stats().unique_in_time as f64 / messages as f64;
    let est = sim.client().estimated_network();
    println!(
        "adaptive sender:             Q = {:.1}%  ({} re-solves)",
        q_adaptive * 100.0,
        sim.client().resolves()
    );
    println!(
        "learned characteristics: primary loss {:.1}% (true 40%), delay {:.0} ms (true 100 ms)",
        est.paths()[0].loss() * 100.0,
        est.paths()[0].delay() * 1e3
    );
    Ok(())
}
