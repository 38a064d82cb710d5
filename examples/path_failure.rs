//! A live stream surviving a *mid-transfer path failure*: the primary
//! path dies 10 s in and comes back at 25 s (a `dmc_sim::Dynamics`
//! schedule). The receiver's failure detector notices the outage within
//! ~100 ms, reports it with a `PathNotice` on the surviving path, and the
//! adaptive sender re-plans immediately with the dead path's loss pinned
//! to 1 — then probes the path until the recovery notice re-admits it.
//!
//! Compares a static (plan-once) sender against the failure-aware
//! adaptive loop on the same network and failure schedule.
//!
//! Run: `cargo run --example path_failure --release`

use deadline_multipath::prelude::*;
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
    // Primary: wide but 2 % lossy. Backup: thin and clean. λ = 5 Mbps
    // fits either path's direct share, but the δ = 300 ms deadline is
    // tight enough that a timeout detour (send on the dead primary, wait
    // d₀ + d_min + extra = 250 ms, retransmit on the backup) arrives
    // late — so during the outage only traffic *planned* onto the backup
    // survives, and re-planning is what saves the stream.
    let believed = NetworkSpec::builder()
        .path(PathSpec::new(10e6, 0.100, 0.02)?)
        .path(PathSpec::new(4e6, 0.050, 0.0)?)
        .data_rate(5e6)
        .lifetime(0.3)
        .build()?;
    let fwd = vec![link(12e6, 0.100, 0.02), link(5e6, 0.050, 0.0)];
    let bwd = vec![link(12e6, 0.100, 0.0), link(5e6, 0.050, 0.0)];
    // The outage: path 0 (both directions) down from t = 10 s to t = 25 s.
    let dynamics = Dynamics::new().path_failure(0, 10.0, 25.0)?;
    // ≈ 34 s of generation at λ = 5 Mbps; MESSAGES overrides (the CI
    // smoke run uses a shorter transfer that still spans the outage).
    let messages = std::env::var("MESSAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(21_000);
    let horizon = SimTime::from_secs_f64(40.0);
    let rto_extra = SimDuration::from_millis(100);

    let mut planner = Planner::new();
    let plan = planner.plan(&Scenario::from_network(&believed), Objective::MaxQuality)?;

    // --- static sender: plans once, never hears about the failure --------
    let receiver = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(0.3), 1));
    let mut sim = TwoHostSim::new(
        fwd.clone(),
        bwd.clone(),
        DmcSender::from_plan(&plan, rto_extra, messages),
        receiver,
        1,
    )?;
    sim.apply_dynamics(&dynamics)?;
    sim.run_until(horizon);
    let q_static = sim.server().stats().unique_in_time as f64 / messages as f64;
    println!("static sender:         Q = {:.1}%", q_static * 100.0);

    // --- failure-aware adaptive sender -----------------------------------
    let adaptive = AdaptiveSender::from_plan(
        &plan,
        AdaptiveConfig {
            prior: believed.clone(),
            interval: SimDuration::from_millis(500),
            transmissions: 2,
            blackhole: true,
            solver: SolverOptions::default(),
            rto_extra,
            min_samples: 30,
            quality_floor: None,
            jitter_seed: 0x12_7E57,
        },
        messages,
    );
    let receiver = DmcReceiver::new(
        ReceiverConfig::new(SimDuration::from_secs_f64(0.3), 1)
            // Silence threshold ≫ the slowest path's natural inter-arrival
            // (the backup sees mostly loss-retransmissions, ~80 ms apart on
            // average) or lulls read as outages and the detector flaps.
            .with_failure_detection(FailureDetection::new(SimDuration::from_millis(500))),
    );
    let mut sim = TwoHostSim::new(fwd, bwd, adaptive, receiver, 1)?;
    sim.apply_dynamics(&dynamics)?;
    sim.run_until(horizon);
    let q_aware = sim.server().stats().unique_in_time as f64 / messages as f64;
    let stats = sim.server().stats();
    println!(
        "failure-aware sender:  Q = {:.1}%  ({} down/{} up notices, {} notice re-plans, {} probes)",
        q_aware * 100.0,
        stats.failure_notices_sent,
        stats.recovery_notices_sent,
        sim.client().notice_replans(),
        sim.client().probes_sent(),
    );
    println!(
        "paths still marked failed at the end: {:?}",
        sim.client().failed_paths()
    );
    Ok(())
}
