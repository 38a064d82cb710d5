//! Fleet walkthrough: many tenants, two shared links, one joint LP.
//!
//! A video call, a telemetry stream and a bulk sync contend for the
//! paper's Table III path pair. The fleet admits each flow only if the
//! remaining shared capacity can still meet every accepted quality floor
//! (the DDCCast rule), allocates jointly — `Σ` over flows of per-flow
//! path usage ≤ path bandwidth — and hands every tenant an ordinary
//! `Plan`, which we verify by simulation on the flow's allocated slice.
//! Then a link fails mid-session: flows that no longer fit are shed into
//! the re-admission queue (lowest priority first), everyone else is
//! re-planned — and recovery revives the
//! shed flows under their original ids.
//!
//! Run: `cargo run --example fleet --release`

use deadline_multipath::experiments::fleet::allocated_slice;
use deadline_multipath::experiments::runner::{run_plan, RunConfig};
use deadline_multipath::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The shared infrastructure --------------------------------------
    // One fat lossy link + one thin clean link, shared by *all* tenants.
    let mut fleet = FleetPlanner::new(
        vec![
            ScenarioPath::constant(80e6, 0.450, 0.2)?, // 80 Mbps, 450 ms, 20 %
            ScenarioPath::constant(20e6, 0.150, 0.0)?, // 20 Mbps, 150 ms,  0 %
        ],
        FleetConfig::default(),
    )?;

    // --- Tenants arrive ---------------------------------------------------
    // 900 ms of lifetime leaves headroom over the 750 ms cross-path
    // retransmission (exact-boundary plans don't survive real timers and
    // queueing — see the quickstart example's discussion).
    let video = fleet.offer(
        FlowRequest::new(30e6, 0.900)? // 30 Mbps of frames, 900 ms deadline
            .with_min_quality(0.95) //    ≥ 95 % must arrive in time
            .with_priority(4.0),
    )?;
    let telemetry = fleet.offer(
        FlowRequest::new(5e6, 0.450)? // small but latency-critical
            .with_min_quality(0.99),
    )?;
    let bulk = fleet.offer(FlowRequest::new(60e6, 1.5)?)?; // best effort
    for (name, decision) in [
        ("video", &video),
        ("telemetry", &telemetry),
        ("bulk", &bulk),
    ] {
        match decision {
            AdmissionDecision::Admitted {
                predicted_quality, ..
            } => println!(
                "{name:9} admitted: predicted delivery {:.1} %",
                predicted_quality * 100.0
            ),
            AdmissionDecision::Rejected { reason, .. } => {
                println!("{name:9} REJECTED: {reason}")
            }
        }
    }
    let util = fleet.utilization();
    println!(
        "shared-link utilization: path 1 {:.0} %, path 2 {:.0} % (joint LP keeps both ≤ 100 %)",
        util[0] * 100.0,
        util[1] * 100.0
    );

    // A fourth strict tenant that does NOT fit is turned away — and the
    // incumbents' allocations are untouched.
    let greedy = fleet.offer(FlowRequest::new(60e6, 0.8)?.with_min_quality(0.9))?;
    assert!(!greedy.is_admitted());
    println!("\na 60 Mbps / 90 %-floor latecomer is rejected: floors already spoken for");

    // --- Every tenant holds an ordinary Plan ------------------------------
    // Verify the video flow by simulation on its *allocated slice* of the
    // shared links (over-provisioned 2× for queueing slack, the paper's
    // Experiment-2 practice — the same convention the fleet driver uses).
    let plan = fleet.plan_of(video.id()).expect("admitted").clone();
    let mut cfg = RunConfig::default();
    cfg.messages = 20_000;
    let outcome = run_plan(&plan, &allocated_slice(&plan), &cfg).map_err(|e| e.to_string())?;
    println!(
        "\nvideo verified by simulation on its slice: {:.2} % delivered in time (LP predicted {:.2} %)",
        outcome.quality * 100.0,
        plan.quality() * 100.0
    );

    // --- A link fails mid-session ----------------------------------------
    let shed = fleet.apply_link_change(0, &deadline_multipath::sim::LinkChange::Fail)?;
    println!(
        "\npath 1 fails: {} flow(s) shed for re-admission, {} still admitted on the thin link",
        shed.len(),
        fleet.num_flows()
    );
    for id in &shed {
        println!("  shed: {id}");
    }
    for (id, plan) in fleet.plans() {
        println!(
            "  {id} keeps {:.1} % predicted delivery",
            plan.quality() * 100.0
        );
    }

    // --- Recovery revives the shed flows ----------------------------------
    fleet.apply_link_change(0, &deadline_multipath::sim::LinkChange::Recover)?;
    println!(
        "\npath 1 recovers: {} flow(s) revived under their original ids, {} admitted again",
        fleet.revived_flows().len(),
        fleet.num_flows()
    );

    // --- Churn is cheap ----------------------------------------------------
    for _ in 0..8 {
        let d = fleet.offer(FlowRequest::new(10e6, 0.8)?.with_min_quality(0.5))?;
        fleet.depart(d.id())?;
    }
    println!(
        "\nafter 8 arrive/depart cycles: {} (each arrival starts from the incumbents' basis)",
        fleet.warm_stats()
    );
    Ok(())
}
