//! Fleet-service driver: a seeded tenant script — batched offers,
//! cohort departures, outage/recovery cycles, a sprinkling of malformed
//! and corrupted frames — driven through the **wire front end** of the
//! sharded [`FleetService`] (every submission travels as an encoded
//! [`dmc_proto::wire`] frame and every answer comes back as a
//! [`DecisionFrame`]), with the merged event stream folded into the
//! service's FNV-1a decision hash.
//!
//! The script is a pure function of its seed, and the service's tick is
//! deterministic at any worker count, so the same `(seed, flows,
//! shards)` triple must produce the same decision hash at
//! `DMC_THREADS=1` and `DMC_THREADS=4` — the CI smoke pins exactly that.

use dmc_core::ScenarioPath;
use dmc_fleet::{FleetConfig, FleetService, ServiceConfig, ServiceEvent};
use dmc_proto::wire::{DecisionFrame, DepartFrame, LinkChangeFrame, OfferFrame, Verdict};
use dmc_sim::LinkChange;
use std::collections::VecDeque;

use crate::fleet::SeedStream;

/// Default shard count (`--shards`/`SHARDS` override it). Each shard is
/// one capacity region of two paths, so the wire path mask (128 bits)
/// caps the service at [`MAX_SHARDS`] shards.
pub const SHARDS_DEFAULT: usize = 8;

/// Wire-addressable ceiling: two paths per region, 128 mask bits.
pub const MAX_SHARDS: usize = 64;

/// Offers per tick in the scripted load.
const OFFERS_PER_TICK: u64 = 8;

/// The sharded fleet: `shards` capacity regions of a fat lossy path plus
/// a thin clean one (a Table-III-like pair per region, with
/// deterministic per-region variation), and the path groups declaring
/// the partition.
pub fn region_paths(shards: usize) -> (Vec<ScenarioPath>, Vec<Vec<usize>>) {
    let mut paths = Vec::new();
    let mut groups = Vec::new();
    for r in 0..shards {
        let v = r as f64;
        let fat = ScenarioPath::constant(60e6 + 5e6 * (v % 4.0), 0.350 + 0.020 * (v % 5.0), 0.15)
            .expect("literal path parameters are valid");
        let thin = ScenarioPath::constant(15e6 + 2e6 * (v % 3.0), 0.120, 0.0)
            .expect("literal path parameters are valid");
        let base = paths.len();
        paths.push(fat);
        paths.push(thin);
        groups.push(vec![base, base + 1]);
    }
    (paths, groups)
}

/// What a scripted run did and decided, aggregated from the event
/// stream (all counts deterministic for a fixed `(seed, flows, shards)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// Shards (= capacity regions) the service ran with.
    pub shards: usize,
    /// Worker threads of the parallel tick phase.
    pub workers: usize,
    /// Submissions the service consumed (offers + departs + link changes).
    pub submissions: u64,
    /// Ticks driven.
    pub ticks: u64,
    /// Offers admitted / rejected / answered `Invalid`.
    pub admitted: u64,
    /// Rejected offers.
    pub rejected: u64,
    /// Malformed offers answered with [`Verdict::Invalid`].
    pub invalid: u64,
    /// Of the admitted, how many were region-spanning splits.
    pub spanning_admitted: u64,
    /// Departures acknowledged with `found: true`.
    pub departed: u64,
    /// Capacity events (shed/revive/reject sweeps and link confirmations).
    pub capacity_events: u64,
    /// Corrupted frames the wire layer dropped (checksum refused).
    pub frames_dropped: u64,
    /// Decision frames received back.
    pub decision_frames: u64,
    /// The service's running FNV-1a hash over the merged event stream.
    pub decision_hash: u64,
}

/// Replays the seeded script of `flows` offers against a fresh
/// `shards`-region service with `workers` tick threads (0 = resolve via
/// `DMC_THREADS`), entirely over wire frames, with the service's
/// telemetry wired to `obs`. Returns the outcome and the service's merged
/// [`obs_snapshot`](FleetService::obs_snapshot) (parent registry plus
/// every shard fork, deterministic at any worker count).
pub fn run_service_script(
    seed: u64,
    flows: u64,
    shards: usize,
    workers: usize,
    obs: &dmc_obs::Obs,
) -> (ServiceOutcome, dmc_obs::Snapshot) {
    let shards = shards.clamp(1, MAX_SHARDS);
    let (paths, groups) = region_paths(shards);
    let num_paths = paths.len();
    let mut service = FleetService::new(
        paths,
        &groups,
        ServiceConfig {
            workers,
            fleet: FleetConfig {
                obs: obs.clone(),
                ..FleetConfig::default()
            },
            grid: None,
        },
    )
    .expect("literal service parameters are valid");

    let mut script = SeedStream::new(seed);
    let mut out = ServiceOutcome {
        shards,
        workers: service.workers(),
        submissions: 0,
        ticks: 0,
        admitted: 0,
        rejected: 0,
        invalid: 0,
        spanning_admitted: 0,
        departed: 0,
        capacity_events: 0,
        frames_dropped: 0,
        decision_frames: 0,
        decision_hash: 0,
    };
    // Admitted cohorts by age; flows retire two ticks after admission.
    let mut live: VecDeque<Vec<u64>> = VecDeque::new();
    let mut spanning_seqs: Vec<u64> = Vec::new();
    let mut offered: u64 = 0;
    let mut failed_path: Option<usize> = None;

    while offered < flows || live.iter().any(|cohort| !cohort.is_empty()) {
        // Offers for this tick.
        let batch = OFFERS_PER_TICK.min(flows.saturating_sub(offered));
        for _ in 0..batch {
            let tag = offered;
            offered += 1;
            let roll = script.next_u64();
            let region = (roll % shards as u64) as usize;
            let spanning = shards > 1 && roll % 16 == 7;
            let subset: Vec<usize> = if spanning {
                let other = (region + 1) % shards;
                let mut s = groups[region].clone();
                s.extend(&groups[other]);
                s.sort_unstable();
                s
            } else {
                groups[region].clone()
            };
            let mut frame = OfferFrame {
                seq: tag,
                data_rate: script.in_range(3e6, 12e6),
                lifetime: script.in_range(0.5, 1.2),
                min_quality: script.in_range(0.0, 0.7),
                cost_budget: f64::INFINITY,
                priority: 1.0 + script.in_range(0.0, 3.0),
                transmissions: 2,
                path_mask: OfferFrame::mask_for(&subset)
                    .expect("region paths stay within the 128-bit mask"),
            };
            // Every 32nd offer is deliberately malformed (negative
            // rate) to exercise the Invalid verdict path…
            if roll % 32 == 19 {
                frame.data_rate = -frame.data_rate;
            }
            let encoded = frame.encode();
            // …and every 64th frame arrives corrupted and must be
            // dropped by the checksum, consuming nothing.
            if roll % 64 == 33 {
                let mut corrupt = encoded.to_vec();
                corrupt[12] ^= 0x08;
                assert!(
                    service.handle_frame(&corrupt).is_none(),
                    "corrupted frame must be refused"
                );
                out.frames_dropped += 1;
                continue;
            }
            let seq = service
                .handle_frame(&encoded)
                .expect("well-formed offer frame is consumed");
            if spanning {
                spanning_seqs.push(seq);
            }
        }

        // Retire the cohort admitted two ticks ago.
        if live.len() >= 2 {
            if let Some(cohort) = live.pop_front() {
                for flow in cohort {
                    let frame = DepartFrame { seq: flow, flow };
                    service
                        .handle_frame(&frame.encode())
                        .expect("well-formed depart frame is consumed");
                }
            }
        }

        // Outage/recovery cycle: fail a rotating path for one tick.
        if let Some(path) = failed_path.take() {
            let frame = LinkChangeFrame::from_change(0, path as u16, &LinkChange::Recover);
            service
                .handle_frame(&frame.encode())
                .expect("well-formed link frame is consumed");
        } else if out.ticks % 5 == 3 {
            let path = ((out.ticks * 7) as usize) % num_paths;
            let frame = LinkChangeFrame::from_change(0, path as u16, &LinkChange::Fail);
            service
                .handle_frame(&frame.encode())
                .expect("well-formed link frame is consumed");
            failed_path = Some(path);
        }

        let (frames, events) = service.tick_frames().expect("scripted tick succeeds");
        out.ticks += 1;
        out.decision_frames += frames.len() as u64;
        let mut cohort = Vec::new();
        for frame in &frames {
            let decision = DecisionFrame::decode(frame).expect("service emits valid frames");
            match decision.verdict {
                Verdict::Admitted => {
                    out.admitted += 1;
                    if spanning_seqs.contains(&decision.flow) {
                        out.spanning_admitted += 1;
                    }
                    cohort.push(decision.flow);
                }
                Verdict::Rejected => out.rejected += 1,
                Verdict::Invalid => out.invalid += 1,
            }
        }
        live.push_back(cohort);
        for event in &events {
            match event {
                ServiceEvent::Capacity { .. } => out.capacity_events += 1,
                ServiceEvent::Departed { found: true, .. } => out.departed += 1,
                _ => {}
            }
        }
        // Flows shed then definitively rejected never see a depart; the
        // cohorts above only hold wire-confirmed admissions, so the
        // loop terminates once offers stop.
        if offered >= flows && live.iter().all(|cohort| cohort.is_empty()) {
            break;
        }
    }

    out.submissions = service.submissions();
    out.decision_hash = service.decision_hash();
    let snapshot = service.obs_snapshot();
    (out, snapshot)
}

/// Runs the same script at 1 and 4 workers and returns the common
/// decision hash, or an error describing the divergence.
pub fn determinism_check(seed: u64, flows: u64, shards: usize) -> Result<u64, String> {
    let run =
        |workers| run_service_script(seed, flows, shards, workers, &dmc_obs::Obs::disabled()).0;
    let (sequential, parallel) = (run(1), run(4));
    if sequential.decision_hash != parallel.decision_hash {
        return Err(format!(
            "decision hashes diverge across worker counts: {:#x} (1 worker) vs {:#x} (4 workers)",
            sequential.decision_hash, parallel.decision_hash
        ));
    }
    Ok(sequential.decision_hash)
}

/// Renders one outcome as the driver's report block.
pub fn render(out: &ServiceOutcome) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "- {} shard(s) × 2 paths, {} worker(s): {} submission(s) over {} tick(s), \
         {} decision frame(s)\n",
        out.shards, out.workers, out.submissions, out.ticks, out.decision_frames
    ));
    s.push_str(&format!(
        "- admitted {} ({} spanning), rejected {}, invalid {}, departed {}\n",
        out.admitted, out.spanning_admitted, out.rejected, out.invalid, out.departed
    ));
    s.push_str(&format!(
        "- {} capacity event(s), {} corrupted frame(s) dropped\n",
        out.capacity_events, out.frames_dropped
    ));
    s.push_str(&format!("- decision hash {:#018x}\n", out.decision_hash));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic_and_worker_invariant() {
        let run =
            |seed, workers| run_service_script(seed, 48, 4, workers, &dmc_obs::Obs::disabled()).0;
        let (a, b) = (run(0xFEED, 1), run(0xFEED, 4));
        assert_eq!(a.decision_hash, b.decision_hash);
        assert_eq!(
            a,
            ServiceOutcome {
                workers: a.workers,
                ..b.clone()
            },
            "whole outcome must be worker-invariant"
        );
        assert!(a.admitted > 0, "script admits flows: {a:?}");
        assert!(a.invalid > 0, "script exercises invalid offers");
        assert!(a.frames_dropped > 0, "script exercises corrupted frames");
        assert!(a.capacity_events > 0, "script exercises link changes");
        // Different seed, different stream.
        let c = run(0xBEEF, 1);
        assert_ne!(a.decision_hash, c.decision_hash);
    }
}
