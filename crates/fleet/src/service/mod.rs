//! `dmc-fleetd` — the sharded, concurrent fleet admission service.
//!
//! [`FleetPlanner`](crate::FleetPlanner) is a single-threaded library
//! object: one lock around it would serialize every offer and departure
//! of a million-flow deployment. This module is the service layer that
//! removes that bottleneck without touching the solver:
//!
//! * **Region sharding** ([`RegionMap`]) — the shared paths are
//!   partitioned into *capacity regions* by union-find over declared
//!   path groups: two paths land in the same region exactly when some
//!   expected flow class may use both. Flows with disjoint path sets
//!   never share a capacity row of the joint LP, so each region gets its
//!   own planner (and its own warm-basis cache) and regions never
//!   contend.
//! * **Shard router + workers** ([`FleetService`]) — submissions are
//!   sequence-numbered and queued per shard; [`FleetService::tick`]
//!   drains every queue in one *batched tick*, with the shards split
//!   across `std::thread` scoped workers. Within a shard, consecutive
//!   offers collapse into one [`offer_batch`](crate::FleetPlanner::offer_batch)
//!   solve and consecutive departures into one
//!   [`depart_batch`](crate::FleetPlanner::depart_batch) solve. Flows
//!   whose path set spans regions go through a deterministic two-phase
//!   reserve/commit after the parallel phase, with rollback on any
//!   shard's refusal.
//! * **Wire front end** — [`FleetService::handle_frame`] and
//!   [`FleetService::tick_frames`] speak the checksummed
//!   [`dmc_proto::wire`] Offer/Decision/Depart/LinkChange frames, so the
//!   chaos harness and the `fleet_service` bench drive the service
//!   end-to-end over encoded bytes.
//!
//! # Determinism contract
//!
//! Per-shard event streams are independent (a shard only ever touches
//! its own planner), the workers partition the shards into contiguous
//! chunks, and the router merges each tick's events in submission
//! sequence order — so a fixed submission script produces **bitwise
//! identical** decisions, plans and [`FleetService::decision_hash`] at
//! *any* worker count (`tests/service.rs` pins workers 1 vs 4).
//!
//! # The reservation plane
//!
//! Each region holds one [`SchedulePlanner`](crate::SchedulePlanner),
//! over [`ServiceConfig::grid`] when it carries a
//! [`TimeGrid`](crate::TimeGrid) and over the one-slot grid otherwise.
//! With a grid, windowed offers ([`FleetService::offer_windowed`]) are
//! answered **synchronously** with a
//! [`ScheduleDecision`](crate::ScheduleDecision) — scheduled in the
//! requested [`SlotWindow`](crate::SlotWindow), *reserved* for the
//! earliest feasible later window, or rejected — and
//! [`FleetService::advance_to`] slides every region's horizon in step.
//! The instant flows hold the origin slot of the same joint LP: a
//! windowed offer sees them, and an advance moves them (those that no
//! longer fit are shed and reported at the next tick).
//!
//! # Example
//!
//! ```
//! use dmc_core::ScenarioPath;
//! use dmc_fleet::service::{FleetService, ServiceConfig};
//! use dmc_fleet::{FlowRequest, ScheduleRequest, ServiceEvent, SlotWindow, TimeGrid};
//!
//! # fn main() -> Result<(), dmc_fleet::FleetError> {
//! let paths = vec![
//!     ScenarioPath::constant(80e6, 0.450, 0.2)?,
//!     ScenarioPath::constant(20e6, 0.150, 0.0)?,
//! ];
//! let config = ServiceConfig {
//!     grid: Some(TimeGrid::new(0.5, 8)?), // enable the reservation plane
//!     ..ServiceConfig::default()
//! };
//! // One declared flow class may use both paths → one capacity region.
//! let mut service = FleetService::new(paths, &[vec![0, 1]], config)?;
//!
//! // Instant plane: queue an offer, tick, read the decision.
//! let seq = service.submit(FlowRequest::new(30e6, 0.8)?)?;
//! let events = service.tick()?;
//! assert!(matches!(
//!     events[0],
//!     ServiceEvent::Decision { seq: s, admitted: true, .. } if s == seq
//! ));
//!
//! // Reservation plane: a windowed offer is answered synchronously.
//! let request = ScheduleRequest::new(FlowRequest::new(20e6, 0.8)?, SlotWindow::new(0, 2)?);
//! let (region, decision) = service.offer_windowed(request)?;
//! assert!(decision.is_admitted());
//! // Slide the horizon past the window: the flow completes.
//! let advances = service.advance_to(2)?;
//! assert_eq!(advances[region].completed, vec![decision.id()]);
//! # Ok(())
//! # }
//! ```

mod region;
mod router;
mod shard;
mod wire;

pub use region::RegionMap;
pub use router::{FleetService, ServiceConfig, ServiceEvent};

use std::sync::atomic::{AtomicBool, Ordering};

/// Warn at most once per process about an unparseable `DMC_THREADS`.
static WARNED_BAD_DMC_THREADS: AtomicBool = AtomicBool::new(false);

/// Resolves a requested worker count for the service (and for the
/// Monte-Carlo trial pool, which delegates here): a nonzero request wins
/// verbatim; `0` defers to the `DMC_THREADS` environment variable, then
/// to the machine's available parallelism.
///
/// Thin shim over [`resolved_workers_with`] with a disabled telemetry
/// registry: an unparseable `DMC_THREADS` warns on stderr at most once
/// per process. Callers that own an [`dmc_obs::Obs`] should prefer
/// [`resolved_workers_with`], which records the warning as a structured
/// [`dmc_obs::WarningRecord`] instead.
pub fn resolved_workers(requested: usize) -> usize {
    resolved_workers_with(requested, &dmc_obs::Obs::disabled())
}

/// [`resolved_workers`] with a telemetry registry.
///
/// Parsed environment values are clamped to ≥ 1 — `DMC_THREADS=0` used
/// to parse "successfully" and configure a zero-width pool — and an
/// unparseable value is treated as unset instead of being silently
/// swallowed. With an enabled registry the mishap is recorded once per
/// registry under the warning key `service.bad_dmc_threads` (message,
/// occurrence count) and echoed to stderr on first sight; with a
/// disabled registry it falls back to a once-per-process stderr line.
pub fn resolved_workers_with(requested: usize, obs: &dmc_obs::Obs) -> usize {
    if requested != 0 {
        return requested;
    }
    match std::env::var("DMC_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                let message = format!("DMC_THREADS={raw:?} is not a number; treating it as unset");
                let first = if obs.is_enabled() {
                    obs.warn_once("service.bad_dmc_threads", message.clone())
                } else {
                    !WARNED_BAD_DMC_THREADS.swap(true, Ordering::Relaxed)
                };
                if first {
                    eprintln!("warning: {message}");
                }
                available_parallelism()
            }
        },
        Err(_) => available_parallelism(),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_workers_clamps_and_falls_back() {
        // One test mutates the process environment for every case, so
        // the cases cannot race each other across #[test] threads.
        assert_eq!(resolved_workers(3), 3);

        std::env::set_var("DMC_THREADS", "2");
        assert_eq!(resolved_workers(0), 2);
        // An explicit request still beats the environment.
        assert_eq!(resolved_workers(5), 5);

        // The regression: DMC_THREADS=0 parses, and used to configure a
        // zero-width pool; it must clamp to one worker.
        std::env::set_var("DMC_THREADS", "0");
        assert_eq!(resolved_workers(0), 1);

        // Unparseable values fall back to the machine default (≥ 1)
        // instead of being silently treated as a count.
        std::env::set_var("DMC_THREADS", "lots");
        assert!(resolved_workers(0) >= 1);

        // With a registry, the mishap becomes a structured warning:
        // first message wins, later sightings only bump the count.
        let obs = dmc_obs::Obs::enabled();
        assert!(resolved_workers_with(0, &obs) >= 1);
        assert!(resolved_workers_with(0, &obs) >= 1);
        let snap = obs.snapshot();
        let warning = snap
            .warnings
            .iter()
            .find(|w| w.key == "service.bad_dmc_threads")
            .expect("bad DMC_THREADS recorded as a warning");
        assert_eq!(warning.count, 2);
        assert!(warning.message.contains("lots"));

        std::env::remove_var("DMC_THREADS");
        assert!(resolved_workers(0) >= 1);
    }
}
