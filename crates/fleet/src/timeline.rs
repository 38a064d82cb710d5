//! Deterministic event timelines: arrival traces a fleet can replay.
//!
//! A [`FleetTrace`] is a validated, time-sorted schedule of
//! [`FleetEvent`]s — `Arrive`/`Depart` plus the [`dmc_sim::LinkChange`]
//! vocabulary (`Fail`/`Recover`/`SetBandwidth`/`SetLoss`) — mirroring how
//! [`dmc_sim::Dynamics`] schedules link changes for the simulator.
//! Replaying the same trace through fresh [`FleetPlanner`]s produces
//! bit-identical snapshot sequences (the `admission_invariants` test pins
//! this), which is what lets the experiment layer sweep offered load with
//! Monte-Carlo trials whose aggregates are thread-count independent.
//!
//! Two replay modes consume a trace:
//!
//! * [`FleetPlanner::replay`] — the instant planner: events run in
//!   order and timestamps are informational only.
//! * [`SchedulePlanner::replay`] — the slotted planner: each event's
//!   timestamp is mapped to its [`TimeGrid`] slot, the horizon advances
//!   to it, and arrivals become windowed offers covering the flow's
//!   lifetime — so the *same* trace exercises expiry, truncation and
//!   slot-based revival. With a single-slot horizon wider than the
//!   trace, the slotted replay degenerates to the instant one
//!   (`tests/schedule_parity.rs` pins this).

use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::planner::{AdmissionDecision, FleetPlanner};
use crate::schedule::{
    ScheduleAdvance, ScheduleDecision, SchedulePlanner, ScheduleRequest, ScheduleShuffle,
    SlotWindow,
};
use dmc_sim::LinkChange;

/// One fleet-level event.
#[derive(Debug, Clone)]
pub enum FleetEvent {
    /// A flow asks for admission.
    Arrive(FlowRequest),
    /// An admitted flow leaves (ids are offer-ordered; see [`FlowId`]).
    /// Departing a flow that was rejected — or definitively rejected
    /// after being shed — is a no-op during replay, so traces can
    /// schedule departures without knowing admission outcomes in
    /// advance; departing a flow waiting in the re-admission queue
    /// withdraws it.
    Depart(FlowId),
    /// A shared link changes (the [`dmc_sim::Dynamics`] vocabulary).
    Link {
        /// Shared path index, 0-based.
        path: usize,
        /// The change itself.
        change: LinkChange,
    },
}

/// One scheduled event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When the event happens (seconds). [`FleetPlanner::replay`] only
    /// uses it for ordering; [`SchedulePlanner::replay`] maps it to a
    /// [`TimeGrid`](crate::TimeGrid) slot and advances the horizon to it.
    pub at: f64,
    /// What happens.
    pub event: FleetEvent,
}

/// A validated schedule of fleet events, kept sorted by time (FIFO within
/// ties, like [`dmc_sim::Dynamics`]).
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    events: Vec<TraceEvent>,
}

impl FleetTrace {
    /// An empty trace.
    pub fn new() -> Self {
        FleetTrace::default()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by time (insertion order within ties).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn push(mut self, at: f64, event: FleetEvent) -> Result<Self, FleetError> {
        if !(at >= 0.0) || !at.is_finite() {
            return Err(FleetError::Invalid(format!(
                "event time must be finite and ≥ 0, got {at}"
            )));
        }
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, TraceEvent { at, event });
        Ok(self)
    }

    /// Schedules an arrival at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects non-finite/negative times.
    pub fn arrive(self, at_s: f64, request: FlowRequest) -> Result<Self, FleetError> {
        self.push(at_s, FleetEvent::Arrive(request))
    }

    /// Schedules a departure at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects non-finite/negative times.
    pub fn depart(self, at_s: f64, flow: FlowId) -> Result<Self, FleetError> {
        self.push(at_s, FleetEvent::Depart(flow))
    }

    /// Schedules a link change at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects non-finite/negative times (path/change validity is checked
    /// at replay time, against the fleet's actual paths).
    pub fn link(self, at_s: f64, path: usize, change: LinkChange) -> Result<Self, FleetError> {
        self.push(at_s, FleetEvent::Link { path, change })
    }
}

/// The fleet's state right after one replayed event.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// The event's scheduled time.
    pub at: f64,
    /// The admission decision, for `Arrive` events.
    pub decision: Option<AdmissionDecision>,
    /// The flow that left, for effective `Depart` events (`None` when the
    /// departure was a no-op because the flow was never admitted).
    pub departed: Option<FlowId>,
    /// Flows shed into the re-admission queue by a link change (empty
    /// otherwise).
    pub shed: Vec<FlowId>,
    /// Flows revived from the re-admission queue by this event's sweep
    /// (link changes and departures both free capacity; empty otherwise).
    pub revived: Vec<FlowId>,
    /// Admitted flows after the event, in admission order.
    pub admitted: Vec<FlowId>,
    /// Per-path utilization after the event.
    pub utilization: Vec<f64>,
    /// Rate-weighted mean quality of the admitted flows after the event.
    pub aggregate_quality: f64,
}

impl FleetPlanner {
    /// Replays a trace event by event, returning one [`FleetSnapshot`]
    /// per event.
    ///
    /// Replay is deterministic: the same trace through the same initial
    /// fleet state yields bit-identical snapshots, regardless of thread
    /// counts or environment.
    ///
    /// # Errors
    ///
    /// Forwards [`FleetPlanner::offer`]/[`FleetPlanner::apply_link_change`]
    /// errors. Departing a never-admitted flow is a recorded no-op, not an
    /// error (see [`FleetEvent::Depart`]).
    pub fn replay(&mut self, trace: &FleetTrace) -> Result<Vec<FleetSnapshot>, FleetError> {
        let mut snapshots = Vec::with_capacity(trace.events().len());
        for e in trace.events() {
            let revived_before = self.revived_flows().len();
            let (decision, departed, shed) = match &e.event {
                FleetEvent::Arrive(request) => {
                    (Some(self.offer(request.clone())?), None, Vec::new())
                }
                FleetEvent::Depart(id) => match self.depart(*id) {
                    Ok(_) => (None, Some(*id), Vec::new()),
                    Err(FleetError::UnknownFlow(_)) => (None, None, Vec::new()),
                    Err(other) => return Err(other),
                },
                FleetEvent::Link { path, change } => {
                    (None, None, self.apply_link_change(*path, change)?)
                }
            };
            snapshots.push(FleetSnapshot {
                at: e.at,
                decision,
                departed,
                shed,
                revived: self.revived_flows()[revived_before..].to_vec(),
                admitted: self.flow_ids(),
                utilization: self.utilization(),
                aggregate_quality: self.aggregate_quality(),
            });
        }
        Ok(snapshots)
    }
}

/// The slotted fleet's state right after one replayed event.
#[derive(Debug, Clone)]
pub struct ScheduleSnapshot {
    /// The event's scheduled time.
    pub at: f64,
    /// The [`TimeGrid`](crate::TimeGrid) slot the time maps to.
    pub slot: u64,
    /// What advancing the horizon to the event's slot did (`None` when
    /// the event landed in the current origin slot).
    pub advance: Option<ScheduleAdvance>,
    /// The scheduling decision, for `Arrive` events.
    pub decision: Option<ScheduleDecision>,
    /// The flow that left, for effective `Depart` events.
    pub departed: Option<FlowId>,
    /// Who a link change rescheduled or dropped, for `Link` events.
    pub shuffle: Option<ScheduleShuffle>,
    /// Scheduled flows after the event, in admission order.
    pub active: Vec<FlowId>,
    /// Volume-weighted mean predicted quality after the event.
    pub aggregate_quality: f64,
}

impl SchedulePlanner {
    /// Replays a trace against the slotted horizon: each event's
    /// timestamp is mapped to its slot, the horizon advances to it
    /// (expiring and truncating windows on the way), and arrivals
    /// become windowed offers — the window opens at the event's slot
    /// and spans the flow's lifetime, rounded up to whole slots and
    /// clamped to the horizon.
    ///
    /// Replay is deterministic: the same trace through the same initial
    /// state yields bit-identical snapshots.
    ///
    /// # Errors
    ///
    /// Forwards offer/advance/link errors. Departing a never-admitted
    /// flow is a recorded no-op, matching [`FleetPlanner::replay`].
    pub fn replay(&mut self, trace: &FleetTrace) -> Result<Vec<ScheduleSnapshot>, FleetError> {
        let mut snapshots = Vec::with_capacity(trace.events().len());
        for e in trace.events() {
            let slot = self.grid().slot_of(e.at)?;
            let advance = if slot > self.grid().origin() {
                Some(self.advance_to(slot)?)
            } else {
                None
            };
            let (decision, departed, shuffle) = match &e.event {
                FleetEvent::Arrive(request) => {
                    let width = self.grid().slot_width();
                    let len = ((request.lifetime() / width).ceil() as u64).max(1);
                    let start = slot.max(self.grid().origin());
                    let end = start.saturating_add(len).min(self.grid().end());
                    let window = SlotWindow::new(start, end)
                        .expect("the horizon always extends past its origin slot");
                    let offer = self.offer(ScheduleRequest::new(request.clone(), window))?;
                    (Some(offer), None, None)
                }
                FleetEvent::Depart(id) => match self.depart(*id) {
                    Ok(()) => (None, Some(*id), None),
                    Err(FleetError::UnknownFlow(_)) => (None, None, None),
                    Err(other) => return Err(other),
                },
                FleetEvent::Link { path, change } => {
                    (None, None, Some(self.apply_link_change(*path, change)?))
                }
            };
            snapshots.push(ScheduleSnapshot {
                at: e.at,
                slot,
                advance,
                decision,
                departed,
                shuffle,
                active: self.flow_ids(),
                aggregate_quality: self.aggregate_quality(),
            });
        }
        Ok(snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::FleetConfig;
    use crate::schedule::TimeGrid;
    use dmc_core::ScenarioPath;

    fn paths() -> Vec<ScenarioPath> {
        vec![
            ScenarioPath::constant(80e6, 0.450, 0.2).unwrap(),
            ScenarioPath::constant(20e6, 0.150, 0.0).unwrap(),
        ]
    }

    fn sample_trace() -> FleetTrace {
        FleetTrace::new()
            .arrive(
                0.0,
                FlowRequest::new(40e6, 0.8).unwrap().with_min_quality(0.8),
            )
            .unwrap()
            .arrive(1.0, FlowRequest::new(30e6, 0.6).unwrap())
            .unwrap()
            .link(2.0, 0, LinkChange::SetBandwidth(40e6))
            .unwrap()
            .depart(3.0, FlowId::new(0))
            .unwrap()
            .depart(3.5, FlowId::new(7)) // never offered: replay no-op
            .unwrap()
    }

    #[test]
    fn trace_stays_time_sorted_and_validates_times() {
        let t = FleetTrace::new()
            .depart(5.0, FlowId::new(0))
            .unwrap()
            .arrive(1.0, FlowRequest::new(1e6, 0.5).unwrap())
            .unwrap();
        assert_eq!(t.events().len(), 2);
        assert!(t.events()[0].at < t.events()[1].at);
        assert!(FleetTrace::new().depart(f64::NAN, FlowId::new(0)).is_err());
        assert!(FleetTrace::new().depart(-1.0, FlowId::new(0)).is_err());
        assert!(FleetTrace::new().is_empty());
    }

    #[test]
    fn replay_walks_the_whole_trace() {
        let mut fleet = FleetPlanner::new(paths(), FleetConfig::default()).unwrap();
        let snaps = fleet.replay(&sample_trace()).unwrap();
        assert_eq!(snaps.len(), 5);
        // Both arrivals admitted.
        assert!(snaps[0].decision.as_ref().unwrap().is_admitted());
        assert!(snaps[1].decision.as_ref().unwrap().is_admitted());
        assert_eq!(snaps[1].admitted.len(), 2);
        // The bandwidth cut keeps both only if floors still fit.
        assert!(snaps[2].admitted.len() + snaps[2].shed.len() == 2);
        // flow#0 departs (if it survived the link change).
        if snaps[2].admitted.contains(&FlowId::new(0)) {
            assert_eq!(snaps[3].departed, Some(FlowId::new(0)));
        }
        // Departing a never-admitted id is a recorded no-op.
        assert_eq!(snaps[4].departed, None);
        assert_eq!(snaps[4].admitted, snaps[3].admitted);
    }

    #[test]
    fn slotted_replay_honors_event_timestamps() {
        let grid = TimeGrid::new(1.0, 8).unwrap();
        let mut fleet = SchedulePlanner::new(paths(), grid, FleetConfig::default()).unwrap();
        let snaps = fleet.replay(&sample_trace()).unwrap();
        assert_eq!(snaps.len(), 5);
        // Timestamps map to slots instead of being flattened to "now".
        assert_eq!(
            snaps.iter().map(|s| s.slot).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 3]
        );
        // The first event lands in the origin slot: no advance.
        assert!(snaps[0].advance.is_none());
        assert!(snaps[0].decision.as_ref().unwrap().is_scheduled());
        // Crossing into slot 1 advances the horizon, completing flow#0
        // (lifetime 0.8 s rounds up to the one-slot window [0, 1)).
        let adv = snaps[1].advance.as_ref().unwrap();
        assert_eq!(adv.completed, vec![FlowId::new(0)]);
        assert!(snaps[1].decision.as_ref().unwrap().is_scheduled());
        // By slot 2 both short flows have completed, so the bandwidth
        // cut shuffles nobody.
        assert!(snaps[2].shuffle.as_ref().unwrap().is_quiet());
        assert!(snaps[2].active.is_empty());
        // flow#0 already completed: its departure is a recorded no-op.
        assert_eq!(snaps[3].departed, None);
        assert_eq!(snaps[4].departed, None);
    }

    #[test]
    fn slotted_replay_of_absurd_times_is_a_typed_error_not_an_overflow() {
        let slotted = || {
            let grid = TimeGrid::new(1.0, 8).unwrap();
            SchedulePlanner::new(paths(), grid, FleetConfig::default()).unwrap()
        };
        // t = 1e30 s saturates the slot number: no horizon fits there.
        let far = FleetTrace::new()
            .arrive(1e30, FlowRequest::new(1e6, 0.5).unwrap())
            .unwrap();
        assert!(matches!(
            slotted().replay(&far),
            Err(FleetError::Invalid(_))
        ));
        // A lifetime of 1e30 slots past slot 1 is clamped to the horizon.
        let long = FleetTrace::new()
            .arrive(1.0, FlowRequest::new(1e6, 1e30).unwrap())
            .unwrap();
        let snaps = slotted().replay(&long).unwrap();
        let window = snaps[0].decision.as_ref().unwrap().window();
        assert_eq!(window, Some(SlotWindow::new(1, 9).unwrap()));
    }

    #[test]
    fn slotted_replay_is_deterministic_across_fresh_fleets() {
        let run = || {
            let grid = TimeGrid::new(1.0, 8).unwrap();
            let mut fleet = SchedulePlanner::new(paths(), grid, FleetConfig::default()).unwrap();
            fleet.replay(&sample_trace()).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.active, y.active);
            assert_eq!(x.aggregate_quality, y.aggregate_quality); // bitwise
        }
    }

    #[test]
    fn replay_is_deterministic_across_fresh_fleets() {
        let run = || {
            let mut fleet = FleetPlanner::new(paths(), FleetConfig::default()).unwrap();
            fleet.replay(&sample_trace()).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.admitted, y.admitted);
            assert_eq!(x.utilization, y.utilization); // bitwise
            assert_eq!(x.aggregate_quality, y.aggregate_quality);
        }
    }
}
