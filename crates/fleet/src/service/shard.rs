//! One capacity region's worker-side state: a [`FleetPlanner`] over the
//! region's path subset, the global↔local id maps, and the tick queue.

use std::collections::BTreeMap;

use dmc_core::{Plan, ScenarioPath};
use dmc_sim::LinkChange;

use super::router::ServiceEvent;
use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::planner::{AdmissionDecision, FleetConfig, FleetPlanner};
use crate::schedule::{
    ScheduleAdvance, ScheduleDecision, SchedulePlanner, ScheduleRequest, TimeGrid,
};

/// One queued submission, already localized to this shard (path indices
/// are shard-local; `seq` is the global submission sequence number).
#[derive(Debug, Clone)]
pub(crate) enum ShardOp {
    /// Offer a flow whose whole path set lives in this region.
    Offer {
        /// Global submission sequence — doubles as the flow's global id.
        seq: u64,
        /// The request, with `paths()` rewritten to shard-local indices.
        request: FlowRequest,
    },
    /// Depart a flow this shard owns.
    Depart {
        /// Global submission sequence of the departure itself.
        seq: u64,
        /// Global id of the departing flow.
        flow: u64,
    },
    /// Apply a link change to one of this shard's paths.
    Link {
        /// Global submission sequence of the change.
        seq: u64,
        /// Shard-local path index.
        path: usize,
        /// The change, in [`dmc_sim::LinkChange`] vocabulary.
        change: LinkChange,
    },
}

/// One region's planner plus the bookkeeping the router needs: which
/// global flow ids map to which local [`FlowId`]s, the queue of ops for
/// the next tick, and the events the last tick produced.
///
/// A shard is self-contained — it never touches another shard's state —
/// which is what makes the router's parallel tick phase deterministic.
pub(crate) struct Shard {
    /// Sorted global indices of this region's paths.
    paths: Vec<usize>,
    /// This shard's private telemetry fork (never the router's parent
    /// registry): the parallel tick phase records into it freely, and
    /// the router absorbs every fork in shard order at snapshot time.
    obs: dmc_obs::Obs,
    planner: FleetPlanner,
    /// The optional slotted reservation plane over the same path subset
    /// (present iff [`super::ServiceConfig`] carries a [`TimeGrid`]).
    /// It shares this shard's telemetry fork, so its
    /// `fleet.reservations`/`fleet.carryover` counters surface through
    /// the router's snapshot merge like everything else.
    schedule: Option<SchedulePlanner>,
    /// Global flow id (submission seq) → local planner id.
    to_local: BTreeMap<u64, FlowId>,
    /// Local planner id → global flow id.
    to_global: BTreeMap<FlowId, u64>,
    queue: Vec<ShardOp>,
    out: Vec<ServiceEvent>,
    error: Option<FleetError>,
}

impl Shard {
    pub(crate) fn new(
        global_paths: Vec<usize>,
        subset: Vec<ScenarioPath>,
        config: FleetConfig,
        grid: Option<TimeGrid>,
    ) -> Result<Self, FleetError> {
        let obs = config.obs.clone();
        let schedule = match grid {
            Some(grid) => Some(SchedulePlanner::new(subset.clone(), grid, config.clone())?),
            None => None,
        };
        Ok(Shard {
            paths: global_paths,
            obs,
            planner: FleetPlanner::new(subset, config)?,
            schedule,
            to_local: BTreeMap::new(),
            to_global: BTreeMap::new(),
            queue: Vec::new(),
            out: Vec::new(),
            error: None,
        })
    }

    /// Sorted global indices of this region's paths.
    pub(crate) fn global_paths(&self) -> &[usize] {
        &self.paths
    }

    /// The shard's telemetry fork (for the router's snapshot merge).
    pub(crate) fn obs(&self) -> &dmc_obs::Obs {
        &self.obs
    }

    /// Submissions currently queued for the next tick.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Maps a global path index into this shard (`None` if not ours).
    pub(crate) fn local_path_index(&self, global: usize) -> Option<usize> {
        self.paths.binary_search(&global).ok()
    }

    pub(crate) fn enqueue(&mut self, op: ShardOp) {
        self.queue.push(op);
    }

    pub(crate) fn take_error(&mut self) -> Option<FleetError> {
        self.error.take()
    }

    pub(crate) fn drain_out(&mut self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.out)
    }

    /// The shard-local utilization vector, paired with global indices via
    /// [`Shard::global_paths`].
    pub(crate) fn utilization(&self) -> Vec<f64> {
        self.planner.utilization()
    }

    pub(crate) fn num_flows(&self) -> usize {
        self.planner.num_flows()
    }

    pub(crate) fn plan_of_global(&self, flow: u64) -> Option<&Plan> {
        self.to_local
            .get(&flow)
            .and_then(|local| self.planner.plan_of(*local))
    }

    pub(crate) fn plan_local(&self, local: FlowId) -> Option<&Plan> {
        self.planner.plan_of(local)
    }

    /// Whether this shard still tracks a global flow id (admitted or
    /// queued for re-admission).
    pub(crate) fn owns(&self, flow: u64) -> bool {
        self.to_local.contains_key(&flow)
    }

    /// Runs every queued op in submission order: consecutive offers
    /// collapse into one `offer_batch` solve, consecutive departures into
    /// one `depart_batch` solve, link changes run singly. The first
    /// planner error aborts the tick (remaining ops are dropped) and is
    /// surfaced through [`Shard::take_error`].
    pub(crate) fn run_tick(&mut self) {
        let ops = std::mem::take(&mut self.queue);
        let mut i = 0;
        while i < ops.len() && self.error.is_none() {
            match &ops[i] {
                ShardOp::Offer { .. } => {
                    let mut seqs = Vec::new();
                    let mut requests = Vec::new();
                    while let Some(ShardOp::Offer { seq, request }) = ops.get(i) {
                        seqs.push(*seq);
                        requests.push(request.clone());
                        i += 1;
                    }
                    self.run_offers(&seqs, requests);
                }
                ShardOp::Depart { .. } => {
                    let mut departs = Vec::new();
                    while let Some(ShardOp::Depart { seq, flow }) = ops.get(i) {
                        departs.push((*seq, *flow));
                        i += 1;
                    }
                    self.run_departs(&departs);
                }
                ShardOp::Link { seq, path, change } => {
                    let (seq, path, change) = (*seq, *path, change.clone());
                    i += 1;
                    self.run_link(seq, path, &change);
                }
            }
        }
    }

    fn run_offers(&mut self, seqs: &[u64], requests: Vec<FlowRequest>) {
        self.obs
            .histogram("service.batch_size")
            .record(seqs.len() as u64);
        match self.planner.offer_batch(requests) {
            Ok(decisions) => {
                for (&seq, decision) in seqs.iter().zip(&decisions) {
                    match decision {
                        AdmissionDecision::Admitted {
                            id,
                            predicted_quality,
                        } => {
                            self.register(seq, *id);
                            self.out.push(ServiceEvent::Decision {
                                seq,
                                admitted: true,
                                predicted_quality: *predicted_quality,
                            });
                        }
                        AdmissionDecision::Rejected { .. } => {
                            self.out.push(ServiceEvent::Decision {
                                seq,
                                admitted: false,
                                predicted_quality: 0.0,
                            });
                        }
                    }
                }
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn run_departs(&mut self, departs: &[(u64, u64)]) {
        self.obs
            .histogram("service.batch_size")
            .record(departs.len() as u64);
        let mut known = Vec::new();
        for &(seq, flow) in departs {
            // A departure repeated within the tick (a retransmitted
            // frame) finds its flow already leaving.
            let leaving = known.iter().any(|&(_, leaving, _)| leaving == flow);
            match self.to_local.get(&flow).filter(|_| !leaving) {
                Some(&local) => known.push((seq, flow, local)),
                None => self.out.push(ServiceEvent::Departed {
                    seq,
                    flow,
                    found: false,
                }),
            }
        }
        let Some(&(last_seq, _, _)) = known.last() else {
            return;
        };
        let ids: Vec<FlowId> = known.iter().map(|&(_, _, local)| local).collect();
        match self.planner.depart_batch(&ids) {
            Ok(_) => {
                for &(seq, flow, local) in &known {
                    self.to_local.remove(&flow);
                    self.to_global.remove(&local);
                    self.out.push(ServiceEvent::Departed {
                        seq,
                        flow,
                        found: true,
                    });
                }
                // One batch = one capacity event = one revive sweep.
                if let Some(event) = self.capacity_event(last_seq, Vec::new()) {
                    self.out.push(event);
                }
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn run_link(&mut self, seq: u64, path: usize, change: &LinkChange) {
        // The reservation plane tracks the same links: forward the change
        // so future-window feasibility stays honest. Its reschedules are
        // internal (slot-based revival); drops surface via its counters.
        if let Some(schedule) = &mut self.schedule {
            if let Err(e) = schedule.apply_link_change(path, change) {
                self.error = Some(e);
                return;
            }
        }
        match self.planner.apply_link_change(path, change) {
            Ok(shed_ids) => {
                let shed: Vec<u64> = shed_ids.iter().map(|id| self.global_of(id)).collect();
                // Link changes always confirm with a capacity event, even
                // an empty one — the chaos harness keys off it.
                let event =
                    self.capacity_event(seq, shed.clone())
                        .unwrap_or(ServiceEvent::Capacity {
                            seq,
                            shed,
                            revived: Vec::new(),
                            rejected: Vec::new(),
                        });
                self.out.push(event);
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Offer an already-localized windowed request to the reservation
    /// plane (router's sequential control path — windowed offers never
    /// ride the tick queue).
    pub(crate) fn offer_windowed(
        &mut self,
        request: ScheduleRequest,
    ) -> Result<ScheduleDecision, FleetError> {
        self.schedule
            .as_mut()
            .ok_or_else(|| {
                FleetError::Invalid("windowed offers need a TimeGrid in ServiceConfig::grid".into())
            })?
            .offer(request)
    }

    /// Withdraw a windowed flow from the reservation plane.
    pub(crate) fn depart_windowed(&mut self, id: FlowId) -> Result<(), FleetError> {
        self.schedule
            .as_mut()
            .ok_or_else(|| {
                FleetError::Invalid("windowed offers need a TimeGrid in ServiceConfig::grid".into())
            })?
            .depart(id)
    }

    /// Advances the reservation plane's horizon. The router only calls
    /// this on shards built with a grid.
    pub(crate) fn advance_schedule(
        &mut self,
        new_origin: u64,
    ) -> Result<ScheduleAdvance, FleetError> {
        self.schedule
            .as_mut()
            .expect("the router only advances shards built with a grid")
            .advance_to(new_origin)
    }

    /// The shard's reservation plane, when configured.
    pub(crate) fn schedule(&self) -> Option<&SchedulePlanner> {
        self.schedule.as_ref()
    }

    /// Offer one already-localized leg of a spanning flow directly
    /// (router's sequential reserve phase).
    pub(crate) fn offer_local(
        &mut self,
        request: FlowRequest,
    ) -> Result<AdmissionDecision, FleetError> {
        self.planner.offer(request)
    }

    /// Withdraw a reserved-but-uncommitted spanning leg (rollback). The
    /// freed capacity may revive previously shed flows, so a capacity
    /// event can be emitted into `events`.
    pub(crate) fn rollback_reservation(
        &mut self,
        seq: u64,
        local: FlowId,
        events: &mut Vec<ServiceEvent>,
    ) -> Result<(), FleetError> {
        self.planner.depart(local)?;
        if let Some(event) = self.capacity_event(seq, Vec::new()) {
            events.push(event);
        }
        Ok(())
    }

    /// Depart one committed spanning leg (router's sequential phase).
    pub(crate) fn depart_local(
        &mut self,
        seq: u64,
        local: FlowId,
        events: &mut Vec<ServiceEvent>,
    ) -> Result<(), FleetError> {
        if let Some(flow) = self.to_global.remove(&local) {
            self.to_local.remove(&flow);
        }
        self.planner.depart(local)?;
        if let Some(event) = self.capacity_event(seq, Vec::new()) {
            events.push(event);
        }
        Ok(())
    }

    /// Register a committed flow (or spanning leg) under its global id.
    pub(crate) fn register(&mut self, flow: u64, local: FlowId) {
        self.to_local.insert(flow, local);
        self.to_global.insert(local, flow);
    }

    /// Drains the planner's per-event revive/reject lists into one
    /// capacity event (translating local ids to global), or `None` when
    /// nothing happened. Definitively rejected flows leave the maps.
    fn capacity_event(&mut self, seq: u64, shed: Vec<u64>) -> Option<ServiceEvent> {
        let revived: Vec<u64> = self
            .planner
            .drain_revived()
            .iter()
            .map(|id| self.global_of(id))
            .collect();
        let rejected: Vec<u64> = self
            .planner
            .drain_shed_rejected()
            .iter()
            .map(|id| self.global_of(id))
            .collect();
        for flow in &rejected {
            if let Some(local) = self.to_local.remove(flow) {
                self.to_global.remove(&local);
            }
        }
        if shed.is_empty() && revived.is_empty() && rejected.is_empty() {
            return None;
        }
        Some(ServiceEvent::Capacity {
            seq,
            shed,
            revived,
            rejected,
        })
    }

    fn global_of(&self, local: &FlowId) -> u64 {
        self.to_global
            .get(local)
            .copied()
            .expect("every shed or revived flow was registered at admission")
    }
}
