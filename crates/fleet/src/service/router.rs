//! The shard router: sequence-numbered submission, the batched parallel
//! tick, and the two-phase reserve/commit for region-spanning flows.

use std::collections::BTreeMap;

use dmc_core::{Plan, ScenarioPath};
use dmc_sim::LinkChange;

use super::region::RegionMap;
use super::resolved_workers_with;
use super::shard::{Shard, ShardOp};
use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::joint::{check_request_scale, check_scale};
use crate::planner::{AdmissionDecision, FleetConfig};
use crate::schedule::{ScheduleAdvance, ScheduleDecision, ScheduleRequest, TimeGrid};

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Configuration of a [`FleetService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads for the parallel tick phase. `0` (the default)
    /// resolves through
    /// [`resolved_workers_with`](super::resolved_workers_with): the
    /// `DMC_THREADS` environment variable (clamped to ≥ 1), then the
    /// machine's available parallelism. Resolved once, at construction.
    pub workers: usize,
    /// Per-shard planner configuration (every shard gets a clone).
    ///
    /// Its [`FleetConfig::obs`] registry is the service's **parent**
    /// telemetry registry. Each shard receives a private
    /// [`fork`](dmc_obs::Obs::fork) of it (so the parallel tick phase
    /// never races the router's own recordings), and
    /// [`FleetService::obs_snapshot`] absorbs the forks back into the
    /// parent's snapshot in shard order — deterministic at any worker
    /// count. The router records `service.ticks`, `service.events`,
    /// `service.queue_depth`, the spanning reserve/commit counters
    /// (`service.spanning_offers` = `.spanning_commits` +
    /// `.spanning_refusals`) and advances the logical clock by one tick
    /// per drained submission; shards record `service.batch_size` plus
    /// everything their planner and solver record.
    pub fleet: FleetConfig,
    /// Optional slotted reservation horizon. When set, every shard also
    /// carries a [`SchedulePlanner`](crate::SchedulePlanner) over the
    /// same [`TimeGrid`], and the service accepts windowed offers
    /// ([`FleetService::offer_windowed`]) and horizon advances
    /// ([`FleetService::advance_to`]). The instant admission plane
    /// (submit/tick) is unaffected. `None` (the default) disables the
    /// reservation plane.
    pub grid: Option<TimeGrid>,
}

/// One entry of a tick's merged, sequence-ordered event stream.
///
/// `seq` is always the global submission sequence number of the
/// submission that caused the event; an offer's `seq` doubles as the
/// flow's **global id** (ids are submission-ordered, across all shards).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// The answer to an offer.
    Decision {
        /// The offer's submission seq = the flow's global id.
        seq: u64,
        /// Whether the flow (every leg, if spanning) was admitted.
        admitted: bool,
        /// Rate-weighted predicted in-time fraction (0 when rejected).
        predicted_quality: f64,
    },
    /// The answer to a departure.
    Departed {
        /// The departure's own submission seq.
        seq: u64,
        /// The global id of the flow asked to depart.
        flow: u64,
        /// Whether the service knew the flow (an unknown or already
        /// departed id answers `false` and changes nothing).
        found: bool,
    },
    /// A capacity event: a link change or freed capacity shed, revived
    /// or definitively rejected flows (global ids). For a spanning flow
    /// these lists name the flow per affected region — one leg can be
    /// shed while the others stay admitted.
    Capacity {
        /// The submission seq of the causing link change or departure.
        seq: u64,
        /// Flows newly shed into the re-admission queue.
        shed: Vec<u64>,
        /// Previously shed flows the capacity again accommodates.
        revived: Vec<u64>,
        /// Shed flows that exhausted their re-admission attempts.
        rejected: Vec<u64>,
    },
    /// A wire-side offer whose parameters failed validation; it consumed
    /// `seq` and answers with a `Verdict::Invalid` decision frame.
    InvalidOffer {
        /// The submission seq the malformed offer consumed.
        seq: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl ServiceEvent {
    /// The submission sequence number this event answers — the tick's
    /// merge key.
    pub fn seq(&self) -> u64 {
        match self {
            ServiceEvent::Decision { seq, .. }
            | ServiceEvent::Departed { seq, .. }
            | ServiceEvent::Capacity { seq, .. }
            | ServiceEvent::InvalidOffer { seq, .. } => *seq,
        }
    }
}

/// Who owns a global flow id.
#[derive(Debug, Clone)]
enum Owner {
    /// The flow lives wholly in one shard.
    Single(usize),
    /// The flow was split across regions; each leg is (shard, local id).
    /// Empty until the spanning offer commits.
    Spanning(Vec<(usize, FlowId)>),
}

/// A submission that must run in the sequential phase (it touches more
/// than one shard).
#[derive(Debug, Clone)]
enum SpanOp {
    Offer {
        seq: u64,
        request: FlowRequest,
        regions: Vec<usize>,
    },
    Depart {
        seq: u64,
        flow: u64,
    },
}

/// `dmc-fleetd`: a sharded, concurrent admission service over one
/// [`FleetPlanner`](crate::FleetPlanner) per capacity region.
///
/// Submissions ([`FleetService::submit`], [`FleetService::submit_depart`],
/// [`FleetService::submit_link`]) are cheap: they take a global sequence
/// number and queue the op on the owning shard. [`FleetService::tick`]
/// then runs every shard's queue — in parallel across `workers` scoped
/// threads — and merges the answers into one sequence-ordered event
/// stream. Flows whose path set spans regions are admitted in a
/// sequential two-phase reserve/commit after the parallel phase: the
/// rate (and cost budget) is split across regions by live-bandwidth
/// share, legs are reserved in ascending region order, and any refusal
/// rolls the reserved legs back in reverse.
///
/// The event stream is bitwise deterministic for a fixed submission
/// script at any worker count; [`FleetService::decision_hash`] folds
/// every event into a running FNV-1a hash so two runs can be compared in
/// O(1).
pub struct FleetService {
    regions: RegionMap,
    shards: Vec<Shard>,
    workers: usize,
    next_seq: u64,
    owners: BTreeMap<u64, Owner>,
    pending_span: Vec<SpanOp>,
    /// Events answered at submit time (unknown departs, invalid wire
    /// offers), merged into the next tick's stream.
    immediate: Vec<ServiceEvent>,
    /// Router-side mirror of per-path live bandwidth, for spanning-flow
    /// rate splits (updated at [`FleetService::submit_link`] time).
    path_bandwidth: Vec<f64>,
    path_failed: Vec<bool>,
    decision_hash: u64,
    /// Wire front end: service seq → client-chosen frame tag.
    echo: BTreeMap<u64, u64>,
    /// The parent telemetry registry ([`ServiceConfig::fleet`]'s `obs`);
    /// each shard holds a private fork of it.
    obs: dmc_obs::Obs,
    /// The configured reservation grid, `None` when the slotted plane is
    /// off. The live grids (origin advances) are inside the shards.
    grid: Option<TimeGrid>,
}

impl FleetService {
    /// Builds the service: partitions `paths` into capacity regions by
    /// the declared path `groups` (see [`RegionMap::new`]) and gives
    /// each region its own planner shard.
    ///
    /// # Errors
    ///
    /// Invalid regions (empty fleet, out-of-range group indices) or a
    /// per-shard planner construction failure.
    pub fn new(
        paths: Vec<ScenarioPath>,
        groups: &[Vec<usize>],
        config: ServiceConfig,
    ) -> Result<Self, FleetError> {
        let regions = RegionMap::new(paths.len(), groups)?;
        let obs = config.fleet.obs.clone();
        let mut shards = Vec::with_capacity(regions.num_regions());
        for r in 0..regions.num_regions() {
            let global: Vec<usize> = regions.region_paths(r).to_vec();
            let subset: Vec<ScenarioPath> = global.iter().map(|&k| paths[k].clone()).collect();
            let mut shard_config = config.fleet.clone();
            shard_config.obs = obs.fork();
            shards.push(Shard::new(global, subset, shard_config, config.grid)?);
        }
        let path_bandwidth = paths.iter().map(ScenarioPath::bandwidth).collect();
        Ok(FleetService {
            regions,
            shards,
            workers: resolved_workers_with(config.workers, &obs),
            next_seq: 0,
            owners: BTreeMap::new(),
            pending_span: Vec::new(),
            immediate: Vec::new(),
            path_bandwidth,
            path_failed: vec![false; paths.len()],
            decision_hash: FNV_BASIS,
            echo: BTreeMap::new(),
            obs,
            grid: config.grid,
        })
    }

    /// Queues an offer. The returned seq is the flow's **global id**
    /// (valid whatever the eventual verdict); the answer arrives as a
    /// [`ServiceEvent::Decision`] from the next [`FleetService::tick`].
    ///
    /// # Errors
    ///
    /// Rejects a request whose path set names an out-of-range index.
    pub fn submit(&mut self, request: FlowRequest) -> Result<u64, FleetError> {
        let n = self.path_bandwidth.len();
        if let Some(&bad) = request.paths().and_then(|s| s.iter().find(|&&k| k >= n)) {
            return Err(FleetError::Invalid(format!(
                "flow path index {bad} out of range ({n} shared paths)"
            )));
        }
        let touched = match request.paths() {
            Some(subset) => self.regions.regions_of(subset),
            None => (0..self.regions.num_regions()).collect(),
        };
        let seq = self.alloc_seq();
        if let [shard] = touched[..] {
            let localized = self.localize(&request, shard);
            self.owners.insert(seq, Owner::Single(shard));
            self.shards[shard].enqueue(ShardOp::Offer {
                seq,
                request: localized,
            });
        } else {
            self.owners.insert(seq, Owner::Spanning(Vec::new()));
            self.pending_span.push(SpanOp::Offer {
                seq,
                request,
                regions: touched,
            });
        }
        Ok(seq)
    }

    /// Queues a departure of global flow id `flow`; answered by a
    /// [`ServiceEvent::Departed`] (with `found: false` for an unknown or
    /// already departed id). Returns the departure's own seq.
    pub fn submit_depart(&mut self, flow: u64) -> u64 {
        let seq = self.alloc_seq();
        match self.owners.get(&flow) {
            Some(Owner::Single(shard)) => {
                let shard = *shard;
                self.shards[shard].enqueue(ShardOp::Depart { seq, flow });
            }
            Some(Owner::Spanning(_)) => self.pending_span.push(SpanOp::Depart { seq, flow }),
            None => self.immediate.push(ServiceEvent::Departed {
                seq,
                flow,
                found: false,
            }),
        }
        seq
    }

    /// Queues a link change on a global path index, in the
    /// [`dmc_sim::LinkChange`] vocabulary; answered by a
    /// [`ServiceEvent::Capacity`]. Returns the change's seq.
    ///
    /// # Errors
    ///
    /// Bad path index or invalid change parameters (checked here, so a
    /// tick never fails on them).
    pub fn submit_link(&mut self, path: usize, change: LinkChange) -> Result<u64, FleetError> {
        let n = self.path_bandwidth.len();
        if path >= n {
            return Err(FleetError::Invalid(format!(
                "path index {path} out of range ({n} shared paths)"
            )));
        }
        match &change {
            LinkChange::SetBandwidth(bps) => {
                check_scale("bandwidth", *bps)?;
                self.path_bandwidth[path] = *bps;
            }
            LinkChange::SetLoss(model) => model.validate().map_err(FleetError::Invalid)?,
            LinkChange::Fail => self.path_failed[path] = true,
            LinkChange::Recover => self.path_failed[path] = false,
        }
        let seq = self.alloc_seq();
        let region = self
            .regions
            .region_of(path)
            .expect("a validated path index always has a region");
        let local = self.shards[region]
            .local_path_index(path)
            .expect("a region always contains each of its member paths");
        self.shards[region].enqueue(ShardOp::Link {
            seq,
            path: local,
            change,
        });
        Ok(seq)
    }

    /// Runs one batched tick: every shard drains its queue (in parallel
    /// across the workers), then the sequential spanning phase runs, and
    /// the answers are merged in submission-sequence order. Also folds
    /// each event into [`FleetService::decision_hash`].
    ///
    /// # Errors
    ///
    /// The first shard's planner/solver error, in shard order. A failed
    /// tick drops its queued work; the service should be considered
    /// poisoned for determinism purposes.
    pub fn tick(&mut self) -> Result<Vec<ServiceEvent>, FleetError> {
        if self.obs.is_enabled() {
            self.obs.counter("service.ticks").inc();
            let mut drained = self.pending_span.len() as u64;
            let depth = self.obs.histogram("service.queue_depth");
            for shard in &self.shards {
                depth.record(shard.queue_len() as u64);
                drained += shard.queue_len() as u64;
            }
            // One logical-clock tick per submission drained this tick.
            self.obs.advance(drained);
        }
        self.run_shards();
        let mut first_error = None;
        for shard in &mut self.shards {
            let error = shard.take_error();
            if first_error.is_none() {
                first_error = error;
            }
        }
        if let Some(e) = first_error {
            for shard in &mut self.shards {
                shard.drain_out();
            }
            self.immediate.clear();
            self.pending_span.clear();
            return Err(e);
        }
        let mut events: Vec<ServiceEvent> = Vec::new();
        for shard in &mut self.shards {
            events.append(&mut shard.drain_out());
        }
        events.append(&mut self.immediate);
        for op in std::mem::take(&mut self.pending_span) {
            match op {
                SpanOp::Offer {
                    seq,
                    request,
                    regions,
                } => self.admit_spanning(seq, &request, &regions, &mut events)?,
                SpanOp::Depart { seq, flow } => self.depart_spanning(seq, flow, &mut events)?,
            }
        }
        events.sort_by_key(ServiceEvent::seq);
        self.obs.counter("service.events").add(events.len() as u64);
        self.prune_owners(&events);
        for event in &events {
            self.fold_into_hash(event);
        }
        Ok(events)
    }

    /// One merged telemetry snapshot: the parent registry
    /// ([`ServiceConfig::fleet`]'s `obs`) absorbed with every shard's
    /// private fork, in ascending shard order. Deterministic for a fixed
    /// submission script at any worker count, like the event stream.
    /// Empty (all-default) when telemetry is disabled.
    pub fn obs_snapshot(&self) -> dmc_obs::Snapshot {
        let mut snap = self.obs.snapshot();
        for shard in &self.shards {
            snap.absorb(&shard.obs().snapshot());
        }
        snap
    }

    /// The region partition the service runs on.
    pub fn region_map(&self) -> &RegionMap {
        &self.regions
    }

    /// Number of shared paths.
    pub fn num_paths(&self) -> usize {
        self.path_bandwidth.len()
    }

    /// The resolved worker-thread count for the parallel tick phase.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total submissions taken so far (= the next seq to be assigned).
    pub fn submissions(&self) -> u64 {
        self.next_seq
    }

    /// Running FNV-1a 64 hash over the `Debug` rendering of every event
    /// every tick has produced, in merged order — two runs of the same
    /// script are bitwise identical iff their hashes match.
    pub fn decision_hash(&self) -> u64 {
        self.decision_hash
    }

    /// Currently admitted flow legs summed over all shards (a spanning
    /// flow counts once per region it was split across).
    pub fn num_admitted_legs(&self) -> usize {
        self.shards.iter().map(Shard::num_flows).sum()
    }

    /// Per global path, the fraction of its live bandwidth the admitted
    /// flows' send rates take up — each shard's
    /// [`FleetPlanner::utilization`](crate::FleetPlanner::utilization)
    /// under the path's global index (≤ 1 within solver tolerance).
    pub fn utilization(&self) -> Vec<f64> {
        let mut util = vec![0.0; self.path_bandwidth.len()];
        for shard in &self.shards {
            for (&global, value) in shard.global_paths().iter().zip(shard.utilization()) {
                util[global] = value;
            }
        }
        util
    }

    /// The admitted per-leg [`Plan`]s of a global flow id (one entry for
    /// a single-region flow, one per region for a spanning flow; empty
    /// for unknown, rejected or departed flows).
    pub fn leg_plans(&self, flow: u64) -> Vec<&Plan> {
        match self.owners.get(&flow) {
            Some(Owner::Single(shard)) => self.shards[*shard]
                .plan_of_global(flow)
                .into_iter()
                .collect(),
            Some(Owner::Spanning(legs)) => legs
                .iter()
                .filter_map(|&(shard, local)| self.shards[shard].plan_local(local))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Offers a windowed request to the slotted reservation plane,
    /// synchronously (reservations are forward-looking control-plane
    /// decisions — they never ride the tick queue, so the answer is
    /// immediate and the instant plane's event stream is untouched).
    ///
    /// The decision's [`FlowId`] is scoped to the returned region index:
    /// pass both back to [`FleetService::depart_windowed`]. Deterministic
    /// like everything else — windowed offers run on the caller's
    /// thread, one at a time.
    ///
    /// # Errors
    ///
    /// No grid configured ([`ServiceConfig::grid`]), an out-of-range
    /// path index, a request spanning more than one capacity region
    /// (split it per region and offer each leg), or a planner failure.
    pub fn offer_windowed(
        &mut self,
        request: ScheduleRequest,
    ) -> Result<(usize, ScheduleDecision), FleetError> {
        if self.grid.is_none() {
            return Err(FleetError::Invalid(
                "windowed offers need a TimeGrid in ServiceConfig::grid".into(),
            ));
        }
        let n = self.path_bandwidth.len();
        if let Some(&bad) = request
            .flow()
            .paths()
            .and_then(|s| s.iter().find(|&&k| k >= n))
        {
            return Err(FleetError::Invalid(format!(
                "flow path index {bad} out of range ({n} shared paths)"
            )));
        }
        let touched = match request.flow().paths() {
            Some(subset) => self.regions.regions_of(subset),
            None => (0..self.regions.num_regions()).collect(),
        };
        let [region] = touched[..] else {
            return Err(FleetError::Invalid(format!(
                "windowed offers must stay within one capacity region \
                 (this one touches {}); split the request per region",
                touched.len()
            )));
        };
        let localized = self.localize(request.flow(), region);
        let mut windowed = ScheduleRequest::new(localized, request.window());
        if request.buffer() > 0.0 {
            windowed = windowed.with_buffer(request.buffer());
        }
        let decision = self.shards[region].offer_windowed(windowed)?;
        Ok((region, decision))
    }

    /// Withdraws a windowed flow from its region's reservation plane
    /// (scheduled or still-reserved alike).
    ///
    /// # Errors
    ///
    /// Unknown region/flow, or no grid configured.
    pub fn depart_windowed(&mut self, region: usize, id: FlowId) -> Result<(), FleetError> {
        let Some(shard) = self.shards.get_mut(region) else {
            return Err(FleetError::Invalid(format!(
                "region index {region} out of range ({} regions)",
                self.regions.num_regions()
            )));
        };
        shard.depart_windowed(id)
    }

    /// Advances every shard's reservation horizon to `new_origin`, in
    /// ascending region order: expired windows complete, straddling ones
    /// truncate, reservations whose windows opened re-certify. Returns
    /// one [`ScheduleAdvance`] per region (flow ids are region-scoped).
    ///
    /// # Errors
    ///
    /// No grid configured, `new_origin` before a shard's current origin,
    /// or a solver failure mid-advance (the service should then be
    /// considered poisoned for determinism purposes, like a failed tick).
    pub fn advance_to(&mut self, new_origin: u64) -> Result<Vec<ScheduleAdvance>, FleetError> {
        if self.grid.is_none() {
            return Err(FleetError::Invalid(
                "horizon advance needs a TimeGrid in ServiceConfig::grid".into(),
            ));
        }
        self.shards
            .iter_mut()
            .map(|shard| shard.advance_schedule(new_origin))
            .collect()
    }

    /// Scheduled-or-reserved windowed flows per region (ascending region
    /// order). Empty when no grid is configured.
    pub fn windowed_flows(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter_map(|s| s.schedule().map(crate::SchedulePlanner::num_flows))
            .collect()
    }

    pub(crate) fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub(crate) fn push_invalid(&mut self, seq: u64, reason: String) {
        self.immediate
            .push(ServiceEvent::InvalidOffer { seq, reason });
    }

    pub(crate) fn record_echo(&mut self, seq: u64, client_tag: u64) {
        self.echo.insert(seq, client_tag);
    }

    pub(crate) fn take_echoes(&mut self) -> BTreeMap<u64, u64> {
        std::mem::take(&mut self.echo)
    }

    /// The parallel phase: contiguous chunks of shards across scoped
    /// worker threads. Shards are fully independent, so the result is
    /// identical to the sequential loop at any worker count.
    fn run_shards(&mut self) {
        let workers = self.workers.clamp(1, self.shards.len().max(1));
        if workers <= 1 {
            for shard in &mut self.shards {
                shard.run_tick();
            }
            return;
        }
        let chunk = self.shards.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for shard_chunk in self.shards.chunks_mut(chunk) {
                scope.spawn(move || {
                    for shard in shard_chunk {
                        shard.run_tick();
                    }
                });
            }
        });
    }

    /// Rewrites a single-region request's global path indices to the
    /// owning shard's local indices.
    fn localize(&self, request: &FlowRequest, shard: usize) -> FlowRequest {
        match request.paths() {
            None => request.clone(),
            Some(subset) => {
                let sh = &self.shards[shard];
                let local: Vec<usize> = subset
                    .iter()
                    .filter_map(|&k| sh.local_path_index(k))
                    .collect();
                request.scaled_to(request.data_rate(), request.cost_budget(), Some(local))
            }
        }
    }

    /// Two-phase reserve/commit of a region-spanning flow: split the
    /// rate (and any cost budget) across its regions by live-bandwidth
    /// share, reserve each leg in ascending region order, commit them
    /// all or roll the reserved ones back in reverse on any refusal.
    fn admit_spanning(
        &mut self,
        seq: u64,
        request: &FlowRequest,
        regions: &[usize],
        events: &mut Vec<ServiceEvent>,
    ) -> Result<(), FleetError> {
        let subset: Vec<usize> = match request.paths() {
            Some(s) => s.to_vec(),
            None => (0..self.path_bandwidth.len()).collect(),
        };
        struct Leg {
            shard: usize,
            local_paths: Vec<usize>,
            bandwidth: f64,
        }
        let mut legs: Vec<Leg> = Vec::new();
        for &r in regions {
            let mut local_paths = Vec::new();
            let mut bandwidth = 0.0;
            for &k in &subset {
                if let Some(local) = self.shards[r].local_path_index(k) {
                    local_paths.push(local);
                    if !self.path_failed[k] {
                        bandwidth += self.path_bandwidth[k];
                    }
                }
            }
            // A region whose usable paths are all down cannot carry a
            // share; leave it out of the split entirely.
            if !local_paths.is_empty() && bandwidth > 0.0 {
                legs.push(Leg {
                    shard: r,
                    local_paths,
                    bandwidth,
                });
            }
        }
        self.obs.counter("service.spanning_offers").inc();
        let total: f64 = legs.iter().map(|leg| leg.bandwidth).sum();
        if legs.is_empty() || !(total > 0.0) {
            self.obs.counter("service.spanning_refusals").inc();
            events.push(ServiceEvent::Decision {
                seq,
                admitted: false,
                predicted_quality: 0.0,
            });
            return Ok(());
        }
        // Phase 1: reserve, ascending region order.
        let mut reserved: Vec<(usize, FlowId, f64, f64)> = Vec::new();
        let mut refused = false;
        for leg in &legs {
            let share = leg.bandwidth / total;
            let rate = request.data_rate() * share;
            let budget = if request.cost_budget().is_finite() {
                request.cost_budget() * share
            } else {
                f64::INFINITY
            };
            let leg_request = request.scaled_to(rate, budget, Some(leg.local_paths.clone()));
            // A share too thin for the LP to scale refuses the flow.
            if check_request_scale(&leg_request).is_err() {
                refused = true;
                break;
            }
            match self.shards[leg.shard].offer_local(leg_request)? {
                AdmissionDecision::Admitted {
                    id,
                    predicted_quality,
                } => reserved.push((leg.shard, id, rate, predicted_quality)),
                AdmissionDecision::Rejected { .. } => {
                    refused = true;
                    break;
                }
            }
        }
        if refused {
            self.obs.counter("service.spanning_refusals").inc();
            // Roll back in reverse reservation order; the freed capacity
            // may revive shed flows, surfaced as capacity events.
            for &(shard, local, _, _) in reserved.iter().rev() {
                self.shards[shard].rollback_reservation(seq, local, events)?;
            }
            events.push(ServiceEvent::Decision {
                seq,
                admitted: false,
                predicted_quality: 0.0,
            });
            return Ok(());
        }
        // Phase 2: commit every leg under the flow's global id.
        let mut committed = Vec::with_capacity(reserved.len());
        let mut quality = 0.0;
        for &(shard, local, rate, leg_quality) in &reserved {
            self.shards[shard].register(seq, local);
            committed.push((shard, local));
            quality += rate * leg_quality;
        }
        quality /= request.data_rate();
        self.obs.counter("service.spanning_commits").inc();
        self.owners.insert(seq, Owner::Spanning(committed));
        events.push(ServiceEvent::Decision {
            seq,
            admitted: true,
            predicted_quality: quality,
        });
        Ok(())
    }

    fn depart_spanning(
        &mut self,
        seq: u64,
        flow: u64,
        events: &mut Vec<ServiceEvent>,
    ) -> Result<(), FleetError> {
        let legs = match self.owners.get(&flow) {
            Some(Owner::Spanning(legs)) if !legs.is_empty() => legs.clone(),
            _ => {
                events.push(ServiceEvent::Departed {
                    seq,
                    flow,
                    found: false,
                });
                return Ok(());
            }
        };
        // A leg may already be gone — its shard gave up on it, or the
        // whole flow departed, earlier in this tick (`prune_owners` runs
        // when the tick ends).
        let mut found = false;
        for (shard, local) in legs {
            if self.shards[shard].owns(flow) {
                self.shards[shard].depart_local(seq, local, events)?;
                found = true;
            }
        }
        events.push(ServiceEvent::Departed { seq, flow, found });
        Ok(())
    }

    /// Forgets flows this tick settled: rejected/invalid offers,
    /// successful departures, and definitively rejected shed flows (for
    /// a spanning flow, only the legs whose shard really dropped them —
    /// the owner survives while any leg remains admitted or queued).
    fn prune_owners(&mut self, events: &[ServiceEvent]) {
        let Self { owners, shards, .. } = self;
        for event in events {
            match event {
                ServiceEvent::Decision {
                    seq,
                    admitted: false,
                    ..
                }
                | ServiceEvent::InvalidOffer { seq, .. } => {
                    owners.remove(seq);
                }
                ServiceEvent::Departed {
                    flow, found: true, ..
                } => {
                    owners.remove(flow);
                }
                ServiceEvent::Capacity { rejected, .. } => {
                    for flow in rejected {
                        let gone = match owners.get_mut(flow) {
                            Some(Owner::Spanning(legs)) => {
                                legs.retain(|&(shard, _)| shards[shard].owns(*flow));
                                legs.is_empty()
                            }
                            Some(Owner::Single(_)) => true,
                            None => false,
                        };
                        if gone {
                            owners.remove(flow);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn fold_into_hash(&mut self, event: &ServiceEvent) {
        for byte in format!("{event:?}").bytes() {
            self.decision_hash ^= u64::from(byte);
            self.decision_hash = self.decision_hash.wrapping_mul(FNV_PRIME);
        }
    }
}
