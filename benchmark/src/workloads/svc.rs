//! The three fleet-service workloads — `svc_wire_churn`,
//! `svc_wire_paced`, `svc_contended` — and their layer ladder.
//!
//! One seeded [`Script`] produces ticks of typed offer descriptions; a
//! *rung* turns a tick into calls on one public entry point of the stack
//! and reports what was admitted:
//!
//! * [`WireRung`] — encoded frames into `handle_frame` / `tick_frames`,
//!   `DecisionFrame`s decoded back (what the untraced run measures);
//! * [`TypedRung`] — the same requests through `submit` /
//!   `submit_depart` / `submit_link` / `tick`;
//! * [`PlannerRung`] — one mirror `FleetPlanner` per capacity region,
//!   driven in the order the shards drive theirs;
//! * [`CoreRung`] — per request, the scenario build, `Planner::model` and
//!   `ScenarioModel::plan_for` the fleet performs for every flow.
//!
//! Every rung is deterministic and sees identical inputs, so rungs must
//! admit exactly the same offers; a rung's time minus the rung below is
//! the self time of the layer between them.

use crate::clock::{Due, OpenLoop};
use crate::harness::{fnv1a, Outcome, Prefix, Recorder, Workload, FNV_BASIS};
use crate::rng::SplitMix64;
use crate::stats::ratio;
use crate::trace::{timed, Tracer};
use dmc_core::{Objective, Planner, Scenario, ScenarioPath};
use dmc_fleet::{
    AdmissionDecision, FleetConfig, FleetPlanner, FleetService, FlowId, FlowRequest, ServiceConfig,
    ServiceEvent,
};
use dmc_proto::wire::{DecisionFrame, DepartFrame, LinkChangeFrame, OfferFrame, Verdict};
use dmc_sim::LinkChange;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Which of the three service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Churn,
    Paced,
    Contended,
}

/// Offered rate of `svc_wire_paced`, offers per second of virtual time.
/// Frozen: about a third of the workload's own `ops_per_s` on the seed
/// commit (see the README), so the server idles between most arrivals.
const PACED_RATE_PER_S: u64 = 650;

/// Virtual residence time of an admitted `svc_wire_paced` flow: with the
/// rate above, about 1000 resident flows, 16 per shard.
const PACED_RESIDENCE_NS: u64 = 1_500_000_000;

/// Virtual time the paced prefix covers (residence, then as much again
/// at steady state).
const PACED_PREFIX_NS: u64 = 2 * PACED_RESIDENCE_NS;

/// Nominal service time per batch while the paced *prefix* runs: the
/// prefix must repeat bit for bit, so its batching may not depend on
/// measured time.
const PACED_PREFIX_SERVICE_NS: u64 = 100_000;

/// Absolute slack on floors and capacities (solver tolerance).
const FLOOR_SLACK: f64 = 1e-9;
const UTILIZATION_SLACK: f64 = 1e-7;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Churn => "svc_wire_churn",
            Kind::Paced => "svc_wire_paced",
            Kind::Contended => "svc_contended",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Kind::Churn => 0x5C01,
            Kind::Paced => 0x5C02,
            Kind::Contended => 0x5C03,
        }
    }

    /// Offers per closed-loop tick.
    fn offers_per_tick(self) -> usize {
        match self {
            Kind::Churn => 64,
            Kind::Paced => 8,
            Kind::Contended => 8,
        }
    }

    /// Ticks an admitted cohort stays before its departs are sent.
    fn residence_ticks(self) -> usize {
        match self {
            Kind::Churn | Kind::Paced => 2,
            Kind::Contended => 8,
        }
    }

    /// Closed-loop ticks in the deterministic prefix.
    fn prefix_ticks(self) -> u64 {
        match self {
            Kind::Churn => 200,
            Kind::Paced => 0,
            Kind::Contended => 40,
        }
    }
}

/// The shared paths and the groups that partition them into regions.
struct Fleet {
    paths: Vec<ScenarioPath>,
    groups: Vec<Vec<usize>>,
}

impl Fleet {
    fn of(kind: Kind) -> Fleet {
        match kind {
            Kind::Churn | Kind::Paced => {
                let (paths, groups) = dmc_experiments::service::region_paths(64);
                Fleet { paths, groups }
            }
            Kind::Contended => {
                let net = dmc_experiments::figure4::synthetic_network(8);
                let paths = Scenario::from_network(&net).paths().to_vec();
                let groups = vec![(0..paths.len()).collect()];
                Fleet { paths, groups }
            }
        }
    }

    fn service(&self, obs: &dmc_obs::Obs) -> Result<FleetService, String> {
        FleetService::new(
            self.paths.clone(),
            &self.groups,
            ServiceConfig {
                workers: 1,
                fleet: FleetConfig {
                    obs: obs.clone(),
                    ..FleetConfig::default()
                },
                grid: None,
            },
        )
        .map_err(|e| format!("building the fleet service: {e}"))
    }
}

/// One offer as the script means it. `frame` is what travels; the other
/// fields say what the generator did to it.
#[derive(Debug, Clone)]
pub struct OfferSpec {
    pub frame: OfferFrame,
    /// Global path subset the mask names.
    pub paths: Vec<usize>,
    /// Negative rate: must come back `Invalid`.
    pub malformed: bool,
    /// One flipped bit: must be dropped without a verdict.
    pub corrupt: bool,
    /// Path subset reaches into a second region.
    pub spanning: bool,
}

impl OfferSpec {
    fn tag(&self) -> u64 {
        self.frame.seq
    }

    /// The typed request (`None` for a malformed offer, which has none).
    fn request(&self, paths: Vec<usize>) -> Option<FlowRequest> {
        if self.malformed {
            return None;
        }
        let f = &self.frame;
        Some(
            FlowRequest::new(f.data_rate, f.lifetime)
                .ok()?
                .with_min_quality(f.min_quality)
                .with_priority(f.priority)
                .with_transmissions(usize::from(f.transmissions))
                .with_paths(paths),
        )
    }
}

/// Everything one tick hands to a rung.
#[derive(Debug, Clone, Default)]
pub struct TickInput {
    pub tick: u64,
    pub offers: Vec<OfferSpec>,
    /// Offer tags of the flows to withdraw.
    pub departs: Vec<u64>,
    pub link: Option<(usize, LinkChange)>,
}

/// What a rung did with a tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickOutcome {
    pub service_ns: u64,
    /// Tags admitted this tick, in offer order.
    pub admitted: Vec<u64>,
    pub rejected: u64,
    pub invalid: u64,
    pub dropped: u64,
    pub departed: u64,
    /// Violated checks, rendered.
    pub violations: Vec<String>,
}

impl TickOutcome {
    fn verdicts(&self) -> u64 {
        self.admitted.len() as u64 + self.rejected + self.invalid
    }
}

/// The seeded input generator. A pure function of `(kind, seed)`.
struct Script {
    kind: Kind,
    rng: SplitMix64,
    groups: Vec<Vec<usize>>,
    base_bandwidth: Vec<f64>,
    next_tag: u64,
}

impl Script {
    fn new(kind: Kind, seed: u64, fleet: &Fleet) -> Script {
        Script {
            kind,
            rng: SplitMix64::new(seed, kind.salt()),
            groups: fleet.groups.clone(),
            base_bandwidth: fleet.paths.iter().map(ScenarioPath::bandwidth).collect(),
            next_tag: 0,
        }
    }

    fn offer(&mut self) -> OfferSpec {
        let tag = self.next_tag;
        self.next_tag += 1;
        let roll = self.rng.next_u64();
        let (paths, spanning, rate, lifetime, floor) = match self.kind {
            Kind::Churn | Kind::Paced => {
                let n = self.groups.len();
                let region = (roll >> 8) as usize % n;
                let spanning = self.kind == Kind::Paced && roll % 8 == 7;
                let mut paths = self.groups[region].clone();
                if spanning {
                    paths.extend(&self.groups[(region + 1) % n]);
                    paths.sort_unstable();
                }
                // Churn keeps about two flows resident per region, paced
                // about sixteen; the rates put both near the point where
                // floors start to be refused.
                let rate = match self.kind {
                    Kind::Churn => self.rng.range(15e6, 60e6),
                    _ => self.rng.range(3e6, 12e6),
                };
                (
                    paths,
                    spanning,
                    rate,
                    self.rng.range(0.5, 1.2),
                    self.rng.range(0.0, 0.7),
                )
            }
            Kind::Contended => {
                // A seeded 3- or 4-path subset of the region's 8. The
                // rates keep the region past saturation even right after
                // capacity has come back: at 5.5–22 Mbps (75 % admitted)
                // 42 % of ticks admitted their whole batch in one joint
                // solve (4 ms) and the rest refused someone and went down
                // the greedy path (10–16 ms), so the median tick sat on
                // the cliff between the two and moved ±13 % between
                // identical runs.
                let mut all: Vec<usize> = self.groups[0].clone();
                self.rng.shuffle(&mut all);
                all.truncate(3 + (roll >> 8) as usize % 2);
                all.sort_unstable();
                (
                    all,
                    false,
                    self.rng.range(7e6, 28e6),
                    self.rng.range(0.5, 1.2),
                    self.rng.range(0.5, 0.9),
                )
            }
        };
        let malformed = self.kind != Kind::Contended && roll % 32 == 19;
        let corrupt = self.kind != Kind::Contended && roll % 64 == 33;
        let frame = OfferFrame {
            seq: tag,
            data_rate: if malformed { -rate } else { rate },
            lifetime,
            min_quality: floor,
            cost_budget: f64::INFINITY,
            priority: 1.0 + self.rng.range(0.0, 3.0),
            transmissions: 2,
            path_mask: OfferFrame::mask_for(&paths)
                .expect("every fleet here has at most 128 paths"),
        };
        OfferSpec {
            frame,
            paths,
            malformed,
            corrupt,
            spanning,
        }
    }

    /// `svc_contended` only: every 5th tick carries one link change, in
    /// a four-phase cycle that returns the region to its base state —
    /// bandwidth step down, step back up, fail, recover. The paths take
    /// turns in a fixed rotation (they differ sixfold in bandwidth, so a
    /// seeded choice would make one seed's window far heavier than
    /// another's); the seed varies the offers around the events.
    fn link_change(&mut self, tick: u64) -> Option<(usize, LinkChange)> {
        if self.kind != Kind::Contended || tick % 5 != 4 {
            return None;
        }
        let n = self.base_bandwidth.len() as u64;
        let cycle = tick / 20;
        let stepped = (cycle % n) as usize;
        let failed = ((cycle + n / 2) % n) as usize;
        Some(match (tick / 5) % 4 {
            0 => (
                stepped,
                LinkChange::SetBandwidth(0.5 * self.base_bandwidth[stepped]),
            ),
            1 => (
                stepped,
                LinkChange::SetBandwidth(self.base_bandwidth[stepped]),
            ),
            2 => (failed, LinkChange::Fail),
            _ => (failed, LinkChange::Recover),
        })
    }

    /// One closed-loop tick's offers and link change (departs are the
    /// driver's: they depend on what was admitted).
    fn tick(&mut self, tick: u64) -> TickInput {
        TickInput {
            tick,
            offers: (0..self.kind.offers_per_tick())
                .map(|_| self.offer())
                .collect(),
            departs: Vec::new(),
            link: self.link_change(tick),
        }
    }
}

/// Encodes an offer as it travels: malformed offers carry their negative
/// rate, corrupt ones one flipped bit — in the checksum field (bytes 2–3),
/// so that the frame is certain to be dropped: the checksum has 16 bits,
/// and one flipped payload bit in 65 536 leaves it valid, which at ~8 000
/// corrupted frames a run turned up as a verdict nobody expected.
fn encode_offer(spec: &OfferSpec) -> Vec<u8> {
    let mut bytes = spec.frame.encode().to_vec();
    if spec.corrupt {
        bytes[2] ^= 0x08;
    }
    bytes
}

// ---------------------------------------------------------------------
// Rung 0: wire frames.
// ---------------------------------------------------------------------

/// The full stack behind encoded frames.
pub struct WireRung {
    service: FleetService,
    /// Offer tag → service flow id, for admitted flows still resident.
    ids: BTreeMap<u64, u64>,
    failed_paths: Vec<bool>,
    /// `utilization()` sweeps every resident flow: checked after every
    /// closed-loop tick, after every 16th single-offer paced batch.
    utilization_every: u64,
    frames: Vec<Vec<u8>>,
    decisions: Vec<Option<DecisionFrame>>,
    /// Wall time spent in `encode()` / harness-side `decode()` calls and
    /// how many, for `proto.wire.encode_ns` / `decode_ns`.
    pub encode_ns: u64,
    pub encoded: u64,
    pub ingest_ns: u64,
    pub ingested: u64,
    pub tick_ns: u64,
    pub ticks: u64,
    pub decode_ns: u64,
    pub decoded: u64,
    pub resident_sum: u64,
}

impl WireRung {
    fn new(kind: Kind, fleet: &Fleet, obs: &dmc_obs::Obs) -> Result<WireRung, String> {
        Ok(WireRung {
            service: fleet.service(obs)?,
            ids: BTreeMap::new(),
            failed_paths: vec![false; fleet.paths.len()],
            utilization_every: if kind == Kind::Paced { 16 } else { 1 },
            frames: Vec::new(),
            decisions: Vec::new(),
            encode_ns: 0,
            encoded: 0,
            ingest_ns: 0,
            ingested: 0,
            tick_ns: 0,
            ticks: 0,
            decode_ns: 0,
            decoded: 0,
            resident_sum: 0,
        })
    }

    /// Encodes the tick (untimed generator work), feeds it through
    /// `handle_frame` / `tick_frames`, decodes every `DecisionFrame`
    /// (timed), then checks the answers (untimed).
    fn run(&mut self, input: &TickInput, mut tracer: Option<&mut Tracer>) -> TickOutcome {
        let mut out = TickOutcome::default();

        // Generator side: build this tick's frames.
        let encode_start = Instant::now();
        self.frames.clear();
        for spec in &input.offers {
            self.frames.push(encode_offer(spec));
        }
        let mut departs_sent = 0u64;
        for tag in &input.departs {
            // A flow the service already shed and rejected has no id any
            // more; its tenant has nothing to withdraw.
            if let Some(&flow) = self.ids.get(tag) {
                self.frames
                    .push(DepartFrame { seq: *tag, flow }.encode().to_vec());
                departs_sent += 1;
            }
        }
        if let Some((path, change)) = &input.link {
            let frame = LinkChangeFrame::from_change(input.tick, *path as u16, change);
            self.frames.push(frame.encode().to_vec());
            match change {
                LinkChange::Fail => self.failed_paths[*path] = true,
                LinkChange::Recover => self.failed_paths[*path] = false,
                _ => {}
            }
        }
        self.encode_ns += encode_start.elapsed().as_nanos() as u64;
        self.encoded += self.frames.len() as u64;

        // Timed: ingest, tick, decode.
        let request = input.tick;
        let span = tracer.as_deref_mut().map(|t| t.begin("wire.tick", request));
        let start = Instant::now();
        let mut consumed = 0u64;
        match tracer.as_deref_mut() {
            // Traced: one span per `handle_frame`.
            Some(t) => {
                for frame in &self.frames {
                    let (seq, ns) = t.leaf("fleet.service.handle_frame", request, || {
                        self.service.handle_frame(frame)
                    });
                    consumed += u64::from(seq.is_some());
                    self.ingest_ns += ns;
                }
            }
            None => {
                for frame in &self.frames {
                    consumed += u64::from(self.service.handle_frame(frame).is_some());
                }
            }
        }
        self.ingested += self.frames.len() as u64;
        let (ticked, tick_ns) = timed(
            tracer.as_deref_mut(),
            "fleet.service.tick_frames",
            request,
            || self.service.tick_frames(),
        );
        self.tick_ns += tick_ns;
        self.ticks += 1;
        let (frames_out, events) = match ticked {
            Ok(pair) => pair,
            Err(e) => {
                out.service_ns = start.elapsed().as_nanos() as u64;
                if let (Some(t), Some(span)) = (tracer, span) {
                    t.end(span);
                }
                out.violations.push(format!("tick {}: {e}", input.tick));
                return out;
            }
        };
        self.decisions.clear();
        let ((), decode_ns) = timed(
            tracer.as_deref_mut(),
            "proto.wire.decode_decisions",
            request,
            || {
                for frame in &frames_out {
                    self.decisions.push(DecisionFrame::decode(frame));
                }
            },
        );
        self.decode_ns += decode_ns;
        self.decoded += frames_out.len() as u64;
        out.service_ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }

        // Checks, untimed.
        out.dropped = self.frames.len() as u64 - consumed;
        let expected_dropped = input.offers.iter().filter(|s| s.corrupt).count() as u64;
        if out.dropped != expected_dropped {
            out.violations.push(format!(
                "tick {}: {} frames dropped, {} were corrupted",
                input.tick, out.dropped, expected_dropped
            ));
        }
        self.check_decisions(input, &mut out);
        let mut departed = 0u64;
        for event in &events {
            if let ServiceEvent::Departed { .. } = event {
                departed += 1;
            }
            if let ServiceEvent::Capacity { rejected, .. } = event {
                // Shed flows that ran out of re-admission attempts are
                // gone; forget their ids.
                if !rejected.is_empty() {
                    self.ids.retain(|_, flow| !rejected.contains(flow));
                }
            }
        }
        out.departed = departed;
        if departed != departs_sent {
            out.violations.push(format!(
                "tick {}: {departs_sent} departs sent, {departed} answered",
                input.tick
            ));
        }
        for tag in &input.departs {
            self.ids.remove(tag);
        }
        if input.tick % self.utilization_every == 0 {
            for (path, load) in self.service.utilization().iter().enumerate() {
                if !self.failed_paths[path] && *load > 1.0 + UTILIZATION_SLACK {
                    out.violations.push(format!(
                        "tick {}: path {path} utilization {load}",
                        input.tick
                    ));
                }
            }
        }
        self.resident_sum += self.service.num_admitted_legs() as u64;
        out
    }

    /// One verdict per surviving offer, `Invalid` exactly for malformed
    /// ones, and every admission at or above its floor.
    fn check_decisions(&mut self, input: &TickInput, out: &mut TickOutcome) {
        let mut by_tag: BTreeMap<u64, &DecisionFrame> = BTreeMap::new();
        for decision in &self.decisions {
            match decision {
                Some(d) => {
                    if by_tag.insert(d.seq, d).is_some() {
                        out.violations.push(format!(
                            "tick {}: duplicate verdict for offer {}",
                            input.tick, d.seq
                        ));
                    }
                }
                None => out.violations.push(format!(
                    "tick {}: the service emitted an undecodable frame",
                    input.tick
                )),
            }
        }
        for spec in &input.offers {
            let verdict = by_tag.remove(&spec.tag());
            match (verdict, spec.corrupt) {
                (None, true) => {}
                (Some(_), true) => out.violations.push(format!(
                    "tick {}: corrupted offer {} got a verdict",
                    input.tick,
                    spec.tag()
                )),
                (None, false) => out.violations.push(format!(
                    "tick {}: offer {} got no verdict",
                    input.tick,
                    spec.tag()
                )),
                (Some(d), false) => match d.verdict {
                    Verdict::Invalid if spec.malformed => out.invalid += 1,
                    Verdict::Admitted if !spec.malformed => {
                        if d.predicted_quality < spec.frame.min_quality - FLOOR_SLACK {
                            out.violations.push(format!(
                                "tick {}: offer {} admitted at {} below its floor {}",
                                input.tick,
                                spec.tag(),
                                d.predicted_quality,
                                spec.frame.min_quality
                            ));
                        }
                        self.ids.insert(spec.tag(), d.flow);
                        out.admitted.push(spec.tag());
                    }
                    Verdict::Rejected if !spec.malformed => out.rejected += 1,
                    other => out.violations.push(format!(
                        "tick {}: offer {} (malformed: {}) answered {other:?}",
                        input.tick,
                        spec.tag(),
                        spec.malformed
                    )),
                },
            }
        }
        if !by_tag.is_empty() {
            out.violations.push(format!(
                "tick {}: {} verdicts for offers never sent",
                input.tick,
                by_tag.len()
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rung 1: typed calls on the service.
// ---------------------------------------------------------------------

/// The service below its wire codec.
pub struct TypedRung {
    service: FleetService,
    ids: BTreeMap<u64, u64>,
    pub total_ns: u64,
}

impl TypedRung {
    fn new(fleet: &Fleet) -> Result<TypedRung, String> {
        Ok(TypedRung {
            service: fleet.service(&dmc_obs::Obs::disabled())?,
            ids: BTreeMap::new(),
            total_ns: 0,
        })
    }

    fn run(&mut self, input: &TickInput, tracer: Option<&mut Tracer>) -> TickOutcome {
        let mut out = TickOutcome::default();
        // Untimed: the caller of the typed API already holds requests.
        let mut requests: Vec<(u64, FlowRequest)> = Vec::with_capacity(input.offers.len());
        for spec in &input.offers {
            if spec.corrupt {
                out.dropped += 1;
            } else if let Some(request) = spec.request(spec.paths.clone()) {
                requests.push((spec.tag(), request));
            } else {
                out.invalid += 1;
            }
        }
        let departs: Vec<u64> = input
            .departs
            .iter()
            .filter_map(|tag| self.ids.get(tag).copied())
            .collect();

        let mut seq_to_tag: BTreeMap<u64, u64> = BTreeMap::new();
        let (ticked, ns) = timed(tracer, "rung.typed.tick", input.tick, || {
            for (tag, request) in requests {
                match self.service.submit(request) {
                    Ok(seq) => {
                        seq_to_tag.insert(seq, tag);
                    }
                    Err(e) => return Err(e),
                }
            }
            for &flow in &departs {
                self.service.submit_depart(flow);
            }
            if let Some((path, change)) = &input.link {
                self.service.submit_link(*path, change.clone())?;
            }
            self.service.tick()
        });
        out.service_ns = ns;
        self.total_ns += ns;
        let events = match ticked {
            Ok(events) => events,
            Err(e) => {
                out.violations
                    .push(format!("typed tick {}: {e}", input.tick));
                return out;
            }
        };
        for event in &events {
            match event {
                ServiceEvent::Decision { seq, admitted, .. } => {
                    if let Some(&tag) = seq_to_tag.get(seq) {
                        if *admitted {
                            self.ids.insert(tag, *seq);
                            out.admitted.push(tag);
                        } else {
                            out.rejected += 1;
                        }
                    }
                }
                ServiceEvent::Departed { .. } => out.departed += 1,
                ServiceEvent::Capacity { rejected, .. } => {
                    self.ids.retain(|_, flow| !rejected.contains(flow));
                }
                ServiceEvent::InvalidOffer { .. } => out.invalid += 1,
            }
        }
        for tag in &input.departs {
            self.ids.remove(tag);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Rung 2: one mirror FleetPlanner per region.
// ---------------------------------------------------------------------

/// The planners the shards wrap, without router, queue or events.
/// Region-spanning offers are left out: splitting them is the router's
/// own logic and has no planner-level entry point.
pub struct PlannerRung {
    planners: Vec<FleetPlanner>,
    /// Global path → (region, local index).
    place: Vec<(usize, usize)>,
    ids: BTreeMap<u64, (usize, FlowId)>,
    pub total_ns: u64,
    pub batches: u64,
    pub offered: u64,
}

impl PlannerRung {
    fn new(fleet: &Fleet) -> Result<PlannerRung, String> {
        // Regions exactly as the service forms them.
        let service = fleet.service(&dmc_obs::Obs::disabled())?;
        let map = service.region_map();
        let mut place = vec![(0, 0); fleet.paths.len()];
        let mut planners = Vec::with_capacity(map.num_regions());
        for region in 0..map.num_regions() {
            let members = map.region_paths(region);
            for (local, &global) in members.iter().enumerate() {
                place[global] = (region, local);
            }
            let subset = members.iter().map(|&k| fleet.paths[k].clone()).collect();
            planners.push(
                FleetPlanner::new(subset, FleetConfig::default())
                    .map_err(|e| format!("building a mirror planner: {e}"))?,
            );
        }
        Ok(PlannerRung {
            planners,
            place,
            ids: BTreeMap::new(),
            total_ns: 0,
            batches: 0,
            offered: 0,
        })
    }

    fn run(&mut self, input: &TickInput, tracer: Option<&mut Tracer>) -> TickOutcome {
        let mut out = TickOutcome::default();
        let regions = self.planners.len();
        // Untimed: sort the tick's work by region, as the router does
        // when it queues each submission on its shard.
        let mut offers: Vec<(Vec<u64>, Vec<FlowRequest>)> = vec![Default::default(); regions];
        for spec in &input.offers {
            if spec.corrupt {
                out.dropped += 1;
            } else if spec.malformed {
                out.invalid += 1;
            } else if !spec.spanning {
                let region = self.place[spec.paths[0]].0;
                let local = spec.paths.iter().map(|&k| self.place[k].1).collect();
                if let Some(request) = spec.request(local) {
                    offers[region].0.push(spec.tag());
                    offers[region].1.push(request);
                }
            }
        }
        let mut departs: Vec<Vec<FlowId>> = vec![Vec::new(); regions];
        for tag in &input.departs {
            if let Some((region, id)) = self.ids.remove(tag) {
                departs[region].push(id);
            }
        }
        let link = input
            .link
            .as_ref()
            .map(|(path, change)| (self.place[*path], change));

        let mut decisions: Vec<Vec<AdmissionDecision>> = Vec::with_capacity(regions);
        let mut gone: Vec<(usize, Vec<FlowId>)> = Vec::new();
        let mut error: Option<String> = None;
        let ((), ns) = timed(tracer, "rung.planner.tick", input.tick, || {
            for (region, planner) in self.planners.iter_mut().enumerate() {
                let requests = std::mem::take(&mut offers[region].1);
                let result = planner.offer_batch(requests).and_then(|d| {
                    decisions.push(d);
                    if !departs[region].is_empty() {
                        out.departed += departs[region].len() as u64;
                        planner.depart_batch(&departs[region])?;
                    }
                    if let Some(((r, local), change)) = link {
                        if r == region {
                            planner.apply_link_change(local, change)?;
                        }
                    }
                    Ok(())
                });
                if let Err(e) = result {
                    error.get_or_insert_with(|| format!("region {region}: {e}"));
                    decisions.resize_with(region + 1, Vec::new);
                }
                // What the shard drains after every capacity event.
                planner.drain_revived();
                let rejected = planner.drain_shed_rejected();
                if !rejected.is_empty() {
                    gone.push((region, rejected));
                }
            }
        });
        out.service_ns = ns;
        self.total_ns += ns;
        if let Some(e) = error {
            out.violations
                .push(format!("planner tick {}: {e}", input.tick));
        }
        for (region, (tags, region_decisions)) in offers.iter().zip(&decisions).enumerate() {
            self.batches += u64::from(!tags.0.is_empty());
            self.offered += tags.0.len() as u64;
            for (&tag, decision) in tags.0.iter().zip(region_decisions) {
                match decision {
                    AdmissionDecision::Admitted { id, .. } => {
                        self.ids.insert(tag, (region, *id));
                        out.admitted.push(tag);
                    }
                    AdmissionDecision::Rejected { .. } => out.rejected += 1,
                }
            }
        }
        out.admitted.sort_unstable();
        for (region, rejected) in gone {
            self.ids
                .retain(|_, (r, id)| *r != region || !rejected.contains(id));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Rung 3: the per-request core work.
// ---------------------------------------------------------------------

/// What the fleet does once per flow whatever the joint LP looks like:
/// build the flow's `Scenario` over its effective paths, `Planner::model`
/// it, and package an assignment with `ScenarioModel::plan_for`.
pub struct CoreRung {
    planner: Planner,
    /// Effective shared paths (link changes applied), by global index.
    effective: Vec<ScenarioPath>,
    base: Vec<ScenarioPath>,
    bandwidth: Vec<f64>,
    pub total_ns: u64,
    pub model_ns: u64,
    pub plan_for_ns: u64,
    pub requests: u64,
    pub combos: u64,
}

impl CoreRung {
    fn new(fleet: &Fleet) -> CoreRung {
        CoreRung {
            planner: Planner::with_config(FleetConfig::default().planner),
            effective: fleet.paths.clone(),
            base: fleet.paths.clone(),
            bandwidth: fleet.paths.iter().map(ScenarioPath::bandwidth).collect(),
            total_ns: 0,
            model_ns: 0,
            plan_for_ns: 0,
            requests: 0,
            combos: 0,
        }
    }

    fn apply(&mut self, path: usize, change: &LinkChange) -> Result<(), String> {
        let base = &self.base[path];
        let mut loss = self.effective[path].loss();
        match change {
            LinkChange::Fail => loss = 1.0,
            LinkChange::Recover => loss = base.loss(),
            LinkChange::SetBandwidth(bps) => self.bandwidth[path] = *bps,
            LinkChange::SetLoss(model) => loss = model.stationary_loss(),
        }
        self.effective[path] = ScenarioPath::new(
            self.bandwidth[path],
            Arc::clone(base.delay()),
            loss,
            base.cost(),
        )
        .map_err(|e| format!("effective path {path}: {e}"))?;
        Ok(())
    }

    fn run(&mut self, input: &TickInput, mut tracer: Option<&mut Tracer>) -> TickOutcome {
        let mut out = TickOutcome::default();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("rung.core.tick", input.tick));
        let start = Instant::now();
        for spec in &input.offers {
            if spec.corrupt || spec.malformed || spec.spanning {
                continue;
            }
            let f = &spec.frame;
            let (model, model_ns) = timed(
                tracer.as_deref_mut(),
                "core.planner.model",
                input.tick,
                || {
                    Scenario::builder()
                        .paths(spec.paths.iter().map(|&k| self.effective[k].clone()))
                        .data_rate(f.data_rate)
                        .lifetime(f.lifetime)
                        .transmissions(usize::from(f.transmissions))
                        .build()
                        .map(|scenario| self.planner.model(&scenario))
                },
            );
            let model = match model {
                Ok(model) => model,
                Err(e) => {
                    out.violations
                        .push(format!("core tick {}: {e}", input.tick));
                    continue;
                }
            };
            let n = model.num_combos();
            let (plan, plan_for_ns) = timed(
                tracer.as_deref_mut(),
                "core.model.plan_for",
                input.tick,
                || model.plan_for(Objective::MaxQuality, vec![1.0 / n as f64; n]),
            );
            std::hint::black_box(plan);
            self.model_ns += model_ns;
            self.plan_for_ns += plan_for_ns;
            self.requests += 1;
            self.combos += n as u64;
        }
        out.service_ns = start.elapsed().as_nanos() as u64;
        self.total_ns += out.service_ns;
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }
        if let Some((path, change)) = &input.link {
            if let Err(e) = self.apply(*path, change) {
                out.violations.push(e);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Drivers: what decides a tick's contents.
// ---------------------------------------------------------------------

/// Closed loop (`svc_wire_churn`, `svc_contended`) or open loop on the
/// virtual clock (`svc_wire_paced`): produces the next tick's input from
/// the script and from what the primary rung admitted before.
struct Driver {
    kind: Kind,
    script: Script,
    tick: u64,
    /// Closed loop: admitted cohorts by age.
    cohorts: VecDeque<Vec<u64>>,
    /// Open loop: the virtual clock, departures scheduled on it, and the
    /// due time of every offer still waiting for its verdict.
    clock: OpenLoop<u64>,
    due: Vec<Due<u64>>,
    due_ns: BTreeMap<u64, u64>,
}

impl Driver {
    fn new(kind: Kind, seed: u64, fleet: &Fleet) -> Driver {
        Driver {
            kind,
            script: Script::new(kind, seed, fleet),
            tick: 0,
            cohorts: VecDeque::new(),
            clock: OpenLoop::new(1_000_000_000 / PACED_RATE_PER_S),
            due: Vec::new(),
            due_ns: BTreeMap::new(),
        }
    }

    fn next(&mut self) -> TickInput {
        let tick = self.tick;
        self.tick += 1;
        if self.kind != Kind::Paced {
            let mut input = self.script.tick(tick);
            if self.cohorts.len() >= self.kind.residence_ticks() {
                input.departs = self.cohorts.pop_front().unwrap_or_default();
            }
            return input;
        }
        let mut input = TickInput {
            tick,
            ..TickInput::default()
        };
        self.due.clear();
        self.clock.take_due(&mut self.due);
        for due in &self.due {
            match due {
                Due::Arrival { due_ns, .. } => {
                    let spec = self.script.offer();
                    self.due_ns.insert(spec.tag(), *due_ns);
                    input.offers.push(spec);
                }
                Due::Event { event: tag, .. } => input.departs.push(*tag),
            }
        }
        input
    }

    /// Feeds the primary rung's outcome back. `service_ns` is what the
    /// virtual clock advances by (measured, or nominal in the prefix).
    /// Returns the per-offer latencies of an open-loop batch.
    fn settle(&mut self, input: &TickInput, out: &TickOutcome, service_ns: u64) -> Vec<f64> {
        if self.kind != Kind::Paced {
            self.cohorts.push_back(out.admitted.clone());
            return Vec::new();
        }
        self.clock.advance(service_ns);
        let now = self.clock.now_ns();
        for &tag in &out.admitted {
            self.clock.schedule(now + PACED_RESIDENCE_NS, tag);
        }
        input
            .offers
            .iter()
            .filter(|spec| !spec.corrupt)
            .filter_map(|spec| self.due_ns.remove(&spec.tag()))
            .map(|due| (now - due) as f64 / 1e3)
            .collect()
    }
}

// ---------------------------------------------------------------------
// The untraced run.
// ---------------------------------------------------------------------

/// One service workload as the harness drives it untraced.
pub struct Service {
    driver: Driver,
    wire: WireRung,
}

/// Running totals of the prefix.
#[derive(Default)]
struct PrefixTotals {
    served: u64,
    valid: u64,
    hash: u64,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl PrefixTotals {
    fn absorb(&mut self, input: &TickInput, out: &TickOutcome, counted: bool) {
        if counted {
            self.served += out.admitted.len() as u64;
            self.valid += out.admitted.len() as u64 + out.rejected;
        }
        self.attempted += out.verdicts();
        self.failed += out.violations.len() as u64;
        for v in out.violations.iter().take(4) {
            if self.reasons.len() < 8 {
                self.reasons.push(v.clone());
            }
        }
        self.hash = fnv1a(self.hash, &input.tick.to_le_bytes());
        for tag in &out.admitted {
            self.hash = fnv1a(self.hash, &tag.to_le_bytes());
        }
        self.hash = fnv1a(self.hash, &out.rejected.to_le_bytes());
    }
}

impl Service {
    pub fn setup(kind: Kind, seed: u64) -> Result<(Service, Prefix), String> {
        let fleet = Fleet::of(kind);
        let mut driver = Driver::new(kind, seed, &fleet);
        let mut wire = WireRung::new(kind, &fleet, &dmc_obs::Obs::disabled())?;
        let mut totals = PrefixTotals {
            hash: FNV_BASIS,
            ..PrefixTotals::default()
        };
        // The prefix: closed-loop ticks from an empty fleet, or — paced —
        // one second of virtual time at a nominal service time, so that
        // the batching (and with it every decision) repeats exactly.
        loop {
            let done = match kind {
                Kind::Paced => driver.clock.now_ns() >= PACED_PREFIX_NS,
                _ => driver.tick >= kind.prefix_ticks(),
            };
            if done {
                break;
            }
            let input = driver.next();
            let out = wire.run(&input, None);
            driver.settle(&input, &out, PACED_PREFIX_SERVICE_NS);
            let counted = match kind {
                Kind::Paced => driver.clock.now_ns() >= PACED_RESIDENCE_NS,
                // Not the first ticks, while the fleet is still filling up.
                _ => input.tick >= kind.residence_ticks() as u64,
            };
            totals.absorb(&input, &out, counted);
        }
        totals.hash = fnv1a(totals.hash, &wire.service.decision_hash().to_le_bytes());
        let prefix = Prefix {
            served: totals.served as f64,
            offered: totals.valid as f64,
            hash: totals.hash,
            attempted: totals.attempted,
            failed: totals.failed,
            reasons: totals.reasons,
        };
        Ok((Service { driver, wire }, prefix))
    }
}

impl Workload for Service {
    fn step(&mut self, rec: &mut Recorder) {
        let input = self.driver.next();
        let out = self.wire.run(&input, None);
        let latencies = self.driver.settle(&input, &out, out.service_ns);
        rec.batch(out.service_ns, out.verdicts());
        rec.served(
            out.admitted.len() as f64,
            out.admitted.len() as f64 + out.rejected as f64,
        );
        if self.driver.kind == Kind::Paced {
            for us in latencies {
                rec.latency_us(us);
            }
        } else {
            // Closed loop: every offer of the batch waits for the tick.
            rec.latency_us(out.service_ns as f64 / 1e3);
        }
        if !out.violations.is_empty() {
            rec.fail(out.violations.len() as u64, || out.violations.join("; "));
        }
    }
}

// ---------------------------------------------------------------------
// The traced run: the ladder.
// ---------------------------------------------------------------------

/// Runs the ladder in lockstep for `seconds` of untraced-wire service
/// time and reduces it to the per-layer metrics.
pub fn trace(kind: Kind, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let fleet = Fleet::of(kind);
    let obs = dmc_obs::Obs::enabled();
    let mut driver = Driver::new(kind, seed, &fleet);
    let mut plain = WireRung::new(kind, &fleet, &dmc_obs::Obs::disabled())?;
    let mut traced = WireRung::new(kind, &fleet, &obs)?;
    let mut typed = TypedRung::new(&fleet)?;
    let mut planner = PlannerRung::new(&fleet)?;
    let mut core = CoreRung::new(&fleet);

    let wall = Instant::now();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut invalid, mut dropped, mut verdicts) = (0u64, 0u64, 0u64);
    let mut reasons: Vec<String> = Vec::new();
    let mut rung_mismatches = 0u64;
    let mut planner_divergence = 0u64;
    // Every rung sees the same ticks in the same order; the budget is
    // split five ways, so the window is a fifth of `--seconds` per rung.
    let budget_ns = (seconds * 1e9 / 5.0) as u64;
    while plain_ns < budget_ns {
        let input = driver.next();
        // Whoever runs first after the other rungs finds the shared code
        // cold in the caches; taking turns (forward on even ticks,
        // backward on odd ones) spreads that evenly over the rungs.
        let mut outs: [TickOutcome; 5] = Default::default();
        for k in 0..outs.len() {
            let rung = if input.tick % 2 == 0 { k } else { 4 - k };
            outs[rung] = match rung {
                0 => plain.run(&input, None),
                1 => traced.run(&input, Some(tracer)),
                2 => typed.run(&input, Some(tracer)),
                3 => planner.run(&input, Some(tracer)),
                _ => core.run(&input, Some(tracer)),
            };
        }
        let [out, out_traced, out_typed, out_planner, out_core] = outs;
        driver.settle(&input, &out, out.service_ns);
        plain_ns += out.service_ns;
        traced_ns += out_traced.service_ns;

        attempted += out.verdicts();
        invalid += out.invalid;
        dropped += out.dropped;
        verdicts += out.verdicts();
        for o in [&out, &out_traced, &out_typed, &out_planner, &out_core] {
            failed += o.violations.len() as u64;
            for v in &o.violations {
                if reasons.len() < 8 {
                    reasons.push(v.clone());
                }
            }
        }
        // Rung-to-rung agreement on who was admitted.
        let mut sorted = out.admitted.clone();
        sorted.sort_unstable();
        let same = |other: &TickOutcome| {
            let mut o = other.admitted.clone();
            o.sort_unstable();
            o == sorted && other.rejected == out.rejected
        };
        if !same(&out_traced) || !same(&out_typed) {
            rung_mismatches += 1;
            if reasons.len() < 8 {
                reasons.push(format!(
                    "tick {}: wire admitted {} / rejected {}, traced wire {} / {}, typed {} / {}",
                    input.tick,
                    out.admitted.len(),
                    out.rejected,
                    out_traced.admitted.len(),
                    out_traced.rejected,
                    out_typed.admitted.len(),
                    out_typed.rejected
                ));
            }
        }
        if !same(&out_planner) {
            if kind == Kind::Paced {
                // Expected now and then: the mirrors never see the
                // spanning legs, so they hold less load than the shards.
                planner_divergence += 1;
            } else {
                rung_mismatches += 1;
                if reasons.len() < 8 {
                    reasons.push(format!(
                        "tick {}: wire admitted {} / rejected {}, planner rung {} / {}",
                        input.tick,
                        out.admitted.len(),
                        out.rejected,
                        out_planner.admitted.len(),
                        out_planner.rejected
                    ));
                }
            }
        }
    }
    failed += rung_mismatches;
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let rung_ns = (plain_ns + traced_ns + typed.total_ns + planner.total_ns + core.total_ns) as f64;

    let snap = traced.service.obs_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hist_mean = |name: &str| {
        snap.histogram(name)
            .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
    };
    let wire_ns = plain_ns as f64;
    let ticks = plain.ticks as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "proto.wire.encode_ns",
        ratio(plain.encode_ns as f64, plain.encoded as f64),
    );
    m.insert(
        "proto.wire.decode_ns",
        ratio(traced.decode_ns as f64, traced.decoded as f64),
    );
    m.insert("proto.wire.frames", plain.ingested as f64);
    m.insert("proto.wire.dropped", dropped as f64);
    m.insert(
        "fleet.service.ingest_ns",
        ratio(traced.ingest_ns as f64, traced.ingested as f64),
    );
    m.insert(
        "fleet.service.tick_us",
        ratio(traced.tick_ns as f64, ticks) / 1e3,
    );
    m.insert(
        "fleet.service.wire_share",
        ratio(wire_ns - typed.total_ns as f64, wire_ns),
    );
    m.insert(
        "fleet.service.self_share",
        ratio(wire_ns - planner.total_ns as f64, wire_ns),
    );
    m.insert("fleet.service.batch_mean", hist_mean("service.batch_size"));
    m.insert(
        "fleet.service.queue_depth_mean",
        hist_mean("service.queue_depth"),
    );
    m.insert(
        "fleet.service.spanning_offers",
        counter("service.spanning_offers"),
    );
    m.insert(
        "fleet.service.spanning_refusals",
        counter("service.spanning_refusals"),
    );
    m.insert("fleet.service.invalid", invalid as f64);
    m.insert(
        "fleet.planner.batch_us",
        ratio(planner.total_ns as f64, planner.batches as f64) / 1e3,
    );
    m.insert(
        "fleet.planner.per_flow_us",
        ratio(planner.total_ns as f64, planner.offered as f64) / 1e3,
    );
    m.insert(
        "fleet.planner.joint_share",
        ratio(planner.total_ns as f64 - core.total_ns as f64, wire_ns),
    );
    m.insert(
        "fleet.planner.warm_hit_ratio",
        ratio(
            counter("fleet.warm_hits"),
            counter("fleet.warm_hits") + counter("fleet.warm_misses"),
        ),
    );
    m.insert("fleet.planner.admits", counter("fleet.admits"));
    m.insert("fleet.planner.refusals", counter("fleet.refusals"));
    m.insert("fleet.planner.sheds", counter("fleet.sheds"));
    m.insert("fleet.planner.revives", counter("fleet.revives"));
    m.insert(
        "fleet.planner.resident_mean",
        ratio(plain.resident_sum as f64, ticks),
    );
    m.insert(
        "core.model_us.det2",
        if kind == Kind::Contended {
            0.0
        } else {
            ratio(core.model_ns as f64, core.requests as f64) / 1e3
        },
    );
    m.insert(
        "core.plan_for_us",
        ratio(core.plan_for_ns as f64, core.requests as f64) / 1e3,
    );
    m.insert(
        "core.per_flow_us",
        ratio(core.total_ns as f64, core.requests as f64) / 1e3,
    );
    m.insert("core.share", ratio(core.total_ns as f64, wire_ns));
    m.insert(
        "core.combos_mean",
        ratio(core.combos as f64, core.requests as f64),
    );
    m.insert("lp.solves", counter("lp.solves"));
    m.insert(
        "lp.pivots_per_solve",
        ratio(counter("lp.pivots"), counter("lp.solves")),
    );
    m.insert("lp.refactorizations", counter("lp.refactorizations"));
    m.insert(
        "lp.warm_used_ratio",
        ratio(counter("lp.warm_used"), counter("lp.warm_attempts")),
    );
    m.insert("lp.errors", counter("lp.errors"));
    m.insert(
        "obs.overhead_ratio",
        ratio(plain_ns as f64, traced_ns as f64),
    );
    m.insert("harness.gen_share", 1.0 - ratio(rung_ns, wall_ns));

    let mut notes = vec![
        format!(
            "ladder over {} ticks, {} verdicts per rung: wire {:.3} s, traced wire {:.3} s, \
             typed {:.3} s, planner {:.3} s, core {:.3} s",
            plain.ticks,
            verdicts,
            plain_ns as f64 * 1e-9,
            traced_ns as f64 * 1e-9,
            typed.total_ns as f64 * 1e-9,
            planner.total_ns as f64 * 1e-9,
            core.total_ns as f64 * 1e-9
        ),
        format!(
            "account per verdict: wire codec {:.2} us + service (router, queue, events) {:.2} us \
             + joint LP (assembly, solve, plan refresh) {:.2} us + per-flow core {:.2} us \
             = {:.2} us",
            ratio(wire_ns - typed.total_ns as f64, verdicts as f64) / 1e3,
            ratio(
                typed.total_ns as f64 - planner.total_ns as f64,
                verdicts as f64
            ) / 1e3,
            ratio(
                planner.total_ns as f64 - core.total_ns as f64,
                verdicts as f64
            ) / 1e3,
            ratio(core.total_ns as f64, verdicts as f64) / 1e3,
            ratio(wire_ns, verdicts as f64) / 1e3
        ),
        format!(
            "rung agreement: {} mismatching ticks{}",
            rung_mismatches,
            if kind == Kind::Paced {
                format!(
                    " (planner mirrors diverged on {planner_divergence} ticks: they never hold \
                     the region-spanning legs — reported, not asserted)"
                )
            } else {
                String::new()
            }
        ),
    ];
    for reason in &reasons {
        notes.push(format!("FAILED CHECK: {reason}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames_of(kind: Kind, seed: u64, ticks: u64) -> Vec<Vec<u8>> {
        let fleet = Fleet::of(kind);
        let mut script = Script::new(kind, seed, &fleet);
        (0..ticks)
            .flat_map(|t| script.tick(t).offers)
            .map(|spec| encode_offer(&spec))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        for kind in [Kind::Churn, Kind::Paced, Kind::Contended] {
            let a = frames_of(kind, 42, 3);
            assert_eq!(a, frames_of(kind, 42, 3), "{kind:?}");
            assert_ne!(a, frames_of(kind, 43, 3), "{kind:?}");
            assert_eq!(a.len(), 3 * kind.offers_per_tick());
        }
    }

    #[test]
    fn the_churn_mix_carries_its_malformed_and_corrupted_share() {
        let fleet = Fleet::of(Kind::Churn);
        let mut script = Script::new(Kind::Churn, 1, &fleet);
        let offers: Vec<OfferSpec> = (0..64).flat_map(|t| script.tick(t).offers).collect();
        let malformed = offers.iter().filter(|s| s.malformed).count();
        let corrupt = offers.iter().filter(|s| s.corrupt).count();
        // 1/32 and 1/64 of 4096, give or take.
        assert!((80..=180).contains(&malformed), "{malformed}");
        assert!((30..=100).contains(&corrupt), "{corrupt}");
        for spec in &offers {
            let bytes = encode_offer(spec);
            assert_eq!(OfferFrame::decode(&bytes).is_none(), spec.corrupt);
            assert_eq!(spec.paths.len(), 2);
        }
    }

    #[test]
    fn the_contended_link_cycle_returns_to_base() {
        let fleet = Fleet::of(Kind::Contended);
        let mut script = Script::new(Kind::Contended, 9, &fleet);
        let changes: Vec<(u64, usize, LinkChange)> = (0..20)
            .filter_map(|t| script.link_change(t).map(|(p, c)| (t, p, c)))
            .collect();
        assert_eq!(changes.len(), 4);
        assert_eq!(
            changes.iter().map(|c| c.0).collect::<Vec<_>>(),
            vec![4, 9, 14, 19]
        );
        assert_eq!(changes[0].1, changes[1].1, "the stepped path steps back");
        assert_eq!(changes[2].1, changes[3].1, "the failed path recovers");
        assert!(matches!(changes[2].2, LinkChange::Fail));
        assert!(matches!(changes[3].2, LinkChange::Recover));
    }

    #[test]
    fn rungs_agree_on_a_short_contended_script() {
        let fleet = Fleet::of(Kind::Contended);
        let mut driver = Driver::new(Kind::Contended, 3, &fleet);
        let mut wire = WireRung::new(Kind::Contended, &fleet, &dmc_obs::Obs::disabled())
            .expect("literal fleet is valid");
        let mut typed = TypedRung::new(&fleet).expect("literal fleet is valid");
        let mut planner = PlannerRung::new(&fleet).expect("literal fleet is valid");
        let mut admitted = 0;
        for _ in 0..12 {
            let input = driver.next();
            let out = wire.run(&input, None);
            driver.settle(&input, &out, out.service_ns);
            assert!(out.violations.is_empty(), "{:?}", out.violations);
            let t = typed.run(&input, None);
            let p = planner.run(&input, None);
            assert_eq!(out.admitted, t.admitted);
            let mut sorted = out.admitted.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, p.admitted);
            assert_eq!(out.rejected, p.rejected);
            admitted += out.admitted.len();
        }
        assert!(admitted > 0);
    }
}
