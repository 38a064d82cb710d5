//! `sched_horizon` — the reservation plane under a sliding horizon.
//!
//! A `FleetService` with an 8-slot `TimeGrid` over one two-path region.
//! Each cycle slides the horizon by one slot (`advance_to`) and offers
//! two 2-slot windows at seeded offsets (`offer_windowed`), with enough
//! demand that a good share of them cannot start when asked and end up
//! `Reserved` for a later window or `Rejected`. Only `SchedulePlanner`
//! (ring-indexed slot rows, tombstoned blocks, earliest-window search)
//! is heavy here; the ladder's lower rung is a bare mirror of it.

use crate::harness::{fnv1a, Outcome, Prefix, Recorder, Workload, FNV_BASIS};
use crate::rng::SplitMix64;
use crate::stats::ratio;
use crate::trace::{timed, Tracer};
use dmc_fleet::{
    FleetConfig, FleetService, FlowRequest, ScheduleDecision, SchedulePlanner, ScheduleRequest,
    ServiceConfig, SlotWindow, TimeGrid,
};
use std::collections::BTreeMap;
use std::time::Instant;

const SLOT_WIDTH_S: f64 = 0.5;
const HORIZON_SLOTS: u64 = 8;
const WINDOW_SLOTS: u64 = 2;
const OFFERS_PER_CYCLE: usize = 2;
/// Cycles in the deterministic prefix, and how many of the first are left
/// out of `served_share` while the horizon fills.
const PREFIX_CYCLES: u64 = 120;
const PREFIX_SKIP_CYCLES: u64 = HORIZON_SLOTS;
const FLOOR_SLACK: f64 = 1e-9;

fn grid() -> Result<TimeGrid, String> {
    TimeGrid::new(SLOT_WIDTH_S, HORIZON_SLOTS as usize).map_err(|e| e.to_string())
}

fn service(obs: &dmc_obs::Obs) -> Result<FleetService, String> {
    FleetService::new(
        dmc_experiments::fleet::shared_paths(),
        &[vec![0, 1]],
        ServiceConfig {
            workers: 1,
            fleet: FleetConfig {
                obs: obs.clone(),
                ..FleetConfig::default()
            },
            grid: Some(grid()?),
        },
    )
    .map_err(|e| format!("building the windowed service: {e}"))
}

/// The seeded stream of windowed requests.
struct Script {
    rng: SplitMix64,
    origin: u64,
}

impl Script {
    fn new(seed: u64) -> Script {
        Script {
            rng: SplitMix64::new(seed, 0x5C4E),
            origin: 0,
        }
    }

    /// Slides the horizon one slot and draws the cycle's requests.
    fn cycle(&mut self) -> Result<(u64, Vec<ScheduleRequest>), String> {
        self.origin += 1;
        let mut requests = Vec::with_capacity(OFFERS_PER_CYCLE);
        for _ in 0..OFFERS_PER_CYCLE {
            let floor = [0.0, 0.8, 0.9, 0.95][self.rng.below(4) as usize];
            let flow = FlowRequest::new(self.rng.range(10e6, 32e6), self.rng.range(0.3, 1.2))
                .map_err(|e| e.to_string())?
                .with_min_quality(floor);
            let start = self.origin + self.rng.below(HORIZON_SLOTS - WINDOW_SLOTS + 1);
            let window = SlotWindow::new(start, start + WINDOW_SLOTS).map_err(|e| e.to_string())?;
            let mut request = ScheduleRequest::new(flow, window);
            if self.rng.below(3) == 0 {
                request = request.with_buffer(0.5);
            }
            requests.push(request);
        }
        Ok((self.origin, requests))
    }
}

/// How one windowed offer ended, reduced to what rungs must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Scheduled,
    Reserved { start: u64 },
    Rejected,
}

fn verdict_of(decision: &ScheduleDecision) -> Verdict {
    match decision {
        ScheduleDecision::Scheduled { .. } => Verdict::Scheduled,
        ScheduleDecision::Reserved { window, .. } => Verdict::Reserved {
            start: window.start(),
        },
        ScheduleDecision::Rejected { .. } => Verdict::Rejected,
    }
}

/// Checks one decision against its request; returns the violation.
fn check(request: &ScheduleRequest, decision: &ScheduleDecision, origin: u64) -> Option<String> {
    let asked = request.window();
    let floor = request.flow().min_quality();
    match decision {
        ScheduleDecision::Rejected { .. } => None,
        ScheduleDecision::Scheduled {
            window,
            predicted_quality,
            ..
        }
        | ScheduleDecision::Reserved {
            window,
            predicted_quality,
            ..
        } => {
            if *predicted_quality < floor - FLOOR_SLACK {
                return Some(format!(
                    "window {window} granted at {predicted_quality}, below the floor {floor}"
                ));
            }
            let moved = window.start() != asked.start();
            if window.len() != asked.len()
                || window.start() < asked.start()
                || window.end() > origin + HORIZON_SLOTS
                || moved == decision.is_scheduled()
            {
                return Some(format!(
                    "asked {asked}, got {window} as {:?} at origin {origin}",
                    verdict_of(decision)
                ));
            }
            None
        }
    }
}

/// Totals a rung keeps about its verdicts.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    offers: u64,
    scheduled: u64,
    reserved: u64,
    rejected: u64,
    wait_slots: u64,
    violations: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, request: &ScheduleRequest, decision: &ScheduleDecision, origin: u64) {
        self.offers += 1;
        match verdict_of(decision) {
            Verdict::Scheduled => self.scheduled += 1,
            Verdict::Reserved { .. } => {
                self.reserved += 1;
                self.wait_slots += decision.opens_in();
            }
            Verdict::Rejected => self.rejected += 1,
        }
        if let Some(v) = check(request, decision, origin) {
            self.violations.push(v);
        }
    }
}

/// The service rung: `advance_to` then `offer_windowed` per request.
struct ServiceRung {
    service: FleetService,
    advance_ns: u64,
    offer_ns: u64,
    advances: u64,
}

impl ServiceRung {
    fn new(obs: &dmc_obs::Obs) -> Result<ServiceRung, String> {
        Ok(ServiceRung {
            service: service(obs)?,
            advance_ns: 0,
            offer_ns: 0,
            advances: 0,
        })
    }

    /// Returns the cycle's decisions with each offer's call time.
    fn cycle(
        &mut self,
        origin: u64,
        requests: &[ScheduleRequest],
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Vec<(ScheduleDecision, u64)>, String> {
        let (advanced, ns) = timed(
            tracer.as_deref_mut(),
            "fleet.service.advance_to",
            origin,
            || self.service.advance_to(origin),
        );
        // A call that fails has taken its time all the same.
        self.advance_ns += ns;
        self.advances += 1;
        advanced.map_err(|e| format!("advance_to({origin}): {e}"))?;
        let mut out = Vec::with_capacity(requests.len());
        for request in requests {
            let request = request.clone();
            let (decision, ns) = timed(
                tracer.as_deref_mut(),
                "fleet.service.offer_windowed",
                origin,
                || self.service.offer_windowed(request),
            );
            self.offer_ns += ns;
            let (_region, decision) =
                decision.map_err(|e| format!("offer_windowed at origin {origin}: {e}"))?;
            out.push((decision, ns));
        }
        Ok(out)
    }
}

/// The workload as the harness drives it untraced.
pub struct Horizon {
    script: Script,
    rung: ServiceRung,
}

impl Horizon {
    pub fn setup(seed: u64) -> Result<(Horizon, Prefix), String> {
        let mut script = Script::new(seed);
        let mut rung = ServiceRung::new(&dmc_obs::Obs::disabled())?;
        let mut tally = Tally::default();
        let mut counted = Tally::default();
        let mut hash = FNV_BASIS;
        for cycle in 0..PREFIX_CYCLES {
            let (origin, requests) = script.cycle()?;
            let decisions = rung.cycle(origin, &requests, None)?;
            for (request, (decision, _)) in requests.iter().zip(&decisions) {
                tally.absorb(request, decision, origin);
                if cycle >= PREFIX_SKIP_CYCLES {
                    counted.absorb(request, decision, origin);
                }
                hash = fnv1a(hash, format!("{:?}", verdict_of(decision)).as_bytes());
                let quality = decision.predicted_quality().unwrap_or(0.0);
                hash = fnv1a(hash, &quality.to_bits().to_le_bytes());
            }
        }
        let prefix = Prefix {
            served: (counted.scheduled + counted.reserved) as f64,
            offered: counted.offers as f64,
            hash,
            attempted: tally.offers,
            failed: tally.violations.len() as u64,
            reasons: tally.violations.into_iter().take(8).collect(),
        };
        Ok((Horizon { script, rung }, prefix))
    }
}

impl Workload for Horizon {
    fn step(&mut self, rec: &mut Recorder) {
        let before = self.rung.advance_ns + self.rung.offer_ns;
        let cycle = self.script.cycle().and_then(|(origin, requests)| {
            let decisions = self.rung.cycle(origin, &requests, None)?;
            Ok((origin, requests, decisions))
        });
        let service_ns = self.rung.advance_ns + self.rung.offer_ns - before;
        match cycle {
            Ok((origin, requests, decisions)) => {
                rec.batch(service_ns, decisions.len() as u64);
                for (request, (decision, ns)) in requests.iter().zip(&decisions) {
                    rec.latency_us(*ns as f64 / 1e3);
                    rec.served(f64::from(u8::from(decision.is_admitted())), 1.0);
                    if let Some(v) = check(request, decision, origin) {
                        rec.fail(1, || v);
                    }
                }
            }
            Err(e) => {
                // An unexpected `Err` fails the whole cycle's offers.
                rec.batch(service_ns, OFFERS_PER_CYCLE as u64);
                rec.fail(OFFERS_PER_CYCLE as u64, || e);
            }
        }
    }
}

/// The traced run: service untraced, service traced (spans + telemetry)
/// and a bare `SchedulePlanner`, in lockstep on identical requests.
pub fn trace(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let obs = dmc_obs::Obs::enabled();
    let mut script = Script::new(seed);
    let mut plain = ServiceRung::new(&dmc_obs::Obs::disabled())?;
    let mut traced = ServiceRung::new(&obs)?;
    let mut mirror = SchedulePlanner::new(
        dmc_experiments::fleet::shared_paths(),
        grid()?,
        FleetConfig::default(),
    )
    .map_err(|e| format!("building the mirror planner: {e}"))?;

    let wall = Instant::now();
    let mut tally = Tally::default();
    let mut mirror_ns = 0u64;
    let mut mismatches = 0u64;
    let mut reasons: Vec<String> = Vec::new();
    let budget_ns = (seconds * 1e9 / 3.0) as u64;
    while plain.advance_ns + plain.offer_ns < budget_ns {
        let (origin, requests) = script.cycle()?;
        // The rungs take turns going first (see `svc::trace`).
        let mut decisions = Vec::new();
        let mut decisions_traced = Vec::new();
        let mut decisions_mirror = Vec::new();
        for k in 0..3 {
            match if origin % 2 == 0 { k } else { 2 - k } {
                0 => decisions = plain.cycle(origin, &requests, None)?,
                1 => decisions_traced = traced.cycle(origin, &requests, Some(tracer))?,
                _ => {
                    let (advanced, ns) =
                        timed(Some(tracer), "rung.schedule.advance_to", origin, || {
                            mirror.advance_to(origin)
                        });
                    advanced.map_err(|e| format!("mirror advance_to({origin}): {e}"))?;
                    mirror_ns += ns;
                    for request in &requests {
                        let request = request.clone();
                        let (decision, ns) =
                            timed(Some(tracer), "rung.schedule.offer", origin, || {
                                mirror.offer(request)
                            });
                        decisions_mirror.push(decision.map_err(|e| format!("mirror offer: {e}"))?);
                        mirror_ns += ns;
                    }
                }
            }
        }
        for (i, request) in requests.iter().enumerate() {
            tally.absorb(request, &decisions[i].0, origin);
            let seen = [
                verdict_of(&decisions[i].0),
                verdict_of(&decisions_traced[i].0),
                verdict_of(&decisions_mirror[i]),
            ];
            if seen[0] != seen[1] || seen[0] != seen[2] {
                mismatches += 1;
                if reasons.len() < 8 {
                    reasons.push(format!("origin {origin}: rungs answered {seen:?}"));
                }
            }
        }
        // Per-slot capacity, on the rung that exposes it.
        for (slot, row) in mirror.utilization().iter().enumerate() {
            for (path, load) in row.iter().enumerate() {
                if *load > 1.0 + 1e-7 {
                    mismatches += 1;
                    if reasons.len() < 8 {
                        reasons.push(format!(
                            "origin {origin}: slot +{slot} path {path} utilization {load}"
                        ));
                    }
                }
            }
        }
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let plain_ns = (plain.advance_ns + plain.offer_ns) as f64;
    let traced_ns = (traced.advance_ns + traced.offer_ns) as f64;

    let snap = traced.service.obs_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let offers = tally.offers as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "fleet.schedule.offer_us",
        ratio(traced.offer_ns as f64, offers) / 1e3,
    );
    m.insert(
        "fleet.schedule.advance_us",
        ratio(traced.advance_ns as f64, traced.advances as f64) / 1e3,
    );
    m.insert(
        "fleet.schedule.reserved_share",
        ratio(tally.reserved as f64, offers),
    );
    m.insert(
        "fleet.schedule.rejected_share",
        ratio(tally.rejected as f64, offers),
    );
    m.insert(
        "fleet.schedule.wait_slots_mean",
        ratio(tally.wait_slots as f64, tally.reserved as f64),
    );
    m.insert(
        "fleet.schedule.self_share",
        ratio(plain_ns - mirror_ns as f64, plain_ns),
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
    m.insert("obs.overhead_ratio", ratio(plain_ns, traced_ns));
    m.insert(
        "harness.gen_share",
        1.0 - ratio(plain_ns + traced_ns + mirror_ns as f64, wall_ns),
    );

    let failed = tally.violations.len() as u64 + mismatches;
    reasons.extend(tally.violations.iter().take(8).cloned());
    let mut notes = vec![
        format!(
            "ladder over {} cycles, {} offers per rung: service {:.3} s, traced service {:.3} s, \
             mirror SchedulePlanner {:.3} s",
            plain.advances,
            tally.offers,
            plain_ns * 1e-9,
            traced_ns * 1e-9,
            mirror_ns as f64 * 1e-9
        ),
        format!(
            "verdicts: {} scheduled, {} reserved (mean wait {:.2} slots), {} rejected; \
             rung agreement: {} mismatches",
            tally.scheduled,
            tally.reserved,
            ratio(tally.wait_slots as f64, tally.reserved as f64),
            tally.rejected,
            mismatches
        ),
    ];
    for reason in &reasons {
        notes.push(format!("FAILED CHECK: {reason}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: tally.offers,
        failed,
        metrics: m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_repeats_and_its_windows_stay_inside_the_horizon() {
        let mut a = Script::new(11);
        let mut b = Script::new(11);
        let mut c = Script::new(12);
        let mut differs = false;
        for _ in 0..50 {
            let (origin, ra) = a.cycle().expect("drawn parameters are valid");
            let (_, rb) = b.cycle().expect("drawn parameters are valid");
            let (_, rc) = c.cycle().expect("drawn parameters are valid");
            assert_eq!(ra, rb);
            differs |= ra != rc;
            for r in &ra {
                assert!(r.window().start() >= origin);
                assert!(r.window().end() <= origin + HORIZON_SLOTS);
                assert_eq!(r.window().len() as u64, WINDOW_SLOTS);
            }
        }
        assert!(differs, "another seed draws other requests");
    }
}
