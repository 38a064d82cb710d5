//! `flow_deliver` — the paper's experiment: a solved `Plan` driven
//! through the protocol endpoints on the discrete-event simulator.
//!
//! Each step is one `runner::run_plan` of 2 500 messages on one of six
//! cases in rotation: Table III at three data rates, Table V (random
//! delays), Figure 1, and Table III with Gilbert–Elliott bursts in place
//! of its Bernoulli loss. Planning happens once, in set-up; the `sim`
//! event engine and the `proto` sender/receiver do all the timed work.
//! This is also where the paper's promise is checked: on the clean cases
//! the measured in-time share must sit within 1.5 percentage points of
//! the plan's prediction.

use crate::harness::{fnv1a, Outcome, Prefix, Recorder, Workload, FNV_BASIS};
use crate::rng::SplitMix64;
use crate::stats::ratio;
use crate::trace::{timed, Tracer};
use dmc_core::{Objective, Plan, Planner};
use dmc_experiments::runner::{run_plan, RunConfig, RunOutcome, TrueNetwork};
use dmc_experiments::scenarios;
use dmc_proto::{DmcReceiver, DmcSender, ReceiverConfig, SenderConfig, TimeoutPlan};
use dmc_sim::{
    Agent, GilbertElliott, LinkConfig, LossModel, Packet, SimApi, SimDuration, TwoHostSim,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Messages per timed run: short enough for some 800 latency samples in
/// a 10 s window, long enough that a run is all steady state (the
/// longest timeout is under a second of simulated time; 2 500 messages
/// are 0.2 to 2 simulated seconds of traffic).
const MESSAGES: u64 = 2_500;
/// Messages per run in the prefix, where the prediction check wants the
/// tighter estimate and set-up time wants to be worth measuring.
const PREFIX_MESSAGES: u64 = 10_000;
/// Largest tolerated |measured − predicted| on a clean case, in
/// percentage points, over all of a run's messages for that case.
const GAP_LIMIT_PP: f64 = 1.5;

/// One plan with the network it runs on.
struct Case {
    label: &'static str,
    plan: Plan,
    truth: TrueNetwork,
    /// Clean cases hold the prediction check; the bursty one is there to
    /// exercise the endpoints under correlated loss and is not judged.
    clean: bool,
}

/// The rotation, by cost per message on the seed commit: two cheap steps
/// (Table III at 120 Mbps, Figure 1), three in the middle (Table III at
/// 90 Mbps twice and its bursty twin, within 2 % of each other) and two
/// dear ones (Table V, Table III at 40 Mbps). The median step is then
/// inside the middle group and the 95th percentile inside the dear one,
/// neither on the edge between two.
const ROTATION: [usize; 7] = [2, 4, 1, 5, 1, 3, 0];

fn cases() -> Result<Vec<Case>, String> {
    let mut planner = Planner::new();
    let mut out = Vec::new();
    for (label, lambda) in [
        ("table3@40", 40e6),
        ("table3@90", 90e6),
        ("table3@120", 120e6),
    ] {
        let measured = scenarios::table3_scenario(lambda, 0.8);
        let plan = planner
            .plan_with_margin(&measured, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
            .map_err(|e| format!("{label}: {e}"))?;
        out.push(Case {
            label,
            plan,
            truth: TrueNetwork::from_scenario(&measured),
            clean: true,
        });
    }
    let table5 = scenarios::table5_scenario(90e6, 0.75);
    out.push(Case {
        label: "table5",
        plan: planner
            .plan(&table5, Objective::MaxQuality)
            .map_err(|e| format!("table5: {e}"))?,
        // Experiment 2's set-up: over-provisioned links, used only as far
        // as the model allows.
        truth: TrueNetwork::from_scenario(&table5).over_provisioned(1.5),
        clean: true,
    });
    let figure1 = scenarios::figure1_scenario();
    out.push(Case {
        label: "figure1",
        plan: planner
            .plan_with_margin(&figure1, scenarios::QUEUE_MARGIN_S, Objective::MaxQuality)
            .map_err(|e| format!("figure1: {e}"))?,
        truth: TrueNetwork::from_scenario(&figure1),
        clean: true,
    });
    // Table III at 90 Mbps again, but path 0 loses in bursts of mean
    // length 4 with the same 20 % stationary rate the plan assumed.
    let bursts = GilbertElliott::classic(0.0625, 0.25)?;
    let measured = scenarios::table3_scenario(90e6, 0.8);
    out.push(Case {
        label: "table3@90+bursts",
        plan: out[1].plan.clone(),
        truth: TrueNetwork::from_scenario(&measured)
            .with_loss_model(0, LossModel::GilbertElliott(bursts)),
        clean: false,
    });
    Ok(out)
}

/// In-time and generated messages per case, for the prediction check.
#[derive(Debug, Default, Clone, Copy)]
struct Delivered {
    in_time: u64,
    generated: u64,
}

/// Largest gap (percentage points) between the pooled measured share and
/// the prediction over the clean cases, with the case it belongs to.
fn worst_gap(cases: &[Case], delivered: &[Delivered]) -> (f64, &'static str) {
    cases
        .iter()
        .zip(delivered)
        .filter(|(case, d)| case.clean && d.generated > 0)
        .map(|(case, d)| {
            let measured = d.in_time as f64 / d.generated as f64;
            ((measured - case.plan.quality()).abs() * 100.0, case.label)
        })
        .fold(
            (0.0, "-"),
            |worst, gap| if gap.0 > worst.0 { gap } else { worst },
        )
}

/// What every run must satisfy on its own.
fn check_run(case: &Case, outcome: &RunOutcome, messages: u64) -> Option<String> {
    let s = &outcome.sender;
    let r = &outcome.receiver;
    if s.generated != messages
        || r.unique_in_time + r.unique_late > s.generated
        || !(0.0..=1.0).contains(&outcome.quality)
        || outcome.predicted_quality.to_bits() != case.plan.quality().to_bits()
    {
        return Some(format!(
            "{}: generated {}, in time {}, late {}, quality {}, predicted {} (plan says {})",
            case.label,
            s.generated,
            r.unique_in_time,
            r.unique_late,
            outcome.quality,
            outcome.predicted_quality,
            case.plan.quality()
        ));
    }
    None
}

/// The workload as the harness drives it untraced.
pub struct Deliverer {
    cases: Vec<Case>,
    delivered: Vec<Delivered>,
    rng: SplitMix64,
    step: usize,
    gap_reported: bool,
}

impl Deliverer {
    pub fn setup(seed: u64) -> Result<(Deliverer, Prefix), String> {
        let cases = cases()?;
        let mut rng = SplitMix64::new(seed, 0xDE11);
        let mut delivered = vec![Delivered::default(); cases.len()];
        let mut prefix = Prefix {
            served: 0.0,
            offered: 0.0,
            hash: FNV_BASIS,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        };
        // The prefix: every case once, which also pages in every code
        // path the timed runs take.
        for (i, case) in cases.iter().enumerate() {
            let cfg = RunConfig {
                messages: PREFIX_MESSAGES,
                seed: rng.next_u64(),
                ..RunConfig::default()
            };
            let outcome = run_plan(&case.plan, &case.truth, &cfg)?;
            prefix.served += outcome.receiver.unique_in_time as f64;
            prefix.offered += outcome.sender.generated as f64;
            prefix.attempted += outcome.sender.generated;
            prefix.hash = fnv1a(prefix.hash, &outcome.quality.to_bits().to_le_bytes());
            delivered[i].in_time += outcome.receiver.unique_in_time;
            delivered[i].generated += outcome.sender.generated;
            if let Some(v) = check_run(case, &outcome, PREFIX_MESSAGES) {
                prefix.failed += outcome.sender.generated.max(1);
                prefix.reasons.push(v);
            }
        }
        Ok((
            Deliverer {
                cases,
                delivered,
                rng,
                step: 0,
                gap_reported: false,
            },
            prefix,
        ))
    }
}

impl Workload for Deliverer {
    fn step(&mut self, rec: &mut Recorder) {
        let index = ROTATION[self.step % ROTATION.len()];
        self.step += 1;
        let case = &self.cases[index];
        let cfg = RunConfig {
            messages: MESSAGES,
            seed: self.rng.next_u64(),
            ..RunConfig::default()
        };
        let (result, ns) = timed(None, "runner.run_plan", 0, || {
            run_plan(&case.plan, &case.truth, &cfg)
        });
        rec.batch(ns, MESSAGES);
        rec.latency_us(ns as f64 / 1e3 / MESSAGES as f64);
        match result {
            Ok(outcome) => {
                self.delivered[index].in_time += outcome.receiver.unique_in_time;
                self.delivered[index].generated += outcome.sender.generated;
                rec.served(
                    outcome.receiver.unique_in_time as f64,
                    outcome.sender.generated as f64,
                );
                if let Some(v) = check_run(case, &outcome, MESSAGES) {
                    rec.fail(MESSAGES, || v);
                }
            }
            Err(e) => rec.fail(MESSAGES, || format!("{}: {e}", case.label)),
        }
        // The paper's promise, on everything delivered so far. Checked as
        // the run goes (the pooled share only gets steadier), reported
        // once.
        let (gap, label) = worst_gap(&self.cases, &self.delivered);
        if gap > GAP_LIMIT_PP && !self.gap_reported {
            self.gap_reported = true;
            rec.fail(MESSAGES, || {
                format!("{label}: measured in-time share is {gap:.2} pp from the prediction")
            });
        }
    }
}

// ---------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------

/// An endpoint whose callbacks are timed from outside.
struct Timed<A> {
    inner: A,
    ns: u64,
    calls: u64,
}

impl<A> Timed<A> {
    fn new(inner: A) -> Timed<A> {
        Timed {
            inner,
            ns: 0,
            calls: 0,
        }
    }

    fn time(&mut self, f: impl FnOnce(&mut A)) {
        let start = Instant::now();
        f(&mut self.inner);
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

impl<A: Agent> Agent for Timed<A> {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        self.time(|a| a.on_start(api));
    }

    fn on_packet(&mut self, path: usize, packet: Packet, api: &mut SimApi<'_>) {
        self.time(|a| a.on_packet(path, packet, api));
    }

    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        self.time(|a| a.on_timer(key, api));
    }
}

/// What the decorated run measured.
struct Decorated {
    total_ns: u64,
    loop_ns: u64,
    callback_ns: u64,
    callbacks: u64,
    events: u64,
    in_time: u64,
    generated: u64,
}

/// `run_plan`'s wiring, with both endpoints wrapped in [`Timed`].
fn run_decorated(case: &Case, seed: u64) -> Result<Decorated, String> {
    let start = Instant::now();
    let cfg = RunConfig::default();
    let plan = &case.plan;
    let extra = if plan.scenario().is_deterministic() {
        cfg.rto_extra
    } else {
        SimDuration::ZERO
    };
    let mut sender_cfg = SenderConfig::new(
        plan.strategy().clone(),
        TimeoutPlan::from_plan(plan, extra),
        plan.scenario().data_rate(),
        MESSAGES,
    );
    sender_cfg.message_wire_bytes = cfg.message_bytes;
    sender_cfg.fast_retransmit = cfg.fast_retransmit;
    let receiver_cfg = ReceiverConfig::new(
        SimDuration::from_secs_f64(plan.scenario().lifetime()),
        plan.ack_path(),
    );
    let links = || -> Vec<LinkConfig> {
        case.truth
            .links()
            .iter()
            .map(|l| LinkConfig {
                bandwidth_bps: l.bandwidth,
                propagation: Arc::clone(&l.delay),
                loss: l.loss.clone(),
                queue_capacity_bytes: cfg.queue_capacity,
            })
            .collect()
    };
    let mut sim = TwoHostSim::new(
        links(),
        links(),
        Timed::new(DmcSender::new(sender_cfg)),
        Timed::new(DmcReceiver::new(receiver_cfg)),
        seed,
    )?;
    let loop_start = Instant::now();
    sim.run_to_completion();
    let loop_ns = loop_start.elapsed().as_nanos() as u64;
    let events = sim.events_processed();
    let (client, server) = (sim.client(), sim.server());
    Ok(Decorated {
        loop_ns,
        callback_ns: client.ns + server.ns,
        callbacks: client.calls + server.calls,
        events,
        in_time: server.inner.stats().unique_in_time,
        generated: client.inner.stats().generated,
        total_ns: start.elapsed().as_nanos() as u64,
    })
}

/// The traced run: `run_plan` untraced, `run_plan` with telemetry, and
/// the same wiring with timed endpoints — same case, same seed, each run.
pub fn trace(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let obs = dmc_obs::Obs::enabled();
    let cases = cases()?;
    let mut rng = SplitMix64::new(seed, 0xDE11);
    let mut delivered = vec![Delivered::default(); cases.len()];
    let mut case_ns = vec![0u64; cases.len()];

    let wall = Instant::now();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut sums = Decorated {
        total_ns: 0,
        loop_ns: 0,
        callback_ns: 0,
        callbacks: 0,
        events: 0,
        in_time: 0,
        generated: 0,
    };
    let (mut runs, mut failed) = (0u64, 0u64);
    let mut reasons: Vec<String> = Vec::new();
    let budget_ns = (seconds * 1e9 / 3.0) as u64;
    while plain_ns < budget_ns {
        let index = ROTATION[runs as usize % ROTATION.len()];
        let case = &cases[index];
        let run_seed = rng.next_u64();
        let cfg = RunConfig {
            messages: MESSAGES,
            seed: run_seed,
            ..RunConfig::default()
        };
        let cfg_traced = RunConfig {
            obs: obs.clone(),
            ..cfg.clone()
        };
        // The rungs take turns going first (see `svc::trace`).
        let (mut plain, mut traced, mut decorated) = (None, None, None);
        for k in 0..3 {
            match if runs % 2 == 0 { k } else { 2 - k } {
                0 => {
                    let (r, ns) = timed(None, "runner.run_plan", runs, || {
                        run_plan(&case.plan, &case.truth, &cfg)
                    });
                    plain_ns += ns;
                    case_ns[index] += ns;
                    plain = Some(r?);
                }
                1 => {
                    let (r, ns) = tracer.leaf("runner.run_plan", runs, || {
                        run_plan(&case.plan, &case.truth, &cfg_traced)
                    });
                    traced_ns += ns;
                    traced = Some(r?);
                }
                _ => {
                    let (r, _) =
                        tracer.leaf("rung.endpoints.run", runs, || run_decorated(case, run_seed));
                    decorated = Some(r?);
                }
            }
        }
        let (Some(plain), Some(traced), Some(decorated)) = (plain, traced, decorated) else {
            return Err("every rung runs once per step".into());
        };

        runs += 1;
        delivered[index].in_time += plain.receiver.unique_in_time;
        delivered[index].generated += plain.sender.generated;
        let mut problems: Vec<String> = check_run(case, &plain, MESSAGES).into_iter().collect();
        // Same seed, same wiring: all three runs deliver the same packets.
        if traced.receiver.unique_in_time != plain.receiver.unique_in_time
            || decorated.in_time != plain.receiver.unique_in_time
            || decorated.generated != plain.sender.generated
        {
            problems.push(format!(
                "{}: run_plan delivered {} in time, traced {}, decorated {}",
                case.label,
                plain.receiver.unique_in_time,
                traced.receiver.unique_in_time,
                decorated.in_time
            ));
        }
        failed += u64::from(!problems.is_empty());
        reasons.extend(
            problems
                .into_iter()
                .take(8usize.saturating_sub(reasons.len())),
        );
        sums.total_ns += decorated.total_ns;
        sums.loop_ns += decorated.loop_ns;
        sums.callback_ns += decorated.callback_ns;
        sums.callbacks += decorated.callbacks;
        sums.events += decorated.events;
        sums.generated += decorated.generated;
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let (gap, gap_label) = worst_gap(&cases, &delivered);
    if gap > GAP_LIMIT_PP {
        failed += 1;
        reasons.push(format!(
            "{gap_label}: measured in-time share is {gap:.2} pp from the prediction"
        ));
    }

    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let total = sums.total_ns as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "proto.endpoint.callback_ns",
        ratio(sums.callback_ns as f64, sums.callbacks as f64),
    );
    m.insert(
        "proto.endpoint.share",
        ratio(sums.callback_ns as f64, total),
    );
    m.insert(
        "proto.retx_ratio",
        ratio(
            counter("proto.tx.retransmissions"),
            counter("proto.tx.transmissions"),
        ),
    );
    m.insert(
        "proto.in_time_share",
        ratio(counter("proto.rx.in_time"), counter("proto.tx.generated")),
    );
    m.insert("proto.gap_pp_max", gap);
    m.insert(
        "sim.event_ns",
        ratio(
            sums.loop_ns as f64 - sums.callback_ns as f64,
            sums.events as f64,
        ),
    );
    m.insert(
        "sim.events_per_msg",
        ratio(sums.events as f64, sums.generated as f64),
    );
    m.insert(
        "sim.share",
        ratio(sums.loop_ns as f64 - sums.callback_ns as f64, total),
    );
    m.insert(
        "obs.overhead_ratio",
        ratio(plain_ns as f64, traced_ns as f64),
    );
    m.insert(
        "harness.gen_share",
        1.0 - ratio((plain_ns + traced_ns) as f64 + total, wall_ns),
    );

    let mut notes = vec![
        format!(
            "{} runs of {} messages per rung: run_plan {:.3} s, with telemetry {:.3} s, with timed \
             endpoints {:.3} s ({} callbacks, {} events; endpoint callbacks are counted, not \
             recorded as spans — there are millions)",
            runs,
            MESSAGES,
            plain_ns as f64 * 1e-9,
            traced_ns as f64 * 1e-9,
            total * 1e-9,
            sums.callbacks,
            sums.events
        ),
        format!(
            "prediction check: worst clean case {gap_label} at {gap:.3} pp (limit {GAP_LIMIT_PP})"
        ),
    ];
    for ((case, d), ns) in cases.iter().zip(&delivered).zip(&case_ns) {
        notes.push(format!(
            "  {:18} predicted {:.4}, measured {:.4} over {} messages, {:.3} us per message{}",
            case.label,
            case.plan.quality(),
            ratio(d.in_time as f64, d.generated as f64),
            d.generated,
            ratio(*ns as f64, d.generated as f64) / 1e3,
            if case.clean { "" } else { " (not judged)" }
        ));
    }
    for reason in &reasons {
        notes.push(format!("FAILED CHECK: {reason}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: runs * MESSAGES,
        failed: failed * MESSAGES,
        metrics: m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rotation_visits_every_case() {
        let cases = cases().expect("literal scenarios are valid");
        assert_eq!(cases.len(), 6);
        for i in 0..cases.len() {
            assert!(ROTATION.contains(&i), "case {i} never runs");
        }
        assert_eq!(cases.iter().filter(|c| c.clean).count(), 5);
    }

    #[test]
    fn the_decorated_wiring_delivers_what_run_plan_delivers() {
        let cases = cases().expect("literal scenarios are valid");
        let case = &cases[1];
        let cfg = RunConfig {
            messages: MESSAGES,
            seed: 77,
            ..RunConfig::default()
        };
        let plain = run_plan(&case.plan, &case.truth, &cfg).expect("valid wiring");
        let decorated = run_decorated(case, 77).expect("valid wiring");
        assert_eq!(decorated.in_time, plain.receiver.unique_in_time);
        assert_eq!(decorated.generated, MESSAGES);
        assert!(decorated.callbacks > MESSAGES && decorated.events > decorated.callbacks / 2);
        assert!(decorated.callback_ns < decorated.total_ns);
    }
}
