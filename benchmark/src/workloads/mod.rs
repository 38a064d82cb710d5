//! The six workloads. Each has an untraced run (the seven end-to-end
//! metrics) and a traced run (the per-layer account).

pub mod deliver;
pub mod replan;
pub mod sched;
pub mod svc;

use crate::harness::{run_end_to_end, Outcome};
use crate::trace::Tracer;

/// Operations per `--seconds` second that `served_share` covers beyond
/// the prefix: frozen at roughly half of what the seed commit completes,
/// so the count is normally reached inside the timed window. The open
/// loop's timed batches depend on measured time, so `svc_wire_paced`
/// judges its prefix alone.
fn served_ops_per_s(name: &str) -> f64 {
    match name {
        "svc_wire_churn" => 9000.0,
        "svc_contended" => 500.0,
        "sched_horizon" => 110.0,
        "flow_replan" => 6000.0,
        "flow_deliver" => 100_000.0,
        _ => 0.0,
    }
}

/// Runs workload `name` for `seconds`: untraced without a tracer, the
/// layer ladder with one.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let svc_kind = [svc::Kind::Churn, svc::Kind::Paced, svc::Kind::Contended]
        .into_iter()
        .find(|kind| kind.name() == name);
    let share = served_ops_per_s(name);
    match (name, svc_kind, tracer) {
        (_, Some(kind), None) => {
            run_end_to_end(seed, seconds, share, |seed| svc::Service::setup(kind, seed))
        }
        (_, Some(kind), Some(tracer)) => svc::trace(kind, seed, seconds, tracer),
        ("sched_horizon", _, None) => run_end_to_end(seed, seconds, share, sched::Horizon::setup),
        ("sched_horizon", _, Some(tracer)) => sched::trace(seed, seconds, tracer),
        ("flow_replan", _, None) => run_end_to_end(seed, seconds, share, replan::Replanner::setup),
        ("flow_replan", _, Some(tracer)) => replan::trace(seed, seconds, tracer),
        ("flow_deliver", _, None) => {
            run_end_to_end(seed, seconds, share, deliver::Deliverer::setup)
        }
        ("flow_deliver", _, Some(tracer)) => deliver::trace(seed, seconds, tracer),
        _ => Err(format!("unknown workload {name:?}")),
    }
}
