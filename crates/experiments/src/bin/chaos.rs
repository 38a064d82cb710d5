//! Chaos driver: seeded fault scripts replayed against invariant
//! checkers across the fleet and protocol layers.
//!
//! Per trial the fleet leg replays a seeded script — mixed-priority
//! arrivals, a correlated two-link outage, recovery, and a full shed
//! horizon of capacity events — through a *certifying* planner (every
//! joint-LP solution re-verified against its constraints), twice, and
//! demands: allocations within surviving capacity, every shed flow
//! revived or definitively rejected within the backoff horizon, and
//! bitwise-identical trace hashes. The proto leg runs the Table III
//! scenario under payload corruption, duplication and bounded
//! reordering. Exits nonzero on any invariant violation.
//!
//! With `--metrics` the replays also record dmc-obs telemetry, the
//! counter deltas are cross-checked against the planner's own state
//! (an instrumentation drift is an invariant violation like any other),
//! and the whole workload is re-run at 1 and 4 worker threads to prove
//! the merged snapshot's FNV hash is bitwise-identical at any
//! concurrency — the telemetry layer's own determinism contract.
//!
//! Shared flags: `--messages/--trials/--threads/--seed/--flows`,
//! plus `--metrics PATH`.

#![forbid(unsafe_code)]

use dmc_experiments::chaos;
use dmc_experiments::montecarlo::MonteCarloConfig;

fn main() {
    let args = dmc_experiments::parse_args(3_000);
    let mc = args.montecarlo();
    let obs = args.obs();
    eprintln!(
        "chaos: {} flows/trial on {:.0} Mbps across 3 paths; {} trial(s) on {} thread(s), \
         seed {:#x}…",
        args.flows,
        chaos::chaos_capacity() / 1e6,
        mc.trials,
        mc.resolved_threads(),
        mc.base_seed
    );

    println!("# Fleet chaos: correlated outage, shed/backoff/revive, certified solves\n");
    let outcomes = chaos::fleet_chaos_mc(&mc, args.flows, &obs);
    println!("{}", chaos::render(&outcomes));

    println!("\n# Proto chaos: corruption + duplication + bounded reordering (Table III)\n");
    let out = chaos::proto_chaos_run(mc.base_seed, args.messages, &obs).expect("proto chaos run");
    let inj = out.faults_injected;
    println!(
        "- injected: {} corrupted, {} duplicated, {} reordered frame(s)",
        inj.corrupted, inj.duplicated, inj.reordered
    );
    println!(
        "- receiver: {} checksum rejection(s), {} duplicate(s) discarded",
        out.receiver.malformed, out.receiver.duplicates
    );
    println!(
        "- delivered in time: {:.2} % (LP predicted {:.2} % on clean links)",
        out.quality * 100.0,
        out.predicted_quality * 100.0
    );

    let violations: Vec<&String> = outcomes.iter().flat_map(|o| &o.violations).collect();
    if !violations.is_empty() {
        eprintln!("\n{} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    eprintln!("\nall invariants hold across {} trial(s)", outcomes.len());

    if obs.is_enabled() {
        // The telemetry layer's own determinism contract: replay the
        // whole workload at 1 and at 4 worker threads into fresh
        // registries — all three merged snapshots must hash identically.
        let hash = obs.snapshot().fnv_hash();
        for workers in [1usize, 4] {
            let again = dmc_obs::Obs::enabled();
            let mc2 = MonteCarloConfig {
                trials: mc.trials,
                threads: workers,
                base_seed: mc.base_seed,
            };
            let _ = chaos::fleet_chaos_mc(&mc2, args.flows, &again);
            let _ = chaos::proto_chaos_run(mc.base_seed, args.messages, &again)
                .expect("proto chaos replay");
            let got = again.snapshot().fnv_hash();
            if got != hash {
                eprintln!(
                    "telemetry determinism violation: snapshot hash {got:#018x} at \
                     {workers} worker(s) != {hash:#018x} from the main run"
                );
                std::process::exit(1);
            }
        }
        eprintln!("telemetry snapshot hash {hash:#018x} reproduces at 1 and 4 worker(s)");
        dmc_experiments::finish_metrics(&args, &obs);
    }
}
