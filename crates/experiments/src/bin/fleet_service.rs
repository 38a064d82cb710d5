//! Fleet-service driver: a seeded tenant script driven through the wire
//! front end of the sharded admission service (`dmc_fleet::service`),
//! plus a worker-count determinism check.
//!
//! Shared flags: `--flows` (offers in the script), `--shards` (capacity
//! regions, 2 paths each, ≤ 64), `--threads` (tick workers; 0 resolves
//! `DMC_THREADS`), `--seed`.
//!
//! Exits nonzero if the 1-worker and 4-worker replays of the same script
//! disagree on the decision hash.

#![forbid(unsafe_code)]

use dmc_experiments::service;

fn main() {
    let args = dmc_experiments::parse_args(1_000);
    let flows = args.flows.max(16);
    eprintln!(
        "fleet_service: {} offer(s) across {} shard(s), seed {:#x}…",
        flows, args.shards, args.seed
    );

    println!("# Fleet service: sharded admission over wire frames\n");
    let obs = args.obs();
    let (outcome, snapshot) =
        service::run_service_script(args.seed, flows, args.shards, args.threads, &obs);
    println!("{}", service::render(&outcome));

    println!("# Worker-count determinism (1 vs 4 workers)\n");
    match service::determinism_check(args.seed, flows.min(128), args.shards) {
        Ok(hash) => println!("- ok: both replays hash to {hash:#018x}"),
        Err(why) => {
            eprintln!("determinism violation: {why}");
            std::process::exit(1);
        }
    }

    if obs.is_enabled() {
        dmc_experiments::finish_metrics_snapshot(&args, &snapshot);
    }
}
