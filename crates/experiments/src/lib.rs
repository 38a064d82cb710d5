//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§VII).
//!
//! | Artifact | Module | Binary |
//! |---|---|---|
//! | Table IV (optimal solutions vs. λ and δ) | [`table4`] | `cargo run -p dmc-experiments --bin table4 --release` |
//! | Figure 2 (theory vs. simulation vs. single paths) | [`figure2`] | `… --bin figure2` |
//! | Experiment 2 (random delays, Eq.-34 timeouts) | [`experiment2`] | `… --bin experiment2` |
//! | Figure 3 (sensitivity to estimation errors) | [`figure3`] | `… --bin figure3` |
//! | Figure 4 (LP solve times) | [`figure4`] | `… --bin figure4` |
//! | Fleet: multi-flow admission & joint allocation (beyond the paper) | [`fleet`] | `… --bin fleet` |
//! | Fleet service: sharded admission over wire frames (beyond the paper) | [`service`] | `… --bin fleet_service` |
//!
//! Simulation binaries run through the parallel Monte-Carlo engine
//! ([`montecarlo`]) and share one flag vocabulary:
//!
//! * `--messages N` (or env `MESSAGES`) — messages per simulation
//!   (default: the paper's 100,000);
//! * `--trials N` (or env `TRIALS`) — independent trials per point,
//!   reported as mean ± 95 % Student-t CI (default 1: the paper's
//!   single-run protocol);
//! * `--threads N` (or env `DMC_THREADS`) — worker threads; `1` is the
//!   sequential oracle, `0`/unset uses all cores (`DMC_THREADS=0` is
//!   clamped to the sequential oracle, and an unparseable value warns
//!   once and counts as unset). Results are bit-identical at any thread
//!   count;
//! * `--seed S` (or env `SEED`) — base of the per-trial seed stream;
//! * `--runs N` (or env `RUNS`) — timing repetitions (`figure4` only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiment2;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod fleet;
pub mod montecarlo;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod schedule;
pub mod service;
pub mod table4;

/// Shared command-line/environment knobs of the experiment binaries.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Messages per simulation (`--messages`/`MESSAGES`).
    pub messages: u64,
    /// Independent trials per point (`--trials`/`TRIALS`).
    pub trials: u64,
    /// Worker threads, 0 = all cores (`--threads`/`DMC_THREADS`).
    pub threads: usize,
    /// Base seed of the trial seed stream (`--seed`/`SEED`).
    pub seed: u64,
    /// Timing repetitions for the solve-time binary (`--runs`/`RUNS`).
    pub runs: u64,
    /// Flows offered per trial in the fleet driver (`--flows`/`FLOWS`;
    /// the incremental sparse joint solver keeps sweeps with hundreds of
    /// concurrent flows tractable).
    pub flows: u64,
    /// Capacity regions in the fleet-service driver
    /// (`--shards`/`SHARDS`; each shard is a two-path region, ≤ 64).
    pub shards: usize,
    /// Telemetry export path (`--metrics`/`METRICS`); `None` disables
    /// telemetry entirely. A `.prom` extension selects the Prometheus
    /// text exposition, anything else the deterministic JSON-lines form.
    pub metrics: Option<std::path::PathBuf>,
}

impl RunArgs {
    /// The Monte-Carlo configuration these arguments describe.
    pub fn montecarlo(&self) -> montecarlo::MonteCarloConfig {
        montecarlo::MonteCarloConfig {
            trials: self.trials,
            threads: self.threads,
            base_seed: self.seed,
        }
    }

    /// The driver's telemetry registry: enabled exactly when `--metrics`
    /// (or `METRICS`) requested an export, disabled (zero-cost) otherwise.
    pub fn obs(&self) -> dmc_obs::Obs {
        if self.metrics.is_some() {
            dmc_obs::Obs::enabled()
        } else {
            dmc_obs::Obs::disabled()
        }
    }

    /// Writes `snap` to the `--metrics` path (no-op without one):
    /// Prometheus text when the path ends in `.prom`, deterministic
    /// JSON-lines otherwise. Returns the path written to.
    ///
    /// # Errors
    ///
    /// Forwards the I/O error message.
    pub fn write_metrics(
        &self,
        snap: &dmc_obs::Snapshot,
    ) -> Result<Option<std::path::PathBuf>, String> {
        let Some(path) = &self.metrics else {
            return Ok(None);
        };
        let body = if path.extension().is_some_and(|e| e == "prom") {
            snap.to_prometheus()
        } else {
            snap.to_jsonl()
        };
        std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(Some(path.clone()))
    }
}

/// Driver epilogue: renders the registry's snapshot as a markdown table
/// on stdout and exports it to the `--metrics` path. No-op when the
/// registry is disabled (no `--metrics` given). Exits with status 1 if
/// the export file cannot be written — a requested artifact silently
/// missing would defeat the point of asking for it.
pub fn finish_metrics(args: &RunArgs, obs: &dmc_obs::Obs) {
    if !obs.is_enabled() {
        return;
    }
    finish_metrics_snapshot(args, &obs.snapshot());
}

/// [`finish_metrics`] for drivers that already hold a merged
/// [`Snapshot`](dmc_obs::Snapshot) (e.g. the fleet-service driver, whose
/// per-shard forks are absorbed by `FleetService::obs_snapshot`, so the
/// parent registry alone would under-report). No-op when the snapshot is
/// empty and no `--metrics` export was requested.
pub fn finish_metrics_snapshot(args: &RunArgs, snap: &dmc_obs::Snapshot) {
    let table = report::snapshot_table(snap);
    if !table.is_empty() {
        println!("\n# Telemetry (dmc-obs)\n");
        println!("{table}");
    }
    match args.write_metrics(snap) {
        Ok(Some(path)) => eprintln!("metrics written to {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses the shared `--messages/--trials/--threads/--seed/--runs` flags
/// (each falling back to its environment variable, then to the given
/// message default). Unknown flags abort with a usage message; `--help`
/// prints it and exits.
pub fn parse_args(default_messages: u64) -> RunArgs {
    let mut args = RunArgs {
        messages: env_parse("MESSAGES", default_messages),
        trials: env_parse("TRIALS", 1),
        threads: env_parse("DMC_THREADS", 0),
        seed: env_parse("SEED", 0xDEAD_BEEF),
        runs: env_parse("RUNS", 100),
        flows: env_parse("FLOWS", fleet::FLOWS_PER_TRIAL),
        shards: env_parse("SHARDS", service::SHARDS_DEFAULT),
        metrics: std::env::var("METRICS").ok().map(std::path::PathBuf::from),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!(
                "flags: --messages N  --trials N  --threads N (1 = sequential oracle, \
                 0 = all cores; DMC_THREADS=0 clamps to 1)  --seed S  --runs N  \
                 --flows N (fleet drivers)  --shards N (fleet_service driver, ≤ 64)  \
                 --metrics PATH (telemetry export: .prom = Prometheus text, else JSONL)\n\
                 env fallbacks: MESSAGES, TRIALS, DMC_THREADS, SEED, RUNS, FLOWS, SHARDS, METRICS"
            );
            std::process::exit(0);
        }
        let Some(value) = argv.get(i + 1) else {
            eprintln!("missing value for {flag} (see --help)");
            std::process::exit(2);
        };
        let parsed = match flag {
            "--messages" => value.parse().map(|v| args.messages = v).is_ok(),
            "--trials" => value.parse().map(|v| args.trials = v).is_ok(),
            "--threads" => value.parse().map(|v| args.threads = v).is_ok(),
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--runs" => value.parse().map(|v| args.runs = v).is_ok(),
            "--flows" => value.parse().map(|v| args.flows = v).is_ok(),
            "--shards" => value.parse().map(|v| args.shards = v).is_ok(),
            "--metrics" => {
                args.metrics = Some(std::path::PathBuf::from(value));
                true
            }
            _ => {
                eprintln!("unknown flag {flag} (see --help)");
                std::process::exit(2);
            }
        };
        if !parsed {
            eprintln!("invalid value {value:?} for {flag}");
            std::process::exit(2);
        }
        i += 2;
    }
    if args.trials == 0 {
        eprintln!("--trials must be ≥ 1");
        std::process::exit(2);
    }
    args
}
