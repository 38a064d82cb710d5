//! `dmc-benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! dmc-benchmark --workload W --seed N --seconds S --trace 0|1
//! dmc-benchmark [--seed N] [--seconds S] [--trace 0|1]     # all six
//! dmc-benchmark compare A.jsonl B.jsonl [--same-build]
//! ```
//!
//! One run measures one workload in this process and ends with one JSON
//! line: `correct`, `attempted`, `failed`, `metrics`. Without
//! `--workload` each of the six runs in a child process of its own (so
//! `peak_rss_mb` is that workload's) and a summary follows. See
//! `README.md` next to this crate for what the numbers mean.

#![forbid(unsafe_code)]

mod calib;
mod clock;
mod compare;
mod harness;
mod json;
mod metrics;
mod rng;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dmc-benchmark --workload W --seed N --seconds S --trace 0|1
  dmc-benchmark [--seed N] [--seconds S] [--trace 0|1]   (all six workloads)
  dmc-benchmark compare A.jsonl B.jsonl [--same-build] [--benchmark-json PATH]
workloads: svc_wire_churn svc_wire_paced svc_contended sched_horizon flow_replan flow_deliver";

/// What the traced run cannot show, printed with every account.
const CANNOT_SHOW: [&str; 4] = [
    "parallel speed-up: every service runs workers: 1 on one driver thread (and this box has few CPUs)",
    "a real link: frames are handed over in memory, packets cross a simulated network",
    "the joint solve apart from joint assembly: FleetPlanner exposes no entry point between them, \
     so fleet.planner.joint_share is both (plus the per-flow plan refresh)",
    "time inside a layer: spans sit around public calls only; the library itself reads no clock",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        // `run_seconds` in BENCHMARK.json: the length the bounds are sized for.
        seconds: 15.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &out.workload {
        if !metrics::WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}\n{USAGE}"));
        }
    }
    Ok(out)
}

/// The contract's result object: exactly these four keys.
fn result_json(out: &harness::Outcome) -> Json {
    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(metrics::unit_of(name).unwrap_or("?"))),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
}

/// One workload, in this process.
fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    println!(
        "# dmc-benchmark {workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# hardware: {}", sys::hardware_line());
    let mut tracer = trace::Tracer::new();
    let mut out = workloads::run(
        workload,
        args.seed,
        args.seconds,
        args.trace.then_some(&mut tracer),
    )?;
    for note in &out.notes {
        println!("{note}");
    }

    // Every metric of the mode's table, by name, with its unit; a
    // per-layer metric that does not apply to this workload reads 0.
    let table: &[metrics::MetricDef] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let measured: std::collections::BTreeMap<String, f64> = out.metrics.drain(..).collect();
    out.metrics = table
        .iter()
        .map(|def| {
            (
                def.name.to_string(),
                measured.get(def.name).copied().unwrap_or(0.0),
            )
        })
        .collect();
    for (def, (_, value)) in table.iter().zip(&out.metrics) {
        let applies = !args.trace || measured.contains_key(def.name);
        println!(
            "  {:34} {:>16.6} {:6} {} is better{}",
            def.name,
            value,
            def.unit,
            def.better.as_str(),
            if applies { "" } else { " (n/a here)" }
        );
    }

    if args.trace {
        println!("self time per span name (span minus the spans directly inside it):");
        for (name, t) in tracer.self_times() {
            println!(
                "  {:34} n={:<9} total {:>12.3} ms  self {:>12.3} ms",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        // Next to the crate's sources, wherever the run was started from.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "{} spans written to {} ({} dropped)",
                tracer.spans().len(),
                path.display(),
                tracer.dropped()
            ),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        println!("what this account cannot show:");
        for line in CANNOT_SHOW {
            println!("  - {line}");
        }
    }

    println!("{}", result_json(&out).render());
    Ok(())
}

/// All six, each in a child process of its own.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    println!("# hardware: {}", sys::hardware_line());
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut merged: Vec<(String, Json)> = Vec::new();
    for workload in metrics::WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            // `output` waits for the child and collects its stdout.
            .output()
            .map_err(|e| format!("starting the {workload} run: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let result = Json::parse(last)
            .ok()
            .filter(|_| output.status.success())
            .ok_or_else(|| {
                format!(
                    "the {workload} run ended without a result ({}): {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                )
            })?;
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, value) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            merged.push((format!("{workload}.{name}"), value.clone()));
        }
        println!();
    }
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(all_correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(merged)),
        ])
        .render()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        compare::run(&argv[1..]).and_then(|ok| {
            if ok {
                Ok(())
            } else {
                Err("compare: at least one metric is out of bounds".to_string())
            }
        })
    } else {
        parse(&argv).and_then(|args| match &args.workload {
            Some(workload) => run_one(workload, &args),
            None => run_all(&args),
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
