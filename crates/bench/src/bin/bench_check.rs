//! CI bench-regression gate.
//!
//! Compares a fresh benchmark run against the committed `BENCH_*.json`
//! baselines and fails (exit 1) on any regression beyond a generous
//! threshold — CI hardware varies, so the default only trips on a more
//! than 1.5x slowdown, which is the kind a real algorithmic regression
//! (a lost warm start, a dense fallback in the sparse path) produces.
//!
//! Usage:
//!
//! ```text
//! CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench --bench fleet_admission \
//!     --bench chaos_recovery | tee bench_current.txt
//! cargo run -p dmc-bench --bin bench_check -- \
//!     --current bench_current.txt \
//!     BENCH_fleet.json BENCH_chaos.json
//! ```
//!
//! The current-run file is whatever the criterion stub printed: the JSON
//! lines emitted under `CRITERION_OUTPUT_JSON=1` are picked out, any
//! other output is ignored. Baseline files are the committed
//! `BENCH_*.json` artifacts (their `results` arrays use the same
//! `id`/`ns_per_iter_median` fields). Both are parsed with a
//! dependency-free field scanner — this repo builds offline, so no JSON
//! crate is available.
//!
//! Exit status: 0 when every baseline id was measured and none regressed
//! beyond the threshold; 1 otherwise (regression, or a baseline id that
//! the current run never produced — which is how a silently bit-rotted
//! or renamed bench fails the gate instead of skating through).
//!
//! `--ratio <num-id> <den-id> <max>` adds a **same-run** gate: the two
//! ids are taken from the current measurements, so machine speed cancels
//! and the budget can be tight. CI uses it to cap telemetry overhead:
//!
//! ```text
//! cargo run -p dmc-bench --bin bench_check -- --current bench_current.txt \
//!     --ratio obs_overhead/churn/enabled obs_overhead/churn/disabled 1.05 \
//!     BENCH_obs.json
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed measurement.
#[derive(Debug, Clone, Copy)]
struct Sample {
    median_ns: f64,
}

/// Scans `text` for `"id": "<name>"` / `"ns_per_iter_median": <num>`
/// pairs, in order. Works for both the single-line JSON the criterion
/// stub prints and the pretty-printed committed baselines. The median
/// search is bounded at the *next* `"id"` occurrence, so a record
/// missing its median is dropped (and later reported as MISSING)
/// instead of silently pairing with the following record's number.
fn scan_samples(text: &str) -> BTreeMap<String, Sample> {
    let mut out = BTreeMap::new();
    let mut rest = text;
    while let Some(idx) = rest.find("\"id\"") {
        rest = &rest[idx + 4..];
        let Some(id) = scan_string_value(rest) else {
            continue;
        };
        let record = &rest[..rest.find("\"id\"").unwrap_or(rest.len())];
        let Some(m_idx) = record.find("\"ns_per_iter_median\"") else {
            continue;
        };
        let after = &record[m_idx + "\"ns_per_iter_median\"".len()..];
        let Some(median_ns) = scan_number_value(after) else {
            continue;
        };
        out.insert(id, Sample { median_ns });
    }
    out
}

/// Reads the string literal after the next `:`.
fn scan_string_value(s: &str) -> Option<String> {
    let colon = s.find(':')?;
    let s = s[colon + 1..].trim_start();
    let s = s.strip_prefix('"')?;
    let end = s.find('"')?;
    Some(s[..end].to_string())
}

/// Reads the number after the next `:`.
fn scan_number_value(s: &str) -> Option<f64> {
    let colon = s.find(':')?;
    let s = s[colon + 1..].trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(s.len());
    s[..end].parse().ok()
}

fn main() -> ExitCode {
    let mut threshold = 1.5f64;
    let mut current_path: Option<String> = None;
    let mut baseline_paths: Vec<String> = Vec::new();
    let mut ratios: Vec<(String, String, f64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threshold needs a number");
                    return ExitCode::FAILURE;
                };
                threshold = v;
            }
            "--current" => current_path = args.next(),
            "--ratio" => {
                let (Some(num), Some(den), Some(max)) = (args.next(), args.next(), args.next())
                else {
                    eprintln!("--ratio needs <numerator-id> <denominator-id> <max>");
                    return ExitCode::FAILURE;
                };
                let Ok(max) = max.parse::<f64>() else {
                    eprintln!("--ratio max {max:?} is not a number");
                    return ExitCode::FAILURE;
                };
                ratios.push((num, den, max));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_check --current <run-output> [--threshold 1.5] \
                     [--ratio <id> <id> <max>]... <BENCH_*.json>...\n\
                     --ratio gates two ids of the *same* run against each other \
                     (median A ≤ max × median B) — immune to machine-speed drift, \
                     which is how tight budgets like the 1.05x telemetry-overhead \
                     cap stay meaningful on varied CI hardware"
                );
                return ExitCode::SUCCESS;
            }
            other => baseline_paths.push(other.to_string()),
        }
    }
    let Some(current_path) = current_path else {
        eprintln!("bench_check: missing --current <file> (the bench run's output)");
        return ExitCode::FAILURE;
    };
    if baseline_paths.is_empty() && ratios.is_empty() {
        eprintln!("bench_check: no baseline files or --ratio gates given");
        return ExitCode::FAILURE;
    }

    let current_text = match std::fs::read_to_string(&current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read {current_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = scan_samples(&current_text);
    if current.is_empty() {
        eprintln!(
            "bench_check: {current_path} contains no measurements — was the bench run \
             with CRITERION_OUTPUT_JSON=1?"
        );
        return ExitCode::FAILURE;
    }

    let mut baseline = BTreeMap::new();
    for path in &baseline_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_check: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let samples = scan_samples(&text);
        if samples.is_empty() {
            eprintln!("bench_check: baseline {path} contains no measurements");
            return ExitCode::FAILURE;
        }
        baseline.extend(samples);
    }

    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    println!(
        "{:<55} {:>12} {:>12} {:>8}",
        "benchmark", "baseline ns", "current ns", "ratio"
    );
    for (id, base) in &baseline {
        match current.get(id) {
            Some(cur) => {
                let ratio = cur.median_ns / base.median_ns;
                let flag = if ratio > threshold {
                    regressions.push((id.clone(), ratio));
                    "  << REGRESSION"
                } else if ratio < 1.0 / threshold {
                    "  (improved — consider refreshing the baseline)"
                } else {
                    ""
                };
                println!(
                    "{:<55} {:>12.1} {:>12.1} {:>7.2}x{flag}",
                    id, base.median_ns, cur.median_ns, ratio
                );
            }
            None => {
                missing.push(id.clone());
                println!(
                    "{:<55} {:>12.1} {:>12} {:>8}",
                    id, base.median_ns, "-", "MISSING"
                );
            }
        }
    }
    for id in current.keys() {
        if !baseline.contains_key(id) {
            println!("note: {id} measured but has no baseline entry (new bench?)");
        }
    }

    // Same-run ratio gates: both ids come from the current measurements,
    // so machine speed cancels and the budget can be tight.
    let mut ratio_failures = Vec::new();
    for (num_id, den_id, max) in &ratios {
        let (Some(num), Some(den)) = (current.get(num_id), current.get(den_id)) else {
            ratio_failures.push(format!(
                "ratio gate {num_id} / {den_id}: one or both ids missing from the current run"
            ));
            continue;
        };
        let ratio = num.median_ns / den.median_ns;
        let verdict = if ratio > *max { "  << OVER BUDGET" } else { "" };
        println!("ratio {num_id} / {den_id} = {ratio:.3}x (budget {max}x){verdict}");
        if ratio > *max {
            ratio_failures.push(format!(
                "{num_id} is {ratio:.3}x of {den_id} (budget {max}x)"
            ));
        }
    }

    if !regressions.is_empty() || !missing.is_empty() || !ratio_failures.is_empty() {
        eprintln!();
        for (id, ratio) in &regressions {
            eprintln!("bench_check: {id} regressed {ratio:.2}x (> {threshold}x threshold)");
        }
        for id in &missing {
            eprintln!("bench_check: {id} is in the baseline but was not measured");
        }
        for f in &ratio_failures {
            eprintln!("bench_check: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "\nbench_check: {} benchmarks within {threshold}x of their baselines, \
         {} ratio gate(s) within budget",
        baseline.len(),
        ratios.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_stub_lines_and_pretty_baselines() {
        let stub = r#"
group/a  time: [1 2 3]
{"id":"group/a","ns_per_iter_median":123.4,"ns_per_iter_min":100.0,"ns_per_iter_max":150.0}
{"id":"group/b","ns_per_iter_median":50.0,"ns_per_iter_min":49.0,"ns_per_iter_max":51.0}
"#;
        let got = scan_samples(stub);
        assert_eq!(got.len(), 2);
        assert!((got["group/a"].median_ns - 123.4).abs() < 1e-9);
        let pretty = r#"{
  "bench": "x",
  "results": [
    { "id": "group/a", "ns_per_iter_median": 100.0, "ns_per_iter_min": 90.0 }
  ]
}"#;
        let got = scan_samples(pretty);
        assert_eq!(got.len(), 1);
        assert!((got["group/a"].median_ns - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_record_missing_its_median_is_dropped_not_mispaired() {
        // `group/a` has no median: it must be dropped (→ MISSING later),
        // not paired with `group/b`'s number.
        let text = r#"
{"id":"group/a","ns_per_iter_min":1.0}
{"id":"group/b","ns_per_iter_median":50.0}
"#;
        let got = scan_samples(text);
        assert_eq!(got.len(), 1);
        assert!(!got.contains_key("group/a"));
        assert!((got["group/b"].median_ns - 50.0).abs() < 1e-9);
    }

    #[test]
    fn number_scanner_handles_scientific_and_negative() {
        assert_eq!(scan_number_value(": 1.5e3,"), Some(1500.0));
        assert_eq!(scan_number_value(" : -2,"), Some(-2.0));
        assert_eq!(scan_number_value(": x"), None);
    }
}
