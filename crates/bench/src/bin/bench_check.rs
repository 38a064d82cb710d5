//! CI bench gate: **same-run ratios** only.
//!
//! A committed median cannot gate a run on another machine — the hosts
//! this repository is built on drift up to 2x run to run, so an absolute
//! threshold loose enough to pass on them catches nothing. What does
//! survive a change of machine is the ratio of two subjects measured in
//! the *same* `cargo bench` invocation: machine speed cancels, and the
//! budget can be as tight as the claim it guards (one batched solve ≤
//! eight single admissions, telemetry ≤ 1.05x, one kernel ≤ the other on
//! its side of the line).
//! The committed `BENCH_*.json` files are records, not gates.
//!
//! Usage:
//!
//! ```text
//! CRITERION_OUTPUT_JSON=1 cargo bench -p dmc-bench --bench obs_overhead \
//!     --bench fleet_admission | tee bench_current.txt
//! cargo run -p dmc-bench --bin bench_check -- --current bench_current.txt \
//!     --ratio obs_overhead/churn/enabled obs_overhead/churn/disabled 1.05 \
//!     --ratio fleet_admission/admission_8flows/batched \
//!             fleet_admission/admission_8flows/one_at_a_time 1.0
//! ```
//!
//! The current-run file is whatever the criterion stub printed: the JSON
//! lines emitted under `CRITERION_OUTPUT_JSON=1` are picked out, any
//! other output is ignored (a dependency-free field scanner — this repo
//! builds offline, so no JSON crate is available).
//!
//! `--ratio <num-id> <den-id> <max>` passes when `median(num) ≤ max ×
//! median(den)`. Exit status: 0 when every gate is within budget; 1
//! otherwise — over budget, or an id named in a gate that the run never
//! produced, which is how a silently bit-rotted or renamed bench fails
//! the gate instead of skating through.

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
/// stub prints and the pretty-printed committed records. The median
/// search is bounded at the *next* `"id"` occurrence, so a record
/// missing its median is dropped (and a gate naming it then fails)
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

/// One `--ratio` gate: `median(num) ≤ max × median(den)`.
type Gate = (String, String, f64);

/// Evaluates the gates against one run's measurements, printing each
/// ratio; returns one message per failed gate.
fn check_ratios(current: &BTreeMap<String, Sample>, gates: &[Gate]) -> Vec<String> {
    let mut failures = Vec::new();
    for (num_id, den_id, max) in gates {
        let (Some(num), Some(den)) = (current.get(num_id), current.get(den_id)) else {
            failures.push(format!(
                "ratio gate {num_id} / {den_id}: one or both ids missing from the current run"
            ));
            continue;
        };
        let ratio = num.median_ns / den.median_ns;
        let verdict = if ratio > *max { "  << OVER BUDGET" } else { "" };
        println!("ratio {num_id} / {den_id} = {ratio:.3}x (budget {max}x){verdict}");
        if ratio > *max {
            failures.push(format!(
                "{num_id} is {ratio:.3}x of {den_id} (budget {max}x)"
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut current_path: Option<String> = None;
    let mut gates: Vec<Gate> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
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
                gates.push((num, den, max));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_check --current <run-output> --ratio <id> <id> <max>...\n\
                     --ratio gates two ids of the *same* run against each other \
                     (median A ≤ max × median B) — immune to machine-speed drift, \
                     which is how tight budgets like the 1.05x telemetry-overhead \
                     cap stay meaningful on varied CI hardware"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!(
                    "bench_check: unexpected argument {other:?} (BENCH_*.json files are \
                     records, not gates: only --ratio gates are checked)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(current_path) = current_path else {
        eprintln!("bench_check: missing --current <file> (the bench run's output)");
        return ExitCode::FAILURE;
    };
    if gates.is_empty() {
        eprintln!("bench_check: no --ratio gates given");
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
    let failures = check_ratios(&current, &gates);
    if !failures.is_empty() {
        eprintln!();
        for f in &failures {
            eprintln!("bench_check: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("\nbench_check: {} ratio gate(s) within budget", gates.len());
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

    #[test]
    fn a_gate_fails_over_budget_or_when_an_id_was_never_measured() {
        let run = scan_samples(
            r#"{"id":"g/fast","ns_per_iter_median":40.0}
{"id":"g/slow","ns_per_iter_median":100.0}"#,
        );
        let gate = |num: &str, den: &str, max| (num.to_string(), den.to_string(), max);
        assert!(check_ratios(&run, &[gate("g/fast", "g/slow", 0.5)]).is_empty());
        let over = check_ratios(&run, &[gate("g/slow", "g/fast", 1.0)]);
        assert!(over[0].contains("2.500x"), "{over:?}");
        // A renamed or bit-rotted subject fails its gate; it does not
        // pass for want of a number.
        let gone = check_ratios(&run, &[gate("g/fast", "g/renamed", 9.0)]);
        assert!(gone[0].contains("missing from the current run"), "{gone:?}");
    }
}
