//! CI telemetry-export gate.
//!
//! Validates a dmc-obs JSON-lines metrics file (the artifact a driver
//! writes under `--metrics`): every line must be a single-line JSON
//! object of a known record type, the records must appear in the
//! exporter's canonical order (one `meta` line first, then counters,
//! gauges, histograms, spans, events, warnings), and names must be
//! strictly ascending within each kind — the properties the snapshot
//! hash relies on. Optional `--require NAME` flags additionally demand
//! that a counter of that name is present with a nonzero value, which is
//! how CI asserts a driver actually recorded telemetry rather than
//! writing an empty-but-well-formed file.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dmc-experiments --bin chaos -- --metrics /tmp/chaos.jsonl
//! cargo run -p dmc-obs --bin obs_check -- /tmp/chaos.jsonl \
//!     --require lp.solves --require fleet.sheds
//! ```
//!
//! Parsed with a dependency-free field scanner — this repo builds
//! offline, so no JSON crate is available.
//!
//! Exit status: 0 when the file validates (and every required counter is
//! present and nonzero); 1 otherwise, with one line per problem.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// Record kinds in the exporter's canonical emission order.
const KIND_ORDER: &[&str] = &[
    "meta",
    "counter",
    "gauge",
    "histogram",
    "span",
    "event",
    "warning",
];

fn kind_rank(kind: &str) -> Option<usize> {
    KIND_ORDER.iter().position(|k| *k == kind)
}

/// Reads the JSON string immediately following `"<key>":` in `line`.
/// Handles the exporter's escapes (`\"`, `\\`, `\u00XX`) conservatively:
/// the raw escaped text is returned, which is fine for ordering checks
/// because the exporter escapes deterministically.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let idx = line.find(&pat)?;
    let rest = line[idx + pat.len()..].strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => {
                out.push('\\');
                out.push(chars.next()?);
            }
            _ => out.push(c),
        }
    }
    None
}

/// Reads the number (or `null`) immediately following `"<key>":`.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let idx = line.find(&pat)?;
    let rest = &line[idx + pat.len()..];
    if rest.starts_with("null") {
        return Some(f64::NAN);
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require" => {
                let Some(name) = args.next() else {
                    eprintln!("--require needs a counter name");
                    return ExitCode::FAILURE;
                };
                required.push(name);
            }
            "--help" | "-h" => {
                eprintln!("usage: obs_check <metrics.jsonl> [--require counter.name]...");
                return ExitCode::SUCCESS;
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        eprintln!("obs_check: missing metrics file path (see --help)");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_check: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut problems: Vec<String> = Vec::new();
    let mut last_rank = 0usize;
    let mut last_name: Option<(usize, String)> = None;
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        lines += 1;
        if !(line.starts_with('{') && line.ends_with('}')) {
            problems.push(format!("line {n}: not a single-line JSON object"));
            continue;
        }
        let Some(kind) = string_field(line, "type") else {
            problems.push(format!("line {n}: missing \"type\" field"));
            continue;
        };
        let Some(rank) = kind_rank(&kind) else {
            problems.push(format!("line {n}: unknown record type {kind:?}"));
            continue;
        };
        if i == 0 && kind != "meta" {
            problems.push(format!(
                "line 1: expected the \"meta\" record, got {kind:?}"
            ));
        }
        if i > 0 && kind == "meta" {
            problems.push(format!("line {n}: duplicate \"meta\" record"));
        }
        if rank < last_rank {
            problems.push(format!(
                "line {n}: {kind:?} record after {:?} (canonical order is {})",
                KIND_ORDER[last_rank],
                KIND_ORDER.join(", ")
            ));
        }
        if rank != last_rank {
            last_name = None;
        }
        last_rank = rank;
        // Per-kind field checks.
        let needed: &[&str] = match kind.as_str() {
            "meta" => &["clock", "events_dropped"],
            "counter" | "gauge" => &["value"],
            "histogram" => &["count", "sum", "max"],
            "span" => &["count", "total_ticks", "max_ticks"],
            "event" => &["enter", "exit"],
            "warning" => &["count"],
            _ => &[],
        };
        for key in needed {
            if number_field(line, key).is_none() {
                problems.push(format!("line {n}: {kind} record missing numeric {key:?}"));
            }
        }
        if kind != "meta" {
            let name_key = if kind == "warning" { "key" } else { "name" };
            match string_field(line, name_key) {
                None => problems.push(format!("line {n}: {kind} record missing {name_key:?}")),
                Some(name) => {
                    // Span *events* repeat names (one line per enter/exit
                    // pair); aggregates and scalars must be strictly
                    // ascending — ties mean a duplicated metric.
                    if kind != "event" {
                        if let Some((prev_rank, prev)) = &last_name {
                            if *prev_rank == rank && *prev >= name {
                                problems.push(format!(
                                    "line {n}: {kind} name {name:?} not above {prev:?} \
                                     (names must be unique and ascending per kind)"
                                ));
                            }
                        }
                        last_name = Some((rank, name.clone()));
                    }
                    if kind == "counter" {
                        let value = number_field(line, "value").unwrap_or(f64::NAN);
                        counters.push((name, value));
                    }
                }
            }
        }
    }
    if lines == 0 {
        problems.push("file is empty (no meta record)".to_string());
    }
    for want in &required {
        match counters.iter().find(|(name, _)| name == want) {
            None => problems.push(format!("required counter {want:?} is missing")),
            Some((_, v)) if !(*v > 0.0) => {
                problems.push(format!("required counter {want:?} is {v} (want > 0)"));
            }
            Some(_) => {}
        }
    }

    if problems.is_empty() {
        println!(
            "obs_check: OK — {lines} record(s), {} counter(s), {} required counter(s) present",
            counters.len(),
            required.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("obs_check: {p}");
        }
        eprintln!("obs_check: {} problem(s) in {path}", problems.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_scanners_read_the_exporter_shapes() {
        let line = r#"{"type":"counter","name":"lp.solves","value":42}"#;
        assert_eq!(string_field(line, "type").as_deref(), Some("counter"));
        assert_eq!(string_field(line, "name").as_deref(), Some("lp.solves"));
        assert_eq!(number_field(line, "value"), Some(42.0));
        let hist = r#"{"type":"histogram","name":"h","count":2,"sum":12,"min":null,"max":8,"buckets":[[3,1],[4,1]]}"#;
        assert!(number_field(hist, "min").is_some_and(f64::is_nan));
        assert_eq!(number_field(hist, "count"), Some(2.0));
    }

    #[test]
    fn kind_order_matches_exporter() {
        assert!(kind_rank("meta") < kind_rank("counter"));
        assert!(kind_rank("counter") < kind_rank("warning"));
        assert_eq!(kind_rank("bogus"), None);
    }
}
