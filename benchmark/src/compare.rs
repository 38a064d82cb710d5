//! `compare A.jsonl B.jsonl` — the acceptance rule as a command.
//!
//! Each file holds one line per untraced run, labelled by whoever made
//! the run (as `aa.sh` does): `{"workload": W, "seed": N, "result": R}`
//! with `R` the run's last line of output. Per workload and end-to-end
//! metric the two sets' medians are compared with the bound and direction
//! stored in `BENCHMARK.json`: B may be worse than A by at most `bound`
//! as a share of A's median.
//!
//! With `--same-build` (an A/A check) two more things must hold. Each
//! set's own run-to-run spread — the distance between its quartiles as a
//! share of its median, quartiles as Python's `statistics.quantiles(v,
//! n=4)` gives them — stays within the bound (`setup_s` excepted), which
//! is the other half of what the acceptance driver checks. And
//! `served_share` is the same bit for bit wherever A and B ran the same
//! workload with the same seed, and not the same for every seed.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

/// One end-to-end metric's rule.
struct Rule {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// `workload → metric → values` and `workload → seed → served_share`,
/// plus how many runs were not `correct`.
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    served: BTreeMap<String, BTreeMap<u64, f64>>,
    incorrect: u64,
}

fn load_rules(path: &str) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end table"))?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{path}: an end_to_end entry lacks {key:?}"))
            };
            Ok(Rule {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: an end_to_end entry lacks a bound"))?,
            })
        })
        .collect()
}

fn load_runs(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set = RunSet {
        values: BTreeMap::new(),
        served: BTreeMap::new(),
        incorrect: 0,
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let labelled = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = labelled
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload name", n + 1))?;
        let seed = labelled
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}:{}: no seed", n + 1))? as u64;
        let run = labelled
            .get("result")
            .ok_or_else(|| format!("{path}:{}: no result", n + 1))?;
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            set.incorrect += 1;
        }
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
        let per_metric = set.values.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(value);
                if name == "served_share" {
                    let per_seed = set.served.entry(workload.to_string()).or_default();
                    per_seed.insert(seed, value);
                }
            }
        }
    }
    Ok(set)
}

/// By how much of `a` the value `b` is worse (negative: better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a.abs() <= f64::MIN_POSITIVE {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Whether `served_share` depends on the seed and on nothing else: the
/// same bits wherever both sets ran a workload with the same seed (there
/// must be such pairs), and more than one value over a workload's seeds.
fn served_share_repeats(a: &RunSet, b: &RunSet) -> bool {
    let mut ok = true;
    for (workload, a_seeds) in &a.served {
        let none = BTreeMap::new();
        let b_seeds = b.served.get(workload).unwrap_or(&none);
        let shared: Vec<(u64, f64, f64)> = a_seeds
            .iter()
            .filter_map(|(seed, va)| b_seeds.get(seed).map(|vb| (*seed, *va, *vb)))
            .collect();
        let differing: Vec<u64> = shared
            .iter()
            .filter(|(_, va, vb)| va.to_bits() != vb.to_bits())
            .map(|(seed, ..)| *seed)
            .collect();
        let mut distinct: Vec<u64> = a_seeds.values().map(|v| v.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let moves_with_seed = a_seeds.len() < 2 || distinct.len() > 1;
        let fine = !shared.is_empty() && differing.is_empty() && moves_with_seed;
        ok &= fine;
        println!(
            "{workload:16} served_share   identical in A and B for {} of {} shared seeds, \
             {} distinct values over {} seeds  {}",
            shared.len() - differing.len(),
            shared.len(),
            distinct.len(),
            a_seeds.len(),
            if fine {
                "ok".to_string()
            } else if shared.is_empty() {
                "NO SHARED SEED".to_string()
            } else if !differing.is_empty() {
                format!("NOT REPEATABLE (seeds {differing:?})")
            } else {
                "SAME FOR EVERY SEED".to_string()
            }
        );
    }
    ok
}

/// Runs the comparison, prints the table, and returns whether every rule
/// held.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut same_build = false;
    let mut rules_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--same-build" => same_build = true,
            "--benchmark-json" => {
                rules_path = it
                    .next()
                    .ok_or("--benchmark-json needs a path")?
                    .to_string();
            }
            other => files.push(other.to_string()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: compare A.jsonl B.jsonl [--same-build] [--benchmark-json PATH]".into());
    };
    let rules = load_rules(&rules_path)?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);

    println!("# compare: A = {a_path}, B = {b_path}; bounds from {rules_path}");
    println!(
        "{:16} {:14} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    let mut ok = true;
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            println!("{workload:16} missing from B");
            ok = false;
            continue;
        };
        for rule in &rules {
            let (Some(va), Some(vb)) = (a_metrics.get(&rule.name), b_metrics.get(&rule.name))
            else {
                println!("{workload:16} {:14} missing from a set", rule.name);
                ok = false;
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let worse = worse_by(ma, mb, rule.higher_is_better);
            let (sa, sb) = (stats::iqr_share(va), stats::iqr_share(vb));
            let mut verdict = Vec::new();
            if worse > rule.bound {
                verdict.push("REGRESSION");
            }
            if same_build && rule.name != "setup_s" && sa.max(sb) > rule.bound {
                verdict.push("SPREAD>BOUND");
            }
            ok &= verdict.is_empty();
            println!(
                "{workload:16} {:14} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {} [{}; n={}/{}]",
                rule.name,
                worse * 100.0,
                rule.bound * 100.0,
                sa * 100.0,
                sb * 100.0,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join(" ")
                },
                rule.unit,
                va.len(),
                vb.len(),
            );
        }
    }
    for workload in b.values.keys().filter(|w| !a.values.contains_key(*w)) {
        println!("{workload:16} missing from A");
        ok = false;
    }
    if same_build {
        ok &= served_share_repeats(&a, &b);
    }
    if a.incorrect + b.incorrect > 0 {
        println!(
            "{} run(s) in A and {} in B were not correct",
            a.incorrect, b.incorrect
        );
        ok = false;
    }
    println!("# {}", if ok { "within bounds" } else { "BREACH" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        // Lower is better: 110 after 100 is 10 % worse.
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        // Higher is better: 90 after 100 is 10 % worse, 110 is better.
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!(worse_by(100.0, 110.0, true) < 0.0);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn a_breach_fails_and_a_same_set_passes() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("out/ is writable");
        let metric = |value: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let line = |seed: u64, ops: f64, p50: f64, served: f64| {
            Json::obj(vec![
                ("workload", Json::str("w")),
                ("seed", Json::Num(seed as f64)),
                (
                    "result",
                    Json::obj(vec![
                        ("correct", Json::Bool(true)),
                        (
                            "metrics",
                            Json::obj(vec![
                                ("ops_per_s", metric(ops, "1/s")),
                                ("op_p50_us", metric(p50, "us")),
                                ("served_share", metric(served, "ratio")),
                            ]),
                        ),
                    ]),
                ),
            ])
            .render()
        };
        let write = |name: &str, lines: Vec<String>| {
            let path = dir.join(name);
            std::fs::write(&path, lines.join("\n")).expect("out/ is writable");
            path.to_string_lossy().into_owned()
        };
        let rules = write(
            "rules.json",
            vec![r#"{"end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "served_share", "unit": "ratio", "better": "higher", "bound": 0.01}]}"#
                .to_string()],
        );
        let base = write(
            "a.jsonl",
            vec![
                line(1, 1000.0, 50.0, 0.9),
                line(2, 1010.0, 51.0, 0.901),
                line(3, 990.0, 49.0, 0.899),
            ],
        );
        let slow = write(
            "b.jsonl",
            vec![
                line(1, 850.0, 50.0, 0.9),
                line(2, 860.0, 50.5, 0.901),
                line(3, 840.0, 49.5, 0.899),
            ],
        );
        // Seed 2 answers differently the second time, well inside the bound.
        let unsteady = write(
            "c.jsonl",
            vec![
                line(1, 1000.0, 50.0, 0.9),
                line(2, 1010.0, 51.0, 0.901_000_000_000_1),
                line(3, 990.0, 49.0, 0.899),
            ],
        );
        let args = |a: &str, b: &str| {
            vec![
                a.to_string(),
                b.to_string(),
                "--same-build".to_string(),
                "--benchmark-json".to_string(),
                rules.clone(),
            ]
        };
        assert_eq!(run(&args(&base, &base)), Ok(true));
        assert_eq!(
            run(&args(&base, &slow)),
            Ok(false),
            "15 % fewer ops/s breaches 10 %"
        );
        // The other way round B is simply better.
        assert_eq!(run(&args(&slow, &base)), Ok(true));
        assert_eq!(
            run(&args(&base, &unsteady)),
            Ok(false),
            "served_share must repeat bit for bit for a seed"
        );
        // Between two builds only the bound applies.
        let between_builds = [base, unsteady, "--benchmark-json".to_string(), rules];
        assert_eq!(run(&between_builds), Ok(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
