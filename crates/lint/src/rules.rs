//! The token-pattern rule engine.
//!
//! Works on the lexer's token stream plus three pieces of recovered
//! structure: `#[cfg(test)]` / `#[test]` item regions (brace-matched),
//! `use … ;` items (imports alone never flag), and the file's *role* —
//! library code vs test/bench/example/bin code — derived from its path.
//!
//! Suppression comes from pragmas in ordinary `//` comments:
//!
//! ```text
//! x == 0.0 // dmc-lint: allow(float-exact) stored zero means structurally absent
//! // dmc-lint: allow(panic-hygiene) index proven in-bounds by the loop above
//! let v = xs[i];
//! // dmc-lint: allow-file(det-unordered-map) <reason>   — whole file
//! ```
//!
//! A pragma **must** carry a reason after the closing paren; a reasonless
//! pragma is itself a diagnostic (`bad-pragma`) and suppresses nothing.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{TokKind, Token};

/// Library code vs code where panics/float-compares are idiomatic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Library,
    TestOrBin,
}

/// Classify a repo-relative path. Anything under a `tests`, `benches`,
/// `examples` or `bin` directory — plus `main.rs`/`build.rs` — is
/// test-or-bin; everything else is library code.
pub fn role_of(rel: &str) -> Role {
    let mut parts = rel.split('/').peekable();
    while let Some(p) = parts.next() {
        let is_last = parts.peek().is_none();
        if is_last {
            if p == "main.rs" || p == "build.rs" {
                return Role::TestOrBin;
            }
        } else if matches!(p, "tests" | "benches" | "examples" | "bin") {
            return Role::TestOrBin;
        }
    }
    Role::Library
}

/// Result of scanning one file: diagnostics that survived suppression,
/// plus how many were suppressed and by what.
#[derive(Debug, Default)]
pub struct FileScan {
    pub diags: Vec<Diagnostic>,
    pub suppressed_pragma: usize,
    pub suppressed_allowlist: usize,
}

struct Pragmas {
    /// line → rules allowed on that line.
    by_line: BTreeMap<u32, BTreeSet<Rule>>,
    /// rules allowed for the whole file.
    file_wide: BTreeSet<Rule>,
    /// malformed pragmas (reported, never suppressible).
    bad: Vec<Diagnostic>,
}

/// Run every rule over one file's tokens.
pub fn scan_tokens(rel: &str, tokens: &[Token], cfg: &Config) -> FileScan {
    let role = role_of(rel);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let code_lines: BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    let pragmas = collect_pragmas(rel, tokens, &code_lines);
    let test_mask = test_region_mask(&code);
    let use_mask = use_item_mask(&code);

    let mut raw: Vec<Diagnostic> = Vec::new();
    let in_det_scope = cfg.in_det_scope(rel);
    for (i, t) in code.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|j| code.get(j).copied());
        let prev2 = i.checked_sub(2).and_then(|j| code.get(j).copied());
        let next = code.get(i + 1).copied();
        let next2 = code.get(i + 2).copied();

        // unsafe-audit: everywhere, including tests and bins.
        if t.is_ident("unsafe") {
            raw.push(diag(
                rel,
                t,
                Rule::UnsafeCode,
                "`unsafe` is forbidden in this workspace".to_string(),
            ));
            continue;
        }

        let in_test = test_mask[i];
        let in_use = use_mask[i];

        // Determinism rules: library code of the deterministic crates.
        if in_det_scope && role == Role::Library && !in_test && !in_use {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                raw.push(diag(
                    rel,
                    t,
                    Rule::DetUnorderedMap,
                    format!(
                        "`{}` on a deterministic path: iteration order is run-unstable; use \
                         BTreeMap/BTreeSet or sorted iteration, or annotate a key-lookup-only use",
                        t.text
                    ),
                ));
                continue;
            }
            if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
                raw.push(diag(
                    rel,
                    t,
                    Rule::DetWallclock,
                    format!(
                        "`{}` reads the ambient wall clock: deterministic paths must take time \
                         as an input",
                        t.text
                    ),
                ));
                continue;
            }
            // Ambient entropy is wall-clock's twin: backoff/jitter and
            // fault-injection code must draw from the seeded streams of
            // `dmc_stats::rng`, never from the OS entropy pool.
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng")
            {
                raw.push(diag(
                    rel,
                    t,
                    Rule::DetWallclock,
                    format!(
                        "`{}` draws ambient entropy: backoff/jitter on deterministic paths must \
                         use a seeded stream from dmc_stats::rng (seeds derived via \
                         mix_seed/trial_seed)",
                        t.text
                    ),
                ));
                continue;
            }
            let spawn_via_thread_path = matches!(&prev, Some(p) if p.is_punct("::"))
                && matches!(&prev2, Some(p) if p.is_ident("thread"))
                && t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "spawn" | "scope" | "Builder");
            let spawn_via_method = t.is_ident("spawn")
                && matches!(&prev, Some(p) if p.is_punct("."))
                && matches!(&next, Some(n) if n.is_punct("("));
            if spawn_via_thread_path || spawn_via_method {
                raw.push(diag(
                    rel,
                    t,
                    Rule::DetThreadSpawn,
                    "thread spawn outside the Monte-Carlo pool: parallelism must go through the \
                     deterministic per-trial seed sharder"
                        .to_string(),
                ));
                continue;
            }
        }

        // float-exact: library code, any crate.
        if role == Role::Library
            && !in_test
            && t.kind == TokKind::Punct
            && (t.text == "==" || t.text == "!=")
        {
            let float_adjacent = matches!(&prev, Some(p) if p.kind == TokKind::Float)
                || matches!(&next, Some(n) if n.kind == TokKind::Float);
            if float_adjacent {
                raw.push(diag(
                    rel,
                    t,
                    Rule::FloatExact,
                    format!(
                        "exact float `{}` comparison: use a tolerance, or annotate the invariant \
                         that makes exact equality meaningful",
                        t.text
                    ),
                ));
                continue;
            }
        }

        // panic-hygiene: library code, any crate.
        if role == Role::Library && !in_test {
            if t.is_ident("unwrap")
                && matches!(&prev, Some(p) if p.is_punct("."))
                && matches!(&next, Some(n) if n.is_punct("("))
                && matches!(&next2, Some(n) if n.is_punct(")"))
            {
                raw.push(diag(
                    rel,
                    t,
                    Rule::PanicHygiene,
                    "`.unwrap()` in library code: return a typed error or use \
                     `.expect(\"<invariant>\")`"
                        .to_string(),
                ));
                continue;
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && matches!(&next, Some(n) if n.is_punct("!"))
            {
                raw.push(diag(
                    rel,
                    t,
                    Rule::PanicHygiene,
                    format!(
                        "`{}!` in library code: return a typed error, or annotate why this arm \
                         is unreachable",
                        t.text
                    ),
                ));
                continue;
            }
            if t.is_ident("expect")
                && matches!(&prev, Some(p) if p.is_punct("."))
                && matches!(&next, Some(n) if n.is_punct("("))
            {
                if let Some(msg_tok) = &next2 {
                    if msg_tok.kind == TokKind::Str {
                        let inner = str_content_len(&msg_tok.text);
                        if inner < cfg.min_expect_chars {
                            raw.push(diag(
                                rel,
                                t,
                                Rule::PanicHygiene,
                                format!(
                                    "`.expect` message ({inner} chars) too short to name an \
                                     invariant (need ≥ {})",
                                    cfg.min_expect_chars
                                ),
                            ));
                            continue;
                        }
                    }
                }
            }
        }
    }

    // Apply suppression: file pragma, line pragma, then allowlist.
    let mut scan = FileScan::default();
    for d in raw {
        if pragmas.file_wide.contains(&d.rule)
            || pragmas
                .by_line
                .get(&d.line)
                .is_some_and(|rules| rules.contains(&d.rule))
        {
            scan.suppressed_pragma += 1;
        } else if cfg.allows(d.rule, rel) {
            scan.suppressed_allowlist += 1;
        } else {
            scan.diags.push(d);
        }
    }
    scan.diags.extend(pragmas.bad);
    scan.diags.sort_by_key(|d| (d.line, d.col, d.rule));
    scan
}

fn diag(rel: &str, t: &Token, rule: Rule, msg: String) -> Diagnostic {
    Diagnostic {
        path: rel.to_string(),
        line: t.line,
        col: t.col,
        rule,
        msg,
    }
}

/// Chars between the quotes of a string literal token, prefix/hashes
/// stripped. Good enough to judge "does this message name an invariant".
fn str_content_len(text: &str) -> usize {
    match (text.find('"'), text.rfind('"')) {
        (Some(a), Some(b)) if b > a => text[a + 1..b].chars().count(),
        _ => 0,
    }
}

/// Parse `dmc-lint:` pragmas out of ordinary line comments. Doc comments
/// (`///`, `//!`) are ignored — pragmas live in plain comments only.
fn collect_pragmas(rel: &str, tokens: &[Token], code_lines: &BTreeSet<u32>) -> Pragmas {
    let mut out = Pragmas {
        by_line: BTreeMap::new(),
        file_wide: BTreeSet::new(),
        bad: Vec::new(),
    };
    for t in tokens {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = &t.text[2..]; // strip `//`
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment
        }
        let Some(directive) = body.trim_start().strip_prefix("dmc-lint:") else {
            continue;
        };
        let directive = directive.trim();
        let mut report_bad = |msg: String| {
            out.bad.push(Diagnostic {
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                rule: Rule::BadPragma,
                msg,
            });
        };
        let (file_wide, rest) = if let Some(r) = directive.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = directive.strip_prefix("allow") {
            (false, r)
        } else {
            report_bad(format!(
                "unknown pragma `{directive}` (expected `allow(<rule>) <reason>` or \
                 `allow-file(<rule>) <reason>`)"
            ));
            continue;
        };
        let rest = rest.trim_start();
        let Some(inner_and_tail) = rest.strip_prefix('(') else {
            report_bad("pragma is missing `(<rule-id>)`".to_string());
            continue;
        };
        let Some(close) = inner_and_tail.find(')') else {
            report_bad("pragma is missing the closing `)`".to_string());
            continue;
        };
        let (inner, tail) = inner_and_tail.split_at(close);
        let reason = tail[1..].trim();
        let mut rules = Vec::new();
        let mut ok = true;
        for id in inner.split(',') {
            let id = id.trim();
            match Rule::from_id(id) {
                Some(r) => rules.push(r),
                None => {
                    report_bad(format!("unknown rule id `{id}` in pragma"));
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        if rules.is_empty() {
            report_bad("pragma names no rules".to_string());
            continue;
        }
        if reason.is_empty() {
            report_bad(
                "pragma has no reason: write `// dmc-lint: allow(<rule>) <why this is sound>`"
                    .to_string(),
            );
            continue;
        }
        if file_wide {
            out.file_wide.extend(rules);
        } else {
            // A trailing pragma applies to its own line; a pragma on a
            // line of its own applies to the next line containing code.
            let target = if code_lines.contains(&t.line) {
                t.line
            } else {
                match code_lines.range(t.line + 1..).next() {
                    Some(&l) => l,
                    None => continue, // pragma at EOF guards nothing
                }
            };
            out.by_line.entry(target).or_default().extend(rules);
        }
    }
    out
}

/// Mark every code token inside a `#[cfg(test)]`/`#[test]`-attributed item
/// (attribute included, brace-matched body included).
fn test_region_mask(code: &[&Token]) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        if !starts_attr(code, i) {
            i += 1;
            continue;
        }
        let attr_open = attr_bracket_index(code, i);
        let (attr_end, is_test) = parse_attr(code, attr_open);
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while starts_attr(code, j) {
            let open = attr_bracket_index(code, j);
            let (e, _) = parse_attr(code, open);
            j = e + 1;
        }
        // Item extent: first `;` at depth 0, or the matching `}` of the
        // first `{`.
        let mut k = j;
        let mut depth = 0i64;
        let mut end = n.saturating_sub(1);
        while k < n {
            let t = code[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            } else if t.is_punct(";") && depth == 0 {
                end = k;
                break;
            }
            k += 1;
        }
        for m in &mut mask[i..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Does an attribute (`#[…]` or `#![…]`) start at `i`?
fn starts_attr(code: &[&Token], i: usize) -> bool {
    code.get(i).is_some_and(|t| t.is_punct("#"))
        && (code.get(i + 1).is_some_and(|t| t.is_punct("["))
            || (code.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && code.get(i + 2).is_some_and(|t| t.is_punct("["))))
}

/// Index of the `[` of an attribute known to start at `i`.
fn attr_bracket_index(code: &[&Token], i: usize) -> usize {
    if code.get(i + 1).is_some_and(|t| t.is_punct("[")) {
        i + 1
    } else {
        i + 2
    }
}

/// Given the index of an attribute's `[`, return (index of its matching
/// `]`, whether the attribute mentions the bare ident `test`/`bench`).
fn parse_attr(code: &[&Token], open: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut is_test = false;
    let mut k = open;
    while k < code.len() {
        let t = code[k];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (k, is_test);
            }
        } else if t.is_ident("test") || t.is_ident("bench") {
            is_test = true;
        }
        k += 1;
    }
    (code.len().saturating_sub(1), is_test)
}

/// Mark tokens belonging to `use …;` items so imports never flag.
fn use_item_mask(code: &[&Token]) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        if code[i].is_ident("use") {
            let mut k = i;
            while k < n && !code[k].is_punct(";") {
                mask[k] = true;
                k += 1;
            }
            if k < n {
                mask[k] = true;
            }
            i = k + 1;
        } else {
            i += 1;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(rel: &str, src: &str) -> FileScan {
        scan_tokens(rel, &lex(src).unwrap(), &Config::default())
    }

    #[test]
    fn roles_from_paths() {
        assert_eq!(role_of("crates/lp/src/simplex.rs"), Role::Library);
        assert_eq!(role_of("crates/lp/tests/t.rs"), Role::TestOrBin);
        assert_eq!(
            role_of("crates/experiments/src/bin/fleet.rs"),
            Role::TestOrBin
        );
        assert_eq!(role_of("examples/quickstart.rs"), Role::TestOrBin);
        assert_eq!(role_of("src/main.rs"), Role::TestOrBin);
        assert_eq!(role_of("src/lib.rs"), Role::Library);
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_panic_hygiene() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let scan = scan("crates/core/src/a.rs", src);
        assert_eq!(scan.diags.len(), 1, "{:?}", scan.diags);
        assert_eq!(scan.diags[0].line, 1);
    }

    #[test]
    fn imports_do_not_flag_but_uses_do() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::default(); m.len() }\n";
        let scan = scan("crates/core/src/a.rs", src);
        assert_eq!(
            scan.diags
                .iter()
                .filter(|d| d.rule == Rule::DetUnorderedMap)
                .count(),
            2,
            "{:?}",
            scan.diags
        );
        assert!(scan.diags.iter().all(|d| d.line == 2));
    }

    #[test]
    fn pragma_on_own_line_guards_next_code_line() {
        let src = "// dmc-lint: allow(float-exact) stored zero means structurally absent\n\
                   fn f(x: f64) -> bool { x == 0.0 }\n";
        let scan = scan("crates/lp/src/a.rs", src);
        assert!(scan.diags.is_empty(), "{:?}", scan.diags);
        assert_eq!(scan.suppressed_pragma, 1);
    }

    #[test]
    fn trailing_pragma_guards_its_own_line() {
        let src =
            "fn f(x: f64) -> bool { x != 0.0 } // dmc-lint: allow(float-exact) exact-zero test\n";
        let scan = scan("crates/lp/src/a.rs", src);
        assert!(scan.diags.is_empty(), "{:?}", scan.diags);
    }

    #[test]
    fn pragma_without_reason_is_rejected_and_suppresses_nothing() {
        let src = "// dmc-lint: allow(float-exact)\nfn f(x: f64) -> bool { x == 0.0 }\n";
        let scan = scan("crates/lp/src/a.rs", src);
        let rules: Vec<Rule> = scan.diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&Rule::BadPragma), "{:?}", scan.diags);
        assert!(rules.contains(&Rule::FloatExact), "{:?}", scan.diags);
    }

    #[test]
    fn short_expect_flags_long_expect_passes() {
        let src = "fn f() { a.expect(\"present\"); b.expect(\"row index returned by assemble stays in range\"); }\n";
        let scan = scan("crates/core/src/a.rs", src);
        assert_eq!(scan.diags.len(), 1, "{:?}", scan.diags);
        assert!(scan.diags[0].msg.contains("too short"));
    }

    #[test]
    fn unsafe_flags_even_in_tests_and_bins() {
        let scan = scan("crates/lp/tests/t.rs", "fn t() { unsafe { x() } }");
        assert_eq!(scan.diags.len(), 1);
        assert_eq!(scan.diags[0].rule, Rule::UnsafeCode);
    }

    #[test]
    fn thread_spawn_patterns() {
        let src = "fn f() { std::thread::spawn(|| {}); s.spawn(|| {}); }\n";
        let scan = scan("crates/core/src/a.rs", src);
        assert_eq!(
            scan.diags
                .iter()
                .filter(|d| d.rule == Rule::DetThreadSpawn)
                .count(),
            2
        );
    }

    #[test]
    fn det_rules_respect_scope() {
        let src = "fn f() { let m = HashMap::new(); m }\n";
        let in_scope = scan("crates/core/src/a.rs", src);
        let out_of_scope = scan("crates/lint/src/a.rs", src);
        assert!(!in_scope.diags.is_empty());
        assert!(out_of_scope.diags.is_empty(), "{:?}", out_of_scope.diags);
    }

    #[test]
    fn wallclock_flags_instant() {
        let scan = scan(
            "crates/experiments/src/a.rs",
            "fn f() { let t = Instant::now(); t }\n",
        );
        assert_eq!(scan.diags.len(), 1);
        assert_eq!(scan.diags[0].rule, Rule::DetWallclock);
    }

    #[test]
    fn wallclock_flags_ambient_entropy() {
        // Backoff/jitter code must draw from seeded streams: every
        // ambient-entropy entry point flags, in library code only.
        let src = "fn f() { let mut r = thread_rng(); let s = SmallRng::from_entropy(); \
                   OsRng.fill_bytes(&mut b); }\n";
        let scan = scan("crates/proto/src/a.rs", src);
        assert_eq!(
            scan.diags
                .iter()
                .filter(|d| d.rule == Rule::DetWallclock)
                .count(),
            3,
            "{:?}",
            scan.diags
        );
        assert!(scan.diags.iter().any(|d| d.msg.contains("seeded stream")));
        // Tests and bins keep their freedom.
        let test_scan = scan_tokens(
            "crates/proto/tests/t.rs",
            &lex(src).unwrap(),
            &Config::default(),
        );
        assert!(test_scan.diags.is_empty(), "{:?}", test_scan.diags);
    }
}
