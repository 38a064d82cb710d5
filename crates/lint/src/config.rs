//! The checked-in allowlist config (`dmc-lint.conf`).
//!
//! Line-oriented, hand-parsed (no deps):
//!
//! ```text
//! # comment
//! skip <path-prefix>
//! allow <rule-id> <path-prefix> -- <reason>
//! det-scope <path-prefix>
//! ```
//!
//! `skip` excludes a subtree from scanning entirely. `allow` suppresses one
//! rule under a path prefix and — like pragmas — **requires a written
//! reason** after `--`. `det-scope` lines, if any are present, replace the
//! built-in list of path prefixes the determinism rules apply to.

use crate::diag::Rule;

/// One `allow` line: suppress `rule` for every path under `prefix`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: Rule,
    pub prefix: String,
    pub reason: String,
}

#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from scanning (config-supplied; `target/`,
    /// `.git/` and dot-directories are always excluded).
    pub skip: Vec<String>,
    pub allow: Vec<AllowEntry>,
    /// Path prefixes the determinism rules (`det-*`) apply to.
    pub det_scope: Vec<String>,
    /// Minimum `.expect("…")` message length (in chars) that counts as
    /// naming an invariant.
    pub min_expect_chars: usize,
}

/// Crates whose library code must uphold the determinism invariants.
/// `lint/` (not on any solver path) is deliberately absent. `obs/` is
/// *in* scope — telemetry that drifted from wallclock or map order would
/// silently unpin every snapshot hash; its one sanctioned wallclock
/// island (`WallProfiler`, driver-only) carries a file-level
/// `allow-file(det-wallclock)` pragma in `crates/obs/src/wall.rs`.
const DEFAULT_DET_SCOPE: &[&str] = &[
    "crates/obs/",
    "crates/lp/",
    "crates/core/",
    "crates/fleet/",
    "crates/proto/",
    "crates/sim/",
    "crates/stats/",
    "crates/experiments/",
    "src/",
];

impl Default for Config {
    fn default() -> Self {
        Config {
            skip: Vec::new(),
            allow: Vec::new(),
            det_scope: DEFAULT_DET_SCOPE.iter().map(|s| s.to_string()).collect(),
            min_expect_chars: 12,
        }
    }
}

impl Config {
    /// Parse a config file body. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut scope_overridden = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, rest) = match line.split_once(char::is_whitespace) {
                Some((d, r)) => (d, r.trim()),
                None => (line, ""),
            };
            match directive {
                "skip" => {
                    if rest.is_empty() {
                        return Err(format!("line {lineno}: `skip` needs a path prefix"));
                    }
                    cfg.skip.push(normalize(rest));
                }
                "det-scope" => {
                    if rest.is_empty() {
                        return Err(format!("line {lineno}: `det-scope` needs a path prefix"));
                    }
                    if !scope_overridden {
                        cfg.det_scope.clear();
                        scope_overridden = true;
                    }
                    cfg.det_scope.push(normalize(rest));
                }
                "allow" => {
                    let (rule_id, tail) =
                        rest.split_once(char::is_whitespace).ok_or_else(|| {
                            format!(
                                "line {lineno}: `allow` needs <rule-id> <path-prefix> -- <reason>"
                            )
                        })?;
                    let rule = Rule::from_id(rule_id)
                        .ok_or_else(|| format!("line {lineno}: unknown rule id `{rule_id}`"))?;
                    let (prefix, reason) = tail.split_once("--").ok_or_else(|| {
                        format!(
                            "line {lineno}: `allow` entry has no `-- <reason>`; every \
                                 suppression must carry a written reason"
                        )
                    })?;
                    let prefix = prefix.trim();
                    let reason = reason.trim();
                    if prefix.is_empty() {
                        return Err(format!("line {lineno}: `allow` needs a path prefix"));
                    }
                    if reason.is_empty() {
                        return Err(format!(
                            "line {lineno}: empty reason; every suppression must carry a \
                             written reason"
                        ));
                    }
                    cfg.allow.push(AllowEntry {
                        rule,
                        prefix: normalize(prefix),
                        reason: reason.to_string(),
                    });
                }
                other => {
                    return Err(format!(
                        "line {lineno}: unknown directive `{other}` (expected skip / allow / \
                         det-scope)"
                    ));
                }
            }
        }
        Ok(cfg)
    }

    pub fn is_skipped(&self, rel: &str) -> bool {
        self.skip.iter().any(|p| rel.starts_with(p.as_str()))
    }

    pub fn in_det_scope(&self, rel: &str) -> bool {
        self.det_scope.iter().any(|p| rel.starts_with(p.as_str()))
    }

    /// Does a checked-in allowlist entry cover this (rule, path)?
    pub fn allows(&self, rule: Rule, rel: &str) -> bool {
        self.allow
            .iter()
            .any(|a| a.rule == rule && rel.starts_with(a.prefix.as_str()))
    }
}

fn normalize(p: &str) -> String {
    p.trim_start_matches("./").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_directives() {
        let cfg = Config::parse(
            "# header\n\
             skip crates/lint/tests/fixtures/\n\
             allow det-thread-spawn crates/experiments/src/montecarlo.rs -- the sanctioned pool\n\
             det-scope crates/lp/\n",
        )
        .unwrap();
        assert!(cfg.is_skipped("crates/lint/tests/fixtures/det_wallclock_violation.rs"));
        assert!(cfg.allows(Rule::DetThreadSpawn, "crates/experiments/src/montecarlo.rs"));
        assert!(!cfg.allows(Rule::DetWallclock, "crates/experiments/src/montecarlo.rs"));
        assert_eq!(cfg.det_scope, vec!["crates/lp/"]);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let err = Config::parse("allow float-exact crates/lp/ --  \n").unwrap_err();
        assert!(err.contains("reason"), "{err}");
        let err = Config::parse("allow float-exact crates/lp/\n").unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_and_directive_are_rejected() {
        assert!(Config::parse("allow no-such-rule x -- y\n").is_err());
        assert!(Config::parse("frobnicate x\n").is_err());
    }
}
