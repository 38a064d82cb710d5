//! `ARCHITECTURE.md`'s crate map must not drift from the workspace:
//! every `[workspace] members` path of `Cargo.toml` must appear as a
//! backtick-quoted `crates/...` path in a table row of the "## Crate map"
//! section, and every such path there must be a member. A new crate
//! without documentation, or a documented crate that no longer exists,
//! fails the suite.

use std::collections::BTreeSet;
use std::path::Path;

/// The `members = [ ... ]` paths of the root manifest.
fn workspace_members(manifest: &str) -> BTreeSet<String> {
    let mut members = BTreeSet::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") && line.contains('[') {
            in_members = true;
            continue;
        }
        if in_members {
            if line.starts_with(']') {
                break;
            }
            if let Some(member) = line.split('"').nth(1) {
                members.insert(member.to_string());
            }
        }
    }
    members
}

/// Backtick-quoted `crates/...` paths in the table rows (`|`-prefixed
/// lines) of the "## Crate map" section, up to the next `## ` heading —
/// prose around the table may cite source files without tripping the
/// drift check.
fn documented_crates(architecture: &str) -> BTreeSet<String> {
    let mut documented = BTreeSet::new();
    let mut in_section = false;
    for line in architecture.lines() {
        if line.starts_with("## ") {
            in_section = line.trim() == "## Crate map";
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        for token in line.split('`').skip(1).step_by(2) {
            if token.starts_with("crates/") {
                documented.insert(token.to_string());
            }
        }
    }
    documented
}

#[test]
fn crate_map_lists_exactly_the_workspace_members() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
    };
    let members = workspace_members(&read("Cargo.toml"));
    let documented = documented_crates(&read("ARCHITECTURE.md"));
    // Refuse to pass vacuously on a parser that found nothing.
    assert!(!members.is_empty(), "no workspace members parsed");
    assert!(!documented.is_empty(), "no crate-map paths parsed");
    let missing: Vec<_> = members.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&members).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "ARCHITECTURE.md's crate map drifted: members missing from it {missing:?}, \
         documented paths that are not members {stale:?}"
    );
}

#[test]
fn member_parser_reads_the_real_manifest_shape() {
    let manifest = "[workspace]\nmembers = [\n    \"crates/a\",\n    \"crates/b/c\",\n]\n";
    let members = workspace_members(manifest);
    assert_eq!(
        members.into_iter().collect::<Vec<_>>(),
        vec!["crates/a".to_string(), "crates/b/c".to_string()]
    );
}

#[test]
fn documented_crates_only_counts_the_crate_map_section() {
    let md = "## Crate map\n| `x` | `crates/a` |\n## Data flow\nsee `crates/zzz/file.rs`\n";
    let documented = documented_crates(md);
    assert_eq!(
        documented.into_iter().collect::<Vec<_>>(),
        vec!["crates/a".to_string()]
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Whether `source` spells the hex literal whose significant digits are
/// `digits` (lowercase), with any `_` separators, either case and any
/// leading zeros.
fn spells_hex(source: &str, digits: &str) -> bool {
    let plain: String = source
        .chars()
        .filter(|&c| c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    plain.match_indices("0x").any(|(at, _)| {
        let literal: String = plain[at + 2..]
            .chars()
            .take_while(char::is_ascii_hexdigit)
            .collect();
        literal.trim_start_matches('0') == digits
    })
}

/// One seeded stream and one hash: the SplitMix64 increment is spelled
/// only by `dmc_stats::rng`, and the FNV-1a 64-bit prime only by
/// `dmc_obs`'s `fnv1a`, so no private copy of either survives in code or
/// tests (`benchmark/` is its own workspace and not scanned). The 32-bit
/// FNV-1a's offset basis and prime are spelled nowhere: the wire
/// frames are sealed with RFC 1071's sum, and no copy of the hash that
/// sealed them before is left to drift back.
#[test]
fn one_splitmix64_and_one_fnv1a_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    for (digits, homes) in [
        ("9e3779b97f4a7c15", &["crates/stats/src/rng.rs"][..]),
        ("100000001b3", &["crates/obs/src/snapshot.rs"]),
        ("811c9dc5", &[]),
        ("1000193", &[]),
    ] {
        let sites: Vec<String> = files
            .iter()
            .filter(|f| {
                spells_hex(
                    &std::fs::read_to_string(f).expect("readable source"),
                    digits,
                )
            })
            .map(|f| {
                f.strip_prefix(root)
                    .expect("under the root")
                    .display()
                    .to_string()
            })
            .collect();
        assert_eq!(sites, homes, "0x{digits} is spelled outside {homes:?}");
    }
}

#[test]
fn hex_spelling_ignores_separators_case_and_leading_zeros() {
    for spelled in ["0xAB_CD01", "x = 0xabcd01u64;", "0X0000_ABCD_01"] {
        assert!(spells_hex(spelled, "abcd01"), "{spelled}");
    }
    for other in ["0xabcd012", "0xabcd", "abcd01", "0x1abcd01"] {
        assert!(!spells_hex(other, "abcd01"), "{other}");
    }
}
