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
