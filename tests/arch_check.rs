//! Checks of the tree's layout that neither the compiler nor clippy
//! makes.
//!
//! `ARCHITECTURE.md`'s crate map must not drift from the workspace:
//! every `[workspace] members` path of `Cargo.toml` must appear as a
//! backtick-quoted `crates/...` path in a table row of the "## Crate map"
//! section, and every such path there must be a member. A new crate
//! without documentation, or a documented crate that no longer exists,
//! fails the suite.
//!
//! The lint rules themselves are rustc's and clippy's (`Cargo.toml`'s
//! `[workspace.lints]`, `clippy.toml` and the library-only lint
//! attributes of each library crate root). This file holds the two parts
//! clippy cannot: that every library crate root sets the same
//! library-only lints, and that a library `.expect` message is long
//! enough to name its invariant.

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

/// The library crate roots: `src/lib.rs` of the facade and of every
/// workspace member.
fn library_roots(root: &Path) -> Vec<std::path::PathBuf> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("readable manifest");
    let mut roots = vec![root.join("src/lib.rs")];
    roots.extend(
        workspace_members(&manifest)
            .iter()
            .map(|m| root.join(m).join("src/lib.rs")),
    );
    roots
}

/// The lints every library crate root warns of outside test code, in the
/// order its `#![cfg_attr(not(test), warn(…))]` attributes name them.
const LIBRARY_ONLY_LINTS: [&str; 6] = [
    "clippy::float_cmp",
    "clippy::unwrap_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The lints named by a crate root's `#![cfg_attr(not(test), warn(…))]`
/// attributes, in order.
fn library_only_lints(crate_root: &str) -> Vec<String> {
    let mut lints = Vec::new();
    for (start, _) in crate_root.match_indices("#![cfg_attr(") {
        let attr = &crate_root[start..];
        let attr = &attr[..attr.find(")]").unwrap_or(attr.len())];
        let flat: String = attr.split_whitespace().collect();
        if let Some(list) = flat.strip_prefix("#![cfg_attr(not(test),warn(") {
            let list = list.trim_end_matches(')').split(',');
            lints.extend(list.filter(|l| !l.is_empty()).map(str::to_string));
        }
    }
    lints
}

/// Every library crate root warns of the same library-only lints, so no
/// crate silently drops out of them. They are set per root and not in
/// `[workspace.lints]` because the workspace table cannot exempt test
/// code.
#[test]
fn every_library_crate_root_carries_the_same_lint_scope() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roots = library_roots(root);
    assert!(roots.len() > 1, "no workspace members parsed");
    for path in roots {
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            library_only_lints(&source),
            LIBRARY_ONLY_LINTS,
            "{} sets other library-only lints",
            path.display()
        );
    }
}

#[test]
fn lint_scope_parser_reads_rustfmt_layouts() {
    let root = "#![forbid(unsafe_code)]\n\
                #![cfg_attr(not(test), warn(clippy::a, clippy::b))]\n\
                #![cfg_attr(\n    not(test),\n    warn(clippy::c, clippy::d)\n)]\n\
                #![cfg_attr(feature = \"x\", warn(clippy::e))]\n";
    assert_eq!(
        library_only_lints(root),
        ["clippy::a", "clippy::b", "clippy::c", "clippy::d"]
    );
}

/// The shortest `.expect` message that can name an invariant.
const MIN_EXPECT_CHARS: usize = 12;

/// The library part of a source file: everything before its first
/// `#[cfg(test)]` line, the cut `scripts/count-lines.sh` makes.
fn library_part(source: &str) -> &str {
    let mut at = 0;
    for line in source.split_inclusive('\n') {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        at += line.len();
    }
    &source[..at]
}

/// The `.expect("…")` messages in the library part of `source` shorter
/// than [`MIN_EXPECT_CHARS`], as `(line, message)`. A plain text scan: an
/// argument that is not a string literal is not checked.
fn short_expects(source: &str) -> Vec<(usize, String)> {
    let library = library_part(source);
    let mut short = Vec::new();
    for (at, call) in library.match_indices(".expect(") {
        let Some(literal) = library[at + call.len()..].trim_start().strip_prefix('"') else {
            continue;
        };
        let mut message = String::new();
        let mut escaped = false;
        for c in literal.chars() {
            if c == '"' && !escaped {
                break;
            }
            escaped = c == '\\' && !escaped;
            message.push(c);
        }
        if message.chars().count() < MIN_EXPECT_CHARS {
            short.push((library[..at].matches('\n').count() + 1, message));
        }
    }
    short
}

/// A library `.expect` names the invariant it relies on, in at least
/// [`MIN_EXPECT_CHARS`] characters. Clippy's `expect_used` would forbid
/// the call; nothing in clippy measures the message. Binaries
/// (`src/bin/`, `main.rs`) and test code are not library code.
#[test]
fn library_expect_messages_name_an_invariant() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for crate_root in library_roots(root) {
        let src = crate_root.parent().expect("a crate root has a directory");
        rust_files(src, &mut files);
    }
    files.retain(|f| !f.ends_with("main.rs") && !f.components().any(|c| c.as_os_str() == "bin"));
    files.sort();
    assert!(files.len() > 10, "no library sources found");
    let mut short = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("readable source");
        let rel = file
            .strip_prefix(root)
            .expect("under the root")
            .display()
            .to_string();
        for (line, message) in short_expects(&source) {
            short.push(format!("{rel}:{line}: .expect({message:?})"));
        }
    }
    assert!(
        short.is_empty(),
        ".expect messages under {MIN_EXPECT_CHARS} characters in library code:\n{}",
        short.join("\n")
    );
}

#[test]
fn short_expect_scan_reads_literals_and_stops_at_the_test_module() {
    let source = "fn f() {\n    a.expect(\"x\");\n    b.expect(\n        \"y\",\n    );\n    \
                  c.expect(\"a full invariant\");\n    d.expect(&msg);\n    \
                  e.expect(\"\\\"q\\\" is long enough\");\n}\n\
                  #[cfg(test)]\nmod tests {\n    z.expect(\"t\");\n}\n";
    assert_eq!(
        short_expects(source),
        vec![(2, "x".to_string()), (3, "y".to_string())]
    );
}

/// The pragmas of the token-based linter these lints replaced are gone:
/// a leftover one would read as a suppression that suppresses nothing.
#[test]
fn no_pragma_of_the_retired_linter_is_left() {
    let pragma = concat!("dmc", "-lint:");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let left: Vec<String> = files
        .iter()
        .filter(|f| {
            std::fs::read_to_string(f)
                .expect("readable source")
                .contains(pragma)
        })
        .map(|f| f.display().to_string())
        .collect();
    assert!(left.is_empty(), "`{pragma}` pragmas left in {left:?}");
}
