#!/bin/sh
# Prints the workspace's production (non-test) Rust line count, the
# figure ROADMAP.md quotes: every `.rs` file under `crates/` and `src/`,
# each cut at its first line that is a `#[cfg(test)]` attribute (that
# line and everything after it are test code). Left out: every `tests/`
# directory, the dev-only LP oracle crate `crates/lp/oracle`, and the
# simulator's test-only reference engine `crates/sim/src/reference.rs`.
#
# Usage: scripts/count-lines.sh
set -eu
cd "$(dirname "$0")/.."
find crates src -name '*.rs' \
    -not -path '*/tests/*' \
    -not -path 'crates/lp/oracle/*' \
    -not -path 'crates/sim/src/reference.rs' |
    while read -r file; do
        awk '/^[ \t]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done |
    awk '{ total += $1 } END { print total }'
