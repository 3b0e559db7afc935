#!/usr/bin/env bash
# Counts non-test source lines: every `.rs` file under crates/*/src and
# shims/*/src, each counted up to (not including) its first column-0
# `#[cfg(test)]` line.  A file its parent declares as a test-only module
# (`#[cfg(test)]` on the line before `mod <name>;`) is test code and is
# skipped.  Prints one "<lines> <file>" row per file, then the total.
#
#   scripts/nontest-lines.sh            # per file, then the total
#   scripts/nontest-lines.sh | tail -1  # the total alone
set -euo pipefail
cd "$(dirname "$0")/.."
files=$(find crates/*/src shims/*/src -name '*.rs' | LC_ALL=C sort)
# The files of test-only modules: `mod <name>;` declared in lib.rs,
# main.rs or mod.rs lives beside it, declared in <stem>.rs it lives in
# <stem>/.
test_only=$(for f in $files; do
    awk -v f="$f" '
        prev ~ /^#\[cfg\(test\)\]/ && match($0, /^mod [a-z0-9_]+;/) {
            name = substr($0, 5, RLENGTH - 5)
            dir = f; sub(/[^\/]*$/, "", dir)
            stem = f; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
            print dir name ".rs"
        }
        { prev = $0 }' "$f"
done)
for f in $files; do
    if grep -qxF "$f" <<<"$test_only"; then
        continue
    fi
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
