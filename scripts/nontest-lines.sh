#!/usr/bin/env bash
# Counts non-test source lines: every `.rs` file under crates/*/src and
# shims/*/src, each counted up to (not including) its first column-0
# `#[cfg(test)]` line.  Prints one "<lines> <file>" row per file, then
# the total.
#
#   scripts/nontest-lines.sh            # per file, then the total
#   scripts/nontest-lines.sh | tail -1  # the total alone
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src shims/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
