#!/usr/bin/env bash
# Paired end-to-end benchmark runs of a parent revision against the
# working tree.
#
#   scripts/perfbench-pairs.sh <rev> <workload> <pairs> <seconds> <first-seed> [<trace>]
#
# Exports <rev> with `git archive` into target/perfbench-pairs/<sha>/
# (the repository's .git is left alone) and builds perfbench offline in each side's own perfbench/target (a
# shared target directory moves peak RSS).  Then it runs <pairs> pairs
# of runs of <workload> for <seconds> each, untraced (`--trace 0`) by
# default or traced (`--trace 1`) when <trace> is 1; pair i runs both
# sides at seed <first-seed> + i, the parent first in even pairs and
# the change first in odd ones.  It prints each pair's metrics from
# the run's last JSON line (the end-to-end ones untraced, the
# per-layer ones traced), then per metric each side's median and
# quartiles, the change/parent ratio of the medians and the pairs the
# change won (direction from BENCHMARK.json).  A run whose output
# check fails stops the script.
set -euo pipefail

if [ $# -ne 5 ] && [ $# -ne 6 ]; then
    echo "usage: $0 <rev> <workload> <pairs> <seconds> <first-seed> [<trace>]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 first_seed=$5 trace=${6:-0}
if [ "$trace" != 0 ] && [ "$trace" != 1 ]; then
    echo "<trace> is 0 or 1, not $trace" >&2
    exit 2
fi
change=$(git rev-parse --show-toplevel)
sha=$(git -C "$change" rev-parse --verify "$rev^{commit}")
parent="$change/target/perfbench-pairs/$sha"
if [ ! -d "$parent" ]; then
    rm -rf "$parent.tmp"
    mkdir -p "$parent.tmp"
    git -C "$change" archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
for tree in "$parent" "$change"; do
    cargo build --quiet --release --offline --locked --manifest-path "$tree/perfbench/Cargo.toml"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# Appends one "<pair> <side> <metric> <value>" row per metric.
run() {
    local pair=$1 side=$2 tree=$3 seed=$4 last
    last=$("$tree/perfbench/target/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    if ! grep -q '"correct": true' <<<"$last" || ! grep -Eq '"failed": 0[,}]' <<<"$last"; then
        echo "pair $pair, $side (seed $seed): output check failed: $last" >&2
        exit 1
    fi
    grep -o '"[a-z0-9_.]*": {"value": [-0-9.eE+]*' <<<"$last" |
        sed 's/^"\([^"]*\)": {"value": /\1 /' |
        while read -r metric value; do echo "$pair $side $metric $value"; done >>"$runs"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run "$i" parent "$parent" "$seed"
        run "$i" change "$change" "$seed"
    else
        run "$i" change "$change" "$seed"
        run "$i" parent "$parent" "$seed"
    fi
    echo "pair $i, seed $seed:"
    awk -v p="$i" '$1 == p { v[$3, $2] = $4; if (!($3 in seen)) { seen[$3]; order[n++] = $3 } }
        END { for (k = 0; k < n; k++) { m = order[k]
            printf "  %-26s parent %14.6g  change %14.6g\n", m, v[m, "parent"], v[m, "change"] } }' "$runs"
done

echo "$workload, $pairs pairs, ${seconds} s each, --trace $trace, seeds $first_seed..$((first_seed + pairs - 1)):"
printf '  %-26s %33s %33s %6s %6s\n' metric "parent median [q1, q3]" "change median [q1, q3]" ratio wins
awk '
    # Direction of each metric, from the benchmark declaration.
    FNR == NR {
        if (match($0, /"name": "[^"]*"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"better": "[a-z]*"/)) higher[name] = substr($0, RSTART + 11, RLENGTH - 12) == "higher"
        next
    }
    {
        if (!($3 in seen)) { seen[$3]; order[nm++] = $3 }
        v[$1, $2, $3] = $4
        if ($1 + 1 > np) np = $1 + 1
    }
    # The q-quantile of the n sorted values in s, linearly interpolated.
    function quantile(s, n, q,    x, lo) {
        x = q * (n - 1); lo = int(x)
        return lo + 1 < n ? s[lo] + (x - lo) * (s[lo + 1] - s[lo]) : s[lo]
    }
    function sorted(side, m,    i, j, t) {
        for (i = 0; i < np; i++) s[i] = v[i, side, m]
        for (i = 1; i < np; i++) for (j = i; j > 0 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
    }
    END {
        for (k = 0; k < nm; k++) {
            m = order[k]
            sorted("parent", m); pm = quantile(s, np, 0.5); p1 = quantile(s, np, 0.25); p3 = quantile(s, np, 0.75)
            sorted("change", m); cm = quantile(s, np, 0.5); c1 = quantile(s, np, 0.25); c3 = quantile(s, np, 0.75)
            wins = 0
            for (i = 0; i < np; i++) {
                d = v[i, "change", m] - v[i, "parent", m]
                if ((higher[m] && d > 0) || (!higher[m] && d < 0)) wins++
            }
            printf "  %-26s %11.6g [%9.6g, %9.6g] %11.6g [%9.6g, %9.6g] %6.3f %3d/%d\n",
                m, pm, p1, p3, cm, c1, c3, pm ? cm / pm : 0, wins, np
        }
    }
' "$change/BENCHMARK.json" "$runs"
