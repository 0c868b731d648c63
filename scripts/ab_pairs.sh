#!/usr/bin/env bash
# Alternated A/B pairs of one benchmark workload: a parent ref against
# the working tree (choosing-metrics section 8; the protocol of PR 12's
# table in EXPERIMENTS.md).
#
#   scripts/ab_pairs.sh <parent-ref> <workload> [pairs=10] [seed=7]
#
# The parent is exported with `git archive` into a temporary directory
# (under $TMPDIR), both sides are built by the command benchmark/run.sh
# itself builds with, each into a target directory of its own, and every
# run goes through that side's benchmark/run.sh the way BENCHMARK.json's
# driver makes it (run length from BENCHMARK.json, untraced). Odd pairs
# run the parent first, even pairs the change. Printed per end-to-end
# metric: each side's median [quartiles] and the pairs the change won
# (ties count for neither), then the failed operations of every run.
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: $0 <parent-ref> <workload> [pairs=10] [seed=7]" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-7}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
tree() { [ "$1" = parent ] && echo "$work/parent" || echo "$root"; }

for side in parent change; do
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$(tree "$side")/benchmark/Cargo.toml" >&2
done

# One run of one side: `pair side metric value` lines into $work/values,
# `pair side failed attempted` into $work/failed.
one() {
    local pair=$1 side=$2 lines
    lines="$(CARGO_TARGET_DIR="$work/target-$side" bash "$(tree "$side")/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
    awk -v p="$pair" -v s="$side" -v w="$workload" '$1 == w { print p, s, $2, $3 }' \
        <<<"$lines" >>"$work/values"
    tail -n 1 <<<"$lines" | sed -n \
        's/.*"attempted": *\([0-9]*\).*"failed": *\([0-9]*\).*/'"$pair $side"' \2 \1/p' \
        >>"$work/failed"
    echo "# pair $pair $side: $(tail -n 1 <<<"$lines" | cut -c1-80)" >&2
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do one "$pair" "$side"; done
done

echo "# $workload, seed $seed, $seconds s, $pairs alternated pairs: parent $ref against the working tree"
# Direction of each metric from BENCHMARK.json's end_to_end table.
sed -n 's/.*"name": *"\([a-z0-9_]*\)".*"better": *"\([a-z]*\)", *"bound".*/\1 \2/p' \
    "$root/BENCHMARK.json" >"$work/better"
sort -k3,3 -k2,2 -k4,4g "$work/values" | awk -v better="$work/better" '
    # Quantile q of sorted[side, 1..n[side]], linear interpolation.
    function quant(side, q,    h, lo) {
        h = (n[side] - 1) * q + 1; lo = int(h)
        if (lo >= n[side]) return sorted[side, n[side]]
        return sorted[side, lo] + (h - lo) * (sorted[side, lo + 1] - sorted[side, lo])
    }
    function summary(side) {
        return sprintf("%.4g [%.4g, %.4g]", quant(side, 0.5), quant(side, 0.25), quant(side, 0.75))
    }
    function flush(    p, won, tied, a, b) {
        if (metric == "") return
        won = tied = 0
        for (p = 1; p <= pairs; p++) {
            a = at["parent", p]; b = at["change", p]
            if (a == b) tied++
            else if ((dir[metric] == "higher") == (b > a)) won++
        }
        printf "%-16s parent %-28s change %-28s change won %d/%d%s\n", metric,
            summary("parent"), summary("change"), won, pairs, tied ? " (" tied " tied)" : ""
        n["parent"] = n["change"] = 0
    }
    BEGIN { while ((getline line < better) > 0) { split(line, f, " "); dir[f[1]] = f[2] } }
    $3 != metric { flush(); metric = $3 }
    { at[$2, $1] = $4 + 0; sorted[$2, ++n[$2]] = $4 + 0; if ($1 > pairs) pairs = $1 }
    END { flush() }
'
echo "# failed operations per run (pair side failed attempted):"
cat "$work/failed"
