#!/usr/bin/env bash
# The A/A gate: run the benchmark twice on the same code and fail if any
# end-to-end metric of any workload is worse in the second set than in
# the first by more than its bound (metrics.rs, BENCHMARK.json).
#
#   benchmark/check.sh [--workload NAME]... [--seed N] [--seconds S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/target"
for set in a b; do
    "$here/run.sh" --trace 0 "$@"
    grep -v '^#' "$out/results.txt" >"$out/results-$set.txt"
done
"${CARGO_TARGET_DIR:-$out}/release/miniraid-benchmark" compare "$out/results-a.txt" "$out/results-b.txt"
