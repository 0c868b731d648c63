#!/usr/bin/env bash
# miniraid's benchmark: build (release, offline) and run.
#
#   benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
#
# With one --workload and a --trace this is one run, as BENCHMARK.json's
# driver makes it: metric lines, then one JSON object as the last line.
# Otherwise every named workload (default: all six) runs untraced and
# traced, and the results are also written to target/results.txt
# (`workload metric value unit` lines) and target/results.json.
# See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/target"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$out}"

workloads=()
traces=()
pass=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workloads+=("$2") ;;
        --trace) traces+=("$2") ;;
        *) pass+=("$1" "$2") ;;
    esac
    shift 2
done

# Cargo reports to stderr; stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/miniraid-benchmark"
mkdir -p "$out"

# One run. The program removes its own run-<pid>/ (WAL files); the trap
# covers the run that is killed before it can.
one() {
    "$bin" --out "$out" --workload "$1" --trace "$2" ${pass[@]+"${pass[@]}"} &
    local pid=$! rc=0
    trap "kill $pid 2>/dev/null || true; rm -rf '$out/run-$pid'" EXIT
    wait "$pid" || rc=$?
    trap - EXIT
    return $rc
}

if [ ${#workloads[@]} -eq 1 ] && [ ${#traces[@]} -eq 1 ]; then
    one "${workloads[0]}" "${traces[0]}"
    exit
fi

[ ${#workloads[@]} -gt 0 ] || workloads=(mem-rw mem-read tcp-rw wal-write shard-cross fail-recover)
[ ${#traces[@]} -gt 0 ] || traces=(0 1)
: >"$out/results.txt"
runs=()
status=0
for w in "${workloads[@]}"; do
    if [ "$w" = wal-write ]; then
        echo "# wal-write: WAL directory $out/run-<pid>/ is on $(df -P "$out" | awk 'NR==2 {print $1}') ($(stat -f -c %T "$out")); storage.fsync_us_p50 of the traced run is that device's"
    fi
    for t in "${traces[@]}"; do
        if lines="$(one "$w" "$t")"; then
            grep -v '^{' <<<"$lines" | tee -a "$out/results.txt"
            runs+=("{\"workload\": \"$w\", \"trace\": $t, \"result\": $(tail -n 1 <<<"$lines")}")
        else
            echo "# $w: run failed (trace $t); its metrics are suppressed" | tee -a "$out/results.txt"
            status=1
        fi
    done
done
{
    printf '{"runs": [\n'
    for k in "${!runs[@]}"; do
        printf '  %s%s\n' "${runs[$k]}" "$([ "$k" -lt $((${#runs[@]} - 1)) ] && echo ,)"
    done
    printf ']}\n'
} >"$out/results.json"
echo "# results: $out/results.txt $out/results.json; span files: $out/trace-<workload>.jsonl"
exit $status
