#!/usr/bin/env bash
# Build the benchmark once, run the six workloads untraced and then traced
# for one seed, and merge their results into one report.
#
#   benchmark/run_all.sh [seed] [seconds]
#
# writes benchmark/out/report-<seed>.json:
#   {"seed":…, "seconds":…, "runs":[{"workload":…, "trace":0|1, "host":{…}, "result":{…}}, …]}
# and exits non-zero if any run did.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-10}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/eventscale-bench"

mkdir -p benchmark/out
report="benchmark/out/report-${seed}.json"
runs=""
status=0
for trace in 0 1; do
    for workload in nio-small nio-pipelined nio-large nio-churn pool-small sim-figs; do
        echo "== ${workload} trace=${trace}" >&2
        if ! out="$("$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")"; then
            status=1
        fi
        echo "$out" | grep -E '^(metric|problem|attempted) ' >&2 || true
        host="$(echo "$out" | sed -n 's/^host //p' | head -n 1)"
        result="$(echo "$out" | tail -n 1)"
        runs="${runs:+${runs},}{\"workload\":\"${workload}\",\"trace\":${trace},\"host\":${host:-null},\"result\":${result:-null}}"
    done
done
printf '{"seed":%s,"seconds":%s,"runs":[%s]}\n' "$seed" "$seconds" "$runs" >"$report"
echo "report written to ${report}" >&2
exit "$status"
