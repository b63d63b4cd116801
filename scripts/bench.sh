#!/usr/bin/env bash
# Run the tracked microbenchmarks (collector push throughput — serial
# and contended —, the RNG kernels and stream positioning, end-to-end
# in-process pi throughput, and the per-workload realization sweep
# BenchmarkRealization/<name>) and write a machine-readable snapshot BENCH_<date>.json
# at the repo root. CI runs this on every push and uploads the snapshot
# as an artifact; the checked-in baseline is the reference point for
# the "collector push must not regress" budget.
#
# Environment:
#   BENCHTIME      go test -benchtime value (default 1s)
#   BENCH_OUT      output path (default BENCH_<YYYY-MM-DD>.json)
#   BENCH_PATTERN  benchmark regex (default collector push + RNG + realizations)
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
PATTERN="${BENCH_PATTERN:-^(BenchmarkCollectorPush|BenchmarkCollectorPushContended|BenchmarkRNG|BenchmarkNextRealization|BenchmarkNewStream|BenchmarkEndToEndPi|BenchmarkRealization|BenchmarkManifestAppend|BenchmarkFleetRPCPerRealization|BenchmarkPushBatch)$}"
DATE="$(date +%F)"
OUT="${BENCH_OUT:-BENCH_${DATE}.json}"

RAW="$(go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -benchmem . ./internal/rng ./internal/runmgr)"
echo "$RAW"

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
GOVER="$(go version | awk '{print $3}')"

# Each result line is: name iterations (value unit)... — turn the
# unit pairs into a metrics object, sanitizing units into JSON keys
# (ns/op -> ns_op, MB/s -> MB_s, allocs/op -> allocs_op). The -<GOMAXPROCS>
# suffix go test appends on multi-core hosts is dropped, so a snapshot
# names its benchmarks the same on any host and the gate can match them.
echo "$RAW" | awk -v date="$DATE" -v commit="$COMMIT" -v gover="$GOVER" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        sep = (metrics == "") ? "" : ", "
        metrics = metrics sep "\"" unit "\": " $(i)
    }
    entries[n++] = "    {\"name\": \"" name "\", \"iterations\": " iters ", \"metrics\": {" metrics "}}"
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, commit, gover
    for (i = 0; i < n; i++) printf "%s%s\n", entries[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' >"$OUT"

echo "wrote $OUT"
