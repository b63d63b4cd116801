#!/usr/bin/env bash
# Run the tracked microbenchmarks (collector push throughput — serial
# and contended —, the RNG kernels and stream positioning, the shared
# realization loop on two workers, end-to-end in-process pi
# throughput, the per-workload realization sweep
# BenchmarkRealization/<name>, and the SDE integrator alone and on two
# workers built back to back) and write a machine-readable snapshot
# BENCH_<date>.json at the repo root. Every benchmark runs five times
# and the snapshot keeps the median of each metric, along with the
# host's core count (nproc) and the GOMAXPROCS the benchmarks ran at.
# CI runs this on every push and uploads the snapshot as an artifact;
# the checked-in baseline is the reference point for bench_gate.sh.
#
# Environment:
#   BENCHTIME      go test -benchtime value (default 1s)
#   BENCH_OUT      output path (default BENCH_<YYYY-MM-DD>.json)
#   BENCH_PATTERN  benchmark regex (default collector push + RNG + realizations)
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
PATTERN="${BENCH_PATTERN:-^(BenchmarkCollectorPush|BenchmarkCollectorPushContended|BenchmarkRNG|BenchmarkNextRealization|BenchmarkNewStream|BenchmarkSimulateLoop|BenchmarkEndToEndPi|BenchmarkRealization|BenchmarkManifestAppend|BenchmarkFleetRPCPerRealization|BenchmarkPushBatch|BenchmarkPaperRealization|BenchmarkPaperRealizationParallel)$}"
DATE="$(date +%F)"
OUT="${BENCH_OUT:-BENCH_${DATE}.json}"

RAW="$(go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count 5 -benchmem . ./internal/core ./internal/rng ./internal/runmgr ./internal/sde)"
echo "$RAW"

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
GOVER="$(go version | awk '{print $3}')"
NPROC="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

# Each result line is: name iterations (value unit)... — turn the
# unit pairs into a metrics object, sanitizing units into JSON keys
# (ns/op -> ns_op, MB/s -> MB_s, allocs/op -> allocs_op), and keep the
# median over the five runs of each figure. The -<GOMAXPROCS> suffix
# go test appends on multi-core hosts is recorded once as "gomaxprocs"
# and dropped from the names, so a snapshot names its benchmarks the
# same on any host and the gate can match them.
echo "$RAW" | awk -v date="$DATE" -v commit="$COMMIT" -v gover="$GOVER" -v nproc="$NPROC" '
function median(key,   v, i, j, t, m) {
    m = cnt[key]
    for (i = 1; i <= m; i++) v[i] = val[key, i]
    for (i = 2; i <= m; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    return v[int((m + 1) / 2)]
}
function add(key, x) { val[key, ++cnt[key]] = x }
BEGIN { procs = 1 }
/^Benchmark/ {
    name = $1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    if (!(name in seen)) {
        seen[name] = 1
        names[n++] = name
        units[name] = ""
    }
    add(name SUBSEP "iterations", $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        if (index(" " units[name] " ", " " unit " ") == 0) units[name] = units[name] " " unit
        add(name SUBSEP unit, $(i))
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n", date, commit, gover
    printf "  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"count\": 5,\n  \"benchmarks\": [\n", nproc, procs
    for (e = 0; e < n; e++) {
        name = names[e]
        nu = split(substr(units[name], 2), us, " ")
        metrics = ""
        for (u = 1; u <= nu; u++) {
            sep = (metrics == "") ? "" : ", "
            metrics = metrics sep "\"" us[u] "\": " median(name SUBSEP us[u])
        }
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}%s\n", name, median(name SUBSEP "iterations"), metrics, (e < n - 1 ? "," : "")
    }
    printf "  ]\n}\n"
}' >"$OUT"

echo "wrote $OUT"
