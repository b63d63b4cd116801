#!/usr/bin/env bash
# Benchmark regression gate for the collector push budget and the RNG
# layer: diff the gated ns/op figures in a fresh bench snapshot
# (produced by scripts/bench.sh) against the committed baseline and
# fail on any regression beyond the tolerance. The serialized-collector
# era ended at 16.6µs/push; this gate is what keeps the sharded
# collector from quietly sliding back toward it, what keeps the
# per-realization stream advance at one multiply, and what keeps the
# diffusion kernel (the paper's Sec. 4 SDE) from slowing down, alone
# or on two workers whose integrators were built back to back (a
# false-sharing regression shows in BenchmarkPaperRealizationParallel).
# A benchmark is gated only if its 5-run median stayed within the
# tolerance above the baseline across repeated snapshots on the
# baseline host (2 vCPU, three snapshots): BenchmarkRealization/diffusion
# read +3%, 0% and −36%, BenchmarkPaperRealizationParallel +16%, 0% and
# −9%. BenchmarkEndToEndPi read 0%, +20% and −9%, so bench.sh records
# it but it is not gated. Nor is BenchmarkSimulateLoop (the realization
# loop on two workers sharing one cancelable context): its 5-run medians
# on that host fell in two modes, 28.5–32.5 ns and 54.4–58.1 ns across
# seven sets, the slow one matching a run at -cpu 1 (52–62 ns), i.e. the host
# lending the benchmark one CPU instead of two.
#
# Usage: scripts/bench_gate.sh <fresh.json> [baseline.json]
#
# The baseline defaults to the newest committed BENCH_<date>.json at
# the repo root. Benchmarks present only in the fresh snapshot pass
# (new coverage needs no baseline yet); gated benchmarks missing from
# the fresh run fail, so the gate cannot rot by the pattern shrinking.
#
# Environment:
#   BENCH_TOLERANCE_PCT  allowed ns/op growth in percent (default 20)
#   BENCH_GATE_PREFIX    space-separated benchmark name prefixes to gate
#                        (default "BenchmarkCollectorPush BenchmarkPushBatch
#                        BenchmarkRNG BenchmarkNextRealization BenchmarkNewStream
#                        BenchmarkRealization/diffusion
#                        BenchmarkPaperRealizationParallel")
set -euo pipefail

cd "$(dirname "$0")/.."

FRESH="${1:?usage: bench_gate.sh <fresh.json> [baseline.json]}"
BASELINE="${2:-$(ls BENCH_*.json 2>/dev/null | sort | tail -1)}"
TOL="${BENCH_TOLERANCE_PCT:-20}"
PREFIX="${BENCH_GATE_PREFIX:-BenchmarkCollectorPush BenchmarkPushBatch BenchmarkRNG BenchmarkNextRealization BenchmarkNewStream BenchmarkRealization/diffusion BenchmarkPaperRealizationParallel}"

if [ -z "$BASELINE" ]; then
    echo "bench_gate: no committed BENCH_*.json baseline found" >&2
    exit 1
fi

# Emit "name ns_op" for every gated benchmark entry in a snapshot.
# The snapshots are our own one-entry-per-line format (see bench.sh),
# so a line-oriented scan is exact.
extract() {
    awk -v prefixes="$PREFIX" '
    BEGIN { np = split(prefixes, pfx, " ") }
    /"name":/ {
        line = $0
        sub(/.*"name": "/, "", line)
        name = line
        sub(/".*/, "", name)
        hit = 0
        for (p = 1; p <= np; p++) if (index(name, pfx[p]) == 1) hit = 1
        if (!hit) next
        line = $0
        if (!sub(/.*"ns_op": /, "", line)) next
        sub(/[,}].*/, "", line)
        print name, line
    }' "$1"
}

echo "bench_gate: $FRESH vs baseline $BASELINE (prefix $PREFIX, tolerance ${TOL}%)"

extract "$BASELINE" >/tmp/bench_gate_base.$$
extract "$FRESH" >/tmp/bench_gate_fresh.$$
trap 'rm -f /tmp/bench_gate_base.$$ /tmp/bench_gate_fresh.$$' EXIT

if [ ! -s /tmp/bench_gate_base.$$ ]; then
    echo "bench_gate: baseline $BASELINE has no $PREFIX entries" >&2
    exit 1
fi

awk -v tol="$TOL" '
NR == FNR { base[$1] = $2; next }
{ fresh[$1] = $2 }
END {
    fail = 0
    for (n in base) {
        if (!(n in fresh)) {
            printf "MISSING  %-45s baseline %.5g ns/op, absent from fresh run\n", n, base[n]
            fail = 1
            continue
        }
        pct = (fresh[n] - base[n]) / base[n] * 100
        verdict = (pct > tol) ? "REGRESS" : "ok"
        if (pct > tol) fail = 1
        printf "%-8s %-45s %.5g -> %.5g ns/op (%+.1f%%)\n", verdict, n, base[n], fresh[n], pct
    }
    for (n in fresh) {
        if (!(n in base)) printf "NEW      %-45s %.5g ns/op (no baseline yet)\n", n, fresh[n]
    }
    exit fail
}' /tmp/bench_gate_base.$$ /tmp/bench_gate_fresh.$$
