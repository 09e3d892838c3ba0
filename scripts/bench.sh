#!/usr/bin/env bash
# Regenerates the tracked bench-trajectory snapshot (BENCH_2.json onward):
# runs the per-round hot-path micro-benchmarks — migrate round, metrics
# round, proximity round and the neighbour query, each against its legacy
# baseline variant — plus the headline Fig. 10a scalability bench (its
# sequential cells and, from BENCH_5 on, the _w2 exchange-parallel
# variants) and the 51,200-node BenchmarkParallelRound worker sweep (w=0
# sequential engine, w>=1 the persistent-pool batched scheduler;
# wall-clock gains need a multi-core machine), and, from BENCH_6 on, the
# 51,200-node BenchmarkSnapshotRestore checkpoint/restore round trip,
# and, from BENCH_7 on, the 51,200-node BenchmarkAutoCheckpoint
# durable-checkpoint tax (per-round cost at cadences 0/1/16 of writing
# atomic fsynced generations), and, from BENCH_8 on, the serving-surface
# benches — BenchmarkEpochPublish (copy-on-publish cost per round),
# BenchmarkServeLookup (the allocation-free epoch read path) and
# BenchmarkServePhases (sustained QPS and p50/p99 lookup latency over
# real loopback HTTP while the overlay rides calm, catastrophe-recovery
# and sustained-churn phase scripts) — and, from BENCH_9 on, the
# 51,200-node BenchmarkScheduleReplay (one trace-replayed churn round vs
# the equivalent in-band churn round: the price of replayable
# availability schedules) — and converts the `go test -json` stream into
# a stable JSON document via scripts/benchjson.
#
# It then gates two alloc contracts: one warmed BenchmarkGossipRound per
# overlay package (rps, tman, vicinity) must report 0 allocs/op, and the
# epoch lookup read path (BenchmarkServeLookup) must too, or the script
# fails. The iteration count matters — early iterations still grow
# pooled buffers, so a warm run is what the 0-allocs contract is
# defined over.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_10.json}"
benchtime="${2:-5x}"

go test -json -run '^$' \
  -bench 'BenchmarkMigrateRound|BenchmarkMetricsRound|BenchmarkProximityRound|BenchmarkNeighborsQuery|BenchmarkFig10aScalability|BenchmarkParallelRound|BenchmarkSnapshotRestore|BenchmarkAutoCheckpoint|BenchmarkScheduleReplay|BenchmarkEpochPublish|BenchmarkServeLookup|BenchmarkServePhases' \
  -benchmem -benchtime "$benchtime" -timeout 60m \
  . ./internal/core/ ./internal/scenario/ ./internal/serve/ ./internal/tman/ |
  go run ./scripts/benchjson > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmark records)" >&2

echo "gating steady-state gossip at 0 allocs/op..." >&2
go test -run '^$' -bench 'BenchmarkGossipRound' -benchmem -benchtime 300x \
  ./internal/rps/ ./internal/tman/ ./internal/vicinity/ |
  awk '
    /allocs\/op/ {
      seen++
      print "  " $0
      for (i = 1; i <= NF; i++) {
        if ($i == "allocs/op" && $(i-1) + 0 > 0) bad = 1
      }
    }
    END {
      if (bad) { print "FAIL: steady-state gossip allocates" > "/dev/stderr"; exit 1 }
      # One result line per overlay package, or the gate checked nothing
      # (e.g. a renamed benchmark) and must fail rather than pass vacuously.
      if (seen != 3) { printf "FAIL: expected 3 gossip bench results, parsed %d\n", seen > "/dev/stderr"; exit 1 }
    }' >&2
echo "gossip alloc gate passed" >&2

echo "gating epoch lookup read path at 0 allocs/op..." >&2
go test -run '^$' -bench 'BenchmarkServeLookup$' -benchmem -benchtime 300x \
  ./internal/serve/ |
  awk '
    /allocs\/op/ {
      seen++
      print "  " $0
      for (i = 1; i <= NF; i++) {
        if ($i == "allocs/op" && $(i-1) + 0 > 0) bad = 1
      }
    }
    END {
      if (bad) { print "FAIL: epoch lookup allocates" > "/dev/stderr"; exit 1 }
      if (seen != 1) { printf "FAIL: expected 1 serve lookup bench result, parsed %d\n", seen > "/dev/stderr"; exit 1 }
    }' >&2
echo "serve lookup alloc gate passed" >&2
