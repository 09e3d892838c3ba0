#!/usr/bin/env bash
# Runs every experiment spec in scripts/paper/ except smoke.json — the
# scenario grid (experiments.json), Table II (table2.json), Fig. 10a
# (fig10a.json), Fig. 10b (fig10b.json) and the churn sweep (churn.json)
# — through `poly grid` (cmd/poly), each into its own timestamped results folder.
#
# --smoke runs the tiny CI grid (scripts/paper/smoke.json) end-to-end
# with a fixed stamp and diffs the analyzer's tables.md and the -dry-run
# grid expansion against the goldens in scripts/paper/testdata/ — the
# from-fresh-clone reproducibility check. Everything after --smoke (or
# every other extra flag) is passed through to poly grid.
set -euo pipefail
cd "$(dirname "$0")/../.."

if [ "${1:-}" = "--smoke" ]; then
    shift
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    go run ./cmd/poly grid -spec scripts/paper/smoke.json -dry-run |
        diff -u scripts/paper/testdata/smoke_grid.golden.txt - ||
        { echo "run_all.sh: -dry-run expansion diverged from golden" >&2; exit 1; }
    go run ./cmd/poly grid -spec scripts/paper/smoke.json -out "$out" -stamp smoke -q "$@"
    diff -u scripts/paper/testdata/smoke_tables.golden.md "$out/smoke-smoke/tables.md" ||
        { echo "run_all.sh: smoke tables.md diverged from golden" >&2; exit 1; }
    echo "smoke grid reproduced the golden analyzer table"
else
    for spec in scripts/paper/*.json; do
        [ "$spec" = scripts/paper/smoke.json ] && continue
        go run ./cmd/poly grid -spec "$spec" -out results "$@"
    done
fi
