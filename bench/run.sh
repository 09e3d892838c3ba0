#!/usr/bin/env bash
# Builds the benchmark once into .bench_build/ at the root of the checkout
# (so that compilation is never inside a number) and runs it with the
# arguments given. Everything the Go toolchain writes — build cache, work
# directory, telemetry counters — is kept in there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
cd "$root"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local go -C bench build -o "$out/polybench" .
exec "$out/polybench" "$@"
