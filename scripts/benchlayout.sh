#!/usr/bin/env bash
# Usage: scripts/benchlayout.sh [REV]   (REV defaults to HEAD~1)
#
# Checks that a change leaves the code layout of the benchmark binary
# alone. It builds bench/ exactly as bench/run.sh does, once from REV's
# files (extracted with `git archive` into a temporary directory) and once
# from the working tree, and compares the text symbols (the T/t rows of
# `go tool nm -n -size`) of the two binaries by name, address and size.
#
# Exit 0: every text symbol of the two binaries sits at the same address
# with the same size, so a benchmark delta between them is not a code
# layout effect. Exit 1: the first moved symbols are printed. The section
# size deltas of `size -A` are printed either way, when `size` exists;
# REV's extracted copy carries no VCS stamp, so .go.buildinfo and .rodata
# may differ by a few bytes even when nothing else does.
#
# Run it first on any PR that deletes code from a package the benchmark
# links; the padded-build control of ROADMAP.md is needed only when this
# reports a move. It writes nothing under .git.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD~1}"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
	{ echo "benchlayout.sh: unknown revision $rev" >&2; exit 2; }

tmp="$(mktemp -d)"
cleanup() {
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

# build DIR OUT: the bench/run.sh build of the checkout at DIR, with the
# Go toolchain's caches kept under $tmp.
build() {
	mkdir -p "$tmp/gotmp"
	GOCACHE="$tmp/gocache" GOMODCACHE="$tmp/gomod" GOTMPDIR="$tmp/gotmp" XDG_CONFIG_HOME="$tmp/config" \
		GOPROXY=off GOTOOLCHAIN=local go -C "$1/bench" build -o "$2" .
}
build "$tmp/base" "$tmp/base.bin"
build "$PWD" "$tmp/head.bin"

# text BIN: the T/t rows of BIN's symbol table in address order. nm -n
# orders symbols that share an address differently from one binary to
# the next, so the rows are sorted whole.
text() {
	go tool nm -n -size "$1" | awk '$3 == "T" || $3 == "t"' | LC_ALL=C sort
}
text "$tmp/base.bin" >"$tmp/base.txt"
text "$tmp/head.bin" >"$tmp/head.txt"

if command -v size >/dev/null; then
	echo "section size deltas ($rev -> working tree):"
	join <(size -A "$tmp/base.bin" | awk '$1 ~ /^\./ { print $1, $2 }' | LC_ALL=C sort) \
		<(size -A "$tmp/head.bin" | awk '$1 ~ /^\./ { print $1, $2 }' | LC_ALL=C sort) |
		awk '{ printf "  %-16s %10d %10d %+8d\n", $1, $2, $3, $3 - $2 }'
fi

total="$(wc -l <"$tmp/head.txt")"
if diff "$tmp/base.txt" "$tmp/head.txt" >"$tmp/diff.txt"; then
	echo "benchlayout: all $total text symbols keep their address and size"
	exit 0
fi
moved="$(grep -c '^<' "$tmp/diff.txt" || true)"
echo "benchlayout: $moved of $(wc -l <"$tmp/base.txt") text symbols of $rev moved, resized or left; first rows (< $rev, > working tree; address size type name):"
grep -m 20 '^[<>]' "$tmp/diff.txt" | sed 's/^/  /'
exit 1
