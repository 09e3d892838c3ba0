#!/usr/bin/env bash
# Usage: scripts/guard.sh REGEX 'PKG...' [go test flags]
#
# Runs `go test -run REGEX -v` over PKGS. `go test -run X` passes when X
# matches nothing, so first every |-separated alternative of REGEX is
# checked against `go test -list` over PKGS: a renamed or deleted test
# fails the run instead of silently dropping out of it. An alternative
# that names a subtest (Parent/sub) is checked by its parent before the
# run and by a `--- PASS: Parent/sub` line of the run's output after it;
# go test splits -run at every slash before it splits at a bar, so such
# an alternative must be the only one of its REGEX.
set -euo pipefail
re=$1 pkgs=$2
shift 2
tests=$(go test -list . $pkgs)
for alt in $(echo "$re" | tr '|' ' '); do
	echo "$tests" | grep -Eq "${alt%%/*}" || { echo "guard: $alt matches no test in $pkgs"; exit 1; }
done
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run "$re" "$@" -v $pkgs | tee "$log"
for alt in $(echo "$re" | tr '|' ' '); do
	if [[ $alt == */* ]] && ! grep -Eq -- "--- PASS: $alt( |$)" "$log"; then
		echo "guard: subtest $alt did not run in $pkgs"
		exit 1
	fi
done
