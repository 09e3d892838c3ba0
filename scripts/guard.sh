#!/usr/bin/env bash
# Usage: scripts/guard.sh REGEX 'PKG...' [go test flags]
#
# Runs `go test -run REGEX -v` over PKGS. `go test -run X` passes when X
# matches nothing, so first every |-separated alternative of REGEX is
# checked against `go test -list` over PKGS: a renamed or deleted test
# fails the run instead of silently dropping out of it.
set -euo pipefail
re=$1 pkgs=$2
shift 2
tests=$(go test -list . $pkgs)
for alt in $(echo "$re" | tr '|' ' '); do
	echo "$tests" | grep -Eq "$alt" || { echo "guard: $alt matches no test in $pkgs"; exit 1; }
done
go test -run "$re" "$@" -v $pkgs
