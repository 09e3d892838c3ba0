#!/usr/bin/env bash
# Usage: scripts/nofma.sh
#
# Fails if any function of this module compiles to a fused multiply-add
# on a GOARCH whose compiler fuses. The Go spec lets an implementation
# compute x*y + z with one rounding instead of two; that changes the last
# bit of a distance or a sum, and with it every trajectory that ranks on
# one. amd64 never fuses, so the goldens cannot see it. Writing the
# product as float64(x * y) rounds it explicitly, which rules fusion out.
#
# The script cross-compiles ./... with -gcflags=-S for arm64, ppc64le,
# s390x and riscv64 (the toolchain ships every port; nothing is
# downloaded) and greps the assembly for FMADD, FMSUB, FNMADD, FNMSUB
# (with their D/S suffixes) and s390x's WFMADB and WFMSDB. Each hit is
# printed as GOARCH, function, package, mnemonic and source line.
set -euo pipefail
cd "$(dirname "$0")/.."
hits=""
for arch in arm64 ppc64le s390x riscv64; do
	asm=$(GOARCH=$arch go build -gcflags=-S ./... 2>&1) || {
		echo "$asm" | grep -v '^[[:space:]]' >&2
		echo "nofma: GOARCH=$arch build failed" >&2
		exit 1
	}
	# A build served from the cache replays the compiler's output; a run
	# that saw no function at all proves nothing, so it fails.
	funcs=$(grep -c ' STEXT ' <<<"$asm" || true)
	if [ "$funcs" -eq 0 ]; then
		echo "nofma: GOARCH=$arch printed no assembly" >&2
		exit 1
	fi
	hits+=$(awk -F'\t' -v arch="$arch" '
		/^# / { pkg = substr($0, 3) }
		/ STEXT / { split($0, f, " "); fn = f[1] }
		$3 ~ /^(FN?M(ADD|SUB)[DS]?|WFM[AS]DB)$/ {
			match($2, /\(.*\)/)
			print arch ": " fn " in " pkg ": " $3 " at " substr($2, RSTART + 1, RLENGTH - 2)
		}' <<<"$asm")$'\n'
	echo "nofma: GOARCH=$arch: $funcs functions checked"
done
if grep -q . <<<"$hits"; then
	grep . <<<"$hits"
	echo "nofma: fused multiply-adds found; write each product that feeds a sum as float64(x * y)" >&2
	exit 1
fi
echo "nofma: no fused multiply-add"
