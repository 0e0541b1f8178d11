#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload st_forward --seed 1 --seconds 60 --trace 0
#
# Everything the build writes (Go build cache, binary, profiles) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
# The go command keeps telemetry and its env file under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off

commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git rev-parse HEAD)$(git diff --quiet HEAD -- . 2>/dev/null || echo -dirty)
fi
src=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod -o -name '*.pgo' \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)

go build -C perfbench -pgo="$root/cmd/tusbench/default.pgo" \
	-ldflags "-X main.gitCommit=$commit -X main.sourceDigest=$src" \
	-o "$out/perfbench" .
exec "$out/perfbench" "$@"
