#!/usr/bin/env bash
# Builds the benchmark, roload-serve and roload-gateway from the source
# in the current directory (the repository root), then runs the
# benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload engine-mix --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/roload-serve || ! -d cmd/roload-gateway ]]; then
	echo "perfbench: run from the repository root; the program source is missing here" >&2
	exit 1
fi
build="$PWD/.bench_build"
out="$build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
# The Go tool keeps its caches, temporary files and config (telemetry
# counters included) where these point: all inside .bench_build.
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/" ./cmd/roload-serve ./cmd/roload-gateway >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
