#!/usr/bin/env bash
# Builds hfserved, hfrouter and the perfbench program from the source tree
# in the current directory (the repository root), then runs perfbench
# with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, temporary files, the binaries, and the
# per-run records and trace files (.bench_build/runs/).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/hfserved ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ must be present)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config" "$build/runs"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$build/bin/" ./cmd/hfserved ./cmd/hfrouter
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --bin "$build/bin" --out "$build/runs" "$@"
