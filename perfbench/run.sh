#!/usr/bin/env bash
# Builds the benchmark and psserve from the checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload corpus_run --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/ps" ]]; then
	echo "perfbench: run from the repository root (no go.mod or ps/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go build -o "$build/bin/psserve" ./cmd/psserve >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -psserve "$build/bin/psserve" -out "$build/perfbench" "$@"
