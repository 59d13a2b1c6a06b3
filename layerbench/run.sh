#!/usr/bin/env bash
# Builds layerbench from source and runs it with the given flags.
# Run from the repository root:
#
#   bash layerbench/run.sh --workload saturation --seed 2005 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) and the traced run's spans and profiles stay under
# .bench_build in the repository.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR" "$GOPATH" "$XDG_CONFIG_HOME" "$PPROF_TMPDIR"
(cd layerbench && go build -o "$build/bin/layerbench" .) >&2
exec "$build/bin/layerbench" "$@"
