#!/usr/bin/env bash
# Builds the benchmark and runs it against the daemons of this checkout.
# Run from the root of the checkout:
#
#   bash bench/run.sh --workload node-read --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binaries, the daemons' data dirs (removed at the
# end of each run) and the traces.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tabledserver || ! -f bench/go.mod ]]; then
	echo "run.sh: run from the root of a pairfn checkout" >&2
	exit 2
fi

work=$PWD/.bench_build
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE=$work/go-cache
export GOPATH=$work/gopath
export GOTMPDIR=$work/tmp TMPDIR=$work/tmp
export XDG_CONFIG_HOME=$work/config # go env file and telemetry counters
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C bench build -o "$work/bin/bench" .
exec "$work/bin/bench" "$@"
