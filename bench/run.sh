#!/bin/sh
# The benchmark's command in BENCHMARK.json: build the benchmark from
# the checkout's sources, then run it with the driver's arguments.
# Everything the build writes (binary, Go build cache, toolchain state)
# stays under .bench_build/ in the checkout.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod or internal/ here: the program under test is missing" >&2
	exit 1
fi
out="$PWD/.bench_build"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With a fresh HOME the go command would fork a telemetry sidecar that
# outlives it; the mode file turns that off before go first runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/rt3perf" ./bench
exec "$out/rt3perf" "$@"
