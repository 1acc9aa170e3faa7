#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments (BENCHMARK.json's command). The build cache stays under
# benchmark/.build too, so the first run compiles the standard library
# (~20 s); compilation happens before main() and is not part of setup_s.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the root of a checkout that holds the program (go.mod, internal/)" >&2
	exit 1
fi
build="$PWD/benchmark/.build"
mkdir -p "$build/config/go/telemetry"
# A fresh config dir makes the go command fork a detached telemetry child
# that outlives it; mode "off" stops that, so no process is left behind.
echo off >"$build/config/go/telemetry/mode"
# Everything the go command reads or writes besides GOROOT stays in the checkout.
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOFLAGS= GOTOOLCHAIN=local go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
