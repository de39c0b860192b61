#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds fsoibench from source into
# .bench_build/ under the current directory (the root of a checkout) and
# runs it with the given flags. Everything the go command writes (build
# cache, temporary files) is pointed inside the checkout, so nothing is
# read or written outside it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/main.go ]; then
	echo "bench/run.sh: run from the root of a checkout of the module (no go.mod here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: with a fresh config directory the go command would
# otherwise start a background uploader child that outlives this script.
# The mode is a file, not an environment variable.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/fsoibench" ./bench
exec "$build/fsoibench" "$@"
