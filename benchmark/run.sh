#!/usr/bin/env bash
# Builds the benchmark and the tnserved it drives, then runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the two binaries, model files,
# the trace of a traced run. Compile time is outside every metric.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# Keep the toolchain from reading or writing anything outside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

# With telemetry in its default "local" mode the first go command under a
# fresh config directory starts a detached child that outlives this script.
# Switch it off before the first go command runs: a run leaves no process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -C "$root" -o "$out/bin/tnserved" ./cmd/tnserved
go build -C "$here" -o "$out/bin/tnbenchmark" .

exec "$out/bin/tnbenchmark" -root "$root" "$@"
