#!/usr/bin/env bash
# Builds the harness and vdce-server from the checkout's own source into
# bench/out/ (the Go build cache too, so nothing outside the checkout is
# written) and runs one benchmark invocation:
#
#   bash bench/run.sh --workload c3i-stream --seed 1 --seconds 24 --trace 0
#
# The first call in a fresh checkout compiles the standard library into
# the local cache (about a minute on two cores); later calls only check
# that the binaries are current.
set -euo pipefail
cd "$(dirname "$0")"
out=$PWD/out
mkdir -p "$out/bin" "$out/tmp"
# Everything the go command writes — build cache, temp files, module
# cache, its own config and telemetry counters — stays under out/.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
go build -o "$out/bin/bench" . >&2
go build -o "$out/bin/vdce-server" vdce/cmd/vdce-server >&2
export VDCE_SERVER_BIN=$out/bin/vdce-server
exec "$out/bin/bench" "$@"
