#!/usr/bin/env bash
# Builds sgserve and the perfledger program from the checkout in the
# current directory, then runs one benchmark pass:
#
#   bash perfledger/run.sh --workload miss-heavy --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; the module proxy is off, so a build never reaches the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin"
# The go command keeps its caches, config and telemetry under the home
# and config directories: point them inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default mode is "local") a go command may start a
# detached telemetry child that outlives this script; turning it off in
# the checkout's config directory makes every later go command start none.
go telemetry off
go build -o "$out/bin/sgserve" ./cmd/sgserve >&2
(cd perfledger && go build -o "$out/bin/perfledger" .) >&2
exec "$out/bin/perfledger" -sgserve "$out/bin/sgserve" -workdir "$out" "$@"
