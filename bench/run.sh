#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload, e.g.
#
#   bash bench/run.sh --workload game-steady --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under bench/.build. The benchmark is its own Go module that builds
# the repository through a replace directive, so it fails to build when the
# repository around it is missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/nexus-benchmark" ./cmd/nexus-benchmark)
exec "$out/nexus-benchmark" "$@"
