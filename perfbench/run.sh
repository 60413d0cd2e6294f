#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see perfbench/README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine-vb --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans file all
# go under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal" ]; then
	echo "perfbench: the repository sources are missing next to $here" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

# XDG_CONFIG_HOME moves the go command's user config and local
# telemetry counters into the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
