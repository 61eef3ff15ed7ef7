#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 45 --trace 0
#
# The build cache and its temporary files, the Go configuration directory
# (where go keeps its telemetry) and the binary live in .bench_build at
# the root, so nothing is written outside the checkout. See
# perfbench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
