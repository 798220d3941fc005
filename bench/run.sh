#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root: bash bench/run.sh [flags]. Build outputs, the Go build cache
# included, stay under .bench_build/ in the repository. A build failure
# (for example a checkout without the simulator's sources) exits non-zero
# before anything is measured.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
