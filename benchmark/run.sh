#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (build cache, temporary files, toolchain
# counters, the binary) stays in .bench_build inside the checkout; the
# benchmark's own files go to benchmark/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/benchmark/.src"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOENV=off GOPROXY=off GOTOOLCHAIN=local go build -o "$build/annotadb-benchmark" .
) >&2
cd "$root"
exec "$build/annotadb-benchmark" "$@"
