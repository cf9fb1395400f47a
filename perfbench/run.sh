#!/usr/bin/env bash
# Builds the repository benchmark from the sources in the current directory
# (the repository root) and runs it. Every argument is passed through:
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the trace files all stay under
# .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be here)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
