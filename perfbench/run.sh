#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-inproc --seed 1 --seconds 12 --trace 0
#
# Build output, the Go build cache, exact-count records and span files all
# live under .bench_build/ in the current directory; nothing is written
# elsewhere. The benchmark's own diagnostics go to standard error; the last
# line of standard output is the JSON result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" --state "$out/perfbench" "$@"
