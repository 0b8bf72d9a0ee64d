#!/usr/bin/env bash
# The one command of BENCHMARK.json: build bench/ into bench/out/, then run it.
#
#   bench/run.sh                               all four workloads, untraced then traced
#   bench/run.sh --workload warm-hit           one workload, end-to-end metrics
#   bench/run.sh --workload warm-hit --trace 1 one workload, per-layer metrics
#   flags: --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes (build cache, binary, model fixture, traces,
# result.json) goes under bench/out/, which .gitignore covers.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
if [ -z "${BENCH_GIT_SHA:-}" ]; then
	if BENCH_GIT_SHA="$(git -C "$here" rev-parse HEAD 2>/dev/null)"; then
		git -C "$here" diff --quiet HEAD 2>/dev/null || BENCH_GIT_SHA="$BENCH_GIT_SHA-dirty"
	else
		BENCH_GIT_SHA=unknown
	fi
	export BENCH_GIT_SHA
fi
(cd "$here" && go build -o "$out/robopt-bench" .)
exec "$out/robopt-bench" "$@"
