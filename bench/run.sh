#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root. Every build product, cache and temporary file stays
# under .bench_build/ in the checkout; nothing is fetched over the network.
#
#   bash bench/run.sh --workload serve-lone --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1 --out bench/results/pass.json   # all workloads
#   bash bench/run.sh --compare parent.json -- change.json
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (bench/go.mod and go.mod must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/bin/tdfmperf" .)
exec "$build/bin/tdfmperf" "$@"
