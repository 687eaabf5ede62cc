#!/usr/bin/env bash
# Builds cmd/bench from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs `bench run` with
# the arguments given. BENCHMARK.json names this script as its command;
# run it from the root of a checkout:
#
#   bash cmd/bench/run.sh --workload fleet-256 --seed 42 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
src="$root/cmd/bench"
out="$root/.bench_build"
if [ ! -f "$src/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "run.sh: run from the root of a modelcc checkout (no go.mod beside cmd/bench)" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$src" -o "$out/bench" .
exec "$out/bench" run -workdir "$out/work" -spans "$out/trace.jsonl" "$@"
