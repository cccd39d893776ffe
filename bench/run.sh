#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the root of a
# checkout:
#
#   bash bench/run.sh -workload campaign-cold -seed 42 -seconds 25 -trace 0
#
# The binary, the Go build cache and every file the benchmark writes stay
# under the build directory ($CARGO_TARGET_DIR when set, else .bench_build),
# so a run touches nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0

(cd bench && go build -o "$out/portsim-bench" .)
exec "$out/portsim-bench" -work-dir "$out" "$@"
