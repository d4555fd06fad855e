#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command"):
# builds the bench and, through it, cmd/imprintd from the checkout's
# sources, then runs it with the driver's arguments. Everything written
# — build cache included — stays under bench/out/ inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="${GOCACHE:-$PWD/out/gocache}"
go build -o out/bench .
exec out/bench "$@"
