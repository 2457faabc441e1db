#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go build cache
# under .bench_build/, which .gitignore names) and runs it with the
# arguments given. It is BENCHMARK.json's command; `go run ./bench`
# with the same arguments does the same with the user's own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
