#!/usr/bin/env bash
# Builds the dwqa server, the seeder and the benchmark program from the
# source tree this script sits in, then runs one benchmark workload.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload factoid_cold --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/dwqa" ./cmd/dwqa 1>&2
go build -o "$out/bin/seeder" ./cmd/seeder 1>&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) 1>&2

exec "$out/bin/e2ebench" -root "$root" -bin "$out/bin" "$@"
