#!/usr/bin/env bash
# Builds the end-to-end benchmark and the dclserved daemon under test from
# the source tree this script sits in, then runs the benchmark:
#
#   bash e2ebench/run.sh --workload tumbling-dcl --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --workload flap-replay --steady 5
#
# Everything it builds or writes stays under .bench_build/ at the root of
# the tree (Go build cache and Go's own home-directory state included).
# Build output goes to stderr; the last line of stdout is the benchmark's
# JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root" && go build -o "$out/dclserved" ./cmd/dclserved) >&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -daemon "$out/dclserved" -work "$out/work" "$@"
