#!/usr/bin/env bash
# Builds the SuperC benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh --workload batch-link --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out results.json      # every workload, traced too
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository: the Go build cache, the binary, the parse-table cache, and the
# generated inputs. A directory that holds only the benchmark (no SuperC
# sources beside it) fails the build, and so this script, with a non-zero exit.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

(cd bench && go build -o "$build/superc-bench" .)
exec "$build/superc-bench" "$@"
