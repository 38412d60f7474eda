#!/usr/bin/env bash
# Builds the SCSQ benchmark from source and runs it. Run it from the root of
# a source checkout:
#
#   bash perfbench/run.sh --workload mpi-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the reports and the spans.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

# The code under test: the git commit when there is one, else a digest of
# the Go sources.
if commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	PERFBENCH_COMMIT="git:$commit"
else
	PERFBENCH_COMMIT="tree:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
