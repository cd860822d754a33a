#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it with the given
# flags, e.g.
#
#   bash bench/run.sh --workload reuse-http --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh -seed 42            # the whole suite, report in bench/out/
#
# The Go build and module caches, the compiler's temporary files and the
# binary stay under .bench_build/ at the repository root; the build never
# reaches the network
# (GOPROXY=off, GOTOOLCHAIN=local). The benchmark itself runs with
# bench/ as its working directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
# Stamp the VCS revision only in a git checkout of this repository.
vcs=false
if [ -d "$root/.git" ]; then
	vcs=auto
fi
cd "$here"
go build -buildvcs="$vcs" -o "$build/layered-bench" .
exec "$build/layered-bench" "$@"
