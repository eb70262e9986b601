#!/bin/bash
# The command BENCHMARK.json names: compile the benchmark driver inside
# the checkout and hand it the arguments. Everything the Go toolchain
# writes (build cache, module cache, temporary files, telemetry) is kept
# under .bench_build/ so that a run touches nothing outside the checkout.
# The driver itself builds the binaries it measures.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/strudel" ]; then
    echo "bench: $root holds the benchmark but not the strudel sources it measures" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
    GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/bin/strudel-bench" .)
cd "$root"
exec "$build/bin/strudel-bench" "$@"
