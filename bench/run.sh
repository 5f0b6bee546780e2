#!/usr/bin/env bash
# Builds nvmperf from source and runs it with the given arguments. Run from
# the checkout root:
#
#   bash bench/run.sh --workload hot-page --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh run -sets 2 -runs 5
#   bash bench/run.sh compare bench/out/set-1.json bench/out/set-2.json
#
# Everything the build writes stays in .bench_build/ at the checkout root:
# the binary, the go build and module caches, the toolchain's temporary
# files and its telemetry counters (which go under the user config dir).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# go build is a no-op when nothing changed; -buildvcs=auto stamps the git
# revision when the checkout is a repository and stays quiet when it is not.
(cd "$root/bench" && GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= go build -buildvcs=auto -o "$build/nvmperf" .)
exec "$build/nvmperf" "$@"
