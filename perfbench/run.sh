#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload of it.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, store directories, traces) stays under
# .bench_build/ in that root. The build needs the repository's module one
# directory up; without it the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="${PATH}:/usr/local/go/bin"
fi

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C "${root}/perfbench" build -o "${build}/perfbench" . >&2
cd "${root}"
exec "${build}/perfbench" "$@"
