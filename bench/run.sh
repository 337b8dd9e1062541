#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program (and,
# through it, gridschedd and gridrouter) from the working tree and runs it.
# Everything it writes — Go build cache included — stays under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local
mkdir -p out/bin
go build -o out/bin/bench .
exec out/bin/bench "$@"
