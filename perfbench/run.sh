#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it in place
# of this shell, so the benchmark is the only process left running:
#
#   bash perfbench/run.sh --workload fig7a --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build
# cache and traced runs' spans go under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
