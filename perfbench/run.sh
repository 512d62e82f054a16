#!/usr/bin/env bash
# Builds the dsmthermd benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload interactive|chipscale|contended \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build, its Go cache, the
# benchmark's journal directories and span files all stay under
# .bench_build; nothing is fetched. The binary replaces this shell
# (exec), so a signal sent to the command reaches the benchmark itself.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: no dsmtherm source tree in $root; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && exec go build -o "$out/perfbench" .) &
build=$!
trap 'kill "$build" 2>/dev/null; wait "$build"; exit 130' INT TERM
wait "$build"
trap - INT TERM

exec "$out/perfbench" --workdir "$out" "$@"
