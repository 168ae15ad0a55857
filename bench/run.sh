#!/usr/bin/env bash
# The manifest's command: build the benchmark and one provider binary from
# source into .bench_build/ (inside the checkout, like everything else this
# writes), then run the benchmark with the driver's arguments.
#
#   bash bench/run.sh --workload small_burst --seed 1 --seconds 28 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cyruscsp" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod, cmd/cyruscsp, bench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin"
# Keep the toolchain's caches inside the checkout and off the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
(cd "$root" && go build -o "$out/bin/cyruscsp" ./cmd/cyruscsp)
exec "$out/bin/bench" -cyruscsp "$out/bin/cyruscsp" "$@"
