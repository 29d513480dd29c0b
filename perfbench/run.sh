#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, the binary and trace files).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a repository checkout (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
commit=""
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	# Not a git checkout: identify the sources by content instead.
	commit="tree-$(find "$root/internal" "$root/cmd" "$root/go.mod" "$root/perfbench" -type f \( -name '*.go' -o -name '*.pp' -o -name go.mod \) -print0 2>/dev/null |
		sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi
go -C "$root/perfbench" build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
