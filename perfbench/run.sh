#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-durable --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files, Go's
# per-user config and telemetry) goes under $CARGO_TARGET_DIR, default
# .bench_build, and the span dump of traced runs lands there too. The build
# is offline: the benchmark module needs nothing beyond the standard library
# and the repository it sits in.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOMODCACHE=$build/gomod GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The commit goes into the run's host facts; outside a git checkout it is
# "unknown".
commit=$(git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" \
	-o "$build/perfbench" . >&2
exec "$build/perfbench" -out "$build" "$@"
