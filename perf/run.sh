#!/usr/bin/env bash
# perf/run.sh — builds and runs swperf, the repository's wall-clock benchmark.
#
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last
#                                                               stdout line is its result
#   perf/run.sh [--seed N] [--layers]      every workload once, a table and results.jsonl
#   perf/run.sh --quick                    the same at scales 12-13 with 3 trials (< 20 s)
#   perf/run.sh --selftest                 determinism self-test (quick sizes)
#   perf/run.sh noise [--runs N] [--md F]  two alternating sets of runs against the bounds
#   perf/run.sh compare A.jsonl B.jsonl    two results files, every ratio beside its base
#
# Builds offline: swperf from perf/ (a package of its own) and the real
# swbfs-rankd from the root workspace, both into $CARGO_TARGET_DIR (default
# .bench_build). Everything the run writes stays inside the checkout.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
cargo build --release --offline --quiet -p swbfs-core --bin swbfs-rankd

BIN="$CARGO_TARGET_DIR/release"
# The engine runs rank work inline (one pool thread) so that rank-lane spans
# add up to wall time; the live telemetry plane stays as the service ships it.
export SWBFS_RANKD="$BIN/swbfs-rankd" SW_POOL_THREADS=1
unset SW_LIVE

# Unix sockets and the serve_hit store live under a relative TMPDIR: inside the
# checkout, and short enough for sun_path however deep the checkout sits.
export TMPDIR=".swperf-tmp.$$"
mkdir -p "$TMPDIR"
SWPERF_PID=""
cleanup() {
    [ -n "$SWPERF_PID" ] && kill "$SWPERF_PID" 2>/dev/null || true
    # Daemons exit on control-connection EOF; reap any that did not.
    pkill -KILL -f "swbfs-rankd unix:$TMPDIR/" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMPDIR"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

if [ "${1:-}" = "--selftest" ]; then
    shift
    set -- selftest "$@"
fi

"$BIN/swperf" "$@" &
SWPERF_PID=$!
status=0
wait "$SWPERF_PID" || status=$?
SWPERF_PID=""
exit "$status"
