#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo clippy --workspace --all-targets -- -D warnings

# Benches must keep compiling (they link the criterion shim and the
# crates' public surface; drift there otherwise surfaces only on demand).
cargo bench --no-run -q

# The test environment matrix: every (suite, environment) pair runs
# exactly once. The environments are the variables the suites read:
#
#   default   nothing set — SW_POOL_THREADS unset means a 1-worker pool,
#             and socket suites find the daemon Cargo built for them
#             (or skip where they look it up at run time);
#   pool=4    SW_POOL_THREADS=4;
#   rankd     the freshly built swbfs-rankd pinned, skip-if-missing
#             forbidden;
#   live      rankd plus SW_LIVE=1 (the live telemetry plane armed).
#
# default: every package's unit tests, integration tests, proptests and
# doctests, the umbrella package's included (the root manifest's
# default-members name every package, so plain `cargo test` is the
# whole workspace).
cargo test -q

# pool=4: the work-stealing pool behind the rayon shim must be invisible
# in outputs. Conformance + kernel parity + the seed-exchange oracle +
# chaos + order-freedom run on a 4-worker pool (the default leg above
# ran them on one); every assertion in those suites is bit-exactness,
# so any scheduling-dependent result fails here. Both oracles live with
# the tests: the seed kernels are the in-crate module behind
# `--lib kernel_parity`, the seed exchange a test fabric in
# exchange_equivalence. A level's close-out (advance_level, n_f, m_f)
# runs inside the last parallel rank pass, so the golden digests and the
# single-build comparison run on both pool sizes too. The partitioned
# CSR builder runs one rank per pool task: its oracle proptest and the
# partition-file pin (single_build) must hold on both. The hub views are
# rebuilt from every rank's words at each close-out: their proptest
# against the hub-index gather (`--lib hubs`) runs on both as well.
# When the hubs cover every vertex with an edge, a Bottom-Up level's
# sweep and close-out share one parallel rank pass: the sweep's unit
# tests (`--lib backward_generator`) and the lifecycle suite run on both.
# A Top-Down level sends one record per target per rank (the Forward
# Generator keeps a per-rank bitmap of the targets it offered): its unit
# tests and proptests, whose Top-Down-only engine runs go through the
# pool, run on both too.
for suite in "--test engine_conformance" "--lib kernel_parity" "--test exchange_equivalence" \
    "--test chaos" "--test order_free" "--test golden_levels" "--test single_build" \
    "--lib hubs" "--lib backward_generator" "--test engine_lifecycle" \
    "--lib forward_generator"; do
  # $suite unquoted on purpose: the selector is two words.
  SW_POOL_THREADS=4 cargo test -q -p swbfs-core $suite
done
SW_POOL_THREADS=4 cargo test -q -p sw-graph --test csr_proptest
# The analytics kernels' order-freedom battery: fixed-point sums and
# exact path counts must not see the pool size either.
SW_POOL_THREADS=4 cargo test -q -p sw-algos --test order_free
# MS-BFS level maps, both extraction routes, bit-exact against the
# oracle and against independent runs on a 4-worker pool too.
SW_POOL_THREADS=4 cargo test -q -p sw-algos --test msbfs_differential

# rankd: the multi-process transport (one swbfs-rankd process per rank
# over Unix-domain/TCP sockets) must pass the same conformance battery
# as the in-process fabric — the cross-fabric fault-plan parity
# included — its lifecycle cases (one rank, refused inputs, the
# dead-link error, pool-less fault telemetry), the physically-realized
# chaos schedules, and the teardown/re-delivery contract, each suite under a hard timeout so a
# fabric hang fails loudly instead of wedging CI. (The conformance/chaos
# tests pin the daemon via CARGO_BIN_EXE; the explicit build keeps
# target/release's copy fresh for runtime discovery.) With
# SWBFS_RANKD_REQUIRE set, a socket test that cannot find the daemon
# fails instead of silently passing as a skip.
cargo build --release -q -p swbfs-core --bin swbfs-rankd
export SWBFS_RANKD="$PWD/target/release/swbfs-rankd"
export SWBFS_RANKD_REQUIRE=1
# The examples: `cargo test` compiles them but runs none. Each must run
# to a clean exit; socket_bfs finds the daemon through SWBFS_RANKD.
for example in examples/*.rs; do
  timeout 300 cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done
timeout 600 cargo test -q -p swbfs-core --test engine_conformance socket
timeout 600 cargo test -q -p swbfs-core --test engine_lifecycle socket
timeout 600 cargo test -q -p swbfs-core --test chaos socket
# Since PR 25 no fabric sorts its inboxes: the socket fabric's inboxes,
# permuted (shuffled, reversed), must leave parents, LevelStats and
# counters unchanged.
timeout 600 cargo test -q -p swbfs-core --test order_free socket
timeout 600 cargo test -q -p swbfs-core --test socket_teardown
timeout 600 cargo test -q -p sw-graph500 --test socket_smoke
timeout 600 cargo test -q -p sw-algos --test msbfs_differential socket
# The analytics kernels on the socket fabric, its inboxes permuted,
# over by-id rows and the engine's hubs-first store.
timeout 600 cargo test -q -p sw-algos --test order_free socket

# Docs gate: every package's API surface must document without a single
# rustdoc warning (the engine module additionally carries
# #[deny(missing_docs)], so an undocumented public item on the Transport
# seam fails right here).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace

# The one counter gate (swgate), three gates in one binary:
#  * insight: replay the fixed-seed instrumented workload across every
#    layer (BFS messaging modes, algorithm kernels, netsim, chip,
#    insight analysis, flow-model deviation) and diff it against
#    BENCH_insight.json (counts exact, *_ns/*_mbps/*permille keys 50
#    permille);
#  * service: MS-BFS batch 64 at least 4x faster than batch 1, and the
#    exact kernel.batch* and serve.* counters of a staged query sequence
#    against BENCH_service.json;
#  * store: a scale-16 instance persisted and restarted through both
#    storage backends answers bit-identically with matching counters,
#    the mmap path copies zero adjacency bytes, a store-restarted
#    sw-serve answers a mixed battery like a cold-built one, and both
#    baselines carry the store.* keys at zero.
# Exits non-zero naming the offending keys or check; any drift is a real
# accounting or behaviour change (re-baseline intentionally with --write).
timeout 600 cargo run --release -q -p sw-bench --bin swgate

# Live-telemetry gate. Two halves:
#  1. swtop --selftest starts in-process servers on both listener
#     families, drives load, polls the STATS endpoint, and validates
#     the JSON and Prometheus renderings line-by-line.
#  2. live: zero perturbation — the deterministic suites re-run with the
#     live plane armed (SW_LIVE=1). Every assertion in golden_trace and
#     engine_conformance is bit-exactness against a disarmed baseline,
#     and swgate holds every count of both snapshots exactly and re-runs
#     the store's restart checks, so any leak from the wall-clock plane
#     into deterministic state fails right here.
timeout 600 cargo run --release -q -p sw-bench --bin swtop -- --selftest
SW_LIVE=1 timeout 600 cargo test -q -p swbfs-core --test golden_trace
SW_LIVE=1 timeout 600 cargo test -q -p swbfs-core --test engine_conformance socket
SW_LIVE=1 timeout 600 cargo test -q -p swbfs-core --test socket_telemetry
SW_LIVE=1 timeout 600 cargo run --release -q -p sw-bench --bin swgate

# Wall-clock ledger gate: swperf (perf/, a package of its own) must keep
# building against the crates' public surface and keep agreeing with
# itself. --quick runs all four workloads at scales 12-13 with every
# answer checked against the harness's reference BFS; --selftest runs
# each workload twice per seed and requires equal digests and equal
# exact counts. Numbers are printed, not gated: a before/after claim is
# `perf/run.sh compare` over alternating full runs (perf/README.md).
timeout 300 perf/run.sh --quick
timeout 300 perf/run.sh --selftest
# serve_sat traced at full size: exits non-zero when serve.sweep_share
# < 0.9, roots_per_batch < 60, or anything was shed or dropped.
timeout 300 perf/run.sh --workload serve_sat --seed 1 --seconds 5 --trace 1 > /dev/null
# serve_hit traced at full size: exits non-zero when its warm burst did not
# sweep exactly the 24 hot roots, when serve.cache_hit_ratio <= 0.999, or
# when anything was shed. The warm burst is its one MS-BFS sweep.
timeout 300 perf/run.sh --workload serve_hit --seed 1 --seconds 5 --trace 1 > /dev/null
# g500_shm traced at full size: exits non-zero when engine.reconcile_ratio
# leaves [0.90, 1.05] (the levels shrank in PR 19; what is outside them
# must stay small), or exchange.retries / trace.dropped_events is not 0.
timeout 300 perf/run.sh --workload g500_shm --seed 1 --seconds 5 --trace 1 > /dev/null
# g500_sock traced at full size: exits non-zero when socket.wire_share
# < 0.4 (PR 24 moved it from 0.60 to 0.44 by making the wire cheaper; the
# floor is what says the workload still measures a wire), when
# socket.wire_incidents or exchange.retries is not 0, or when
# engine.reconcile_ratio leaves [0.90, 1.05].
timeout 300 perf/run.sh --workload g500_sock --seed 1 --seconds 5 --trace 1 > /dev/null
