//! The `serve.*` counter namespace — named once, like
//! `swbfs_core::instrument` names the exchange counters.
//!
//! Every counter is a pure count of service decisions (no wall-clock
//! flavoured values), so a fixed admitted query sequence yields a
//! bit-identical counter set — which is what lets `swgate` hold the
//! service to `BENCH_service.json` exactly.

/// Queries dequeued by the worker (admitted, whatever their outcome).
pub const QUERIES: &str = "serve.queries";
/// Queries answered `Ok`.
pub const RESULTS_OK: &str = "serve.results_ok";
/// Queries whose deadline expired before the answer was ready.
pub const TIMEOUTS: &str = "serve.timeouts";
/// Malformed queries (root/target outside the vertex space).
pub const BAD_QUERIES: &str = "serve.bad_queries";
/// Queries shed at admission with a `BUSY` frame.
pub const SHED: &str = "serve.shed";
/// MS-BFS sweeps run.
pub const BATCHES: &str = "serve.batches";
/// Roots swept, summed over batches.
pub const SWEPT_ROOTS: &str = "serve.swept_roots";
/// Largest single-sweep root count (merged by maximum).
pub const MAX_ROOTS_PER_BATCH: &str = "serve.max_roots_per_batch";
/// Synchronous rounds run by sweeps, summed.
pub const SWEEP_ROUNDS: &str = "serve.sweep_rounds";
/// Queries answered from the hot-root cache without a sweep.
pub const CACHE_HITS: &str = "serve.cache_hits";
/// Roots that had to be swept (cache misses).
pub const CACHE_MISSES: &str = "serve.cache_misses";
/// Level arrays evicted from the cache.
pub const CACHE_EVICTIONS: &str = "serve.cache_evictions";
/// Queries that joined a root another query of the same cycle already
/// requested (batch coalescing wins beyond cache hits).
pub const COALESCED: &str = "serve.coalesced";
/// Queries deferred to the next cycle because the sweep was full.
pub const CARRIED: &str = "serve.carried";

/// Span name: one answered query (work = server latency in µs).
pub const SPAN_QUERY: &str = "query";
/// Span name: one MS-BFS sweep (work = roots swept).
pub const SPAN_SWEEP: &str = "sweep";
/// Span category for all service spans.
pub const CAT_SERVE: &str = "serve";
