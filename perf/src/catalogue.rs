//! The contract: every workload, every metric, its unit, direction and
//! bound. `BENCHMARK.json` and the tables in `perf/README.md` are
//! printed from these tables (`swperf manifest`, `swperf catalogue`),
//! and a unit test holds the committed manifest equal to them.

use crate::stats::Better::{self, Higher, Lower};
use std::collections::BTreeMap;

/// How a per-layer number is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Traced pass: program spans plus harness spans around calls.
    Traced,
    /// Probe: a public function timed in isolation, best of a few.
    Probe,
    /// Exact count; must repeat bit-for-bit for one seed.
    Count,
    /// A count that depends on timing (how the start-up race split the
    /// first batches): reported, not required to repeat.
    Tally,
}

impl Kind {
    pub fn letter(self) -> &'static str {
        match self {
            Kind::Traced => "T",
            Kind::Probe => "P",
            Kind::Count => "C",
            Kind::Tally => "N",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    pub what: &'static str,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds of timed trials per run. All-in a run then takes 22-27 s,
/// which leaves the acceptance driver's 92 runs (4 + 22 per workload)
/// and two builds of ~50 s a quarter of its 3420 s as margin. Four
/// workloads, not five, buy these seconds: per-operation minima need a
/// run long enough to meet the machine in its quiet state.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "g500_shm",
        why: "Graph500 kernel 1, scale 16, 8 ranks, Relay+fixed codec on SharedMem, 128 roots/trial: kernels and pooled arena do all the work, no byte leaves the process",
    },
    WorkloadDef {
        name: "g500_sock",
        why: "Same driver, scale 15, 4 ranks, one swbfs-rankd process per rank over Unix sockets, Direct+varint codec: encode, three hops, lockstep phases and decode are half of a root",
    },
    WorkloadDef {
        name: "serve_sat",
        why: "sw-serve cold start, scale 15, 8 ranks, closed loop W=192 over 1024 distinct roots/trial: cache useless, every sweep a full batch of 64; latency is queueing (~3 sweeps)",
    },
    WorkloadDef {
        name: "serve_hit",
        why: "Restart from a mapped scale-16 store, 24 hot roots in the 32-entry cache, closed loop W=64, 10000 queries/trial: zero sweeps, so framing, admission, cache and replies do all the work",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
        what: "harmonic-mean TEPS (g500_*) or OK answers per second (serve_*): from per-operation minima where sequential, a trial's answers over the least times of its four windows where pipelined",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        what: "median operation time (one root's run(), or send-to-answer): across operations of each one's least time (g500_*, serve_sat), least per-trial median on serve_hit",
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        what: "90th percentile likewise; every trial has >= 128 operations, so >= 12 samples lie beyond it",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "least of R in-process repetitions of the workload's set-up sequence",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
        what: "VmHWM of the harness process (hosts engine and server) after one instance's trials, plus VmHWM of its swbfs-rankd children",
    },
];

macro_rules! layers {
    ($( $name:literal $unit:literal $better:ident $kind:ident $what:literal; )*) => {
        &[ $( Layer { name: $name, unit: $unit, better: $better, kind: Kind::$kind, what: $what } ),* ]
    };
}

pub const PER_LAYER: &[Layer] = layers! {
    "graph.generate_s" "s" Lower Traced "harness span around generate_kronecker in the workload's set-up";
    "graph.generate_medges_per_s" "Medges/s" Higher Probe "generate_kronecker at scale 14";
    "graph.csr_build_medges_per_s" "Medges/s" Higher Probe "Csr::from_edge_list at scale 14, directed entries per second";
    "store.persist_s" "s" Lower Probe "Server::build_store of the serve_hit graph (cluster build + persist)";
    "store.persist_mb_per_s" "MB/s" Higher Probe "partition bytes written per second of persist_s";
    "store.open_mapped_ms" "ms" Lower Probe "GraphStore::open(Mapped) over all partitions, checksums verified";
    "store.open_heap_ms" "ms" Lower Probe "GraphStore::open(Heap) over all partitions";
    "store.bytes_mapped" "count" Lower Count "store.bytes_mapped of the serve_hit server (0 on cold builds)";
    "store.bytes_copied" "count" Lower Count "store.bytes_copied of the serve_hit server: 0 is the zero-copy claim";
    "store.sections_verified" "count" Higher Count "store sections that passed checksum verification at restart";
    "kernel.td_gen_medges_per_s" "Medges/s" Higher Probe "forward_generator on one rank, 1/16 of vertices in the frontier";
    "kernel.bu_sweep_medges_per_s" "Medges/s" Higher Probe "backward_generator on one rank, every other vertex settled (benches/kernels.rs sweep)";
    "kernel.bu_tail_medges_per_s" "Medges/s" Higher Probe "backward_generator, 63 of 64 settled (benches/kernels.rs tail)";
    "kernel.fwd_handle_mrec_per_s" "Mrec/s" Higher Probe "forward_handler applying a full-scan inbox on one rank";
    "kernel.words_skipped_share" "ratio" Higher Count "kernel.words_skipped / kernel.words_scanned over one trial";
    "engine.build_s" "s" Lower Traced "harness span around ClusterBuilder::build_distributed";
    "engine.root_ms" "ms" Lower Traced "mean harness span around SuperstepEngine::run";
    "engine.gen_ms" "ms" Lower Traced "sum of gen spans over rank lanes, per root";
    "engine.handle_ms" "ms" Lower Traced "sum of handle spans, per root";
    "engine.bucket_ms" "ms" Lower Traced "sum of bucket spans (arena counting sort), per root";
    "engine.deliver_ms" "ms" Lower Traced "sum of deliver spans (inbox assembly / socket decode), per root";
    "engine.relay_ms" "ms" Lower Traced "sum of relay spans; they overlay deliver, so they are not added to the total";
    "engine.hub_gather_ms" "ms" Lower Traced "sum of hub_gather spans on the run lane, per root";
    "engine.wire_ms" "ms" Lower Traced "level spans minus gen, handle, bucket, deliver: exchange time outside the arena passes (stats, encode, sockets, decode wait)";
    "engine.outside_level_ms" "ms" Lower Traced "root_ms minus level and hub_gather spans: reset, policy inputs, parent gather";
    "engine.reconcile_ratio" "ratio" Higher Traced "(level + hub_gather spans) / root_ms: share of a root the program's own spans account for";
    "engine.levels" "count" Lower Count "BFS levels per root, mean over the trial's roots";
    "engine.td_levels" "count" Lower Count "top-down levels per root";
    "engine.bu_levels" "count" Lower Count "bottom-up levels per root";
    "engine.edges_scanned" "count" Lower Count "LevelStats.edges_scanned per root";
    "engine.records_generated" "count" Lower Count "LevelStats.records_generated per root";
    "engine.hub_skips" "count" Higher Count "LevelStats.hub_skips per root (records the hub bitmaps saved)";
    "exchange.arena_direct_mrec_per_s" "Mrec/s" Higher Probe "warm ExchangeArena, 8 ranks, Direct, BFS-shaped outboxes, fill + exchange + recycle";
    "exchange.arena_relay_mrec_per_s" "Mrec/s" Higher Probe "same, Relay with groups of 2";
    "exchange.compress_encode_mb_per_s" "MB/s" Higher Probe "compress::encode_compressed, plain record bytes in per second";
    "exchange.compress_decode_mb_per_s" "MB/s" Higher Probe "compress::try_decode_compressed, plain record bytes out per second";
    "exchange.compress_ratio" "ratio" Higher Probe "plain bytes / coded bytes of the probe batch";
    "exchange.batch_encode_mb_per_s" "MB/s" Higher Probe "messages::encode_batch (fixed 16-byte records)";
    "exchange.batch_decode_mb_per_s" "MB/s" Higher Probe "messages::try_decode_batch";
    "exchange.bytes" "count" Lower Count "exchange.bytes per root (g500_*) or per sweep (serve_*)";
    "exchange.messages" "count" Lower Count "exchange.messages per root or sweep";
    "exchange.record_hops" "count" Lower Count "exchange.record_hops per root or sweep";
    "exchange.pool_allocs" "count" Lower Count "pool.allocs over one warm trial: 0 once the arena is warm";
    "exchange.retries" "count" Lower Count "faults.retries over one trial: must be 0";
    "socket.spawn_s" "s" Lower Traced "first run() on a fresh fabric minus the same root's second run(): spawn + handshake of the daemons";
    "socket.teardown_s" "s" Lower Traced "harness span around Transport::teardown (BYE, reap)";
    "socket.phase_p50_us" "us" Lower Traced "daemon-side phase latency p50 from rank_telemetry() (log2 buckets)";
    "socket.phase_p99_us" "us" Lower Traced "daemon-side phase latency p99";
    "socket.wire_share" "ratio" Lower Traced "engine.wire_ms / engine.root_ms";
    "socket.exchange_mrec_per_s" "Mrec/s" Higher Probe "bare SocketTransport::exchange, 8 daemons, BFS-shaped outboxes, varint codec";
    "socket.frames_per_root" "count" Lower Count "mesh frames queued by the daemons per root";
    "socket.bytes_per_root" "count" Lower Count "mesh payload bytes queued by the daemons per root";
    "socket.wire_incidents" "count" Lower Count "torn frames + resets + deferred sends: must be 0";
    "net.frame_encode_ns" "ns" Lower Probe "Frame::encode_into of a 33-byte QUERY frame";
    "net.frame_decode_ns" "ns" Lower Probe "FrameDecoder::extend + next_frame of the same frame";
    "net.query_roundtrip_ns" "ns" Lower Probe "QueryFrame::into_frame + encode + decode + from_frame";
    "net.result_roundtrip_ns" "ns" Lower Probe "ResultFrame, same path";
    "net.xmit_encode_mb_per_s" "MB/s" Higher Probe "Frame::encode_into of a 64 KiB XMIT-sized payload";
    "net.xmit_decode_mb_per_s" "MB/s" Higher Probe "FrameDecoder over the same frame";
    "msbfs.b1_roots_per_s" "1/s" Higher Probe "msbfs_distributed at width 1 on the serve graph";
    "msbfs.b16_roots_per_s" "1/s" Higher Probe "width 16";
    "msbfs.b64_roots_per_s" "1/s" Higher Probe "width 64";
    "msbfs.b64_sweep_ms" "ms" Lower Traced "one traced width-64 sweep";
    "msbfs.b64_gen_share" "ratio" Lower Traced "gen spans / sweep";
    "msbfs.b64_handle_share" "ratio" Lower Traced "handle spans / sweep";
    "msbfs.b64_exchange_share" "ratio" Lower Traced "bucket + deliver spans / sweep";
    "msbfs.b64_rounds" "count" Lower Count "synchronous rounds of the width-64 sweep";
    "serve.start_s" "s" Lower Traced "harness span around Server::start (cold)";
    "serve.restart_ms" "ms" Lower Traced "harness span around Server::start_from_store(Mapped)";
    "serve.warm_ms" "ms" Lower Traced "connect + first answer (cold) or + warm burst (serve_hit)";
    "serve.sweep_p50_ms" "ms" Lower Traced "median sweep span of the server's tracer";
    "serve.sweep_share" "ratio" Lower Traced "sum of sweep spans / wall time of the traced trials";
    "serve.server_latency_p50_ms" "ms" Lower Traced "median ResultFrame.micros (admission to answer)";
    "serve.client_overhead_p50_us" "us" Lower Traced "median of client latency minus ResultFrame.micros: wire, framing, wake-ups";
    "serve.send_us" "us" Lower Traced "mean harness span around Client::send";
    "serve.recv_us" "us" Lower Traced "mean harness span around Client::recv (includes waiting)";
    "serve.cache_get_ns" "ns" Lower Probe "LevelCache::get hit in a full 32-entry cache";
    "serve.cache_insert_ns" "ns" Lower Probe "LevelCache::insert with eviction";
    "serve.batcher_offer_ns" "ns" Lower Probe "CyclePlan::offer per query, 64 fresh roots + coalesced + hits";
    "serve.batches" "count" Lower Tally "serve.batches over the timed trials of the traced pass";
    "serve.roots_per_batch" "ratio" Higher Tally "serve.swept_roots / serve.batches";
    "serve.cache_hit_ratio" "ratio" Higher Tally "serve.cache_hits / serve.queries";
    "serve.coalesced" "count" Lower Tally "queries that joined a root already in their batch";
    "serve.carried" "count" Lower Tally "queries carried to the next cycle because the sweep was full";
    "serve.shed" "count" Lower Count "BUSY answers: must be 0";
    "serve.timeouts" "count" Lower Count "Timeout answers: must be 0";
    "serve.bad_queries" "count" Lower Count "BadQuery answers: must be 0";
    "graph500.validate_s_per_root" "s" Lower Probe "validate_bfs (five rules) on the workload graph, mean of the run's validated roots";
    "graph500.select_roots_s" "s" Lower Probe "select_roots(64) at scale 14";
    "trace.span_ns" "ns" Lower Probe "Tracer::begin + end on a Wall tracer";
    "trace.hist_record_ns" "ns" Lower Probe "LatencyHistogram::record";
    "trace.overhead_ratio" "ratio" Higher Traced "traced / untraced best-trial throughput of this run";
    "trace.dropped_events" "count" Lower Count "events the rings dropped in the traced pass";
    "run.trial_spread" "ratio" Lower Traced "(Q3-Q1)/median of the untraced trials' throughput: how disturbed this run was";
    "run.trials" "count" Higher Count "untraced timed trials in this run";
    "run.setup_reps" "count" Higher Count "set-up repetitions in this run";
};

pub type Metrics = BTreeMap<&'static str, f64>;

fn json_str(s: &str) -> String {
    format!("\"{}\"", sw_trace::json::escape(s))
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"perf/run.sh\"],\n");
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The metric tables of `perf/README.md`.
pub fn markdown() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    out.push_str("\n| metric | unit | kind | better | source |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.kind.letter(),
            m.better.as_str(),
            m.what
        ));
    }
    out
}

/// The one result line the contract asks for. Every catalogued metric
/// of the pass appears; a per-layer metric the workload does not
/// exercise reads 0.
pub fn result_line(
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    m: &Metrics,
) -> String {
    let defs: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    };
    for name in m.keys() {
        assert!(
            defs.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue of this pass"
        );
    }
    let body: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not a finite number");
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        // Set-ups of a tenth of a second get the contract's widest
        // bound; nothing else is allowed past 0.10.
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= if m.name == "setup_s" { 0.25 } else { 0.10 }));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `swperf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn readme_carries_the_catalogue_and_every_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("perf/README.md");
        assert!(
            readme.contains(markdown().trim()),
            "paste `swperf catalogue` into README.md"
        );
        for w in WORKLOADS {
            assert!(readme.contains(&format!("**`{}`**", w.name)), "{}", w.name);
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_pass() {
        let mut m = Metrics::new();
        m.insert("throughput", 12.5);
        let line = result_line(false, true, 10, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for e in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", e.name)));
        }
        assert!(line.contains("\"throughput\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        let traced = result_line(true, true, 1, 0, &Metrics::new());
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
