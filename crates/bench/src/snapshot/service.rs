//! The service gate: the MS-BFS batching payoff and the query server's
//! deterministic `serve.*` counters, against `BENCH_service.json`.
//!
//! * **Kernel** — 64 distinct roots covered with MS-BFS sweeps of width
//!   1, 4, 16 and 64 on a fixed Kronecker graph. Sweep, round and
//!   Bottom-Up round totals are exact (`kernel.batch*`); batch 64 must
//!   beat sequential single-source by at least 4× in wall-clock time,
//!   the best of three passes per width, which is printed but not
//!   stored (the service's wall-clock numbers are `perf/`'s).
//! * **Counters** — two staged bursts against a paused server (the
//!   worker releases only after the whole burst is admitted), making
//!   every `serve.*` counter a pure function of the query sequence.

use std::time::{Duration, Instant};

use sw_algos::msbfs::msbfs_distributed;
use sw_algos::runtime::AlgoCluster;
use sw_graph::{generate_kronecker, KroneckerConfig};
use sw_net::framing::QueryOp;
use sw_serve::{Client, Response, ServeConfig, Server};
use sw_trace::CounterSet;
use swbfs_core::config::Messaging;
use swbfs_core::policy::Direction;

use super::{check_baseline, pick_roots};

/// Kronecker scale, ranks and seed of the kernel axis.
const SCALE: u32 = 16;
const RANKS: u32 = 8;
const SEED: u64 = 42;
/// The least batch-64 speedup over batch 1 the gate accepts.
const MIN_SPEEDUP: f64 = 4.0;
/// Timed passes per width, of which the fastest counts: one ~50 ms
/// batch-64 pass is short enough for a noisy moment to halve it.
const TIMED_PASSES: usize = 3;

/// The service gate: both axes, then the exact diff against (or, with
/// `write`, the rewrite of) `BENCH_service.json`.
pub fn service_gate(write: bool, force: bool) -> Result<String, String> {
    let mut cs = CounterSet::new();
    let speedup = kernel_axis(&mut cs);
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "batch-64 speedup {speedup:.2}x below the {MIN_SPEEDUP:.1}x gate"
        ));
    }
    counter_axis(&mut cs)?;
    let summary = check_baseline("BENCH_service.json", &cs, write, force)?;
    Ok(format!("{summary} (batch-64 speedup {speedup:.2}x)"))
}

/// The batching payoff: cover the same 64 roots with sweeps of growing
/// width. Returns the batch-64 speedup over batch 1.
fn kernel_axis(cs: &mut CounterSet) -> f64 {
    let el = generate_kronecker(&KroneckerConfig::graph500(SCALE, SEED));
    let roots = pick_roots(el.num_vertices, 64);
    println!(
        "kernel axis: scale {SCALE} ({} vertices, {} edges), {RANKS} ranks, 64 roots",
        el.num_vertices,
        el.edges.len(),
    );
    println!("  batch   sweeps   rounds   bottom-up   time_ms      qps   speedup");

    let mut secs_batch1 = 0.0f64;
    let mut speedup = 0.0f64;
    for &batch in &[1usize, 4, 16, 64] {
        // The best of TIMED_PASSES passes, each on a fresh cluster: every
        // pass pays its own pool warm-up, so wider batches get no
        // carried-over advantage. The counters are the first pass's.
        let mut secs = f64::INFINITY;
        let (mut rounds, mut bu_rounds, mut sweeps) = (0u64, 0u64, 0u64);
        for pass in 0..TIMED_PASSES {
            let mut cluster = AlgoCluster::new(&el, RANKS, 2, Messaging::Direct);
            let t0 = Instant::now();
            let (mut r, mut bu, mut sw) = (0u64, 0u64, 0u64);
            for chunk in roots.chunks(batch) {
                let out = msbfs_distributed(&mut cluster, chunk);
                r += u64::from(out.rounds);
                bu += out
                    .directions
                    .iter()
                    .filter(|&&d| d == Direction::BottomUp)
                    .count() as u64;
                sw += 1;
            }
            secs = secs.min(t0.elapsed().as_secs_f64());
            if pass == 0 {
                (rounds, bu_rounds, sweeps) = (r, bu, sw);
            }
        }
        if batch == 1 {
            secs_batch1 = secs;
        }
        speedup = secs_batch1 / secs;
        println!(
            "  {batch:>5}   {sweeps:>6}   {rounds:>6}   {bu_rounds:>9}   {:>7.1}   {:>6.0}   {speedup:>6.2}x",
            secs * 1e3,
            roots.len() as f64 / secs
        );
        cs.set(&format!("kernel.batch{batch}.rounds"), rounds);
        cs.set(&format!("kernel.batch{batch}.bu_rounds"), bu_rounds);
        cs.set(&format!("kernel.batch{batch}.sweeps"), sweeps);
    }
    speedup
}

/// Stages `queries` against a paused server, releases the worker only
/// once the whole burst is admitted, and drains the answers.
fn staged_burst(
    server: &Server,
    client: &mut Client,
    queries: &[(QueryOp, u64, u64, u32)],
) -> Result<(), String> {
    server.pause();
    for &(op, root, target, hops) in queries {
        client
            .send(op, root, target, hops, 0)
            .map_err(|e| format!("send: {e}"))?;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.queue_depth() < queries.len() {
        if Instant::now() > deadline {
            return Err("staged burst never fully admitted".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    server.resume();
    for i in 0..queries.len() {
        match client.recv().map_err(|e| format!("recv {i}: {e}"))? {
            Response::Answer(_) => {}
            Response::Busy(_) => return Err(format!("staged query {i} shed")),
        }
    }
    Ok(())
}

/// The deterministic counter snapshot: a fixed two-burst query
/// sequence whose `serve.*` counters are a pure function of the input.
fn counter_axis(cs: &mut CounterSet) -> Result<(), String> {
    let el = generate_kronecker(&KroneckerConfig::graph500(12, SEED));
    let n = el.num_vertices;
    let cfg = ServeConfig {
        ranks: 4,
        cache_capacity: 16,
        start_paused: true,
        ..ServeConfig::default()
    };
    let server = Server::start(&el, cfg).map_err(|e| format!("server: {e}"))?;
    let mut client = Client::connect(&server.addr()).map_err(|e| format!("connect: {e}"))?;

    // Burst A: 80 queries over 20 distinct roots — one 20-root sweep,
    // heavy coalescing.
    let burst_a: Vec<(QueryOp, u64, u64, u32)> = (0..80u64)
        .map(|i| {
            let root = (i % 20) * (n / 20);
            match i % 3 {
                0 => (QueryOp::Distance, root, (root + 17) % n, 0),
                1 => (QueryOp::Reachable, root, (root * 3 + 1) % n, 0),
                _ => (QueryOp::KHop, root, 0, 2),
            }
        })
        .collect();
    staged_burst(&server, &mut client, &burst_a)?;

    // Burst B: repeats of burst A's roots (cache hits, modulo the
    // 16-entry LRU's deterministic evictions), fresh roots, and two
    // out-of-range queries answered as structured BadQuery.
    let mut burst_b: Vec<(QueryOp, u64, u64, u32)> = (0..12u64)
        .map(|i| (QueryOp::Distance, (i + 8) * (n / 20), 5, 0))
        .collect();
    burst_b.extend((0..30u64).map(|i| (QueryOp::KHop, i * (n / 40) + 3, 0, 1)));
    burst_b.push((QueryOp::Distance, n + 3, 0, 0));
    burst_b.push((QueryOp::Reachable, 0, n + 9, 0));
    staged_burst(&server, &mut client, &burst_b)?;

    let m = server.metrics();
    println!(
        "counter axis: {} queries, {} batches, {} swept roots, {} cache hits, {} coalesced",
        m.get("serve.queries"),
        m.get("serve.batches"),
        m.get("serve.swept_roots"),
        m.get("serve.cache_hits"),
        m.get("serve.coalesced"),
    );
    cs.merge(&m);
    Ok(())
}
