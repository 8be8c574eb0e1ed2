//! The store gate: build once, serve forever. Three hard checks, no
//! baseline of its own — every assertion is a structural invariant of
//! the store format, so there is nothing to re-baseline:
//!
//! * **Engine** — a scale-16 Kronecker instance is cold-built (degree
//!   ordering on, so the header flag is exercised), persisted, then
//!   restarted through both storage
//!   backends. Every root's BFS must be bit-identical to the cold build,
//!   the deterministic counter sections must match, and the `store.*`
//!   counters must prove the mmap path copied zero adjacency bytes.
//!   Cold-build vs restart wall-clock is printed.
//! * **Serve** — `Server::build_store` persists the query service's
//!   plain store; a cold server and a store-restarted server answer a
//!   mixed query battery and every answer must agree bit for bit.
//! * **Baselines** — the committed counter snapshots
//!   (`BENCH_insight.json`, `BENCH_service.json`) must carry the
//!   `store.*` keys and carry them at **zero**: their workloads are
//!   cold-path, so a nonzero value would mean a store open leaked into a
//!   workload that never restarts — or a baseline was rewritten against
//!   the wrong binary.

use std::path::Path;
use std::time::Instant;

use sw_graph::{generate_kronecker, KroneckerConfig, StorageBackend};
use sw_net::framing::{QueryOp, QueryStatus};
use sw_serve::{Client, Response, ServeConfig, Server};
use sw_trace::json::parse_flat_u64;
use swbfs_core::{BfsConfig, ClusterBuilder};

use super::pick_roots;

/// Kronecker scale, ranks, seed and root count of the engine check.
const SCALE: u32 = 16;
const RANKS: u32 = 8;
const SEED: u64 = 42;
const ROOTS: usize = 6;

/// The store gate: all three checks, over stores persisted under a
/// per-process temporary directory that is removed afterwards.
pub fn store_gate() -> Result<String, String> {
    let base = std::env::temp_dir().join(format!("swgate_store_{}", std::process::id()));
    let run = engine_axis(&base.join("engine"))
        .and_then(|()| serve_axis(&base.join("serve")))
        .and_then(|()| baseline_axis());
    std::fs::remove_dir_all(&base).ok();
    run.map(|()| "store restarts bit-identical, zero-copy, baselines clean".to_string())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Cold build → persist → restart on both backends; bit-identical BFS,
/// matching deterministic counters, zero-copy proof, timing table.
fn engine_axis(dir: &Path) -> Result<(), String> {
    let el = generate_kronecker(&KroneckerConfig::graph500(SCALE, SEED));
    let roots = pick_roots(el.num_vertices, ROOTS);
    // Degree ordering on: the persisted files carry the format's one
    // header flag.
    let cfg = BfsConfig {
        degree_ordered_adjacency: true,
        ..BfsConfig::threaded_small(2)
    };
    println!(
        "engine axis: scale {SCALE} ({} vertices, {} edges), {RANKS} ranks",
        el.num_vertices,
        el.edges.len(),
    );

    let t0 = Instant::now();
    let mut cold = ClusterBuilder::new(&el, RANKS, cfg)
        .build()
        .map_err(|e| format!("cold build: {e}"))?;
    let cold_s = t0.elapsed().as_secs_f64();

    std::fs::remove_dir_all(dir).ok();
    let t0 = Instant::now();
    cold.persist_store(dir)
        .map_err(|e| format!("persist: {e}"))?;
    let persist_s = t0.elapsed().as_secs_f64();
    let bytes = dir_bytes(dir);

    let oracle: Vec<_> = roots
        .iter()
        .map(|&r| cold.run(r).map_err(|e| format!("cold run {r}: {e}")))
        .collect::<Result<_, _>>()?;

    println!("  path           time_ms   speedup   adjacency");
    println!(
        "  {:<12} {:>8.1}     1.00x   built from {} edges",
        "cold build",
        cold_s * 1e3,
        el.edges.len()
    );
    println!(
        "  {:<12} {:>8.1}         -   {} bytes on disk",
        "persist",
        persist_s * 1e3,
        bytes
    );

    for backend in [StorageBackend::Mapped, StorageBackend::Heap] {
        let t0 = Instant::now();
        let mut warm = ClusterBuilder::from_store_dir(dir, cfg)
            .storage(backend)
            .build()
            .map_err(|e| format!("{backend:?} restart: {e}"))?;
        let warm_s = t0.elapsed().as_secs_f64();
        for (r, want) in roots.iter().zip(&oracle) {
            let got = warm
                .run(*r)
                .map_err(|e| format!("{backend:?} run {r}: {e}"))?;
            if got != *want {
                return Err(format!(
                    "{backend:?}: root {r} diverges from the cold build"
                ));
            }
        }
        for section in ["exchange.", "kernel.", "pool.", "faults."] {
            if warm.metrics().section(section) != cold.metrics().section(section) {
                return Err(format!(
                    "{backend:?}: {section}* counters diverge after restart"
                ));
            }
        }
        let (mapped, copied, verified, parts) = warm.store_counters();
        if parts != u64::from(RANKS) {
            return Err(format!(
                "{backend:?}: {parts} partitions opened, expected {RANKS}"
            ));
        }
        if verified < 2 * parts {
            return Err(format!(
                "{backend:?}: only {verified} sections checksum-verified"
            ));
        }
        let (label, moved) = match backend {
            StorageBackend::Mapped if copied != 0 => {
                return Err(format!(
                    "mmap restart copied {copied} bytes — must be zero-copy"
                ));
            }
            StorageBackend::Mapped if mapped == 0 => {
                return Err("mmap restart mapped zero bytes".into());
            }
            StorageBackend::Mapped => ("mmap restart", format!("{mapped} bytes mapped, 0 copied")),
            StorageBackend::Heap if mapped != 0 => {
                return Err(format!("heap restart mapped {mapped} bytes"));
            }
            StorageBackend::Heap => ("heap restart", format!("{copied} bytes copied once")),
        };
        println!(
            "  {label:<12} {:>8.1}   {:>6.2}x   {moved}",
            warm_s * 1e3,
            cold_s / warm_s
        );
    }
    println!(
        "  {} roots bit-identical across cold build and both restarts",
        roots.len()
    );
    Ok(())
}

/// Build-once/serve-forever: a store-restarted server answers the same
/// mixed battery bit-identically to the cold-built one.
fn serve_axis(dir: &Path) -> Result<(), String> {
    let el = generate_kronecker(&KroneckerConfig::graph500(SCALE.min(14), SEED));
    let n = el.num_vertices;
    std::fs::remove_dir_all(dir).ok();
    let t0 = Instant::now();
    Server::build_store(&el, 4, dir).map_err(|e| format!("build_store: {e}"))?;
    let build_s = t0.elapsed().as_secs_f64();

    let mut cold =
        Server::start(&el, ServeConfig::default()).map_err(|e| format!("cold server: {e}"))?;
    let t0 = Instant::now();
    let mut warm = Server::start_from_store(dir, StorageBackend::Mapped, ServeConfig::default())
        .map_err(|e| format!("warm server: {e}"))?;
    let restart_s = t0.elapsed().as_secs_f64();

    let mut cc = Client::connect(&cold.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut wc = Client::connect(&warm.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut checked = 0u64;
    for (i, root) in pick_roots(n, 8).into_iter().enumerate() {
        let target = (root * 13 + i as u64) % n;
        for (op, t, hops) in [
            (QueryOp::Distance, target, 0),
            (QueryOp::Reachable, target, 0),
            (QueryOp::KHop, 0, 2),
        ] {
            let a = query(&mut cc, op, root, t, hops)?;
            let b = query(&mut wc, op, root, t, hops)?;
            if a != b {
                return Err(format!(
                    "{op:?} {root}->{t}: cold answered {a:?}, restarted server {b:?}"
                ));
            }
            checked += 1;
        }
    }
    let m = warm.metrics();
    if m.get("store.partitions_mapped") != 4 || m.get("store.bytes_copied") != 0 {
        return Err("restarted server's store.* counters deny the zero-copy mmap path".into());
    }
    println!(
        "serve axis: {checked} answers bit-identical; store built in {:.1} ms, \
         service restarted from it in {:.1} ms ({} bytes mapped)",
        build_s * 1e3,
        restart_s * 1e3,
        m.get("store.bytes_mapped")
    );
    warm.shutdown();
    cold.shutdown();
    Ok(())
}

fn query(
    c: &mut Client,
    op: QueryOp,
    root: u64,
    target: u64,
    hops: u32,
) -> Result<(QueryStatus, u64), String> {
    match c
        .query(op, root, target, hops, 0)
        .map_err(|e| format!("{op:?}: {e}"))?
    {
        Response::Answer(a) => Ok((a.status, a.value)),
        Response::Busy(b) => Err(format!("{op:?}: shed (depth {})", b.queue_depth)),
    }
}

/// The committed counter baselines must carry the `store.*` keys — and
/// carry them at zero, since their workloads never restart from a store.
fn baseline_axis() -> Result<(), String> {
    let mut checked = 0usize;
    let files = ["BENCH_insight.json", "BENCH_service.json"];
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("{file}: {e} (run from the repo root)"))?;
        let kv = parse_flat_u64(&text).map_err(|e| format!("{file}: {e}"))?;
        let store: Vec<_> = kv
            .iter()
            .filter(|(k, _)| k.starts_with("store.") || k.contains(".store."))
            .collect();
        if store.is_empty() {
            return Err(format!(
                "{file}: no store.* keys — baseline predates the store"
            ));
        }
        if let Some((k, v)) = store.iter().find(|e| e.1 != 0) {
            return Err(format!(
                "{file}: {k} = {v}, but this workload is cold-path — store.* must be zero"
            ));
        }
        checked += store.len();
    }
    println!(
        "baseline axis: {checked} store.* keys present across {} snapshots, all zero",
        files.len()
    );
    Ok(())
}
