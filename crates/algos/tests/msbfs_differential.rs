//! Differential proof of the MS-BFS batching trick: a batch of K
//! sources swept bit-parallel must produce level arrays bit-identical
//! to K *independent* single-source runs — for K ∈ {1, 3, 64}, on the
//! in-process shared-memory fabric and the multi-process socket fabric,
//! and against the sequential oracle.
//! Around that core: odd shapes (partition boundaries inside a bitmap
//! word, ranks that own nothing), degenerate depth, and a pin on the
//! wire — records, bytes, per-round span counts, each round's direction
//! and the Bottom-Up rounds' view charge — that a rewrite of the
//! sweep's bookkeeping must leave where it was.
//!
//! The socket half discovers `swbfs-rankd` at runtime like the
//! graph500 smoke test; with `SWBFS_RANKD_REQUIRE` set (ci.sh does,
//! right after building the daemon) a missing binary is a hard failure
//! rather than a silent skip.

use proptest::prelude::*;
use sw_algos::msbfs::{bfs_levels_oracle, msbfs_distributed, MsBfsOutput, MAX_BATCH, UNREACHED};
use sw_algos::runtime::AlgoCluster;
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig, Vid};
use sw_trace::{ClockDomain, Tracer};
use swbfs_core::config::Messaging;
use swbfs_core::engine::Transport;
use swbfs_core::instrument::{SPAN_GEN, SPAN_HANDLE};
use swbfs_core::policy::Direction;

/// Distinct deterministic sources spread over the id space.
fn pick_sources(n: u64, k: usize) -> Vec<Vid> {
    let mut out = Vec::with_capacity(k);
    let mut x = 0x9E37_79B9u64;
    while out.len() < k {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = x % n;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// The shared differential core: batch-of-K over `make()`-built
/// clusters equals K independent single-source runs (each on a fresh
/// cluster, so no state can leak between them) and the oracle.
fn assert_batch_equals_independent<T, F>(el: &EdgeList, k: usize, mut make: F)
where
    T: swbfs_core::engine::Transport,
    F: FnMut() -> AlgoCluster<T>,
{
    let sources = pick_sources(el.num_vertices, k);
    let batch = {
        let mut c = make();
        msbfs_distributed(&mut c, &sources)
    };
    assert_eq!(batch.levels.len(), k);
    for (i, &s) in sources.iter().enumerate() {
        let single = {
            let mut c = make();
            msbfs_distributed(&mut c, &[s])
        };
        assert_eq!(
            batch.levels[i], single.levels[0],
            "K={k}: batch bit {i} (source {s}) differs from its independent run"
        );
        assert_eq!(
            batch.levels[i].to_vec(),
            bfs_levels_oracle(el, s),
            "K={k}: source {s} differs from the sequential oracle"
        );
    }
}

#[test]
fn shared_mem_batch_equals_independent_runs() {
    let el = generate_kronecker(&KroneckerConfig::graph500(12, 11));
    for k in [1usize, 3, MAX_BATCH] {
        assert_batch_equals_independent(&el, k, || {
            AlgoCluster::new(&el, 6, 3, Messaging::Relay)
        });
    }
}

/// Every level array equals the oracle's, and `rounds` is the deepest
/// finite level plus the one round that finds the frontier empty.
fn assert_matches_oracle(el: &EdgeList, out: &MsBfsOutput, what: &str) {
    let mut deepest = 0;
    for (k, &s) in out.sources.iter().enumerate() {
        let oracle = bfs_levels_oracle(el, s);
        assert_eq!(
            out.levels[k].to_vec(),
            oracle,
            "{what}: bit {k} (source {s})"
        );
        let reached = oracle.iter().copied().filter(|&l| l != UNREACHED);
        deepest = deepest.max(reached.max().unwrap());
    }
    assert_eq!(out.rounds, deepest + 1, "{what}: rounds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Odd shapes: `n` a multiple of neither 64 nor `ranks`, trailing
    /// ranks that own nothing, duplicate sources, every batch width.
    #[test]
    fn odd_shapes_match_the_oracle(
        n in 9u64..300,
        raw_edges in proptest::collection::vec((0u64..300, 0u64..300), 0..600),
        ranks in 1u32..=9,
        group in 1u32..=3,
        relay in any::<bool>(),
        raw_sources in proptest::collection::vec(0u64..300, 1..65),
    ) {
        let edges = raw_edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let el = EdgeList::new(n, edges);
        let sources: Vec<Vid> = raw_sources.into_iter().map(|s| s % n).collect();
        let messaging = if relay { Messaging::Relay } else { Messaging::Direct };
        let mut c = AlgoCluster::new(&el, ranks, group, messaging);
        let out = msbfs_distributed(&mut c, &sources);
        assert_matches_oracle(&el, &out, &format!("n={n} ranks={ranks} group={group} {messaging:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every source's level map equals the oracle's array at batch
    /// widths on both sides of the level planes' crossover. The graph is
    /// random edges on `n` vertices, then a path of up to 300 vertices
    /// hung off vertex 0 (levels past 256 need nine planes), then one
    /// isolated vertex. Sources include the isolated vertex, the path's
    /// far end and a duplicate of it.
    #[test]
    fn level_maps_match_the_oracle_at_every_route(
        n in 1u64..120,
        raw_edges in proptest::collection::vec((0u64..120, 0u64..120), 0..240),
        path in 0u64..300,
        width in 0usize..4,
        ranks in 1u32..=5,
        seed in any::<u64>(),
    ) {
        let mut edges: Vec<(Vid, Vid)> =
            raw_edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let mut far = 0;
        for v in n..n + path {
            edges.push((far, v));
            far = v;
        }
        let isolated = n + path;
        let el = EdgeList::new(isolated + 1, edges);
        let kq = [1usize, 3, 16, MAX_BATCH][width];
        let mut sources = pick_sources(el.num_vertices, kq.min(el.num_vertices as usize));
        sources.resize(kq, seed % el.num_vertices);
        sources[0] = isolated;
        if kq > 1 {
            sources[1] = far;
        }
        if kq > 2 {
            sources[kq - 1] = far;
        }
        let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Direct);
        let out = msbfs_distributed(&mut c, &sources);
        assert_matches_oracle(&el, &out, &format!("kq={kq} path={path}"));
    }
}

/// 1000 vertices over 7 ranks: blocks of 143, so every partition
/// boundary falls inside a word of the emission bitmap. Hubs on both
/// sides of the first boundary (142 | 143, both in word 2) fan out over
/// the whole id space, so each boundary word carries bits for two
/// destinations in the same round.
#[test]
fn partition_boundary_inside_a_bitmap_word() {
    let n = 1000u64;
    let mut edges: Vec<(Vid, Vid)> = Vec::new();
    for hub in [142u64, 143] {
        edges.extend((0..n).filter(|&v| v != hub && v % 3 != 0).map(|v| (hub, v)));
    }
    edges.extend((0..n - 7).step_by(3).map(|v| (v, v + 7)));
    let el = EdgeList::new(n, edges);
    let sources: Vec<Vid> = (0..MAX_BATCH as u64).map(|k| (k * 131 + 140) % n).collect();
    for messaging in [Messaging::Direct, Messaging::Relay] {
        let mut c = AlgoCluster::new(&el, 7, 3, messaging);
        let out = msbfs_distributed(&mut c, &sources);
        assert_matches_oracle(&el, &out, &format!("{messaging:?}"));
    }
}

/// Degenerate depth and width: one wave down a 4096-vertex path is 4096
/// rounds of one record each. A second sweep on the warm cluster must
/// not grow any pooled buffer — the kernel allocates per sweep, never
/// per round.
#[test]
fn deep_path_width_one_and_warm_second_sweep() {
    let n = 4096u64;
    let el = EdgeList::new(n, (0..n - 1).map(|v| (v, v + 1)).collect());
    let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
    let first = msbfs_distributed(&mut c, &[0]);
    assert_matches_oracle(&el, &first, "path");
    assert_eq!(first.rounds, 4096);
    let allocs = c.stats.pool_allocs;
    let second = msbfs_distributed(&mut c, &[0]);
    assert_eq!(second.levels, first.levels);
    assert_eq!(c.stats.pool_allocs, allocs, "a warm sweep grew a pool");
}

#[test]
fn edgeless_source_takes_one_round() {
    let el = EdgeList::new(130, vec![(0, 1), (64, 129)]);
    for ranks in [1u32, 3] {
        let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Relay);
        let out = msbfs_distributed(&mut c, &[77]);
        assert_matches_oracle(&el, &out, "edgeless");
        assert_eq!(out.rounds, 1);
    }
}

/// What one sweep put on the wire and into its spans.
#[derive(Debug, PartialEq, Eq)]
struct Wire {
    messages: u64,
    bytes: u64,
    record_hops: u64,
    /// Per round, summed over ranks: records produced by gen, records
    /// applied by handle (equal: what is sent in a round lands in it).
    rounds: Vec<(u64, u64)>,
    /// Each round's direction.
    directions: Vec<Direction>,
    /// What the Bottom-Up rounds charged for their view of the masks.
    view_bytes: u64,
}

/// Scale 10, 6 ranks in groups of 3, 64 sources: the fixed instance
/// behind [`wire_pin`].
fn wire_of<T: Transport>(make: impl FnOnce(&EdgeList) -> AlgoCluster<T>) -> Wire {
    let el = generate_kronecker(&KroneckerConfig::graph500(10, 17));
    let sources = pick_sources(el.num_vertices, MAX_BATCH);
    let mut c = make(&el);
    let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, c.num_ranks() as usize, 1 << 12);
    c.set_tracer(Some(tracer.clone()));
    let out = msbfs_distributed(&mut c, &sources);
    assert_matches_oracle(&el, &out, "wire instance");
    let mut rounds = vec![(0u64, 0u64); out.rounds as usize];
    let report = tracer.report();
    assert_eq!(report.total_dropped(), 0);
    for ev in report.lanes.iter().flat_map(|l| &l.events) {
        if ev.name == SPAN_GEN {
            rounds[ev.level as usize].0 += ev.arg;
        } else if ev.name == SPAN_HANDLE {
            rounds[ev.level as usize].1 += ev.arg;
        }
    }
    Wire {
        messages: c.stats.messages,
        bytes: c.stats.bytes,
        record_hops: c.stats.record_hops,
        rounds,
        directions: out.directions,
        view_bytes: out.view_bytes,
    }
}

/// The whole wire of [`wire_of`]'s instance. Rounds 1–3 run Bottom-Up:
/// they send nothing and charge `view_bytes` for the masks they read,
/// on every fabric alike. Rounds 0 and 4 stay Top-Down and carry 1,120
/// records: the socket fabric counts one hop per record, the pooled
/// arena counts 444 more (and 16 B for each) for Relay's forwarding
/// stage, so `bytes` and `record_hops` are pinned per fabric. With
/// every round Top-Down the same instance sent 150 messages carrying
/// 10,086 records (EXPERIMENTS.md's Bottom-Up MS-BFS section lists
/// each old value beside its new one).
fn wire_pin(bytes: u64, record_hops: u64) -> Wire {
    use Direction::{BottomUp, TopDown};
    Wire {
        messages: 60,
        bytes,
        record_hops,
        rounds: [899, 0, 0, 0, 221].map(|n| (n, n)).to_vec(),
        directions: vec![TopDown, BottomUp, BottomUp, BottomUp, TopDown],
        view_bytes: 120_800,
    }
}

/// What no choice of direction may move on [`wire_of`]'s instance (its
/// levels equal the oracle's inside `wire_of`): the round count, and
/// the records of the two rounds whose frontier stays small enough to
/// push — the sources' round and the last one that finds any vertex.
/// Captured from the Top-Down-only kernel, before rounds could switch.
fn assert_surviving_wire(w: &Wire, what: &str) {
    assert_eq!(w.rounds.len(), 5, "{what}: rounds");
    assert_eq!(w.rounds[0], (899, 899), "{what}: round 0 records");
    assert_eq!(w.rounds[4], (221, 221), "{what}: round 4 records");
}

#[test]
fn the_wire_did_not_move_shared_mem() {
    let shm = wire_of(|el| AlgoCluster::new(el, 6, 3, Messaging::Relay));
    assert_surviving_wire(&shm, "SharedMem");
    assert_eq!(shm, wire_pin(25_504, 1_564), "SharedMem");
}

/// Storage differential: a batched sweep over a store-restored cluster
/// (both backends) is bit-identical to the heap-built run, and the
/// `store.*` counters prove the mmap path copied no adjacency bytes.
#[test]
fn store_restored_batches_are_bit_identical() {
    let el = generate_kronecker(&KroneckerConfig::graph500(11, 29));
    let sources = pick_sources(el.num_vertices, 32);
    let dir = std::env::temp_dir().join("sw_algos_msbfs_store");
    std::fs::remove_dir_all(&dir).ok();
    let mut cold = AlgoCluster::new(&el, 5, 2, Messaging::Relay);
    cold.persist_store(&dir).unwrap();
    let oracle = msbfs_distributed(&mut cold, &sources);
    for backend in [sw_graph::StorageBackend::Mapped, sw_graph::StorageBackend::Heap] {
        let mut warm =
            AlgoCluster::from_store_dir(&dir, backend, 2, Messaging::Relay).unwrap();
        let out = msbfs_distributed(&mut warm, &sources);
        assert_eq!(out.levels, oracle.levels, "{backend:?}: levels diverge");
        assert_eq!(out.rounds, oracle.rounds, "{backend:?}: rounds diverge");
        let copied = warm.metrics().get("store.bytes_copied");
        let mapped = warm.metrics().get("store.bytes_mapped");
        assert_eq!(warm.metrics().get("store.partitions_mapped"), 5);
        match backend {
            sw_graph::StorageBackend::Mapped => {
                assert!(mapped > 0 && copied == 0, "mmap restore must be zero-copy")
            }
            sw_graph::StorageBackend::Heap => {
                assert!(copied > 0 && mapped == 0, "heap restore copies once")
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn direct_and_relay_batches_agree() {
    let el = generate_kronecker(&KroneckerConfig::graph500(11, 4));
    let sources = pick_sources(el.num_vertices, 17);
    let mut a = AlgoCluster::new(&el, 5, 2, Messaging::Direct);
    let mut b = AlgoCluster::new(&el, 5, 2, Messaging::Relay);
    let oa = msbfs_distributed(&mut a, &sources);
    let ob = msbfs_distributed(&mut b, &sources);
    assert_eq!(oa.levels, ob.levels);
    assert_eq!(oa.rounds, ob.rounds);
}

#[cfg(unix)]
mod socket {
    use super::*;
    use swbfs_core::engine::SocketTransport;

    /// Resolves the rank daemon; honours the CI contract that a
    /// missing daemon under `SWBFS_RANKD_REQUIRE` fails loudly.
    fn rankd_or_skip() -> Option<std::path::PathBuf> {
        match SocketTransport::unix().resolve_rankd() {
            Some(p) => Some(p),
            None => {
                if std::env::var_os("SWBFS_RANKD_REQUIRE").is_some() {
                    panic!(
                        "SWBFS_RANKD_REQUIRE is set but swbfs-rankd was not found — \
                         build it first: cargo build -p swbfs-core --bin swbfs-rankd"
                    );
                }
                eprintln!(
                    "skipping: swbfs-rankd not found — \
                     `cargo build -p swbfs-core --bin swbfs-rankd` or set SWBFS_RANKD"
                );
                None
            }
        }
    }

    #[test]
    fn the_wire_did_not_move_socket() {
        let Some(rankd) = rankd_or_skip() else { return };
        let sock = wire_of(|el| {
            AlgoCluster::with_transport(
                el,
                6,
                3,
                Messaging::Relay,
                SocketTransport::unix().with_rankd(rankd),
            )
        });
        assert_surviving_wire(&sock, "Socket");
        assert_eq!(sock, wire_pin(18_400, 1_120), "Socket");
    }

    #[test]
    fn socket_batch_equals_independent_runs() {
        let Some(rankd) = rankd_or_skip() else { return };
        // Smaller instance: every make() spawns a 4-process fabric.
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 23));
        for k in [1usize, 3, MAX_BATCH] {
            assert_batch_equals_independent(&el, k, || {
                AlgoCluster::with_transport(
                    &el,
                    4,
                    2,
                    Messaging::Relay,
                    SocketTransport::unix().with_rankd(rankd.clone()),
                )
            });
        }
    }

    /// The store restart seam is orthogonal to the fabric: a sweep over
    /// mmap-restored partitions on the socket transport matches the
    /// heap-built shared-memory run bit for bit.
    #[test]
    fn socket_sweep_over_mapped_store_matches_heap_build() {
        let Some(rankd) = rankd_or_skip() else { return };
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 31));
        let sources = pick_sources(el.num_vertices, 16);
        let dir = std::env::temp_dir().join("sw_algos_msbfs_store_socket");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = AlgoCluster::new(&el, 4, 2, Messaging::Direct);
        cold.persist_store(&dir).unwrap();
        let oracle = msbfs_distributed(&mut cold, &sources);
        let mut warm = AlgoCluster::from_store_with_transport(
            &dir,
            sw_graph::StorageBackend::Mapped,
            2,
            Messaging::Direct,
            SocketTransport::unix().with_rankd(rankd),
        )
        .unwrap();
        let out = msbfs_distributed(&mut warm, &sources);
        assert_eq!(out.levels, oracle.levels);
        assert_eq!(out.rounds, oracle.rounds);
        assert_eq!(warm.metrics().get("store.bytes_copied"), 0);
        assert!(warm.metrics().get("store.bytes_mapped") > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn socket_and_shared_mem_sweeps_are_bit_identical() {
        let Some(rankd) = rankd_or_skip() else { return };
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 42));
        let sources = pick_sources(el.num_vertices, 32);
        let mut shm = AlgoCluster::new(&el, 4, 2, Messaging::Direct);
        let mut sock = AlgoCluster::with_transport(
            &el,
            4,
            2,
            Messaging::Direct,
            SocketTransport::unix().with_rankd(rankd),
        );
        let a = msbfs_distributed(&mut shm, &sources);
        let b = msbfs_distributed(&mut sock, &sources);
        assert_eq!(a.levels, b.levels, "fabrics disagree on a batched sweep");
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(
            a.directions, b.directions,
            "fabrics disagree on a direction"
        );
        assert_eq!(a.view_bytes, b.view_bytes);
        assert_eq!(
            shm.stats.record_hops, sock.stats.record_hops,
            "fabrics count different record hops on identical traffic"
        );
    }
}
