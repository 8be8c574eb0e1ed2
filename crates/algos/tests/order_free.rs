//! Order-freedom of the analytics kernels, proven rather than assumed:
//! every kernel's output is a function of the graph alone — not of the
//! fabric, the order a fabric hands a rank its inbox in, or the order
//! a row lists its neighbours in.
//!
//! All six kernels (PageRank, betweenness, WCC, k-core, Δ-stepping,
//! MS-BFS) run on SharedMem and Socket-Unix; each fabric
//! unwrapped and under `Reordering` (the engine battery's wrapper,
//! `crates/core/tests/support/reordering.rs`: seeded shuffle, reversal);
//! each over by-id rows and over the hubs-first rows of a store the BFS
//! engine persisted (`SuperstepEngine::persist_store`, opened mapped).
//! Every output must equal the unwrapped SharedMem by-id run's bit for
//! bit (floats compared as bits), and that run's PageRank and
//! betweenness equal the sequential oracles'.
//!
//! The socket half discovers `swbfs-rankd` at runtime like
//! `msbfs_differential`; with `SWBFS_RANKD_REQUIRE` set a missing
//! binary is a hard failure rather than a silent skip.

#[path = "../../core/tests/support/reordering.rs"]
mod reordering;

use reordering::{Permute, Reordering};
use std::path::Path;
use sw_algos::betweenness::betweenness_oracle;
use sw_algos::msbfs::{msbfs_distributed, LevelMap};
use sw_algos::pagerank::pagerank_oracle;
use sw_algos::runtime::AlgoCluster;
use sw_algos::{
    betweenness_distributed, kcore_distributed, pagerank_distributed, sssp_delta_stepping,
    wcc_distributed,
};
use sw_graph::{generate_kronecker, Csr, EdgeList, KroneckerConfig, RowOrder, StorageBackend, Vid};
use swbfs_core::config::Messaging;
use swbfs_core::engine::{ClusterBuilder, SharedMem, SocketTransport, Transport};
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;
use swbfs_core::BfsConfig;

const RANKS: u32 = 6;
const GROUP: u32 = 3;

/// Every kernel's output on one cluster; floats as bits.
#[derive(Debug, PartialEq)]
struct Outputs {
    pagerank: Vec<u64>,
    betweenness: Vec<u64>,
    wcc: Vec<Vid>,
    kcore: Vec<bool>,
    sssp: Vec<u64>,
    msbfs: Vec<LevelMap>,
}

impl Outputs {
    /// The kernels whose output differs from `other`'s.
    fn differing(&self, other: &Outputs) -> Vec<&'static str> {
        [
            ("pagerank", self.pagerank == other.pagerank),
            ("betweenness", self.betweenness == other.betweenness),
            ("wcc", self.wcc == other.wcc),
            ("kcore", self.kcore == other.kcore),
            ("sssp", self.sssp == other.sssp),
            ("msbfs", self.msbfs == other.msbfs),
        ]
        .into_iter()
        .filter(|&(_, same)| !same)
        .map(|(name, _)| name)
        .collect()
    }
}

/// Vertices with at least one edge, spread over the id space.
fn sources(el: &EdgeList, k: usize) -> Vec<Vid> {
    let mut touched = vec![false; el.num_vertices as usize];
    for &(a, b) in &el.edges {
        touched[a as usize] = true;
        touched[b as usize] = true;
    }
    (0..el.num_vertices)
        .filter(|&v| touched[v as usize])
        .step_by(el.num_vertices as usize / (2 * k))
        .take(k)
        .collect()
}

fn bits(x: Vec<f64>) -> Vec<u64> {
    x.into_iter().map(f64::to_bits).collect()
}

fn outputs<T: Transport>(el: &EdgeList, mut c: AlgoCluster<T>) -> Outputs {
    let src = sources(el, 8);
    Outputs {
        pagerank: bits(pagerank_distributed(&mut c, 10)),
        betweenness: bits(betweenness_distributed(&mut c, &src)),
        wcc: wcc_distributed(&mut c),
        kcore: kcore_distributed(&mut c, 4),
        sssp: sssp_delta_stepping(&mut c, src[0], 16, 4),
        msbfs: msbfs_distributed(&mut c, &sources(el, 16)).levels,
    }
}

/// Persists the BFS engine's partitions of `el` (hubs-first rows, its
/// default) under `dir`.
fn persist_engine_store(el: &EdgeList, dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    let engine = ClusterBuilder::new(el, RANKS, BfsConfig::threaded_small(GROUP)).build();
    engine
        .expect("engine build")
        .persist_store(dir)
        .expect("persist");
}

/// A Relay cluster over `transport`: built by id, or opened from the
/// engine's store under `dir`.
fn cluster<T: Transport>(
    el: &EdgeList,
    dir: &Path,
    order: RowOrder,
    transport: T,
) -> AlgoCluster<T> {
    match order {
        RowOrder::ById => {
            AlgoCluster::with_transport(el, RANKS, GROUP, Messaging::Relay, transport)
        }
        RowOrder::ByDegree => {
            let backend = StorageBackend::Mapped;
            let c = AlgoCluster::from_store_with_transport(
                dir,
                backend,
                GROUP,
                Messaging::Relay,
                transport,
            );
            let c = c.expect("the engine's store opens");
            let rows = Csr::build_partitioned(&c.part, order, |_| el.edges.iter().copied());
            assert_eq!(c.csrs, rows, "the store holds hubs-first rows");
            c
        }
    }
}

/// Every arm of one fabric against the unwrapped SharedMem by-id run.
fn check<T: Transport>(make: impl Fn() -> T) {
    let name = make().name();
    let mut failures = Vec::new();
    for scale in [9u32, 11] {
        let el = generate_kronecker(&KroneckerConfig::graph500(scale, 60 + scale as u64));
        let dir = std::env::temp_dir().join(format!(
            "sw_algos_order_free_{}_{name}_{scale}",
            std::process::id()
        ));
        persist_engine_store(&el, &dir);
        let want = outputs(&el, cluster(&el, &dir, RowOrder::ById, SharedMem::new()));
        for order in [RowOrder::ById, RowOrder::ByDegree] {
            let permutes = [
                None,
                Some(Permute::Shuffle(0x5eed ^ scale as u64)),
                Some(Permute::Reverse),
            ];
            for permute in permutes {
                let got = match permute {
                    None => outputs(&el, cluster(&el, &dir, order, make())),
                    Some(permute) => {
                        let inner = make();
                        outputs(
                            &el,
                            cluster(&el, &dir, order, Reordering { inner, permute }),
                        )
                    }
                };
                let differing = got.differing(&want);
                if !differing.is_empty() {
                    failures.push(format!(
                        "{name} scale {scale} {order:?} {permute:?}: {differing:?}"
                    ));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        failures.is_empty(),
        "outputs differ from SharedMem ById:\n{}",
        failures.join("\n")
    );
}

/// The run every arm is held to equals the sequential oracles, so every
/// arm does too.
#[test]
fn the_reference_run_equals_the_oracles() {
    for scale in [9u32, 11] {
        let el = generate_kronecker(&KroneckerConfig::graph500(scale, 60 + scale as u64));
        let c = AlgoCluster::new(&el, RANKS, GROUP, Messaging::Relay);
        let want = outputs(&el, c);
        assert!(
            want.pagerank == bits(pagerank_oracle(&el, 10)),
            "scale {scale}: PageRank"
        );
        let bc = betweenness_oracle(&el, &sources(&el, 8));
        assert!(want.betweenness == bits(bc), "scale {scale}: betweenness");
    }
}

#[test]
fn shared_mem_kernels_are_order_free() {
    check(SharedMem::new);
}

/// The rank daemon, or `None` (a skip) when it is not found and
/// `SWBFS_RANKD_REQUIRE` is unset.
#[cfg(unix)]
fn rankd_or_skip() -> Option<std::path::PathBuf> {
    let rankd = SocketTransport::unix().resolve_rankd();
    if rankd.is_none() {
        assert!(
            std::env::var_os("SWBFS_RANKD_REQUIRE").is_none(),
            "SWBFS_RANKD_REQUIRE is set but swbfs-rankd was not found — \
             build it first: cargo build -p swbfs-core --bin swbfs-rankd"
        );
        eprintln!("skipping: swbfs-rankd not found — set SWBFS_RANKD");
    }
    rankd
}

#[cfg(unix)]
#[test]
fn socket_unix_kernels_are_order_free() {
    let Some(rankd) = rankd_or_skip() else { return };
    check(|| SocketTransport::unix().with_rankd(rankd.clone()));
}

/// One `AlgoCluster::exchange` round on the socket fabric delivers the
/// SharedMem round's records to every rank (as multisets: arrival
/// order is the fabric's) and counts the same record hops.
#[cfg(unix)]
#[test]
fn socket_exchange_delivers_the_shared_mem_round() {
    let Some(rankd) = rankd_or_skip() else { return };
    let el = EdgeList::new(6, vec![(0, 1), (2, 3)]);
    let mut shm = AlgoCluster::new(&el, 3, 2, Messaging::Direct);
    let mut sock = AlgoCluster::with_transport(
        &el,
        3,
        2,
        Messaging::Direct,
        SocketTransport::unix().with_rankd(rankd),
    );
    let fill = |out: &mut Vec<Outboxes>| {
        for i in 0..16u64 {
            out[0].push(1, EdgeRec { u: 16 - i, v: i });
            out[2].push(1, EdgeRec { u: i, v: 7 });
        }
    };
    let mut a = shm.lend_outboxes();
    fill(&mut a);
    let mut b = sock.lend_outboxes();
    fill(&mut b);
    let (mut ia, mut ib) = (shm.exchange(a), sock.exchange(b));
    for inbox in ia.iter_mut().chain(&mut ib) {
        inbox.sort_unstable();
    }
    assert_eq!(ia, ib, "fabrics deliver different records");
    assert_eq!(
        shm.stats.record_hops, sock.stats.record_hops,
        "fabrics count different hops"
    );
}
