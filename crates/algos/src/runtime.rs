//! Shared distributed scaffolding for the non-BFS kernels: 1-D partitioned
//! CSRs plus the BFS's record exchange, over any [`Transport`].
//!
//! [`AlgoCluster::push`] is the round every kernel but MS-BFS runs: an
//! offer per owned vertex, a value per edge, one commuting `apply` for
//! the local and the remote targets alike. MS-BFS combines masks per
//! target on the sender, and drives [`AlgoCluster::exchange`] itself.
//!
//! Store directories open and persist through `sw_graph`'s one reader
//! and writer ([`StoreDir`]), the same as the BFS engine's, in either
//! row order: every kernel's output is independent of neighbour order
//! and of inbox order (`tests/order_free.rs`), so a store the engine
//! persisted hubs-first serves them as it is.

use std::path::Path;
use sw_graph::{
    Csr, EdgeList, GraphStore, Partition1D, RowOrder, StorageBackend, StoreDir, StoreManifest, Vid,
};
use sw_net::GroupLayout;
use sw_trace::{CounterSet, Tracer};
use swbfs_core::config::Messaging;
use swbfs_core::engine::{SharedMem, Transport};
use swbfs_core::exchange::{Codec, ExchangeStats};
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;

/// A cluster of ranks for shuffle-shaped graph kernels.
///
/// Generic over the same [`Transport`] seam the BFS engine runs on:
/// kernels written against `AlgoCluster` run unchanged over the pooled
/// shared-memory fabric (the default) or any other registered
/// transport.
pub struct AlgoCluster<T: Transport = SharedMem> {
    /// Vertex ownership.
    pub part: Partition1D,
    /// Relay-group arrangement.
    pub layout: GroupLayout,
    /// Per-rank CSR partitions.
    pub csrs: Vec<Csr>,
    /// Transport mode for every exchange.
    pub messaging: Messaging,
    /// Accumulated exchange statistics.
    pub stats: ExchangeStats,
    /// The message fabric every round's records travel through.
    transport: T,
    /// Optional span recorder (same `Option<&Tracer>` hooks as the BFS
    /// engine; a `None` costs one discriminant check per phase).
    tracer: Option<Tracer>,
    /// Canonical flattened counters (`exchange.*`/`pool.*`/`faults.*`/
    /// `store.*`), merged through `absorb_exchange` + `absorb_store`
    /// like the BFS engine.
    metrics: CounterSet,
    /// Current algorithm round, used as the span level tag.
    round: u32,
    /// What [`Self::persist_store`] writes: the shape, the input-edge
    /// count and the row order the cluster was built or opened with.
    manifest: StoreManifest,
}

impl AlgoCluster<SharedMem> {
    /// Partitions `el` over `ranks` ranks with relay groups of
    /// `group_size`, on the default shared-memory transport.
    pub fn new(el: &EdgeList, ranks: u32, group_size: u32, messaging: Messaging) -> Self {
        Self::with_transport(el, ranks, group_size, messaging, SharedMem::new())
    }

    /// Reopens a persisted store directory on the default shared-memory
    /// transport, each partition's CSR a zero-copy view over its file.
    pub fn from_store_dir(
        dir: &Path,
        backend: StorageBackend,
        group_size: u32,
        messaging: Messaging,
    ) -> std::io::Result<Self> {
        Self::from_store_with_transport(dir, backend, group_size, messaging, SharedMem::new())
    }
}

impl<T: Transport> AlgoCluster<T> {
    /// [`AlgoCluster::new`] over an explicit message fabric.
    pub fn with_transport(
        el: &EdgeList,
        ranks: u32,
        group_size: u32,
        messaging: Messaging,
        mut transport: T,
    ) -> Self {
        assert!(ranks > 0 && el.num_vertices >= ranks as u64);
        let part = Partition1D::new(el.num_vertices, ranks);
        let csrs = Csr::build_partitioned(&part, RowOrder::ById, |_| el.edges.iter().copied());
        transport.setup(ranks as usize);
        let mut metrics = CounterSet::new();
        // Key-set parity with the BFS engine: the storage counters exist
        // on every cluster, zero when no store was opened.
        ins::absorb_store(&mut metrics, &ins::StoreStats::default());
        Self {
            part,
            layout: GroupLayout::new(ranks, group_size.min(ranks)),
            csrs,
            messaging,
            stats: ExchangeStats::default(),
            transport,
            tracer: None,
            metrics,
            round: 0,
            manifest: StoreManifest {
                num_vertices: el.num_vertices,
                num_ranks: ranks,
                input_edges: el.len() as u64,
                degree_ordered: false,
            },
        }
    }

    /// [`AlgoCluster::from_store_dir`] over an explicit message fabric.
    ///
    /// The directory opens through the one reader ([`StoreDir::open`]:
    /// manifest, partition headers, checksums), in whichever row order
    /// it was persisted.
    pub fn from_store_with_transport(
        dir: &Path,
        backend: StorageBackend,
        group_size: u32,
        messaging: Messaging,
        mut transport: T,
    ) -> std::io::Result<Self> {
        let store = StoreDir::open(dir, backend)?;
        let manifest = store.manifest;
        let ranks = manifest.num_ranks;
        transport.setup(ranks as usize);
        let mut metrics = CounterSet::new();
        ins::absorb_store(&mut metrics, &ins::StoreStats::opened(store.stats, store.parts.len()));
        Ok(Self {
            part: Partition1D::new(manifest.num_vertices, ranks),
            layout: GroupLayout::new(ranks, group_size.min(ranks)),
            csrs: store.parts.iter().map(GraphStore::csr).collect(),
            messaging,
            stats: ExchangeStats::default(),
            transport,
            tracer: None,
            metrics,
            round: 0,
            manifest,
        })
    }

    /// Persists every partition plus the manifest under `dir` through
    /// the one writer ([`StoreDir::persist`]), in the row order the
    /// cluster was built or opened with.
    pub fn persist_store(&self, dir: &Path) -> std::io::Result<()> {
        StoreDir::persist(dir, &self.manifest, &self.csrs)
    }

    /// Arms (or disarms) span/counter recording. Also arms the
    /// transport, so exchange rounds record `bucket`/`deliver` spans on
    /// the rank lanes exactly like the BFS engine.
    pub fn set_tracer(&mut self, t: Option<Tracer>) {
        self.transport.set_tracer(t.clone());
        self.tracer = t;
    }

    /// The armed tracer, if any (kernels clone this cheap handle once
    /// per run to keep borrows of the cluster free).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Canonical flattened counters accumulated by
    /// [`Self::exchange`] — the same `exchange.*`/`pool.*`/
    /// `faults.*` key set the BFS engine reports.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Tags subsequent spans (including the transport's bucket/deliver
    /// spans) with algorithm round `round` as the level.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
        self.transport.set_trace_level(round);
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.part.num_ranks()
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> Vid {
        self.part.num_vertices()
    }

    /// Runs one exchange round under the configured transport and
    /// accumulates traffic statistics. Inboxes arrive in whatever order
    /// the fabric delivers; every kernel's handler commutes (minimum,
    /// count, OR, or a fixed-point sum).
    ///
    /// # Panics
    /// Panics if the fabric fails structurally (e.g. a socket peer
    /// died); the analytics kernels have no retry story of their own.
    pub fn exchange(&mut self, out: Vec<Outboxes>) -> Vec<Vec<EdgeRec>> {
        let (inboxes, st) = self
            .transport
            .exchange(self.messaging, out, &self.layout, Codec::Fixed(16))
            .expect("transport failed structurally mid-round");
        self.stats.absorb(&st);
        ins::absorb_exchange(&mut self.metrics, &st);
        inboxes
    }

    /// One push superstep, the round every kernel but MS-BFS runs.
    ///
    /// On each rank `r`, in local id order, `offer(&mut state[r], i, u,
    /// degree)` says whether owned vertex `u` (local index `i`) pushes a
    /// value `x` this round; if it does, `edge(x, u, v)` gives what each
    /// neighbour `v` is offered (`None` skips the edge). A target `r`
    /// owns is updated at once by `apply(&mut state[r], local, value)`;
    /// any other target travels as a `(v, value)` record and is applied
    /// by the same `apply` on its owner after the exchange. So `apply`
    /// must commute: it serves local and remote offers alike, and
    /// inboxes arrive in any order.
    ///
    /// Records a `gen` span per rank (work: edges offered) and, after
    /// the exchange, a `handle` span per rank (work: records applied).
    /// When no vertex pushed, runs no exchange and returns `false`;
    /// otherwise exchanges, advances the round and returns `true`.
    pub fn push<S, X: Copy>(
        &mut self,
        state: &mut [S],
        mut offer: impl FnMut(&mut S, usize, Vid, u64) -> Option<X>,
        edge: impl Fn(X, Vid, Vid) -> Option<u64>,
        apply: impl Fn(&mut S, usize, u64),
    ) -> bool {
        let mut out = self.transport.lend_outboxes();
        let tr = self.tracer.as_ref();
        let mut any = false;
        for (r, st) in state.iter_mut().enumerate() {
            let t0 = ins::span_begin(tr);
            let mut produced = 0u64;
            let csr = &self.csrs[r];
            let (start, _) = self.part.range(r as u32);
            for i in 0..csr.num_rows() as usize {
                let u = start + i as Vid;
                let Some(x) = offer(st, i, u, csr.degree_local(i)) else {
                    continue;
                };
                any = true;
                for &v in csr.neighbors_local(i) {
                    let Some(value) = edge(x, u, v) else {
                        continue;
                    };
                    produced += 1;
                    let owner = self.part.owner(v);
                    if owner as usize == r {
                        apply(st, self.part.to_local(v) as usize, value);
                    } else {
                        out[r].push(owner, EdgeRec { u: v, v: value });
                    }
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, self.round, t0, produced);
        }
        if !any {
            return false;
        }
        let inboxes = self.exchange(out);
        let tr = self.tracer.as_ref();
        for ((r, inbox), st) in inboxes.iter().enumerate().zip(state.iter_mut()) {
            let t0 = ins::span_begin(tr);
            for rec in inbox {
                apply(st, self.part.to_local(rec.u) as usize, rec.v);
            }
            let recs = inbox.len() as u64;
            ins::span_end(tr, r, ins::SPAN_HANDLE, ins::CAT_COMPUTE, self.round, t0, recs);
        }
        self.recycle_inboxes(inboxes);
        self.set_round(self.round + 1);
        true
    }

    /// Checks per-rank outboxes out of the transport (cleared, with
    /// whatever capacity a pooled fabric retained from earlier rounds).
    pub fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        self.transport.lend_outboxes()
    }

    /// Returns inbox buffers to the transport after a round's records
    /// have been applied, so multi-round kernels on a pooled fabric stop
    /// allocating once buffers reach the working size.
    pub fn recycle_inboxes(&mut self, inboxes: Vec<Vec<EdgeRec>>) {
        self.transport.recycle_inboxes(inboxes);
    }
}

/// Deterministic synthetic edge weight in `1..=max_weight` (the paper's
/// substrate has no weighted inputs; SSSP needs weights that both the
/// distributed kernel and the oracle can recompute from the endpoints).
pub fn edge_weight(u: Vid, v: Vid, max_weight: u64) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    1 + z % max_weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::store::partition_path;
    use sw_graph::{generate_kronecker, KroneckerConfig};
    use swbfs_core::engine::ClusterBuilder;
    use swbfs_core::BfsConfig;

    /// A plain store with the engine's degree-ordered partition of the
    /// same graph and ranks copied over rank 0 must not open: every
    /// partition's flags are checked against the manifest, so a store
    /// is one row order or none.
    #[test]
    fn mixed_store_with_a_degree_ordered_partition_is_refused() {
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 3));
        let base = std::env::temp_dir().join(format!("swalgo_mixed_{}", std::process::id()));
        let (plain, ordered) = (base.join("plain"), base.join("ordered"));
        std::fs::remove_dir_all(&base).ok();
        AlgoCluster::new(&el, 4, 2, Messaging::Relay).persist_store(&plain).unwrap();
        let cfg = BfsConfig {
            degree_ordered_adjacency: true,
            ..BfsConfig::threaded_small(2)
        };
        let engine = ClusterBuilder::new(&el, 4, cfg).build().unwrap();
        engine.persist_store(&ordered).unwrap();
        std::fs::copy(partition_path(&ordered, 0), partition_path(&plain, 0)).unwrap();
        let err = AlgoCluster::from_store_dir(&plain, StorageBackend::Mapped, 2, Messaging::Relay)
            .err()
            .expect("a mixed store must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("disagrees with the manifest"), "{err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn cluster_partitions_cover_graph() {
        let el = EdgeList::new(10, vec![(0, 9), (4, 5)]);
        let c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        let rows: u64 = c.csrs.iter().map(|x| x.num_rows()).sum();
        assert_eq!(rows, 10);
        assert_eq!(c.csrs[2].neighbors(9), &[0]);
    }

    #[test]
    fn exchange_delivers_every_record() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        let mut out = c.lend_outboxes();
        out[0].push(1, EdgeRec { u: 9, v: 1 });
        out[0].push(1, EdgeRec { u: 3, v: 2 });
        let mut inbox = c.exchange(out);
        inbox[1].sort_unstable();
        assert_eq!(
            inbox[1],
            vec![EdgeRec { u: 3, v: 2 }, EdgeRec { u: 9, v: 1 }]
        );
        assert!(c.stats.messages > 0);
        c.recycle_inboxes(inbox);
    }

    #[test]
    fn repeated_rounds_reuse_pooled_buffers() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        for round in 0..3 {
            let mut out = c.lend_outboxes();
            for i in 0..32u64 {
                out[0].push(1, EdgeRec { u: i, v: round });
            }
            let inbox = c.exchange(out);
            assert_eq!(inbox[1].len(), 32);
            c.recycle_inboxes(inbox);
        }
        // Warm-up round may grow buffers; later identical rounds must not.
        assert!(c.stats.pool_reused_bytes > 0);
    }

    #[test]
    fn edge_weight_symmetric_and_bounded() {
        for (u, v) in [(0u64, 1u64), (17, 3), (1000, 1000)] {
            let w = edge_weight(u, v, 10);
            assert_eq!(w, edge_weight(v, u, 10));
            assert!((1..=10).contains(&w));
        }
        assert_ne!(edge_weight(0, 1, 1000), edge_weight(0, 2, 1000));
    }
}
