//! The unified superstep engine: one BFS lifecycle over a pluggable
//! [`Transport`].
//!
//! The paper's contribution is a single traversal pipeline —
//! direction-optimized supersteps, contention-free shuffling, group
//! relay — that is independent of which fabric carries the messages.
//! [`SuperstepEngine`] owns that pipeline once: construction and 1-D
//! partitioning, the [`BfsConfig`] + [`crate::faults::RetryPolicy`]
//! handling, the Top-Down/Bottom-Up policy loop, fault-plan arming and
//! degraded-level tracking, the `Option<&Tracer>` span taxonomy
//! (gen/handle/bucket/deliver/relay/level/hub-gather), and the single
//! [`crate::instrument::absorb_exchange`] counter-merge path. The
//! fabric-specific residue — how one phase's records physically move —
//! lives behind the [`Transport`] trait, implemented by [`SharedMem`]
//! (the pooled arena, one process) and, on Unix, `SocketTransport`
//! (one process per rank over real sockets).
//!
//! [`ClusterBuilder`] is the only way to construct an engine:
//!
//! ```
//! use swbfs_core::engine::{ClusterBuilder, SharedMem};
//! use swbfs_core::BfsConfig;
//! use sw_graph::{generate_kronecker, KroneckerConfig};
//!
//! let el = generate_kronecker(&KroneckerConfig::graph500(10, 1));
//! let cfg = BfsConfig::threaded_small(2);
//! // Default shared-memory fabric…
//! let mut bfs = ClusterBuilder::new(&el, 4, cfg).build().unwrap();
//! // …or a transport named explicitly, same lifecycle.
//! let mut explicit = ClusterBuilder::new(&el, 4, cfg)
//!     .transport(SharedMem::new())
//!     .build()
//!     .unwrap();
//! assert_eq!(
//!     bfs.run(1).unwrap().parents,
//!     explicit.run(1).unwrap().parents,
//! );
//! ```

#![deny(missing_docs)]

mod shared_mem;
#[cfg(unix)]
pub mod socket;
mod transport;

pub use shared_mem::SharedMem;
#[cfg(unix)]
pub use socket::{RankTelemetry, SocketTransport};
pub use transport::Transport;

use crate::config::BfsConfig;
use crate::error::ExecError;
use crate::exchange::{Codec, ExchangeStats};
use crate::faults::{FaultPlan, FaultSession, InjectionEvent};
use crate::hubs::{covers_rows, gather_hub_level, HubState};
use crate::instrument as ins;
use crate::messages::EdgeRec;
use crate::modules::{
    backward_generator, backward_handler, forward_generator, forward_handler, ModuleStats,
    Outboxes,
};
use crate::policy::{Direction, PolicyInputs, TraversalPolicy};
use crate::rank::RankState;
use crate::result::{BfsOutput, LevelStats};
use crate::shuffling::check_chip_feasibility;
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use sw_arch::ChipConfig;
use sw_graph::hub::HubSet;
use sw_graph::{
    Csr, EdgeList, Partition1D, RowOrder, StorageBackend, StoreDir, StoreManifest, Vid,
};
use sw_net::GroupLayout;
use sw_trace::{CounterSet, Tracer, NO_LEVEL};

/// Where a builder gets its graph: the classic in-memory edge list, or
/// a persisted store directory whose partitions open as zero-copy views.
enum Source<'a> {
    /// Partition and build from an edge list (the cold-build path).
    Edges(&'a EdgeList),
    /// Open `part-NNNNN.swgs` files under a directory written by
    /// [`SuperstepEngine::persist_store`] (the restart path).
    Store { dir: PathBuf, backend: StorageBackend },
}

/// Builds a [`SuperstepEngine`] over a chosen [`Transport`].
///
/// `ClusterBuilder::new(el, ranks, cfg)` starts on the default
/// [`SharedMem`] fabric; [`ClusterBuilder::transport`] swaps in any
/// other. Tracers and fault plans can be armed up front or later via
/// the engine's setters.
pub struct ClusterBuilder<'a, T: Transport = SharedMem> {
    source: Source<'a>,
    num_ranks: u32,
    cfg: BfsConfig,
    tracer: Option<Tracer>,
    fault_plan: Option<FaultPlan>,
    transport: T,
}

impl<'a> ClusterBuilder<'a, SharedMem> {
    /// A builder over `el` partitioned across `num_ranks` ranks, on the
    /// default shared-memory transport.
    pub fn new(el: &'a EdgeList, num_ranks: u32, cfg: BfsConfig) -> Self {
        Self {
            source: Source::Edges(el),
            num_ranks,
            cfg,
            tracer: None,
            fault_plan: None,
            transport: SharedMem::new(),
        }
    }
}

impl ClusterBuilder<'static, SharedMem> {
    /// A builder over a persisted store directory (written by
    /// [`SuperstepEngine::persist_store`]): the rank count comes from
    /// the manifest and each rank's partition file opens as zero-copy
    /// views — `mmap`-backed by default (see
    /// [`ClusterBuilder::storage`]) — instead of rebuilding from edges.
    ///
    /// The store holds rows in their final order, so `cfg` must request
    /// exactly the order that was persisted (`degree_ordered_adjacency`);
    /// [`build`] refuses a disagreement rather than traversing a graph
    /// the config mis-describes.
    ///
    /// [`build`]: ClusterBuilder::build
    pub fn from_store_dir(dir: impl Into<PathBuf>, cfg: BfsConfig) -> Self {
        Self {
            source: Source::Store {
                dir: dir.into(),
                backend: StorageBackend::Mapped,
            },
            num_ranks: 0, // manifest-authoritative; unused for stores
            cfg,
            tracer: None,
            fault_plan: None,
            transport: SharedMem::new(),
        }
    }
}

impl<'a, T: Transport> ClusterBuilder<'a, T> {
    /// Swaps the message fabric the engine will run over.
    pub fn transport<U: Transport>(self, transport: U) -> ClusterBuilder<'a, U> {
        ClusterBuilder {
            source: self.source,
            num_ranks: self.num_ranks,
            cfg: self.cfg,
            tracer: self.tracer,
            fault_plan: self.fault_plan,
            transport,
        }
    }

    /// Picks the storage backend for a store-directory source ([`Heap`]
    /// copies once into aligned buffers, [`Mapped`] — the default — maps
    /// the files in place). No effect on an edge-list source.
    ///
    /// [`Heap`]: StorageBackend::Heap
    /// [`Mapped`]: StorageBackend::Mapped
    #[must_use]
    pub fn storage(mut self, backend: StorageBackend) -> Self {
        if let Source::Store { backend: b, .. } = &mut self.source {
            *b = backend;
        }
        self
    }

    /// Swaps in the multi-process socket fabric (Unix-domain sockets,
    /// one `swbfs-rankd` process per rank). Shorthand for
    /// `.transport(SocketTransport::unix())`; use
    /// [`SocketTransport::tcp`] via [`ClusterBuilder::transport`] for
    /// the TCP flavour.
    #[cfg(unix)]
    pub fn socket(self) -> ClusterBuilder<'a, SocketTransport> {
        self.transport(SocketTransport::unix())
    }

    /// Arms a span tracer ([`Tracer::for_ranks`] lane convention).
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Arms a deterministic fault schedule.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the engine: validates the configuration, partitions the
    /// graph, builds per-rank state and the distributed hub selection,
    /// and sets the transport up for the job size.
    pub fn build(self) -> Result<SuperstepEngine<T>, ExecError> {
        let mut engine = match self.source {
            Source::Edges(el) => SuperstepEngine::from_rows(
                el,
                self.num_ranks,
                self.cfg,
                self.transport,
                |part, _, order| Csr::build_partitioned(part, order, |_| el.edges.iter().copied()),
            )?,
            Source::Store { dir, backend } => {
                SuperstepEngine::from_store_with_transport(&dir, backend, self.cfg, self.transport)?
            }
        };
        engine.set_tracer(self.tracer);
        engine.set_fault_plan(self.fault_plan);
        Ok(engine)
    }

    /// [`ClusterBuilder::build`] through the *distributed* construction
    /// path (Graph500 step 3 as the machine runs it): generator chunks
    /// are shuffled to endpoint owners over the configured messaging
    /// mode, and the rows they build go through the same preparation as
    /// [`ClusterBuilder::build`]'s. Functionally identical to it; also
    /// returns the construction traffic.
    pub fn build_distributed(self) -> Result<(SuperstepEngine<T>, ExchangeStats), ExecError> {
        let Source::Edges(el) = self.source else {
            return Err(ExecError::BadSetup(
                "distributed construction shuffles generator chunks, so it needs an \
                 edge-list source; a persisted store is already partitioned — use build()"
                    .into(),
            ));
        };
        let messaging = self.cfg.messaging;
        let mut stats = ExchangeStats::default();
        let mut engine =
            SuperstepEngine::from_rows(el, self.num_ranks, self.cfg, self.transport, |p, l, o| {
                let built = crate::construction::build_distributed(el, p, l, messaging, o);
                stats = built.stats;
                built.csrs
            })?;
        engine.set_tracer(self.tracer);
        engine.set_fault_plan(self.fault_plan);
        Ok((engine, stats))
    }
}

/// The one BFS lifecycle, generic over the message fabric.
///
/// Every run executes the Figure 1 module graph level-synchronously:
/// the policy decides the direction from global sums, generators fill
/// per-source outboxes in parallel, the [`Transport`] moves the records
/// (under the fault session's deterministic schedule when armed),
/// handlers apply them, and the replicated hub bitmaps are re-gathered.
/// A Bottom-Up level has one of two shapes, fixed at build time: when
/// the hub set holds every vertex with an edge it is one local pass per
/// rank with no exchange, otherwise the query protocol's two exchanges.
/// Statistics flatten through the single
/// [`crate::instrument::absorb_exchange`] merge path regardless of
/// fabric, which is what keeps the counter key sets — and, on identical
/// traffic, the values — identical across transports.
pub struct SuperstepEngine<T: Transport> {
    cfg: BfsConfig,
    part: Partition1D,
    layout: GroupLayout,
    ranks: Vec<RankState>,
    /// The replicated hub state: every rank's copy is identical after a
    /// gather, so one copy serves all ranks' generators.
    hubs: HubState,
    total_directed_edges: u64,
    input_edges: u64,
    /// Storage accounting from construction: zero for edge-list builds,
    /// open costs summed over partitions for store restarts.
    store_stats: ins::StoreStats,
    transport: T,
    /// Canonical counter set of the most recent [`Self::run`].
    metrics: CounterSet,
    tracer: Option<Tracer>,
    fault_plan: Option<FaultPlan>,
    faults: Option<FaultSession>,
    /// Tests flip this to run the seed generators
    /// ([`crate::modules::reference`]), the differential oracle for the
    /// word-parallel ones.
    #[cfg(test)]
    pub(crate) reference_kernels: bool,
}

impl<T: Transport> SuperstepEngine<T> {
    /// The one edge-list construction path: `rows` makes every rank's
    /// CSR in the configured row order (shortcut build or distributed
    /// shuffle), assembled here.
    fn from_rows(
        el: &EdgeList,
        num_ranks: u32,
        cfg: BfsConfig,
        transport: T,
        rows: impl FnOnce(&Partition1D, &GroupLayout, RowOrder) -> Vec<Csr>,
    ) -> Result<Self, ExecError> {
        if num_ranks == 0 {
            return Err(ExecError::BadSetup("zero ranks".into()));
        }
        cfg.validate().map_err(ExecError::BadSetup)?;
        if el.num_vertices < num_ranks as u64 {
            return Err(ExecError::BadSetup(format!(
                "{} ranks for {} vertices",
                num_ranks, el.num_vertices
            )));
        }
        // Wall-clock leg of the build-once/serve-forever comparison:
        // landed next to `store.map_micros` so the live plane shows what
        // a restart saves.
        let live_t0 = sw_trace::live::armed().then(std::time::Instant::now);
        let part = Partition1D::new(el.num_vertices, num_ranks);
        let layout = GroupLayout::new(num_ranks, cfg.group_size.min(num_ranks));
        check_chip_feasibility(&cfg, &ChipConfig::sw26010(), &layout)?;

        // Yasui-style Bottom-Up refinement: likely parents (hubs) first in
        // every neighbour list, laid out by the builder.
        let order = if cfg.degree_ordered_adjacency { RowOrder::ByDegree } else { RowOrder::ById };
        let ranks: Vec<RankState> = rows(&part, &layout, order)
            .into_iter()
            .enumerate()
            .map(|(r, csr)| RankState::over(r as u32, part, csr))
            .collect();

        let engine = Self::assemble(
            cfg,
            part,
            layout,
            ranks,
            el.len() as u64,
            ins::StoreStats::default(),
            transport,
        );
        Self::live_record("store.cold_build_micros", live_t0);
        Ok(engine)
    }

    /// Opens a persisted store directory through the one reader
    /// ([`StoreDir::open`]: manifest, partition headers, checksums) and
    /// builds the engine over zero-copy views — the restart path of
    /// build-once/serve-forever. Its own policy on top: a manifest that
    /// disagrees with `cfg` about the persisted row order is refused.
    fn from_store_with_transport(
        dir: &Path,
        backend: StorageBackend,
        cfg: BfsConfig,
        transport: T,
    ) -> Result<Self, ExecError> {
        cfg.validate().map_err(ExecError::BadSetup)?;
        let live_t0 = sw_trace::live::armed().then(std::time::Instant::now);
        let store = StoreDir::open(dir, backend)
            .map_err(|e| ExecError::BadSetup(format!("store {}: {e}", dir.display())))?;
        let manifest = store.manifest;
        if cfg.degree_ordered_adjacency != manifest.degree_ordered {
            return Err(ExecError::BadSetup(format!(
                "store {} was persisted with degree_ordered={}; the config asks for \
                 degree_ordered={} — a persisted adjacency cannot be re-prepared, \
                 rebuild from edges instead",
                dir.display(),
                manifest.degree_ordered,
                cfg.degree_ordered_adjacency,
            )));
        }
        let num_ranks = manifest.num_ranks;
        let part = Partition1D::new(manifest.num_vertices, num_ranks);
        let layout = GroupLayout::new(num_ranks, cfg.group_size.min(num_ranks));
        check_chip_feasibility(&cfg, &ChipConfig::sw26010(), &layout)?;

        let ranks = (0..num_ranks)
            .zip(&store.parts)
            .map(|(r, p)| RankState::from_store(r, part, p))
            .collect();
        let engine = Self::assemble(
            cfg,
            part,
            layout,
            ranks,
            manifest.input_edges,
            ins::StoreStats::opened(store.stats, store.parts.len()),
            transport,
        );
        Self::live_record("store.map_micros", live_t0);
        Ok(engine)
    }

    /// The construction tail both sources share: distributed hub
    /// selection, edge totals, transport setup. Hub
    /// selection reads only owned degrees — identical between a cold
    /// build and a store restart of the same graph, which is what makes
    /// restarts bit-reproducible.
    fn assemble(
        cfg: BfsConfig,
        part: Partition1D,
        layout: GroupLayout,
        ranks: Vec<RankState>,
        input_edges: u64,
        store_stats: ins::StoreStats,
        mut transport: T,
    ) -> Self {
        let num_ranks = part.num_ranks();
        // Distributed hub selection: every rank nominates its local top-k;
        // the global top-k is drawn from the union of nominations.
        let k = cfg.bottom_up_hubs;
        let nominations: Vec<(Vid, u64)> = ranks
            .par_iter()
            .flat_map_iter(|r| {
                let mut d = r.owned_degrees();
                d.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                d.truncate(k);
                d
            })
            .collect();
        let set = HubSet::from_degrees(nominations, k);
        let td_limit = cfg.top_down_hubs.min(set.len()) as u32;
        let mut hubs = HubState::with_td_limit(set, td_limit);
        // Every vertex with an edge a hub: no Bottom-Up level can query.
        hubs.complete = covers_rows(&hubs.set, ranks.iter().map(RankState::has_row));

        let total_directed_edges = ranks.iter().map(|r| r.csr.num_entries()).sum();
        transport.setup(num_ranks as usize);
        Self {
            cfg,
            part,
            layout,
            ranks,
            hubs,
            total_directed_edges,
            input_edges,
            store_stats,
            transport,
            metrics: CounterSet::new(),
            tracer: None,
            fault_plan: None,
            faults: None,
            #[cfg(test)]
            reference_kernels: false,
        }
    }

    /// Publishes one wall-clock duration to the armed live plane: a
    /// construction under its source's histogram (`cold_build` for edge
    /// lists, `map` for store restarts), or an exchange. A `None` start
    /// means the plane was disarmed when the work began — record nothing
    /// rather than half a sample.
    fn live_record(histogram: &'static str, live_t0: Option<std::time::Instant>) {
        if let Some(t0) = live_t0 {
            sw_trace::live::global()
                .histogram(histogram)
                .record(t0.elapsed().as_micros() as u64);
        }
    }

    /// Persists every rank's partition plus the directory manifest under
    /// `dir` through the one writer ([`StoreDir::persist`]: partitions
    /// via temp file + rename, manifest last) — the build-once half of
    /// build-once/serve-forever.
    pub fn persist_store(&self, dir: &Path) -> std::io::Result<()> {
        let manifest = StoreManifest {
            num_vertices: self.part.num_vertices(),
            num_ranks: self.part.num_ranks(),
            input_edges: self.input_edges,
            degree_ordered: self.cfg.degree_ordered_adjacency,
        };
        StoreDir::persist(dir, &manifest, self.ranks.iter().map(|r| &*r.csr))
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.part.num_ranks()
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> Vid {
        self.part.num_vertices()
    }

    /// Total directed adjacency entries.
    pub fn total_directed_edges(&self) -> u64 {
        self.total_directed_edges
    }

    /// Input edge tuples (the Graph500 TEPS numerator).
    pub fn input_edges(&self) -> u64 {
        self.input_edges
    }

    /// The BFS configuration in use.
    pub fn config(&self) -> &BfsConfig {
        &self.cfg
    }

    /// The message fabric this engine runs over.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the fabric — for out-of-band transport
    /// operations like an early explicit [`Transport::teardown`]
    /// (idempotent on every fabric; the socket transport then exposes
    /// post-mortem state such as [`SocketTransport::last_exits`]).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Every rank's state, in rank order. A hook for integration tests
    /// that inspect prepared rows, not part of the documented API.
    #[doc(hidden)]
    pub fn rank_states(&self) -> &[RankState] {
        &self.ranks
    }

    /// Degree (with multiplicity) of a global vertex.
    pub fn degree_of(&self, v: Vid) -> u64 {
        self.ranks[self.part.owner(v) as usize].csr.degree(v)
    }

    /// Buffer-pool telemetry for the most recent [`Self::run`]:
    /// `(buffer growths, bytes served from pooled capacity)`. On the
    /// pooled shared-memory fabric the growth count is zero from the
    /// second run on; pool-less fabrics report zeroes throughout. A view
    /// over [`Self::metrics`].
    pub fn pool_counters(&self) -> (u64, u64) {
        (
            self.metrics.get(ins::POOL_ALLOCS),
            self.metrics.get(ins::POOL_REUSED_BYTES),
        )
    }

    /// Storage telemetry fixed at construction: `(bytes mapped, bytes
    /// copied, sections verified, partitions opened)`. All zero for an
    /// edge-list build; on a store restart the backend shows here —
    /// `Mapped` reports mapped bytes and zero copies (the zero-copy
    /// assertion), `Heap` the inverse. Re-recorded into
    /// [`Self::metrics`] on every run as the `store.*` counters.
    pub fn store_counters(&self) -> (u64, u64, u64, u64) {
        let s = self.store_stats;
        (
            s.bytes_mapped,
            s.bytes_copied,
            s.sections_verified,
            s.partitions_mapped,
        )
    }

    /// The canonical counter set of the most recent [`Self::run`] —
    /// every exchange/pool/fault statistic flattened through
    /// [`crate::instrument::absorb_exchange`], the single merge path
    /// shared by every transport.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Arms (or disarms with `None`) a span tracer. Lanes follow the
    /// [`Tracer::for_ranks`] convention: lane `r` records rank `r`'s
    /// module and transport phases, the trailing lane records run-wide
    /// phases (whole levels, hub gathers).
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.transport.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Arms (or disarms, with `None`) a deterministic fault schedule.
    /// Every subsequent [`Self::run`] replays the schedule from phase 0
    /// with a fresh session, so faulty runs are as repeatable as clean
    /// ones.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
        self.faults = self.arm_faults();
    }

    /// Fault-layer telemetry for the most recent [`Self::run`]:
    /// `(re-sends, faults injected, levels delivered degraded)`. All
    /// zero without an armed plan. A view over [`Self::metrics`].
    pub fn fault_counters(&self) -> (u64, u64, u64) {
        (
            self.metrics.get(ins::FAULTS_RETRIES),
            self.metrics.get(ins::FAULTS_INJECTED),
            self.metrics.get(ins::FAULTS_DEGRADED_LEVELS),
        )
    }

    /// The injection trace of the most recent [`Self::run`], in
    /// injection order (empty without an armed plan).
    pub fn injection_trace(&self) -> &[InjectionEvent] {
        self.faults.as_ref().map_or(&[], |s| s.trace())
    }

    /// Did the most recent [`Self::run`] engage a graceful degradation
    /// (relay→direct fallback or compression disable)?
    pub fn is_degraded(&self) -> bool {
        self.faults.as_ref().is_some_and(|s| s.is_degraded())
    }

    /// Runs one BFS from `root`, returning the parent map and per-level
    /// statistics. The engine resets itself first, so runs are
    /// repeatable.
    pub fn run(&mut self, root: Vid) -> Result<BfsOutput, ExecError> {
        if root >= self.part.num_vertices() {
            return Err(ExecError::BadRoot {
                root,
                reason: "outside the vertex id space",
            });
        }
        self.reset();
        // Construction-time facts, re-recorded per run because reset()
        // clears the counter set; recorded even at zero so counter key
        // sets stay identical across transports and storage backends.
        ins::absorb_store(&mut self.metrics, &self.store_stats);

        // Seed the root and promote it into the first frontier.
        let owner = self.part.owner(root) as usize;
        let rl = self.part.to_local(root) as usize;
        self.ranks[owner].claim(rl, root);
        let mut next: NextFrontier = self.ranks.iter_mut().map(close_level).sum();
        let mut gather = self.traced_update_hubs(NO_LEVEL);

        let mut policy = TraversalPolicy::new(self.cfg.alpha, self.cfg.beta);
        let mut levels: Vec<LevelStats> = Vec::new();
        let mut level = 0u32;
        // `m_u` needs no sweep: a vertex is in the frontier exactly once,
        // the level after it is settled, so the unvisited degree sum is
        // the total minus every frontier's `m_f` so far.
        let mut m_u = self.total_directed_edges;
        #[cfg(test)]
        let (forward_generator, backward_generator): (Kernel, Kernel) = if self.reference_kernels {
            (crate::modules::reference::forward_generator, crate::modules::reference::backward_generator)
        } else {
            (forward_generator, backward_generator)
        };

        loop {
            let NextFrontier(n_f, m_f) = next;
            if n_f == 0 {
                break;
            }
            m_u -= m_f;
            debug_assert_eq!(
                m_u,
                self.ranks.iter().map(|r| r.unvisited_edges()).sum::<u64>(),
                "level {level}: carried m_u disagrees with the visited-map sweep"
            );
            let dir = if self.cfg.force_top_down {
                Direction::TopDown
            } else {
                policy.decide(&PolicyInputs {
                    frontier_vertices: n_f,
                    frontier_edges: m_f,
                    unvisited_edges: m_u,
                    total_vertices: self.part.num_vertices(),
                })
            };

            let mut ls = LevelStats {
                level,
                direction: dir,
                frontier_vertices: n_f,
                frontier_edges: m_f,
                unvisited_edges: m_u,
                hub_gather_bytes: gather,
                ..Default::default()
            };

            self.transport.set_trace_level(level);
            let lt0 = ins::span_begin(self.tracer.as_ref());
            next = match dir {
                Direction::TopDown => self.top_down_level(&mut ls, forward_generator)?,
                Direction::BottomUp if self.hubs.complete => self.bottom_up_local(&mut ls, backward_generator),
                Direction::BottomUp => self.bottom_up_level(&mut ls, backward_generator)?,
            };
            // Level work is charged in transport-invariant units (edges
            // scanned + records generated + 1), so virtual-domain level
            // spans line up across Direct and Relay.
            if let Some(t) = &self.tracer {
                t.end(
                    t.run_lane(),
                    ins::SPAN_LEVEL,
                    ins::CAT_RUN,
                    level,
                    lt0,
                    ls.edges_scanned + ls.records_generated + 1,
                );
            }
            if self.is_degraded() {
                self.metrics.add(ins::FAULTS_DEGRADED_LEVELS, 1);
            }

            gather = self.traced_update_hubs(level);
            ls.settled = next.0;
            ins::absorb_kernel(&mut self.metrics, &ls);
            levels.push(ls);
            level += 1;
        }

        // Gather the distributed parent map: blocks are contiguous and
        // in rank order.
        let mut parents = Vec::with_capacity(self.part.num_vertices() as usize);
        for r in &self.ranks {
            parents.extend_from_slice(&r.parent);
        }
        debug_assert_eq!(parents.len() as Vid, self.part.num_vertices());
        Ok(BfsOutput {
            root,
            parents,
            levels,
        })
    }

    /// A fresh session over the armed plan (if any), met with the
    /// configured retry policy and falling back to plain fixed framing.
    fn arm_faults(&self) -> Option<FaultSession> {
        let plan = self.fault_plan.clone()?;
        Some(FaultSession::new(
            plan,
            self.cfg.retry,
            Codec::Fixed(self.cfg.edge_msg_bytes),
        ))
    }

    fn reset(&mut self) {
        self.metrics.clear();
        self.transport.set_trace_level(NO_LEVEL);
        // Replay the fault schedule from phase 0 so repeat runs stay
        // bit-identical.
        self.faults = self.arm_faults();
        for r in &mut self.ranks {
            r.reset();
        }
        self.hubs.reset();
    }

    /// One Top-Down level: Forward Generator → exchange → Forward Handler
    /// (which closes the level out).
    fn top_down_level(&mut self, ls: &mut LevelStats, gen: Kernel) -> Result<NextFrontier, ExecError> {
        let outs = self.generate(ls, gen);
        let inboxes = self.run_exchange(outs, ls)?;
        Ok(self.handle_forward(inboxes, ls.level))
    }

    /// One Bottom-Up level under the paper's query protocol: Backward
    /// Generator → exchange → Backward Handler → exchange → Forward
    /// Handler (which closes the level out).
    fn bottom_up_level(&mut self, ls: &mut LevelStats, gen: Kernel) -> Result<NextFrontier, ExecError> {
        let outs = self.generate(ls, gen);
        let inboxes = self.run_exchange(outs, ls)?;
        let (trace, lvl, codec) = (self.tracer.as_ref(), ls.level, self.cfg.codec());
        let mut replies = self.transport.lend_outboxes();
        let handled: Vec<ModuleStats> = self
            .ranks
            .par_iter_mut()
            .zip(inboxes.par_iter())
            .zip(replies.par_iter_mut())
            .map(|((r, inbox), out)| {
                let t0 = ins::span_begin(trace);
                let st = backward_handler(r, inbox, out, codec);
                ins::span_end(trace, r.rank as usize, ins::SPAN_HANDLE, ins::CAT_COMPUTE, lvl, t0, inbox.len() as u64);
                st
            })
            .collect();
        // Return the query inboxes *before* the reply exchange so a
        // pooled transport's assembly pass finds its buffers in their
        // slots.
        self.transport.recycle_inboxes(inboxes);
        absorb_modules(ls, handled);
        let inboxes = self.run_exchange(replies, ls)?;
        Ok(self.handle_forward(inboxes, lvl))
    }

    /// One Bottom-Up level over a hub set that covers every vertex with
    /// an edge ([`HubState::complete`]): each rank sweeps (one
    /// frontier-view bit per neighbour, no query) and closes its level
    /// out, in one fork–join. No outbox is lent and no exchange runs, so
    /// fault schedules count no phase here. Race-free: a sweep reads only
    /// the shared hub view and writes only its own rank.
    fn bottom_up_local(&mut self, ls: &mut LevelStats, sweep: Kernel) -> NextFrontier {
        let (trace, lvl, h) = (self.tracer.as_ref(), ls.level, &self.hubs);
        let passes: Vec<(ModuleStats, NextFrontier)> = self
            .ranks
            .par_iter_mut()
            .map(|r| {
                let t0 = ins::span_begin(trace);
                let st = sweep(r, h, &mut Outboxes::default());
                ins::span_end(trace, r.rank as usize, ins::SPAN_GEN, ins::CAT_COMPUTE, lvl, t0, 0);
                // The close-out keeps its `handle` span.
                let t0 = ins::span_begin(trace);
                let next = close_level(r);
                ins::span_end(trace, r.rank as usize, ins::SPAN_HANDLE, ins::CAT_COMPUTE, lvl, t0, 0);
                (st, next)
            })
            .collect();
        debug_assert!(passes.iter().all(|(st, _)| st.records_out == 0), "a complete-view sweep queried");
        absorb_modules(ls, passes.iter().map(|&(st, _)| st));
        passes.into_iter().map(|(_, next)| next).sum()
    }

    /// A level's generator pass: every rank fills its lent outboxes under
    /// a `gen` span, and the counters land in `ls`.
    fn generate(&mut self, ls: &mut LevelStats, gen: Kernel) -> Vec<Outboxes> {
        let (trace, lvl, h) = (self.tracer.as_ref(), ls.level, &self.hubs);
        let mut outs = self.transport.lend_outboxes();
        let stats: Vec<ModuleStats> = self
            .ranks
            .par_iter_mut()
            .zip(outs.par_iter_mut())
            .map(|(r, out)| {
                let t0 = ins::span_begin(trace);
                let st = gen(r, h, out);
                ins::span_end(trace, r.rank as usize, ins::SPAN_GEN, ins::CAT_COMPUTE, lvl, t0, st.records_out);
                st
            })
            .collect();
        absorb_modules(ls, stats);
        outs
    }

    /// A level's last per-rank pass: the Forward Handler, then the
    /// rank's close-out ([`close_level`]) inside the same `handle` span —
    /// no fork–join or serial loop of its own.
    fn handle_forward(&mut self, inboxes: Vec<Vec<EdgeRec>>, lvl: u32) -> NextFrontier {
        let trace = self.tracer.as_ref();
        let next = self
            .ranks
            .par_iter_mut()
            .zip(inboxes.par_iter())
            .map(|(r, inbox)| {
                let t0 = ins::span_begin(trace);
                forward_handler(r, inbox);
                let next = close_level(r);
                ins::span_end(trace, r.rank as usize, ins::SPAN_HANDLE, ins::CAT_COMPUTE, lvl, t0, inbox.len() as u64);
                next
            })
            .sum();
        self.transport.recycle_inboxes(inboxes);
        next
    }

    /// Runs one record exchange through the transport and folds the
    /// transport stats into `ls`. Inboxes come back in whatever order the
    /// fabric delivers: no handler depends on it (the Forward Handler
    /// claims min-parent, the Backward Handler sorts its replies). With
    /// an armed fault session the exchange runs the
    /// injection/retry/degradation pipeline; an unsurvivable schedule
    /// surfaces as a structured error here.
    fn run_exchange(
        &mut self,
        out: Vec<Outboxes>,
        ls: &mut LevelStats,
    ) -> Result<Vec<Vec<EdgeRec>>, ExecError> {
        // Wall-clock leg of the observability split: when the live
        // plane is armed, each exchange also lands in a log2-bucketed
        // latency histogram. The timer wraps the deterministic work but
        // never feeds it — `exchange.*` counters come only from
        // `ExchangeStats`.
        let live_t0 = sw_trace::live::armed().then(std::time::Instant::now);
        let (messaging, codec) = (self.cfg.messaging, self.cfg.codec());
        let (result, xs) = match self.faults.as_mut() {
            Some(session) => {
                self.transport
                    .exchange_faulty(messaging, out, &self.layout, codec, session)
            }
            None => {
                let (inboxes, xs) = self
                    .transport
                    .exchange(messaging, out, &self.layout, codec)?;
                (Ok(inboxes), xs)
            }
        };
        self.absorb_exchange(ls, &xs);
        let inboxes = result?;
        Self::live_record("exchange.micros", live_t0);
        Ok(inboxes)
    }

    /// Folds one exchange into the level record and the canonical
    /// counter set. The per-counter merge semantics (sum vs per-phase
    /// maximum) live in [`crate::instrument::absorb_exchange`], shared
    /// by every transport — not re-implemented here.
    fn absorb_exchange(&mut self, ls: &mut LevelStats, xs: &ExchangeStats) {
        ls.records_sent += xs.record_hops;
        ls.messages_sent += xs.messages;
        ls.bytes_sent += xs.bytes;
        ins::absorb_exchange(&mut self.metrics, xs);
    }

    /// Rebuilds the replicated hub views from every rank's new frontier
    /// (`curr`: the level is closed out) and visited words, under a
    /// `hub_gather` span on the run lane; returns the gather traffic in
    /// bytes (transport-invariant, and what the span is charged).
    fn traced_update_hubs(&mut self, level: u32) -> u64 {
        let t0 = ins::span_begin(self.tracer.as_ref());
        let blocks = self.ranks.iter().map(|r| (r.global(0), r.curr.as_bitmap(), &r.visited_bits));
        let bytes = gather_hub_level(&mut self.hubs, blocks).bytes;
        if let Some(t) = &self.tracer {
            t.end(t.run_lane(), ins::SPAN_HUB_GATHER, ins::CAT_GATHER, level, t0, bytes);
        }
        bytes
    }
}

/// A generator kernel over one rank: the shipped ones, or in tests the
/// seed ones ([`crate::modules::reference`]).
type Kernel = fn(&mut RankState, &HubState, &mut Outboxes) -> ModuleStats;

/// Adds every rank's module counters to the level record.
fn absorb_modules(ls: &mut LevelStats, stats: impl IntoIterator<Item = ModuleStats>) {
    for st in stats {
        ls.edges_scanned += st.edges_scanned;
        ls.local_claims += st.local_claims;
        ls.hub_skips += st.hub_skips;
        ls.records_generated += st.records_out;
        ls.words_scanned += st.words_scanned;
        ls.words_skipped += st.words_skipped;
    }
}

/// The next frontier's `(n_f, m_f)`, summed over ranks.
#[derive(Clone, Copy, Default)]
struct NextFrontier(u64, u64);

impl std::iter::Sum for NextFrontier {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self(a.0 + b.0, a.1 + b.1))
    }
}

/// Ends the level on one rank (`next` becomes `curr`) and returns its
/// share of the next `(n_f, m_f)`: the vertices it settled this level
/// and their degree sum.
fn close_level(r: &mut RankState) -> NextFrontier {
    NextFrontier(r.advance_level(), r.frontier_edges())
}

impl<T: Transport> Drop for SuperstepEngine<T> {
    fn drop(&mut self) {
        self.transport.teardown();
    }
}
