//! # sw-algos — other irregular graph kernels on the BFS framework
//!
//! Paper §8: "the key operations of the distributed BFS can be viewed as
//! shuffling dynamically generated data, which is also the major operation
//! of many other graph algorithms, such as Single Source Shortest Path
//! (SSSP), Weakly Connected Component (WCC), PageRank, and K-core
//! decomposition. All the three key techniques we used are readily
//! applicable."
//!
//! This crate makes that claim executable: each kernel runs on the same
//! 1-D partitioning, the same typed record exchange (Direct or Relay,
//! i.e. group-based message batching), and the same shuffle-shaped
//! generate → exchange → apply structure as the BFS:
//!
//! * [`wcc`] — label propagation to the minimum component id;
//! * [`delta_stepping`] — SSSP in distance buckets of width Δ over
//!   deterministic synthetic edge weights ([`sssp`] holds its Dijkstra
//!   oracle);
//! * [`pagerank`] — damped power iteration with shuffled contributions;
//! * [`kcore`] — iterative peeling with remote degree-decrement records;
//! * [`betweenness`] — Brandes centrality: a forward σ-counting sweep and
//!   a backward δ accumulation per source;
//! * [`msbfs`] — bit-parallel multi-source BFS (up to 64 traversals per
//!   sweep), the batching kernel behind the `sw-serve` query service.
//!
//! [`runtime`] holds the shared distributed scaffolding, [`fixed`] the
//! fixed-point sums that make PageRank and betweenness order-free. Every
//! kernel but MS-BFS runs its rounds through one method,
//! [`AlgoCluster::push`]: a vertex offers a value, each edge maps it to
//! a neighbour's offer, and one commuting `apply` takes it wherever the
//! neighbour lives. MS-BFS ORs its masks per target on the sender before
//! they travel, so it keeps rounds of its own.

pub mod betweenness;
pub mod delta_stepping;
pub mod fixed;
pub mod kcore;
pub mod msbfs;
pub mod pagerank;
pub mod runtime;
pub mod sssp;
pub mod wcc;

pub use betweenness::betweenness_distributed;
pub use delta_stepping::sssp_delta_stepping;
pub use kcore::kcore_distributed;
pub use msbfs::msbfs_distributed;
pub use pagerank::pagerank_distributed;
pub use runtime::AlgoCluster;
pub use wcc::wcc_distributed;
