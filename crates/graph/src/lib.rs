//! # sw-graph — graph substrate for the TaihuLight BFS reproduction
//!
//! This crate provides everything the distributed BFS needs to know about
//! graphs, independent of any machine model:
//!
//! * [`kronecker`] — the Graph500 Kronecker (R-MAT) edge-list generator with
//!   the benchmark's fixed initiator matrix (A=0.57, B=0.19, C=0.19, D=0.05),
//!   edge factor 16, vertex relabeling permutation, and deterministic
//!   parallel generation.
//! * [`edge_list`] — raw edge tuples as produced by the generator.
//! * [`csr`] — Compressed Sparse Row adjacency used by every traversal
//!   (the paper's "graph representation using CSR format").
//! * [`partition`] — the 1-D block partitioning of vertices over ranks that
//!   the paper selects ("each vertex of the input graph belongs to only one
//!   partition").
//! * [`bitmap`] — dense bitsets (sequential and atomic) used for frontiers
//!   and visited maps, with a word-level surface for word-parallel kernels.
//! * [`hub`] — degree-aware hub vertex selection for the paper's
//!   "degree aware prefetch" optimization (§5).
//! * [`store`] — zero-copy graph storage: an on-disk partition format with
//!   per-section checksums, opened as an `mmap`-backed [`GraphStore`] whose
//!   CSR views traverse the file in place.
//!
//! All randomness is seed-driven; identical seeds give identical graphs
//! regardless of thread count.

pub mod bitmap;
pub mod csr;
pub mod edge_list;
pub mod hub;
pub mod kronecker;
pub mod partition;
pub mod store;

pub use bitmap::{AtomicBitmap, Bitmap};
pub use csr::{Csr, RowOrder};
pub use edge_list::EdgeList;
pub use kronecker::{generate_kronecker, KroneckerConfig};
pub use partition::Partition1D;
pub use store::{GraphStore, StorageBackend, StoreDir, StoreManifest};

/// Global vertex identifier. Graph500 scale 40 needs 2^40 ids, so 64 bits.
pub type Vid = u64;

/// Local (per-partition) vertex index.
pub type LocalVid = u32;
