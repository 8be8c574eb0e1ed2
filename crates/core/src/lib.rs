//! # swbfs-core — distributed direction-optimizing BFS for Sunway TaihuLight
//!
//! The paper's primary contribution: a 1-D-partitioned, direction-optimized
//! Breadth-First Search built from three techniques —
//!
//! 1. **Pipelined module mapping** (§4.2): the BFS is decomposed into the
//!    Figure 1 modules (Forward Generator / Relay / Handler, Backward
//!    Generator / Relay / Handler); MPEs do communication, CPE clusters do
//!    module processing, coordinated by flag polling ([`mapping`]).
//! 2. **Contention-free data shuffling** (§4.3): every reaction module's
//!    scatter runs on the `sw-arch` producer/router/consumer shuffle engine
//!    instead of atomics ([`modules`], [`shuffling`]).
//! 3. **Group-based message batching** (§4.4): messages travel through the
//!    `sw-net` N×M relay layout so a node keeps `N+M-1` connections instead
//!    of `N×M` ([`exchange`]).
//!
//! Two execution backends run the *same* module code:
//!
//! * [`engine`] — the unified superstep engine: every simulated node is a
//!   real rank; messages really move over a pluggable [`Transport`] fabric
//!   ([`SharedMem`] pooled arena in one process, or on Unix one
//!   `swbfs-rankd` process per rank over sockets); results validate
//!   under Graph500 rules. Ground truth at up to a few hundred ranks.
//!   [`ClusterBuilder`] is the one way to build it.
//! * [`modeled`] — per-level traffic statistics (measured by the engine,
//!   [`traffic`]) are replayed through the chip and network cost
//!   models at up to the full 40,960-node machine, reproducing Figures 11
//!   and 12 including the Direct-mode crash points.
//!
//! [`baseline`] holds the comparison implementations (single-node BFS and
//! the plain top-down distributed BFS), and [`policy`] the direction
//! heuristic.

pub mod arena;
pub mod baseline;
pub mod baseline2d;
pub mod compress;
pub mod config;
pub mod construction;
pub mod engine;
pub mod error;
pub mod exchange;
pub mod faults;
pub mod frontier;
pub mod hubs;
pub mod instrument;
pub mod mapping;
pub mod messages;
pub mod modeled;
pub mod modules;
pub mod policy;
pub mod rank;
pub mod result;
pub mod shuffling;
pub mod traffic;

pub use config::{BfsConfig, Messaging, Processing};
pub use engine::{ClusterBuilder, SharedMem, SuperstepEngine, Transport};
pub use error::{ExchangeError, ExecError};
pub use faults::{FaultKind, FaultPlan, FaultSession, InjectionEvent, RetryPolicy};
pub use instrument::{absorb_exchange, absorb_store, exchange_view, StoreStats};
pub use modeled::{ModelOutcome, ModeledCluster};
pub use result::{BfsOutput, LevelStats};
pub use traffic::LevelProfile;

/// Sentinel for "no parent assigned yet".
pub const NO_PARENT: sw_graph::Vid = sw_graph::Vid::MAX;
