//! # sw-net — TaihuLight interconnect model
//!
//! The paper's group-based message batching (§4.4) wins because of three
//! properties of the machine's network, all modeled here:
//!
//! 1. **Two-level fat tree** (§3.3): 256-node super nodes with full
//!    bisection bandwidth at the bottom; a central switching network with a
//!    1:4 over-subscription ratio at the top. Traffic that stays inside a
//!    super node is ~4× cheaper per byte than traffic that crosses it.
//! 2. **Per-message overhead**: a power-law BFS emits mostly sub-KB
//!    messages; each one costs fixed software/NIC time regardless of size,
//!    so P²-style peer-to-peer messaging stops scaling (the Figure 11
//!    Direct-MPE plateau at 4 Ki nodes).
//! 3. **Per-connection memory**: every MPI connection pins ~100 KB of
//!    library state plus RDMA eager buffers. All-to-all connectivity at
//!    16 Ki nodes exhausts node memory — the paper's observed Direct crash.
//!
//! Modules:
//!
//! * [`topology`] — node/super-node arithmetic and machine constants.
//! * [`routing`] — static destination-based path computation with hop
//!   classification (intra vs inter super node).
//! * [`group`] — the N×M relay-group layout: relay-node address algebra and
//!   connection-count accounting (`N + M - 1` instead of `N × M`).
//! * [`endpoint`] — MPI-like connection tables with memory accounting and
//!   exhaustion errors.
//! * [`cost`] — the flow-level phase cost model: given aggregate per-node
//!   traffic (bytes, message counts, intra/inter split), returns simulated
//!   phase time under injection, ejection, central-switch and per-message
//!   limits.
//! * [`framing`] — length-prefixed frame codec for the real socket
//!   fabric (`swbfs-core`'s `SocketTransport`): pure byte-level
//!   encode/decode with torn-frame detection, no I/O.
//! * [`eventsim`] — a message-level event simulator of one phase that
//!   cross-checks the flow-level model.
//! * [`placement`] — rank-to-node placement: Figure 9's logical and
//!   physical group mapping.

pub mod cost;
pub mod endpoint;
pub mod eventsim;
pub mod error;
pub mod framing;
pub mod group;
pub mod placement;
pub mod routing;
pub mod topology;

pub use cost::{CostModel, PhaseLoad};
pub use endpoint::ConnectionTable;
pub use eventsim::{
    flow_prediction, simulate_phase, FlowPrediction, SimMessage, SimOutcome, TierOccupancy,
};
pub use error::NetError;
pub use framing::{Frame, FrameDecoder, FrameError};
pub use group::GroupLayout;
pub use placement::Placement;
pub use routing::{classify, PathClass};
pub use topology::NetworkConfig;

/// Node identifier within the machine.
pub type NodeId = u32;
