//! MPI-like endpoints with connection-memory accounting.
//!
//! Every distinct peer a rank communicates with costs pinned library memory
//! (§3.3: "every connection uses 100 KB memory due to the MPI library", plus
//! eager buffers in practice). [`ConnectionTable`] tracks a node's peer set
//! and fails with [`NetError::ConnectionMemoryExhausted`] when MPI state no
//! longer fits beside the application — the Direct-messaging crash of
//! Figure 11.

use crate::error::NetError;
use crate::topology::NetworkConfig;
use crate::NodeId;
use std::collections::HashSet;

/// One node's connection table.
#[derive(Clone, Debug)]
pub struct ConnectionTable {
    node: NodeId,
    cfg: NetworkConfig,
    /// Bytes the application (graph + buffers) already occupies.
    app_bytes: u64,
    peers: HashSet<NodeId>,
}

impl ConnectionTable {
    /// A table for `node`, with `app_bytes` of node memory already taken by
    /// the application.
    pub fn new(cfg: NetworkConfig, node: NodeId, app_bytes: u64) -> Self {
        Self {
            node,
            cfg,
            app_bytes,
            peers: HashSet::new(),
        }
    }

    /// Bytes of node memory left for MPI state.
    pub fn available_bytes(&self) -> u64 {
        self.cfg.node_memory_bytes.saturating_sub(self.app_bytes)
    }

    /// Bytes MPI state would need for `n` connections.
    pub fn bytes_for(&self, n: usize) -> u64 {
        n as u64 * self.cfg.connection_bytes()
    }

    /// Current MPI memory footprint.
    pub fn memory_bytes(&self) -> u64 {
        self.bytes_for(self.peers.len())
    }

    /// Number of open connections.
    pub fn num_connections(&self) -> usize {
        self.peers.len()
    }

    /// Opens (or reuses) a connection to `peer`.
    pub fn connect(&mut self, peer: NodeId) -> Result<(), NetError> {
        if peer >= self.cfg.nodes {
            return Err(NetError::BadNode {
                node: peer,
                nodes: self.cfg.nodes,
            });
        }
        if self.peers.contains(&peer) {
            return Ok(());
        }
        let required = self.bytes_for(self.peers.len() + 1);
        if required > self.available_bytes() {
            return Err(NetError::ConnectionMemoryExhausted {
                node: self.node,
                connections: self.peers.len() + 1,
                required_bytes: required,
                available_bytes: self.available_bytes(),
            });
        }
        self.peers.insert(peer);
        Ok(())
    }

    /// Checks whether `n` connections would fit without opening them —
    /// what the modeled backend uses at 40 Ki-node scale.
    pub fn check_capacity(&self, n: usize) -> Result<(), NetError> {
        let required = self.bytes_for(n);
        if required > self.available_bytes() {
            return Err(NetError::ConnectionMemoryExhausted {
                node: self.node,
                connections: n,
                required_bytes: required,
                available_bytes: self.available_bytes(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_reuse() {
        let cfg = NetworkConfig::taihulight(64);
        let mut t = ConnectionTable::new(cfg, 0, 0);
        t.connect(1).unwrap();
        t.connect(1).unwrap();
        t.connect(2).unwrap();
        assert_eq!(t.num_connections(), 2);
        assert_eq!(t.memory_bytes(), 2 * cfg.connection_bytes());
    }

    #[test]
    fn bad_peer_rejected() {
        let cfg = NetworkConfig::taihulight(8);
        let mut t = ConnectionTable::new(cfg, 0, 0);
        assert!(matches!(t.connect(8), Err(NetError::BadNode { .. })));
    }

    #[test]
    fn exhaustion_at_16k_alltoall_with_graph_resident() {
        // The Figure 11 crash: 16 Ki peers with a 16 M-vertex/node graph.
        let cfg = NetworkConfig::taihulight(16_384);
        let graph_bytes = 5u64 << 30;
        let t = ConnectionTable::new(cfg, 0, graph_bytes);
        assert!(matches!(
            t.check_capacity(16_383),
            Err(NetError::ConnectionMemoryExhausted { .. })
        ));
        // 8 Ki still fits — Direct ran (slowly) at 4–8 Ki in the paper.
        let cfg8 = NetworkConfig::taihulight(8_192);
        let t8 = ConnectionTable::new(cfg8, 0, graph_bytes);
        t8.check_capacity(8_191).unwrap();
    }

    #[test]
    fn relay_connection_count_always_fits() {
        let cfg = NetworkConfig::full_machine();
        let layout = crate::group::GroupLayout::aligned_to_supernodes(&cfg);
        let t = ConnectionTable::new(cfg, 0, 20u64 << 30);
        t.check_capacity(layout.connections_per_node(0) as usize)
            .unwrap();
    }

    #[test]
    fn exhaustion_reports_numbers() {
        let mut cfg = NetworkConfig::taihulight(4);
        cfg.node_memory_bytes = cfg.connection_bytes() * 2;
        let mut t = ConnectionTable::new(cfg, 3, 0);
        t.connect(0).unwrap();
        t.connect(1).unwrap();
        match t.connect(2) {
            Err(NetError::ConnectionMemoryExhausted {
                node,
                connections,
                required_bytes,
                available_bytes,
            }) => {
                assert_eq!(node, 3);
                assert_eq!(connections, 3);
                assert!(required_bytes > available_bytes);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
