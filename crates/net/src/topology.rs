//! Machine-level network constants and super-node arithmetic (paper §3.3,
//! Table 1).

/// Parameters of the TaihuLight interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Number of compute nodes participating in the job.
    pub nodes: u32,
    /// Nodes per super node (256, full bisection below this level).
    pub supernode_size: u32,
    /// Over-subscription ratio of the central switching network (4 = the
    /// central network carries a quarter of full bisection).
    pub oversubscription: f64,
    /// NIC line rate per node, GB/s (FDR InfiniBand 56 Gb/s ≈ 7 GB/s raw).
    pub nic_gbps: f64,
    /// Effective sustained per-node bandwidth observed under load, GB/s
    /// (the paper measured 1.2 GB/s per node in its relay experiment).
    pub effective_node_gbps: f64,
    /// Fixed software+NIC cost per message, ns (MPI small-message latency;
    /// the MPE issues/handles messages one at a time).
    pub per_message_ns: f64,
    /// Network propagation latency per level crossed, ns.
    pub hop_latency_ns: f64,
    /// Single-threaded MPI progress-engine cost per open connection per
    /// communication phase, ns: with thousands of peers the MPE spends
    /// this much scanning each connection's state. Calibrated to reproduce
    /// the Figure 11 Direct-MPE plateau at ~4 Ki nodes.
    pub per_connection_progress_ns: f64,
    /// MPI library state per connection, bytes (paper: ~100 KB).
    pub mpi_connection_base_bytes: u64,
    /// Pinned RDMA eager-buffer memory per connection, bytes. The paper's
    /// 100 KB figure is the library's bookkeeping alone; the observed
    /// memory-exhaustion crash of Direct messaging at 16 Ki nodes implies
    /// the real per-connection footprint under Mvapich includes eager
    /// buffers. Calibrated so the crash lands where the paper saw it.
    pub mpi_connection_buffer_bytes: u64,
    /// Node memory available to MPI + application, bytes (32 GB minus OS).
    pub node_memory_bytes: u64,
}

impl NetworkConfig {
    /// TaihuLight as described in the paper, for a job of `nodes` nodes.
    pub fn taihulight(nodes: u32) -> Self {
        Self {
            nodes,
            supernode_size: 256,
            oversubscription: 4.0,
            nic_gbps: 7.0,
            effective_node_gbps: 1.2,
            per_message_ns: 2_000.0,
            hop_latency_ns: 1_000.0,
            per_connection_progress_ns: 25_000.0,
            mpi_connection_base_bytes: 100 * 1024,
            mpi_connection_buffer_bytes: 1_700 * 1024,
            node_memory_bytes: 30 << 30,
        }
    }

    /// The full machine: 40,960 nodes (the paper ran on 40,768).
    pub fn full_machine() -> Self {
        Self::taihulight(40_960)
    }

    /// Number of (possibly partially filled) super nodes in the job.
    pub fn num_supernodes(&self) -> u32 {
        self.nodes.div_ceil(self.supernode_size)
    }

    /// Super node containing `node`.
    pub fn supernode_of(&self, node: u32) -> u32 {
        node / self.supernode_size
    }

    /// Index of `node` within its super node.
    pub fn index_in_supernode(&self, node: u32) -> u32 {
        node % self.supernode_size
    }

    /// Aggregate uplink bandwidth of one super node towards the central
    /// switches, GB/s: full bisection divided by the over-subscription.
    pub fn supernode_uplink_gbps(&self) -> f64 {
        self.supernode_size as f64 * self.nic_gbps / self.oversubscription
    }

    /// Total bisection bandwidth of the central network, GB/s. The paper
    /// quotes 70 TB/s for the full machine.
    pub fn central_bisection_gbps(&self) -> f64 {
        self.num_supernodes() as f64 * self.supernode_uplink_gbps() / 2.0
    }

    /// Per-connection memory footprint, bytes.
    pub fn connection_bytes(&self) -> u64 {
        self.mpi_connection_base_bytes + self.mpi_connection_buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_machine_matches_paper() {
        let n = NetworkConfig::full_machine();
        assert_eq!(n.nodes, 40_960);
        assert_eq!(n.num_supernodes(), 160);
        assert_eq!(n.supernode_size, 256);
        // 70 TB/s bisection: 160 supernodes × 256 × 7 GB/s / 4 / 2 = 56 TB/s
        // of *over-subscribed* central bandwidth; the paper's 70 TB/s counts
        // raw capacity — we only require the same order of magnitude.
        let bis = n.central_bisection_gbps();
        assert!((30_000.0..80_000.0).contains(&bis), "bisection {bis} GB/s");
    }

    #[test]
    fn supernode_arithmetic() {
        let n = NetworkConfig::taihulight(1000);
        assert_eq!(n.num_supernodes(), 4);
        assert_eq!(n.supernode_of(0), 0);
        assert_eq!(n.supernode_of(255), 0);
        assert_eq!(n.supernode_of(256), 1);
        assert_eq!(n.supernode_of(999), 3);
        assert_eq!(n.index_in_supernode(999), 999 - 3 * 256);
    }

    #[test]
    fn uplink_is_quarter_of_bisection() {
        let n = NetworkConfig::taihulight(512);
        assert!((n.supernode_uplink_gbps() - 256.0 * 7.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn connection_footprint_reproduces_paper_arithmetic() {
        let n = NetworkConfig::full_machine();
        // Paper §4.4: 40,000 connections × 100 KB ≈ 4 GB of library state.
        let base_total = 40_000u64 * n.mpi_connection_base_bytes;
        assert!((base_total as f64 / (1u64 << 30) as f64 - 3.8).abs() < 0.3);
        // With eager buffers, all-to-all at 16 Ki nodes exceeds node memory
        // once the graph (≈5 GB at 16 M vertices/node) is resident.
        let at_16k = 16_384 * n.connection_bytes();
        assert!(at_16k + (5u64 << 30) > n.node_memory_bytes);
        // ... while 8 Ki nodes still fits.
        let at_8k = 8_192 * n.connection_bytes();
        assert!(at_8k + (5u64 << 30) < n.node_memory_bytes);
    }
}
