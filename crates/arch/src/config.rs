//! Machine constants of the SW26010 CPU (paper Table 1 and §3) plus the
//! calibrated timing parameters the simulator derives its curves from.
//!
//! Calibration targets, all taken from the paper:
//!
//! * CPE-cluster DMA bandwidth saturates at **28.9 GB/s** for chunk sizes
//!   ≥ 256 B (Figure 3) and "no less than 16 CPEs" are needed to reach an
//!   acceptable fraction of it at 256 B chunks (Figure 5).
//! * The MPE reaches at most **9.4 GB/s** with 256 B batches, i.e. the CPE
//!   cluster is ~10× faster at touching memory (§3.2).
//! * Register communication moves up to 256 bits/cycle between two CPEs in
//!   the same row/column with no inter-link bandwidth conflicts (§3.1).
//! * MPE system-interrupt latency is ~10 µs, so MPE↔CPE notification uses
//!   busy-wait flag polling through main memory (~100-cycle latency, §3.1).

/// Fixed parameters of one SW26010 core group and its CPE cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipConfig {
    /// Core clock of both MPEs and CPEs, Hz (1.45 GHz).
    pub clock_hz: f64,
    /// CPEs per cluster (8×8 mesh).
    pub cpes_per_cluster: u32,
    /// Mesh side (8).
    pub mesh_side: u32,
    /// Scratch-pad memory per CPE, bytes (64 KB).
    pub spm_bytes: u32,
    /// MPE L1 data cache, bytes (32 KB).
    pub mpe_l1d_bytes: u32,
    /// MPE L2 cache, bytes (256 KB).
    pub mpe_l2_bytes: u32,
    /// Core groups per CPU.
    pub core_groups: u32,
    /// Main memory per core group, bytes (8 GB DDR3).
    pub memory_per_cg_bytes: u64,

    /// Peak DRAM bandwidth reachable by one CPE cluster, GB/s (28.9).
    pub cluster_peak_gbps: f64,
    /// Per-CPE DMA line rate once a request is streaming, GB/s.
    pub cpe_dma_line_gbps: f64,
    /// Fixed per-DMA-request issue overhead on the CPE side, ns.
    pub cpe_dma_overhead_ns: f64,
    /// Memory-controller occupancy per DMA request, ns: the controller
    /// serves at most one request per this interval, so chunks below
    /// `peak × request_ns` (256 B) waste controller slots — the steep left
    /// side of Figure 3.
    pub mem_request_ns: f64,

    /// Peak bandwidth of one MPE, GB/s. §3.2 quotes 9.4 GB/s for "MPEs"
    /// (the four of a CPU together, ≈2.35 GB/s each); the Figure 3 caption
    /// and §6.1 both state the CPE cluster is 10× an MPE, so we calibrate a
    /// single MPE to ≈2.9 GB/s at 256 B batches.
    pub mpe_peak_gbps: f64,
    /// MPE per-access overhead expressed as equivalent bytes; bandwidth at
    /// chunk `s` is `mpe_peak * s / (s + overhead_bytes)`.
    pub mpe_access_overhead_bytes: f64,
    /// MPE system interrupt latency, ns (~10 µs).
    pub mpe_interrupt_ns: f64,
    /// Main-memory flag poll round-trip latency, ns (~100 cycles).
    pub flag_poll_ns: f64,
    /// Cost of spinning up a CPE cluster on a module: flag broadcast over
    /// the register bus, DMA descriptor setup, pipeline fill. Together
    /// with the MPE/CPE rate gap this yields the paper's 1 KB small-input
    /// cutoff (§5).
    pub cluster_launch_ns: f64,

    /// Register bus payload per cycle between two CPEs, bytes (256 bit).
    pub reg_bytes_per_cycle: u32,
    /// Efficiency factor of the shuffle pipeline relative to its memory
    /// bound (packet handling, polling, flit padding). Calibrated so the
    /// §4.3 micro-benchmark lands at ≈10 GB/s of the 14.5 GB/s bound.
    pub shuffle_efficiency: f64,
    /// DMA batch size producers/consumers use, bytes (256).
    pub dma_batch_bytes: u32,
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::sw26010()
    }
}

impl ChipConfig {
    /// The SW26010 as described in the paper.
    pub fn sw26010() -> Self {
        Self {
            clock_hz: 1.45e9,
            cpes_per_cluster: 64,
            mesh_side: 8,
            spm_bytes: 64 * 1024,
            mpe_l1d_bytes: 32 * 1024,
            mpe_l2_bytes: 256 * 1024,
            core_groups: 4,
            memory_per_cg_bytes: 8 << 30,

            cluster_peak_gbps: 28.9,
            cpe_dma_line_gbps: 2.0,
            cpe_dma_overhead_ns: 29.0,
            mem_request_ns: 256.0 / 28.9,

            mpe_peak_gbps: 3.07,
            mpe_access_overhead_bytes: 16.0,
            mpe_interrupt_ns: 10_000.0,
            flag_poll_ns: 69.0,
            cluster_launch_ns: 830.0,

            reg_bytes_per_cycle: 32,
            shuffle_efficiency: 0.70,
            dma_batch_bytes: 256,
        }
    }

    /// Seconds per core cycle.
    pub fn cycle_ns(&self) -> f64 {
        1e9 / self.clock_hz
    }

    /// Register-bus bandwidth of one link, GB/s.
    pub fn reg_link_gbps(&self) -> f64 {
        self.reg_bytes_per_cycle as f64 * self.clock_hz / 1e9
    }

    /// Total main memory per node (4 core groups), bytes.
    pub fn node_memory_bytes(&self) -> u64 {
        self.memory_per_cg_bytes * self.core_groups as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let c = ChipConfig::sw26010();
        assert_eq!(c.clock_hz, 1.45e9);
        assert_eq!(c.cpes_per_cluster, 64);
        assert_eq!(c.mesh_side * c.mesh_side, c.cpes_per_cluster);
        assert_eq!(c.spm_bytes, 65536);
        assert_eq!(c.mpe_l1d_bytes, 32 * 1024);
        assert_eq!(c.mpe_l2_bytes, 256 * 1024);
        assert_eq!(c.core_groups, 4);
        assert_eq!(c.node_memory_bytes(), 32 << 30);
    }

    #[test]
    fn register_link_beats_dram() {
        // 256 bit / cycle at 1.45 GHz = 46.4 GB/s per link — faster than the
        // whole cluster's DRAM path, which is why shuffling through registers
        // is the right trade.
        let c = ChipConfig::sw26010();
        assert!((c.reg_link_gbps() - 46.4).abs() < 0.1);
        assert!(c.reg_link_gbps() > c.cluster_peak_gbps);
    }

    #[test]
    fn cycle_time_is_sub_nanosecond() {
        let c = ChipConfig::sw26010();
        assert!((c.cycle_ns() - 0.6897).abs() < 1e-3);
    }
}
