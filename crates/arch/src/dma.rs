//! DMA engine timing model.
//!
//! CPEs touch main memory only through explicit DMA. A request costs a
//! fixed issue overhead plus a streaming transfer, and all CPEs of a core
//! group share one memory controller whose peak is 28.9 GB/s. This gives
//! the two measured curves the paper calibrates its design against:
//!
//! * **Figure 3** — cluster bandwidth vs chunk size: small chunks are
//!   dominated by per-request overhead; ≥256 B chunks reach the controller
//!   peak. The MPE path saturates ~10× lower (9.4 GB/s).
//! * **Figure 5** — bandwidth vs number of participating CPEs at 256 B
//!   chunks: each CPE sustains ~1.8 GB/s, so ~16 CPEs saturate the
//!   controller; more CPEs add nothing.
//!
//! The model is analytic but exposed as a *timing engine*: callers issue
//! simulated transfers and receive simulated nanoseconds, so benchmarks
//! regenerate the curves by measurement rather than by printing the
//! formula's inputs.

use crate::config::ChipConfig;
use crate::SimNanos;

/// The per-core-group DMA/memory-controller timing model.
#[derive(Clone, Copy, Debug)]
pub struct DmaEngine {
    cfg: ChipConfig,
}

impl DmaEngine {
    /// A DMA engine for the given chip.
    pub fn new(cfg: ChipConfig) -> Self {
        Self { cfg }
    }

    /// Sustained bandwidth (GB/s) of one CPE issuing back-to-back DMA
    /// requests of `chunk` bytes, ignoring controller saturation.
    pub fn per_cpe_gbps(&self, chunk: u32) -> f64 {
        if chunk == 0 {
            return 0.0;
        }
        let transfer_ns = chunk as f64 / self.cfg.cpe_dma_line_gbps;
        chunk as f64 / (self.cfg.cpe_dma_overhead_ns + transfer_ns)
    }

    /// Bandwidth ceiling (GB/s) the memory controller imposes for
    /// `chunk`-byte requests: one request per [`ChipConfig::mem_request_ns`]
    /// slot, capped at the streaming peak. At 256 B the two limits meet —
    /// the knee of Figure 3.
    pub fn controller_cap_gbps(&self, chunk: u32) -> f64 {
        (chunk as f64 / self.cfg.mem_request_ns).min(self.cfg.cluster_peak_gbps)
    }

    /// Sustained bandwidth (GB/s) of `ncpes` CPEs issuing `chunk`-byte DMA
    /// requests concurrently: per-CPE rate × count, capped by the memory
    /// controller. This is the quantity Figures 3 and 5 plot.
    pub fn cluster_gbps(&self, chunk: u32, ncpes: u32) -> f64 {
        (self.per_cpe_gbps(chunk) * ncpes as f64).min(self.controller_cap_gbps(chunk))
    }

    /// Simulated time for `ncpes` CPEs to collectively move `bytes` of
    /// memory traffic in `chunk`-byte requests (read or write — the paper
    /// measured reads and notes writes perform similarly).
    pub fn transfer_ns(&self, bytes: u64, chunk: u32, ncpes: u32) -> SimNanos {
        let bw = self.cluster_gbps(chunk, ncpes);
        if bw <= 0.0 {
            return f64::INFINITY;
        }
        bytes as f64 / bw
    }

    /// Simulated time when reads and writes of the given sizes share the
    /// memory controller (the shuffle's steady state: producers stream in
    /// while consumers stream out).
    pub fn shared_rw_ns(
        &self,
        read_bytes: u64,
        read_chunk: u32,
        read_cpes: u32,
        write_bytes: u64,
        write_chunk: u32,
        write_cpes: u32,
    ) -> SimNanos {
        let r = self.cluster_gbps(read_chunk, read_cpes);
        let w = self.cluster_gbps(write_chunk, write_cpes);
        if r <= 0.0 || w <= 0.0 {
            return f64::INFINITY;
        }
        // Scale both streams down proportionally if their sum exceeds the
        // controller peak.
        let total = r + w;
        let scale = (self.cfg.cluster_peak_gbps / total).min(1.0);
        let t_read = read_bytes as f64 / (r * scale);
        let t_write = write_bytes as f64 / (w * scale);
        t_read.max(t_write)
    }

    /// The chip configuration this engine models.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbps;

    fn engine() -> DmaEngine {
        DmaEngine::new(ChipConfig::sw26010())
    }

    #[test]
    fn figure3_shape_saturation_at_256b() {
        let e = engine();
        let full = |chunk| e.cluster_gbps(chunk, 64);
        // Monotone non-decreasing in chunk size.
        let chunks = [8u32, 16, 32, 64, 128, 256, 512, 1024, 4096];
        for w in chunks.windows(2) {
            assert!(full(w[0]) <= full(w[1]) + 1e-9);
        }
        // ≥256 B reaches the 28.9 GB/s peak; 8 B is far below it.
        assert!((full(256) - 28.9).abs() < 1e-6, "got {}", full(256));
        assert!(full(8) < 28.9 * 0.5, "got {}", full(8));
    }

    #[test]
    fn figure3_cpe_vs_mpe_is_about_10x() {
        let e = engine();
        let cpe = e.cluster_gbps(256, 64);
        let mpe = crate::mpe::Mpe::new(*e.config()).bandwidth_gbps(256);
        let ratio = cpe / mpe;
        assert!(
            (9.0..11.0).contains(&ratio),
            "CPE/MPE ratio {ratio} should be ~10x (Fig. 3 caption)"
        );
    }

    #[test]
    fn figure5_shape_16_cpes_saturate() {
        let e = engine();
        let bw = |n| e.cluster_gbps(256, n);
        for n in 1..16 {
            assert!(bw(n) < bw(n + 1) || bw(n) >= 28.9 - 1e-6);
        }
        // 16 CPEs give ≥90% of peak; 64 give no more than peak.
        assert!(bw(16) > 0.9 * 28.9, "bw(16) = {}", bw(16));
        assert_eq!(bw(16).max(bw(64)), bw(64));
        assert!((bw(64) - 28.9).abs() < 1e-6);
        // 1 CPE is far from saturating.
        assert!(bw(1) < 0.1 * 28.9);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let e = engine();
        let bytes = 1 << 20;
        let ns = e.transfer_ns(bytes, 256, 64);
        let measured = gbps(bytes, ns);
        assert!((measured - e.cluster_gbps(256, 64)).abs() < 1e-6);
    }

    #[test]
    fn zero_chunk_never_completes() {
        let e = engine();
        assert_eq!(e.per_cpe_gbps(0), 0.0);
        assert!(e.transfer_ns(100, 0, 64).is_infinite());
    }

    #[test]
    fn shared_rw_halves_peak() {
        // Symmetric read+write streams at saturating chunk sizes can each
        // get at most half the controller: the 14.5 GB/s bound of §4.3.
        let e = engine();
        let bytes = 1 << 24;
        let ns = e.shared_rw_ns(bytes, 256, 32, bytes, 256, 16);
        let per_stream = gbps(bytes, ns);
        assert!(
            (per_stream - 28.9 / 2.0).abs() < 1.5,
            "per-stream {per_stream} GB/s"
        );
    }

    #[test]
    fn shared_rw_reduces_to_transfer_when_one_side_idle() {
        let e = engine();
        let ns_shared = e.shared_rw_ns(1 << 20, 256, 16, 0, 256, 16);
        let ns_plain = e.transfer_ns(1 << 20, 256, 16);
        // Write side idle: read still shares the controller rating but has
        // no competing bytes, so times differ only by the proportional
        // scale-down of the rating.
        assert!(ns_shared >= ns_plain * 0.99);
    }
}
