//! Flow-level phase cost model.
//!
//! The BFS proceeds in communication phases (one per module activation per
//! level). At 40 Ki-node scale individual packets cannot be enumerated, but
//! phase time is governed by four aggregate limits, each of which this
//! model charges and takes the max of (the streams overlap):
//!
//! * **injection** — the busiest sender's bytes through its NIC at the
//!   sustained per-node rate (the paper measured 1.2 GB/s under load);
//! * **ejection** — the busiest receiver's bytes, same rate;
//! * **central switch** — all bytes that cross super-node boundaries,
//!   through the over-subscribed uplinks (¼ of full bisection);
//! * **message handling** — the busiest node's message *count* times the
//!   fixed per-message cost; the MPE issues messages one at a time, which
//!   is what strangles Direct messaging when the frontier is small but the
//!   peer count is huge.
//!
//! A latency floor (`hops × hop latency`) covers near-empty phases.

use crate::topology::NetworkConfig;

/// Aggregate traffic of one communication phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseLoad {
    /// Bytes sent by the busiest node (all destinations).
    pub max_send_bytes: f64,
    /// Of the busiest sender's bytes, those leaving its super node
    /// (carried at the slower over-subscribed rate; the remainder rides
    /// the full-bisection bottom tier). Must be ≤ `max_send_bytes`.
    pub max_send_cross_bytes: f64,
    /// Bytes received by the busiest node.
    pub max_recv_bytes: f64,
    /// Of the busiest receiver's bytes, those arriving from other super
    /// nodes.
    pub max_recv_cross_bytes: f64,
    /// Messages sent by the busiest node.
    pub max_send_msgs: f64,
    /// Messages received by the busiest node.
    pub max_recv_msgs: f64,
    /// Total bytes crossing super-node boundaries, whole job.
    pub inter_supernode_bytes: f64,
    /// Switch levels on the longest path used (for the latency floor).
    pub max_hops: u32,
}

impl PhaseLoad {
    /// Elementwise sum of two loads (phases merged back-to-back).
    pub fn merge(&self, other: &PhaseLoad) -> PhaseLoad {
        PhaseLoad {
            max_send_bytes: self.max_send_bytes + other.max_send_bytes,
            max_send_cross_bytes: self.max_send_cross_bytes + other.max_send_cross_bytes,
            max_recv_bytes: self.max_recv_bytes + other.max_recv_bytes,
            max_recv_cross_bytes: self.max_recv_cross_bytes + other.max_recv_cross_bytes,
            max_send_msgs: self.max_send_msgs + other.max_send_msgs,
            max_recv_msgs: self.max_recv_msgs + other.max_recv_msgs,
            inter_supernode_bytes: self.inter_supernode_bytes + other.inter_supernode_bytes,
            max_hops: self.max_hops.max(other.max_hops),
        }
    }
}

/// The phase-time calculator for a given network.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    cfg: NetworkConfig,
}

impl CostModel {
    /// A cost model over `cfg`.
    pub fn new(cfg: NetworkConfig) -> Self {
        Self { cfg }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Time for one point-to-point message of `bytes` (used by the
    /// threaded backend's accounting and by micro-tests).
    pub fn message_ns(&self, bytes: u64, hops: u32) -> f64 {
        self.cfg.per_message_ns
            + hops as f64 * self.cfg.hop_latency_ns
            + bytes as f64 / self.cfg.effective_node_gbps
    }

    /// Sustained per-node bandwidth for traffic that stays inside a super
    /// node: the bottom tier has full bisection, so it runs
    /// `oversubscription`× faster than the effective cross rate, capped by
    /// the NIC.
    pub fn intra_supernode_gbps(&self) -> f64 {
        (self.cfg.effective_node_gbps * self.cfg.oversubscription).min(self.cfg.nic_gbps)
    }

    /// Simulated time of a whole communication phase.
    ///
    /// Cross-super-node bytes move at the effective (over-subscribed)
    /// rate; intra-super-node bytes at the faster bottom-tier rate, and
    /// the two overlap on the NIC — this is why the paper measured "no
    /// bandwidth difference" between direct and relayed big messages: the
    /// relay's extra intra-node hop hides behind the slower cross stage.
    pub fn phase_time_ns(&self, load: &PhaseLoad) -> f64 {
        let cross_bw = self.cfg.effective_node_gbps;
        let intra_bw = self.intra_supernode_gbps();
        let t_inject = (load.max_send_cross_bytes / cross_bw)
            .max(load.max_send_bytes / intra_bw);
        let t_eject = (load.max_recv_cross_bytes / cross_bw)
            .max(load.max_recv_bytes / intra_bw);

        // Central network: aggregate inter-supernode bytes cross uplinks
        // whose total capacity is num_supernodes × uplink. (Each byte
        // crosses one source uplink and one destination downlink of equal
        // capacity; under the uniform-traffic assumption the max-loaded
        // uplink carries total/num_supernodes in each direction.)
        let sn = self.cfg.num_supernodes().max(1) as f64;
        let t_central = load.inter_supernode_bytes / (sn * self.cfg.supernode_uplink_gbps());

        // Send and receive message handling run on different MPEs (the
        // paper's M0/M1 mapping), so they overlap rather than add.
        let t_msgs =
            load.max_send_msgs.max(load.max_recv_msgs) * self.cfg.per_message_ns;

        let latency_floor = load.max_hops as f64 * self.cfg.hop_latency_ns;

        t_inject.max(t_eject).max(t_central).max(t_msgs) + latency_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: u32) -> CostModel {
        CostModel::new(NetworkConfig::taihulight(nodes))
    }

    #[test]
    fn big_messages_are_bandwidth_bound() {
        let m = model(512);
        let one_mb = m.message_ns(1 << 20, 3);
        // 1 MB at 1.2 GB/s ≈ 874 µs; overheads are noise.
        let bw_time = (1u64 << 20) as f64 / 1.2;
        assert!((one_mb - bw_time).abs() / bw_time < 0.02);
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let m = model(512);
        let tiny = m.message_ns(64, 3);
        assert!(tiny < 10_000.0);
        assert!(tiny > 2_000.0);
        // Byte time is negligible.
        assert!((tiny - m.message_ns(0, 3)) < 100.0);
    }

    #[test]
    fn phase_takes_max_of_limits() {
        let m = model(512);
        // Byte-heavy phase: injection binds.
        let heavy = PhaseLoad {
            max_send_bytes: 1e9,
            max_send_cross_bytes: 1e9,
            max_recv_bytes: 1e9,
            max_recv_cross_bytes: 1e9,
            inter_supernode_bytes: 1e9,
            max_send_msgs: 10.0,
            max_recv_msgs: 10.0,
            max_hops: 3,
        };
        let t = m.phase_time_ns(&heavy);
        assert!((t - 1e9 / 1.2 - 3.0 * 1000.0).abs() / t < 0.01);

        // Message-heavy phase: per-message cost binds.
        let chatty = PhaseLoad {
            max_send_bytes: 1e3,
            max_send_cross_bytes: 1e3,
            max_recv_bytes: 1e3,
            max_recv_cross_bytes: 1e3,
            inter_supernode_bytes: 1e3,
            max_send_msgs: 40_000.0,
            max_recv_msgs: 40_000.0,
            max_hops: 3,
        };
        let t = m.phase_time_ns(&chatty);
        assert!((t - 40_000.0 * 2_000.0 - 3000.0).abs() / t < 0.01);
    }

    #[test]
    fn central_oversubscription_binds_cross_traffic() {
        // All traffic crosses supernodes; make per-node load tiny but total
        // cross traffic huge relative to the uplinks.
        let m = model(40_960);
        let sn = 160.0;
        let uplink = m.config().supernode_uplink_gbps();
        let load = PhaseLoad {
            max_send_bytes: 1e6,
            max_send_cross_bytes: 1e6,
            max_recv_bytes: 1e6,
            max_recv_cross_bytes: 1e6,
            inter_supernode_bytes: sn * uplink * 1e6, // forces t_central = 1e6 ns
            max_send_msgs: 1.0,
            max_recv_msgs: 1.0,
            max_hops: 3,
        };
        let t = m.phase_time_ns(&load);
        assert!((t - 1e6 - 3000.0).abs() / t < 0.01, "t = {t}");
    }

    #[test]
    fn relay_batching_beats_direct_for_small_messages() {
        // 4096 nodes, each sending 64 B to every other node. Direct: 4095
        // messages per node. Relay: ~(16 + 256 - 1) messages per node of
        // batched traffic (groups of 256).
        let m = model(4096);
        let bytes_per_node = 4095.0 * 64.0;
        let cross = bytes_per_node * (4096.0 - 256.0) / 4096.0;
        let direct = PhaseLoad {
            max_send_bytes: bytes_per_node,
            max_send_cross_bytes: cross,
            max_recv_bytes: bytes_per_node,
            max_recv_cross_bytes: cross,
            max_send_msgs: 4095.0,
            max_recv_msgs: 4095.0,
            inter_supernode_bytes: 4096.0 * cross,
            max_hops: 3,
        };
        // Relay: stage 1 sends 16 batched messages (one per group), stage 2
        // forwards the cross records intra-supernode; NIC bytes grow but
        // counts collapse and the extra hop rides the fast bottom tier.
        let relay = PhaseLoad {
            max_send_bytes: bytes_per_node + cross,
            max_send_cross_bytes: cross,
            max_recv_bytes: bytes_per_node + cross,
            max_recv_cross_bytes: cross,
            max_send_msgs: (16 + 255) as f64,
            max_recv_msgs: (16 + 255) as f64,
            inter_supernode_bytes: 4096.0 * cross,
            max_hops: 3,
        };
        let td = m.phase_time_ns(&direct);
        let tr = m.phase_time_ns(&relay);
        assert!(
            tr < td / 5.0,
            "relay {tr} ns should be ≫ faster than direct {td} ns"
        );
    }

    #[test]
    fn relayed_bytes_hide_behind_the_cross_stage() {
        // Doubling intra bytes while keeping cross bytes fixed barely
        // moves phase time — the §4.4 observation.
        let m = model(1024);
        let base = PhaseLoad {
            max_send_bytes: 1e8,
            max_send_cross_bytes: 1e8,
            max_recv_bytes: 1e8,
            max_recv_cross_bytes: 1e8,
            inter_supernode_bytes: 1e8,
            max_send_msgs: 10.0,
            max_recv_msgs: 10.0,
            max_hops: 3,
        };
        let relayed = PhaseLoad {
            max_send_bytes: 2e8,
            max_recv_bytes: 2e8,
            ..base
        };
        let t0 = m.phase_time_ns(&base);
        let t1 = m.phase_time_ns(&relayed);
        assert!((t1 - t0) / t0 < 0.01, "relay penalty {}", (t1 - t0) / t0);
    }

    #[test]
    fn merge_adds_loads() {
        let a = PhaseLoad {
            max_send_bytes: 1.0,
            max_send_cross_bytes: 0.5,
            max_recv_bytes: 2.0,
            max_recv_cross_bytes: 1.0,
            max_send_msgs: 3.0,
            max_recv_msgs: 4.0,
            inter_supernode_bytes: 5.0,
            max_hops: 1,
        };
        let b = a.merge(&a);
        assert_eq!(b.max_send_bytes, 2.0);
        assert_eq!(b.max_recv_msgs, 8.0);
        assert_eq!(b.max_hops, 1);
    }
}
