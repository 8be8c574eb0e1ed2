//! Event-driven message-level network simulator.
//!
//! The flow-level [`CostModel`] charges aggregate
//! limits; this module cross-checks it by actually simulating individual
//! messages through the two-tier fat tree: per-node egress/ingress
//! serialization at the tier-appropriate rate, per-message software
//! overhead at the sender, and shared super-node uplinks with the 1:4
//! over-subscription. It is practical up to a few thousand nodes and a
//! few hundred thousand messages — enough to validate the model on real
//! BFS exchange patterns (see the `netsim_validation` bench binary and
//! the cross-check unit tests).
//!
//! Simplifications (shared with the flow model, so the comparison is
//! apples-to-apples): store-and-forward at message granularity, no
//! per-packet interleaving, uplink contention spread uniformly.

use crate::cost::{CostModel, PhaseLoad};
use crate::faults::NetFaults;
use crate::routing::{classify, PathClass};
use crate::topology::NetworkConfig;
use crate::NodeId;

/// One message to simulate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMessage {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Payload bytes.
    pub bytes: u64,
}

/// Per-resource-class busy time accumulated over one simulated phase:
/// how many serialization-nanoseconds each tier of the fat tree
/// absorbed, plus the per-path-class message census. Computed
/// unconditionally by the simulator (pure arithmetic over the same
/// inputs, so it is exactly as deterministic as the makespan) and
/// exportable into a metrics registry via [`TierOccupancy::publish`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TierOccupancy {
    /// Sender-port serialization + per-message software overhead, ns.
    pub egress_busy_ns: f64,
    /// Receiver-port serialization + per-message software overhead, ns.
    pub ingress_busy_ns: f64,
    /// Shared source-super-node uplink serialization, ns.
    pub uplink_busy_ns: f64,
    /// Shared destination-super-node downlink serialization, ns.
    pub downlink_busy_ns: f64,
    /// Messages that never left their node.
    pub local_msgs: u64,
    /// Messages confined to one super node.
    pub intra_msgs: u64,
    /// Messages that crossed a super-node boundary.
    pub cross_msgs: u64,
}

impl TierOccupancy {
    /// Adds this phase's occupancy to a counter set under the `net.`
    /// namespace (busy times truncated to whole nanoseconds).
    pub fn publish(&self, cs: &mut sw_trace::CounterSet) {
        cs.add("net.egress_busy_ns", self.egress_busy_ns as u64);
        cs.add("net.ingress_busy_ns", self.ingress_busy_ns as u64);
        cs.add("net.uplink_busy_ns", self.uplink_busy_ns as u64);
        cs.add("net.downlink_busy_ns", self.downlink_busy_ns as u64);
        cs.add("net.local_msgs", self.local_msgs);
        cs.add("net.intra_msgs", self.intra_msgs);
        cs.add("net.cross_msgs", self.cross_msgs);
    }
}

/// Outcome of simulating a batch of messages that all start at t = 0.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Time at which the last message was fully received, ns.
    pub makespan_ns: f64,
    /// Total bytes that crossed super-node boundaries.
    pub cross_bytes: u64,
    /// Messages simulated.
    pub messages: usize,
    /// Busy-time breakdown per fat-tree resource class.
    pub tiers: TierOccupancy,
}

impl SimOutcome {
    /// Publishes the full measured outcome under `net.`: the tier
    /// occupancy plus makespan and cross bytes, key-parallel with
    /// [`FlowPrediction::publish`] so the two sections diff directly in
    /// a model-vs-measured deviation report.
    pub fn publish(&self, cs: &mut sw_trace::CounterSet) {
        self.tiers.publish(cs);
        cs.add("net.makespan_ns", self.makespan_ns as u64);
        cs.add("net.cross_bytes", self.cross_bytes);
    }
}

/// What the flow-level model predicts for a phase, computed from the
/// same message list the event simulator consumes.
///
/// Tier busy times use the identical serialization arithmetic the
/// simulator accumulates (an accounting cross-check: fault-free they
/// must match bit-for-bit), while `makespan_ns` comes from
/// [`CostModel::phase_time_ns`] over the aggregated [`PhaseLoad`] — the
/// honest prediction whose deviation from the simulated makespan
/// measures queueing and convoy effects the flow model averages away.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowPrediction {
    /// Flow-model phase time, ns.
    pub makespan_ns: f64,
    /// Analytic busy-time breakdown per fat-tree resource class.
    pub tiers: TierOccupancy,
    /// The aggregate load handed to the cost model.
    pub load: PhaseLoad,
    /// Bytes predicted to cross super-node boundaries.
    pub cross_bytes: u64,
}

impl FlowPrediction {
    /// Publishes the prediction under `netmodel.`, one key per measured
    /// `net.` key so `netmodel.` vs `net.` sections align row-for-row.
    pub fn publish(&self, cs: &mut sw_trace::CounterSet) {
        cs.add("netmodel.egress_busy_ns", self.tiers.egress_busy_ns as u64);
        cs.add("netmodel.ingress_busy_ns", self.tiers.ingress_busy_ns as u64);
        cs.add("netmodel.uplink_busy_ns", self.tiers.uplink_busy_ns as u64);
        cs.add(
            "netmodel.downlink_busy_ns",
            self.tiers.downlink_busy_ns as u64,
        );
        cs.add("netmodel.local_msgs", self.tiers.local_msgs);
        cs.add("netmodel.intra_msgs", self.tiers.intra_msgs);
        cs.add("netmodel.cross_msgs", self.tiers.cross_msgs);
        cs.add("netmodel.makespan_ns", self.makespan_ns as u64);
        cs.add("netmodel.cross_bytes", self.cross_bytes);
    }
}

/// Runs the flow-level model over a message list: classifies every
/// message exactly like [`simulate_phase`], aggregates per-node loads
/// into a [`PhaseLoad`], and charges tier busy times analytically (no
/// queueing, no ordering — pure serialization accounting).
pub fn flow_prediction(cfg: &NetworkConfig, messages: &[SimMessage]) -> FlowPrediction {
    let nodes = cfg.nodes as usize;
    let intra_bw = (cfg.effective_node_gbps * cfg.oversubscription).min(cfg.nic_gbps);
    let uplink_bw = cfg.supernode_uplink_gbps();

    let mut send_bytes = vec![0.0f64; nodes];
    let mut send_cross = vec![0.0f64; nodes];
    let mut recv_bytes = vec![0.0f64; nodes];
    let mut recv_cross = vec![0.0f64; nodes];
    let mut send_msgs = vec![0.0f64; nodes];
    let mut recv_msgs = vec![0.0f64; nodes];
    let mut tiers = TierOccupancy::default();
    let mut cross_bytes = 0u64;
    let mut inter_bytes = 0.0f64;
    let mut max_hops = 0u32;

    for m in messages {
        assert!(m.src < cfg.nodes && m.dst < cfg.nodes, "node out of range");
        let class = classify(cfg, m.src, m.dst);
        max_hops = max_hops.max(class.hops());
        match class {
            PathClass::Local => {
                tiers.local_msgs += 1;
            }
            PathClass::IntraSupernode => {
                tiers.intra_msgs += 1;
                let ser = m.bytes as f64 / intra_bw;
                tiers.egress_busy_ns += ser + cfg.per_message_ns;
                tiers.ingress_busy_ns += ser + cfg.per_message_ns;
                send_bytes[m.src as usize] += m.bytes as f64;
                recv_bytes[m.dst as usize] += m.bytes as f64;
                send_msgs[m.src as usize] += 1.0;
                recv_msgs[m.dst as usize] += 1.0;
            }
            PathClass::InterSupernode => {
                tiers.cross_msgs += 1;
                cross_bytes += m.bytes;
                inter_bytes += m.bytes as f64;
                let ser_nic = m.bytes as f64 / cfg.nic_gbps;
                let ser_up = m.bytes as f64 / uplink_bw;
                tiers.egress_busy_ns += ser_nic + cfg.per_message_ns;
                tiers.ingress_busy_ns += ser_nic + cfg.per_message_ns;
                tiers.uplink_busy_ns += ser_up;
                tiers.downlink_busy_ns += ser_up;
                send_bytes[m.src as usize] += m.bytes as f64;
                send_cross[m.src as usize] += m.bytes as f64;
                recv_bytes[m.dst as usize] += m.bytes as f64;
                recv_cross[m.dst as usize] += m.bytes as f64;
                send_msgs[m.src as usize] += 1.0;
                recv_msgs[m.dst as usize] += 1.0;
            }
        }
    }

    let max_of = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    let load = PhaseLoad {
        max_send_bytes: max_of(&send_bytes),
        max_send_cross_bytes: max_of(&send_cross),
        max_recv_bytes: max_of(&recv_bytes),
        max_recv_cross_bytes: max_of(&recv_cross),
        max_send_msgs: max_of(&send_msgs),
        max_recv_msgs: max_of(&recv_msgs),
        inter_supernode_bytes: inter_bytes,
        max_hops,
    };
    FlowPrediction {
        makespan_ns: CostModel::new(*cfg).phase_time_ns(&load),
        tiers,
        load,
        cross_bytes,
    }
}

/// Simulates a phase: every message is injected at its source as soon as
/// the source's egress port frees up (FIFO per sender, in input order),
/// traverses its path, and is drained by the destination's ingress port.
///
/// Each resource (egress port, uplink share, ingress port) serializes the
/// work assigned to it; a message's arrival is the max of its resources'
/// availability plus its own serialization, propagation and per-message
/// overheads.
pub fn simulate_phase(cfg: &NetworkConfig, messages: &[SimMessage]) -> SimOutcome {
    simulate_phase_faulty(cfg, messages, &NetFaults::none())
}

/// [`simulate_phase`] with deterministic bandwidth brownouts applied:
/// browned-out super nodes serialize their intra-tier and uplink traffic
/// at `faults`' per-tier factor of nominal rate. With
/// [`NetFaults::none`] this is bit-identical to the fault-free
/// simulator (every factor is exactly 1.0).
pub fn simulate_phase_faulty(
    cfg: &NetworkConfig,
    messages: &[SimMessage],
    faults: &NetFaults,
) -> SimOutcome {
    let nodes = cfg.nodes as usize;
    let sn = cfg.num_supernodes() as usize;
    // Resource availability times.
    let mut egress = vec![0.0f64; nodes];
    let mut ingress = vec![0.0f64; nodes];
    let mut uplink = vec![0.0f64; sn]; // up+down share per super node
    let mut downlink = vec![0.0f64; sn];

    let intra_bw = (cfg.effective_node_gbps * cfg.oversubscription).min(cfg.nic_gbps);
    let uplink_bw = cfg.supernode_uplink_gbps();
    // Brownout factors, fixed per super node for the whole phase.
    let intra_factor: Vec<f64> = (0..sn as u32).map(|s| faults.supernode_factor(s)).collect();
    let up_factor: Vec<f64> = (0..sn as u32).map(|s| faults.uplink_factor(s)).collect();

    let mut makespan = 0.0f64;
    let mut cross_bytes = 0;
    let mut tiers = TierOccupancy::default();
    for m in messages {
        assert!(m.src < cfg.nodes && m.dst < cfg.nodes, "node out of range");
        let class = classify(cfg, m.src, m.dst);
        let overhead = cfg.per_message_ns + class.hops() as f64 * cfg.hop_latency_ns;
        match class {
            PathClass::Local => {
                tiers.local_msgs += 1;
                makespan = makespan.max(overhead);
            }
            PathClass::IntraSupernode => {
                tiers.intra_msgs += 1;
                let tier = cfg.supernode_of(m.src) as usize;
                let ser = m.bytes as f64 / (intra_bw * intra_factor[tier]);
                // Egress serialization (FIFO per sender).
                let sent = egress[m.src as usize] + ser + cfg.per_message_ns;
                egress[m.src as usize] = sent;
                tiers.egress_busy_ns += ser + cfg.per_message_ns;
                // Ingress drain overlaps cut-through with the egress: the
                // port's busy time accumulates (including the receive-side
                // per-message handling), but a lone message arrives when
                // its send completes.
                let drained =
                    (ingress[m.dst as usize] + ser + cfg.per_message_ns).max(sent);
                ingress[m.dst as usize] = drained;
                tiers.ingress_busy_ns += ser + cfg.per_message_ns;
                makespan = makespan.max(drained + overhead);
            }
            PathClass::InterSupernode => {
                tiers.cross_msgs += 1;
                cross_bytes += m.bytes;
                let ser_nic = m.bytes as f64 / cfg.nic_gbps;
                let s_sn = cfg.supernode_of(m.src) as usize;
                let d_sn = cfg.supernode_of(m.dst) as usize;
                // The uplink is a shared resource serialized at its full
                // aggregate rate (derated under a brownout); contention
                // emerges from the queueing.
                let ser_up = m.bytes as f64 / (uplink_bw * up_factor[s_sn]);
                let ser_down = m.bytes as f64 / (uplink_bw * up_factor[d_sn]);
                // Egress serialization at the NIC.
                let sent = egress[m.src as usize] + ser_nic + cfg.per_message_ns;
                egress[m.src as usize] = sent;
                tiers.egress_busy_ns += ser_nic + cfg.per_message_ns;
                // Per-node fair share of the over-subscribed uplink, then
                // the destination super node's downlink, each cut-through.
                let up_done = (uplink[s_sn] + ser_up).max(sent);
                uplink[s_sn] = up_done;
                tiers.uplink_busy_ns += ser_up;
                let down_done = (downlink[d_sn] + ser_down).max(up_done);
                downlink[d_sn] = down_done;
                tiers.downlink_busy_ns += ser_down;
                // Ingress drain (incl. receive-side message handling).
                let drained =
                    (ingress[m.dst as usize] + ser_nic + cfg.per_message_ns).max(down_done);
                ingress[m.dst as usize] = drained;
                tiers.ingress_busy_ns += ser_nic + cfg.per_message_ns;
                makespan = makespan.max(drained + overhead);
            }
        }
    }
    SimOutcome {
        makespan_ns: makespan,
        cross_bytes,
        messages: messages.len(),
        tiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, PhaseLoad};

    fn cfg(nodes: u32) -> NetworkConfig {
        NetworkConfig::taihulight(nodes)
    }

    #[test]
    fn single_big_intra_message_is_fast_tier() {
        let c = cfg(512);
        let out = simulate_phase(
            &c,
            &[SimMessage {
                src: 0,
                dst: 1,
                bytes: 1 << 20,
            }],
        );
        // ~1 MiB at 4.8 GB/s ≈ 218 µs (plus overheads).
        let expect = (1u64 << 20) as f64 / 4.8;
        assert!(
            (out.makespan_ns - expect).abs() / expect < 0.1,
            "got {} expect ~{}",
            out.makespan_ns,
            expect
        );
        assert_eq!(out.cross_bytes, 0);
    }

    #[test]
    fn cross_supernode_message_pays_the_slow_share() {
        let c = cfg(512);
        let out = simulate_phase(
            &c,
            &[SimMessage {
                src: 0,
                dst: 300,
                bytes: 1 << 20,
            }],
        );
        // A lone cross message is NIC-bound (~bytes/7 GB/s + overheads);
        // uplink contention only appears under load.
        let expect = (1u64 << 20) as f64 / 7.0;
        assert!(
            out.makespan_ns > expect && out.makespan_ns < 2.0 * expect,
            "got {} expect ~{}",
            out.makespan_ns,
            expect
        );
        assert_eq!(out.cross_bytes, 1 << 20);

        // Under saturating cross load the shared over-subscribed uplink
        // becomes the bottleneck: 256 senders × 1 MiB through one 448 GB/s
        // uplink + one downlink.
        let msgs: Vec<SimMessage> = (0..256u32)
            .map(|i| SimMessage {
                src: i,
                dst: 300 + (i % 100),
                bytes: 1 << 20,
            })
            .collect();
        let loaded = simulate_phase(&c, &msgs);
        let uplink_time = 256.0 * (1u64 << 20) as f64 / c.supernode_uplink_gbps();
        assert!(
            loaded.makespan_ns > uplink_time,
            "loaded {} should exceed uplink serialization {}",
            loaded.makespan_ns,
            uplink_time
        );
    }

    #[test]
    fn many_small_messages_bound_by_sender_overhead() {
        let c = cfg(512);
        let msgs: Vec<SimMessage> = (1..401)
            .map(|d| SimMessage {
                src: 0,
                dst: d,
                bytes: 64,
            })
            .collect();
        let out = simulate_phase(&c, &msgs);
        // 400 × 2 µs of per-message cost at the single sender.
        assert!(out.makespan_ns > 400.0 * c.per_message_ns * 0.9);
        assert!(out.makespan_ns < 400.0 * c.per_message_ns * 2.0);
    }

    #[test]
    fn event_sim_agrees_with_flow_model_on_uniform_alltoall() {
        // 64 nodes (sub-super-node job), every pair exchanges 64 KiB,
        // using the classic shifted all-to-all schedule (round k: node s
        // sends to (s+k) mod P) that real MPI collectives use to avoid
        // receiver convoys.
        let c = cfg(64);
        let per_pair = 64u64 << 10;
        let mut shifted = Vec::new();
        for k in 1..64u32 {
            for s in 0..64u32 {
                shifted.push(SimMessage {
                    src: s,
                    dst: (s + k) % 64,
                    bytes: per_pair,
                });
            }
        }
        let sim = simulate_phase(&c, &shifted);

        let send = 63.0 * per_pair as f64;
        let flow = CostModel::new(c).phase_time_ns(&PhaseLoad {
            max_send_bytes: send,
            max_send_cross_bytes: 0.0,
            max_recv_bytes: send,
            max_recv_cross_bytes: 0.0,
            max_send_msgs: 63.0,
            max_recv_msgs: 63.0,
            inter_supernode_bytes: 0.0,
            max_hops: 1,
        });
        let ratio = sim.makespan_ns / flow;
        assert!(
            (0.5..2.0).contains(&ratio),
            "event sim {} vs flow model {} (ratio {ratio})",
            sim.makespan_ns,
            flow
        );

        // The naive s-major schedule creates a receiver convoy (every
        // destination's messages land at once) — the event sim captures
        // the resulting contention that the flow model averages away.
        let mut convoy = Vec::new();
        for s in 0..64u32 {
            for d in 0..64u32 {
                if s != d {
                    convoy.push(SimMessage {
                        src: s,
                        dst: d,
                        bytes: per_pair,
                    });
                }
            }
        }
        let bad = simulate_phase(&c, &convoy);
        assert!(
            bad.makespan_ns > 1.5 * sim.makespan_ns,
            "convoy {} should be markedly slower than shifted {}",
            bad.makespan_ns,
            sim.makespan_ns
        );
    }

    #[test]
    fn relay_and_direct_big_messages_similar_in_event_sim() {
        // The §4.4 experiment replayed at message level: one 16 MiB
        // message per node to a random remote-super-node peer, directly vs
        // with a relay stage.
        let c = cfg(1024);
        let bytes = 16u64 << 20;
        let direct: Vec<SimMessage> = (0..256u32)
            .map(|i| SimMessage {
                src: i,
                dst: 512 + i,
                bytes,
            })
            .collect();
        let d = simulate_phase(&c, &direct);
        // Relay through node (dst_supernode, src_index): stage 1 cross,
        // stage 2 intra.
        let mut relayed = Vec::new();
        for i in 0..256u32 {
            relayed.push(SimMessage {
                src: i,
                dst: 512 + ((i + 7) % 256), // relay in dst super node
                bytes,
            });
        }
        for i in 0..256u32 {
            relayed.push(SimMessage {
                src: 512 + ((i + 7) % 256),
                dst: 512 + i,
                bytes,
            });
        }
        let r = simulate_phase(&c, &relayed);
        let penalty = r.makespan_ns / d.makespan_ns;
        assert!(
            penalty < 1.35,
            "relay penalty {penalty} too high ({} vs {})",
            r.makespan_ns,
            d.makespan_ns
        );
    }

    #[test]
    fn relay_batching_wins_at_message_level_too() {
        // The Figure 11 mechanism replayed packet-by-packet: 512 nodes in
        // 32 groups of 16 (groups ≙ super nodes), each node owing 64 B to
        // every other node. Direct pays 511 per-message overheads per
        // sender; relay pays 31 + 15 + 15 = 61 batched ones.
        const M: u32 = 16;
        let mut c = cfg(512);
        c.supernode_size = M;
        let layout = crate::group::GroupLayout::new(512, M);

        let mut direct = Vec::new();
        for k in 1..512u32 {
            for s in 0..512u32 {
                direct.push(SimMessage {
                    src: s,
                    dst: (s + k) % 512,
                    bytes: 64,
                });
            }
        }
        let d = simulate_phase(&c, &direct);

        // Relay stage 1: one batch per remote group + direct to mates.
        let mut relay = Vec::new();
        for s in 0..512u32 {
            let g = layout.group_of(s);
            for other in 0..layout.num_groups() {
                if other != g {
                    relay.push(SimMessage {
                        src: s,
                        dst: layout.node_at(other, layout.index_of(s)),
                        bytes: 64 * M as u64,
                    });
                }
            }
            for mate in 0..M {
                let dst = g * M + mate;
                if dst != s {
                    relay.push(SimMessage { src: s, dst, bytes: 64 });
                }
            }
        }
        // Stage 2: each relay forwards its collected batches per mate.
        for r in 0..512u32 {
            let g = layout.group_of(r);
            for mate in 0..M {
                let dst = g * M + mate;
                if dst != r {
                    relay.push(SimMessage {
                        src: r,
                        dst,
                        bytes: (layout.num_groups() as u64 - 1) * 64,
                    });
                }
            }
        }
        let rsim = simulate_phase(&c, &relay);
        assert!(
            rsim.makespan_ns < 0.35 * d.makespan_ns,
            "relay {} should beat direct {} on tiny messages",
            rsim.makespan_ns,
            d.makespan_ns
        );
    }

    #[test]
    fn no_faults_is_bit_identical_to_fault_free() {
        let c = cfg(512);
        let msgs: Vec<SimMessage> = (0..256u32)
            .map(|i| SimMessage {
                src: i,
                dst: 256 + (i % 200),
                bytes: 1 << 16,
            })
            .collect();
        let plain = simulate_phase(&c, &msgs);
        let faulty = simulate_phase_faulty(&c, &msgs, &NetFaults::none());
        assert_eq!(plain, faulty);
    }

    #[test]
    fn brownouts_only_slow_things_down() {
        let c = cfg(1024);
        // Mixed intra + cross traffic over all four super nodes.
        let mut msgs = Vec::new();
        for i in 0..512u32 {
            msgs.push(SimMessage {
                src: i,
                dst: (i + 1) % 1024,
                bytes: 1 << 18,
            });
            msgs.push(SimMessage {
                src: i,
                dst: (i + 300) % 1024,
                bytes: 1 << 18,
            });
        }
        let plain = simulate_phase(&c, &msgs);
        let f = NetFaults {
            seed: 9,
            brownout_permille: 600,
            brownout_floor_permille: 200,
        };
        let slow = simulate_phase_faulty(&c, &msgs, &f);
        // Delivery semantics are unchanged — only timing degrades.
        assert_eq!(slow.cross_bytes, plain.cross_bytes);
        assert_eq!(slow.messages, plain.messages);
        assert!(
            slow.makespan_ns > plain.makespan_ns,
            "brownout {} should exceed nominal {}",
            slow.makespan_ns,
            plain.makespan_ns
        );
        // And deterministically: same faults, same makespan.
        let again = simulate_phase_faulty(&c, &msgs, &f);
        assert_eq!(slow, again);
    }

    #[test]
    fn tier_occupancy_tracks_path_classes() {
        let c = cfg(512);
        let msgs = [
            SimMessage { src: 3, dst: 3, bytes: 64 },       // local
            SimMessage { src: 0, dst: 1, bytes: 1 << 16 },  // intra
            SimMessage { src: 0, dst: 300, bytes: 1 << 16 }, // cross
        ];
        let out = simulate_phase(&c, &msgs);
        assert_eq!(out.tiers.local_msgs, 1);
        assert_eq!(out.tiers.intra_msgs, 1);
        assert_eq!(out.tiers.cross_msgs, 1);
        assert!(out.tiers.egress_busy_ns > 0.0);
        assert!(out.tiers.ingress_busy_ns > 0.0);
        assert!(out.tiers.uplink_busy_ns > 0.0, "cross message uses uplink");
        assert!(out.tiers.downlink_busy_ns > 0.0);
        // A busy resource never outlives the phase it serialized.
        assert!(out.tiers.uplink_busy_ns <= out.makespan_ns);

        let mut cs = sw_trace::CounterSet::new();
        out.tiers.publish(&mut cs);
        assert_eq!(cs.get("net.cross_msgs"), 1);
        assert!(cs.get("net.egress_busy_ns") > 0);
    }

    #[test]
    fn prediction_busy_times_match_fault_free_sim_exactly() {
        // The analytic tier accounting is the same arithmetic the
        // simulator accumulates, so fault-free they agree bit-for-bit —
        // any drift means the two code paths diverged.
        let c = cfg(512);
        let msgs: Vec<SimMessage> = (0..300u32)
            .map(|i| SimMessage {
                src: i % 512,
                dst: (i * 7 + 13) % 512,
                bytes: 1 << 14,
            })
            .collect();
        let sim = simulate_phase(&c, &msgs);
        let pred = flow_prediction(&c, &msgs);
        assert_eq!(pred.tiers, sim.tiers, "accounting cross-check");
        assert_eq!(pred.cross_bytes, sim.cross_bytes);
    }

    #[test]
    fn prediction_makespan_within_band_of_sim_on_shifted_alltoall() {
        let c = cfg(64);
        let mut shifted = Vec::new();
        for k in 1..64u32 {
            for s in 0..64u32 {
                shifted.push(SimMessage {
                    src: s,
                    dst: (s + k) % 64,
                    bytes: 64 << 10,
                });
            }
        }
        let sim = simulate_phase(&c, &shifted);
        let pred = flow_prediction(&c, &shifted);
        let ratio = sim.makespan_ns / pred.makespan_ns;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sim {} vs predicted {} (ratio {ratio})",
            sim.makespan_ns,
            pred.makespan_ns
        );
    }

    #[test]
    fn prediction_and_outcome_publish_parallel_key_sets() {
        let c = cfg(512);
        let msgs = [
            SimMessage { src: 3, dst: 3, bytes: 64 },
            SimMessage { src: 0, dst: 1, bytes: 1 << 16 },
            SimMessage { src: 0, dst: 300, bytes: 1 << 16 },
        ];
        let mut predicted = sw_trace::CounterSet::new();
        flow_prediction(&c, &msgs).publish(&mut predicted);
        let mut measured = sw_trace::CounterSet::new();
        simulate_phase(&c, &msgs).publish(&mut measured);
        let pk: Vec<String> = predicted
            .iter()
            .map(|(k, _)| k.strip_prefix("netmodel.").unwrap().to_string())
            .collect();
        let mk: Vec<String> = measured
            .iter()
            .map(|(k, _)| k.strip_prefix("net.").unwrap().to_string())
            .collect();
        assert_eq!(pk, mk, "sections align row-for-row");
        assert_eq!(
            predicted.get("netmodel.cross_msgs"),
            measured.get("net.cross_msgs")
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_nodes() {
        simulate_phase(
            &cfg(4),
            &[SimMessage {
                src: 0,
                dst: 9,
                bytes: 1,
            }],
        );
    }
}
