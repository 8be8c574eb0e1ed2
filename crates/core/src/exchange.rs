//! Record exchange between ranks: Direct vs Relay transport.
//!
//! Both transports deliver exactly the same multiset of records to each
//! destination; what differs is the message structure the network sees:
//!
//! * **Direct** — every rank sends to every destination rank it has records
//!   for, *plus a termination-indicator message to every other rank* ("at
//!   least one message transfer … for each pair of nodes", §1) — `P-1`
//!   messages per rank per phase no matter how empty the level is.
//! * **Relay** (§4.4) — records for a remote group are batched into one
//!   message to the relay node (same column as the source, same row/group
//!   as the destination); the relay module re-buckets them per final
//!   destination (this is the Forward/Backward Relay of Figure 1) and
//!   forwards inside the group. Termination indicators are per column-peer
//!   and per group-mate: `(N-1) + (M-1)` per rank.
//!
//! The exchange also accounts the traffic quantities the cost model needs:
//! message counts, payload bytes, group-boundary (≙ super-node) crossing
//! bytes, and per-rank maxima.
//!
//! The exchange itself is [`crate::arena::ExchangeArena`] — a pooled,
//! two-pass counting-sort pipeline with no per-record pushes, held by
//! every long-lived cluster so each buffer is recycled across levels and
//! roots. This module holds what every fabric shares: the codecs, the
//! traffic record, and the wire arithmetic. The seed's literal
//! allocate-classify-push implementation is the differential oracle in
//! `tests/exchange_equivalence.rs`.

use crate::compress::compressed_size;
use crate::messages::EdgeRec;
use sw_net::GroupLayout;

/// How record payloads are sized on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Fixed framing: this many bytes per record.
    Fixed(usize),
    /// Delta + varint compression ([`crate::compress`], the §7 future-work
    /// integration).
    Compressed,
}

impl Codec {
    /// Wire bytes a record batch occupies under this codec.
    pub fn payload_bytes(&self, recs: &[EdgeRec]) -> u64 {
        match self {
            Codec::Fixed(w) => (recs.len() * w) as u64,
            Codec::Compressed => {
                if recs.is_empty() {
                    0
                } else {
                    compressed_size(recs)
                }
            }
        }
    }
}

/// Per-message framing overhead, bytes (header + termination marker).
pub const MSG_HEADER_BYTES: u64 = 8;

/// Maximum payload per discrete message; larger batches split.
pub const MAX_BATCH_BYTES: u64 = 1 << 20;

/// Aggregate traffic of one exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Record deliveries counted per network traversal (a relayed record
    /// counts twice: source→relay and relay→destination).
    pub record_hops: u64,
    /// Discrete messages, termination indicators included.
    pub messages: u64,
    /// Wire bytes (payload + per-message headers).
    pub bytes: u64,
    /// Bytes whose source and destination lie in different groups.
    pub inter_group_bytes: u64,
    /// Largest per-rank outgoing message count.
    pub max_send_msgs_per_rank: u64,
    /// Largest per-rank outgoing byte count.
    pub max_send_bytes_per_rank: u64,
    /// Pooled-buffer acquisitions that had to allocate or grow on the
    /// heap (0 in steady state once the arena is warm).
    pub pool_allocs: u64,
    /// Bytes placed into pooled buffers whose retained capacity made the
    /// write allocation-free.
    pub pool_reused_bytes: u64,
    /// Transfer re-sends scheduled by the fault layer (0 without an
    /// armed [`crate::faults::FaultSession`]).
    pub retries: u64,
    /// Faults the scheduler injected into this exchange's deliveries.
    pub faults_injected: u64,
    /// Levels delivered under an engaged degradation (relay→direct
    /// fallback or compression disable).
    pub degraded_levels: u64,
}

impl ExchangeStats {
    /// Accumulates another exchange.
    pub fn absorb(&mut self, o: &ExchangeStats) {
        self.record_hops += o.record_hops;
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.inter_group_bytes += o.inter_group_bytes;
        self.max_send_msgs_per_rank += o.max_send_msgs_per_rank;
        self.max_send_bytes_per_rank += o.max_send_bytes_per_rank;
        self.pool_allocs += o.pool_allocs;
        self.pool_reused_bytes += o.pool_reused_bytes;
        self.retries += o.retries;
        self.faults_injected += o.faults_injected;
        self.degraded_levels += o.degraded_levels;
    }

    /// The wire-traffic fields, without the allocator or fault-layer
    /// bookkeeping — what must be bit-identical across implementations
    /// of the same transport. Wire traffic counts successful deliveries
    /// only; retry overhead lives in the separate fault counters, which
    /// is what keeps survivable faulty runs' per-level stats identical
    /// to fault-free ones.
    pub fn wire(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.record_hops,
            self.messages,
            self.bytes,
            self.inter_group_bytes,
            self.max_send_msgs_per_rank,
            self.max_send_bytes_per_rank,
        )
    }
}

pub(crate) fn msgs_for(payload: u64) -> u64 {
    // At least the termination indicator; big payloads split into batches.
    1 + payload / MAX_BATCH_BYTES
}

/// The rank range `[start, end)` of `group` (groups are contiguous rank
/// ranges; the last may be partial).
#[inline]
pub(crate) fn group_bounds(layout: &GroupLayout, group: u32) -> (u32, u32) {
    let start = group * layout.group_size();
    (start, start + layout.group_size_of(group))
}

/// Per-source outboxes as `[src][dst]` record boxes — the staging of
/// every point-to-point fabric.
pub(crate) fn drain_boxes(out: Vec<crate::modules::Outboxes>) -> Vec<Vec<Vec<EdgeRec>>> {
    out.into_iter().map(|mut o| o.drain_into_boxes()).collect()
}

/// Per-source wire accounting of one point-to-point phase: the
/// Direct-mode arithmetic (payload + per-batch headers, termination
/// indicators included), summed over sources with the per-rank maxima
/// the `max_*` counters track. Shared by every fabric whose physical
/// mesh is point-to-point regardless of the configured [`Messaging`]
/// mode — the channel transport and the socket transport — which is
/// what pins their `exchange.*` counter *values* equal on identical
/// traffic.
pub(crate) fn direct_wire_stats(
    boxes: &[Vec<Vec<EdgeRec>>],
    layout: &GroupLayout,
    codec: Codec,
) -> ExchangeStats {
    let mut stats = ExchangeStats::default();
    for (s, bs) in boxes.iter().enumerate() {
        let mut send_msgs = 0u64;
        let mut send_bytes = 0u64;
        for (d, recs) in bs.iter().enumerate() {
            if d == s {
                debug_assert!(recs.is_empty(), "self-addressed records");
                continue;
            }
            let payload = codec.payload_bytes(recs);
            let msgs = msgs_for(payload);
            let bytes = payload + msgs * MSG_HEADER_BYTES;
            send_msgs += msgs;
            send_bytes += bytes;
            stats.record_hops += recs.len() as u64;
            if layout.group_of(s as u32) != layout.group_of(d as u32) {
                stats.inter_group_bytes += bytes;
            }
        }
        stats.messages += send_msgs;
        stats.bytes += send_bytes;
        stats.max_send_msgs_per_rank = stats.max_send_msgs_per_rank.max(send_msgs);
        stats.max_send_bytes_per_rank = stats.max_send_bytes_per_rank.max(send_bytes);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExchangeArena;
    use crate::config::Messaging;
    use crate::modules::Outboxes;
    use std::collections::BTreeMap;

    fn rec(u: u64, v: u64) -> EdgeRec {
        EdgeRec { u, v }
    }

    fn empty(ranks: usize) -> Vec<Outboxes> {
        (0..ranks).map(|_| Outboxes::new(ranks)).collect()
    }

    /// One exchange of `out` through a fresh arena.
    fn run(
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        ExchangeArena::new(out.len()).exchange(mode, out, layout, codec)
    }

    fn exchange_direct(
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        run(Messaging::Direct, out, layout, codec)
    }

    fn exchange_relay(
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        run(Messaging::Relay, out, layout, codec)
    }

    /// All-to-all test pattern: rank s sends (s, d) to every d != s.
    fn all_to_all(ranks: usize) -> Vec<Outboxes> {
        let mut out = empty(ranks);
        for (s, o) in out.iter_mut().enumerate() {
            for d in (0..ranks).filter(|&d| d != s) {
                o.push(d as u32, rec(s as u64, d as u64));
            }
        }
        out
    }

    /// Per-destination record multisets, built by borrowing the inboxes.
    fn multisets(inbox: &[Vec<EdgeRec>]) -> Vec<BTreeMap<EdgeRec, usize>> {
        inbox
            .iter()
            .map(|b| {
                let mut m = BTreeMap::new();
                for &r in b {
                    *m.entry(r).or_insert(0) += 1;
                }
                m
            })
            .collect()
    }

    /// Deterministic pseudo-random traffic pattern (regenerable, so the
    /// two transports each get their own copy without cloning).
    fn random_out(ranks: usize, seed: u64) -> Vec<Outboxes> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out = empty(ranks);
        for (s, o) in out.iter_mut().enumerate() {
            for _ in 0..50 {
                let d = rng.gen_range(0..ranks);
                if d == s {
                    continue;
                }
                o.push(d as u32, rec(rng.gen_range(0..1000), d as u64));
            }
        }
        out
    }

    #[test]
    fn direct_and_relay_deliver_identical_multisets() {
        let layout = GroupLayout::new(8, 4);
        let (di, _) = exchange_direct(all_to_all(8), &layout, Codec::Fixed(8));
        let (ri, _) = exchange_relay(all_to_all(8), &layout, Codec::Fixed(8));
        assert_eq!(multisets(&di), multisets(&ri));
        // Every rank received one record from each peer.
        for (d, b) in di.iter().enumerate() {
            assert_eq!(b.len(), 7);
            assert!(b.iter().all(|r| r.v == d as u64));
        }
    }

    #[test]
    fn direct_message_count_is_all_pairs() {
        let layout = GroupLayout::new(8, 4);
        let (_, st) = exchange_direct(all_to_all(8), &layout, Codec::Fixed(8));
        // 8 × 7 ordered pairs, one message each (termination counted).
        assert_eq!(st.messages, 56);
        assert_eq!(st.max_send_msgs_per_rank, 7);
        assert_eq!(st.record_hops, 56);
    }

    #[test]
    fn direct_termination_messages_survive_empty_exchange() {
        let layout = GroupLayout::new(8, 4);
        let (_, st) = exchange_direct(empty(8), &layout, Codec::Fixed(8));
        assert_eq!(st.messages, 56);
        assert_eq!(st.bytes, 56 * MSG_HEADER_BYTES);
        assert_eq!(st.record_hops, 0);
    }

    #[test]
    fn relay_message_count_collapses() {
        let layout = GroupLayout::new(16, 4); // 4 groups of 4
        let (_, st) = exchange_relay(all_to_all(16), &layout, Codec::Fixed(8));
        // Per rank stage 1: 3 group-mates + 3 remote groups = 6;
        // stage 2 forwards ≤ 3. Total ≤ 16 × 9 = 144, far below direct 240.
        let (_, direct) = exchange_direct(all_to_all(16), &layout, Codec::Fixed(8));
        assert!(st.messages < direct.messages, "{} !< {}", st.messages, direct.messages);
        assert_eq!(st.max_send_msgs_per_rank, 9);
    }

    #[test]
    fn relayed_records_pay_two_hops() {
        let layout = GroupLayout::new(8, 4);
        // One record crossing groups: 0 -> 5.
        let mut out = empty(8);
        out[0].push(5, rec(0, 5));
        let (inbox, st) = exchange_relay(out, &layout, Codec::Fixed(8));
        assert_eq!(inbox[5], vec![rec(0, 5)]);
        assert_eq!(st.record_hops, 2);
        // Relay node: group of 5 is 1, column of 0 is 0 -> node 4.
        // Stage 1 bytes cross groups; stage 2 bytes do not.
        assert!(st.inter_group_bytes > 0);
        assert!(st.inter_group_bytes < st.bytes);
    }

    #[test]
    fn intra_group_records_skip_the_relay() {
        let layout = GroupLayout::new(8, 4);
        let mut out = empty(8);
        out[0].push(2, rec(0, 2));
        let (inbox, st) = exchange_relay(out, &layout, Codec::Fixed(8));
        assert_eq!(inbox[2], vec![rec(0, 2)]);
        assert_eq!(st.record_hops, 1);
        // Only stage-1 termination headers cross groups (8 ranks x 1
        // remote group x 1 header); the record itself stays inside.
        assert_eq!(st.inter_group_bytes, 8 * MSG_HEADER_BYTES);
    }

    #[test]
    fn relay_to_self_destination_works() {
        // Record whose final destination IS the relay node.
        let layout = GroupLayout::new(8, 4);
        let mut out = empty(8);
        // src 0 (group 0, col 0) -> dst 4 (group 1, col 0): relay is node 4
        // itself.
        out[0].push(4, rec(0, 4));
        let (inbox, st) = exchange_relay(out, &layout, Codec::Fixed(8));
        assert_eq!(inbox[4], vec![rec(0, 4)]);
        assert_eq!(st.record_hops, 1);
    }

    #[test]
    fn big_payload_splits_into_batches() {
        let layout = GroupLayout::new(2, 2);
        let n = (MAX_BATCH_BYTES / 8 + 10) as usize;
        let mut out = empty(2);
        for i in 0..n {
            out[0].push(1, rec(i as u64, 1));
        }
        let (_, st) = exchange_direct(out, &layout, Codec::Fixed(8));
        assert_eq!(st.messages, 2 + 1); // 2 batches s0->s1, 1 termination s1->s0
    }

    #[test]
    fn inter_group_classification_direct() {
        let layout = GroupLayout::new(8, 4);
        let mut out = empty(8);
        out[0].push(1, rec(0, 1)); // same group
        out[0].push(7, rec(0, 7)); // cross group
        let (_, st) = exchange_direct(out, &layout, Codec::Fixed(8));
        // Only the 0->7 bytes cross; termination messages to the other 6
        // peers: 5 of them... all (s,d) pairs get termination, crossing
        // ones counted too.
        assert!(st.inter_group_bytes > 0);
        assert!(st.inter_group_bytes < st.bytes);
    }

    #[test]
    fn random_pattern_delivery_matches_direct() {
        let ranks = 12;
        let layout = GroupLayout::new(12, 5); // uneven trailing group
        let (di, _) = exchange_direct(random_out(ranks, 42), &layout, Codec::Fixed(8));
        let (ri, _) = exchange_relay(random_out(ranks, 42), &layout, Codec::Fixed(8));
        assert_eq!(multisets(&di), multisets(&ri));
        // Every destination got exactly the records addressed to it.
        for (d, b) in di.iter().enumerate() {
            assert!(b.iter().all(|r| r.v == d as u64));
        }
    }
}
