//! Pooled, allocation-free exchange pipeline.
//!
//! The seed implementation of [`crate::exchange`] materialized, per BFS
//! level, a `ranks × ranks` matrix of `Vec<EdgeRec>` outboxes, a second
//! `Vec<Vec<(u32, EdgeRec)>>` for the relay stage, and fresh inbox
//! vectors — hundreds of short-lived heap allocations per level, all of
//! which would be node-local scratch on the real machine (the CPEs write
//! into fixed LDM-backed buffers; §4.3's shuffle engine never allocates).
//!
//! [`ExchangeArena`] replaces that with a pooled, two-pass pipeline:
//!
//! 1. **Count + prefix sum** (parallel over source ranks): each source's
//!    flat push-order outbox ([`Outboxes`]) is counting-sorted into a
//!    pooled per-source buffer, bucketed by destination. The bucket-end
//!    table doubles as the scatter cursor — one `ranks × ranks` matrix,
//!    no per-record `push`.
//! 2. **Scatter/assembly** (parallel over destination ranks): every
//!    destination's inbox is assembled by copying contiguous bucket
//!    slices; the relay stage is pure offset algebra over the same sorted
//!    buffers ([`GroupLayout`]'s row/column addressing), so the
//!    intermediate per-relay materialization disappears entirely.
//!
//! All buffers — outboxes, sorted copies, bucket tables, inboxes — are
//! checked out per level and recycled across levels and BFS roots.
//! [`ExchangeStats::pool_allocs`] counts the pooled acquisitions that
//! had to touch the heap; in steady state (second root onward) it is 0.
//!
//! Under an armed fault session [`ExchangeArena::exchange_faulty`]
//! buckets once, hands the bucket counts to the session's one
//! `verdict` — which decides the messages, their
//! order and the degradations for every fabric — and assembles once
//! under the winning (mode, codec).

use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{group_bounds, msgs_for, Codec, ExchangeStats, MSG_HEADER_BYTES};
use crate::faults::FaultSession;
use crate::instrument as ins;
use crate::messages::EdgeRec;
use crate::modules::Outboxes;
use rayon::prelude::*;
use sw_net::GroupLayout;
use sw_trace::{ClockDomain, Tracer, NO_LEVEL};

const FILL: EdgeRec = EdgeRec { u: 0, v: 0 };

/// Per-relay forwarding contributions discovered while assembling one
/// destination's inbox: `(relay rank, messages, bytes, record hops)`.
type ForwardStats = Vec<(u32, u64, u64, u64)>;

/// Forwarding stats plus the destination's `(pool allocations, reused bytes)`.
type AssembleStats = (ForwardStats, u64, u64);

/// Per-source traffic contribution computed in the counting pass.
#[derive(Clone, Copy, Default)]
struct SrcStats {
    send_msgs: u64,
    send_bytes: u64,
    record_hops: u64,
    inter_group_bytes: u64,
}

/// Reusable buffers for the exchange hot path, owned by a cluster and
/// recycled across levels and roots.
///
/// Every pool is **slot-stable**: the buffer lent for source rank `s`
/// (or destination `d`) always returns to slot `s` (`d`). Per-rank
/// traffic volumes are stable across levels and repeated roots, so
/// slot-stable recycling converges to zero reallocation; a LIFO pool
/// would keep shuffling capacities between ranks and re-grow forever.
#[derive(Debug)]
pub struct ExchangeArena {
    ranks: usize,
    /// Per-source outbox buffer pairs, taken by [`Self::lend_outboxes`],
    /// returned by [`Self::exchange`].
    out_slots: Vec<(Vec<EdgeRec>, Vec<u32>)>,
    /// Per-source destination-bucketed copies of the outbox streams.
    sorted: Vec<Vec<EdgeRec>>,
    /// `ranks × ranks` bucket-end matrix; row `s` holds the end offset of
    /// every destination bucket inside `sorted[s]`.
    ends: Vec<usize>,
    /// Per-destination inbox buffers, taken by [`Self::exchange`],
    /// returned by [`Self::recycle_inboxes`].
    inbox_slots: Vec<Vec<EdgeRec>>,
    /// Armed span recorder: bucket/deliver spans per rank lane, relay
    /// spans (wall domain only), retry/fault instants. `None` keeps the
    /// hot path at one branch per pass.
    trace: Option<Tracer>,
    /// BFS level tag for recorded spans (set by the owning cluster).
    trace_level: u32,
}

impl ExchangeArena {
    /// An arena for a job of `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "empty job");
        Self {
            ranks,
            out_slots: (0..ranks).map(|_| Default::default()).collect(),
            sorted: (0..ranks).map(|_| Vec::new()).collect(),
            ends: vec![0; ranks * ranks],
            inbox_slots: (0..ranks).map(|_| Vec::new()).collect(),
            trace: None,
            trace_level: NO_LEVEL,
        }
    }

    /// Job size this arena serves.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Arms (or disarms with `None`) span recording on the exchange
    /// passes.
    pub fn set_tracer(&mut self, trace: Option<Tracer>) {
        self.trace = trace;
    }

    /// Tags subsequently recorded spans with `level`.
    pub fn set_trace_level(&mut self, level: u32) {
        self.trace_level = level;
    }

    /// Checks out one flat outbox per source rank, reusing pooled
    /// buffers. The returned outboxes are owned by the caller (so
    /// generator threads can fill them without borrowing the arena) and
    /// come back via [`Self::exchange`].
    pub fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        (0..self.ranks)
            .map(|s| {
                let (recs, dests) = std::mem::take(&mut self.out_slots[s]);
                Outboxes::from_pooled(self.ranks, recs, dests)
            })
            .collect()
    }

    /// Returns inbox buffers received from [`Self::exchange`] to the
    /// pool once the handlers are done with them.
    pub fn recycle_inboxes(&mut self, inboxes: Vec<Vec<EdgeRec>>) {
        assert_eq!(inboxes.len(), self.ranks, "one inbox per destination");
        for (d, mut b) in inboxes.into_iter().enumerate() {
            b.clear();
            self.inbox_slots[d] = b;
        }
    }

    /// Delivers `out[s]`'s records to their destination ranks and
    /// returns per-destination inboxes (pooled buffers — give them back
    /// with [`Self::recycle_inboxes`]) plus traffic stats.
    ///
    /// Inbox ordering is identical to the seed's nested-`Vec`
    /// implementation: Direct inboxes hold sources in ascending order;
    /// Relay inboxes hold the intra-group deliveries (sources ascending)
    /// followed by the relayed streams (relay nodes ascending, sources
    /// ascending within each relay). Within one (source, destination)
    /// pair, push order is preserved.
    pub fn exchange(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        let (allocs, reused) = self.bucket_pass(out);
        let (inboxes, mut stats) = self.deliver(mode, layout, codec);
        stats.pool_allocs += allocs;
        stats.pool_reused_bytes += reused;
        (inboxes, stats)
    }

    /// [`Self::exchange`] with an armed fault session: the records are
    /// bucketed once, the session's `FaultSession::verdict` picks the
    /// surviving variant over the bucket counts, and the inboxes are
    /// assembled once under it — no re-allocation, no re-bucketing.
    ///
    /// Stats are returned on both success and failure (the fault
    /// counters of a failed phase are part of the record); wire-traffic
    /// stats count only the successful delivery, so survivable runs stay
    /// bit-identical to fault-free ones.
    pub fn exchange_faulty(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        let (allocs, reused) = self.bucket_pass(out);
        let ranks = self.ranks;
        let count = |s: usize, d: usize| {
            bucket(&self.sorted[s], &self.ends[s * ranks..(s + 1) * ranks], d).len() as u64
        };
        let (verdict, mut stats) = session.verdict(
            mode,
            layout,
            count,
            codec,
            self.trace.as_ref(),
            self.trace_level,
        );
        stats.pool_allocs += allocs;
        stats.pool_reused_bytes += reused;
        let result = verdict.map(|(mode, codec)| {
            let (inboxes, wire) = self.deliver(mode, layout, codec);
            stats.absorb(&wire);
            inboxes
        });
        session.end_phase();
        (result, stats)
    }

    /// Pass 1 — count, prefix-sum, scatter, per source rank. Each
    /// source owns one `sorted` buffer and one row of the bucket-end
    /// matrix, so the pass is embarrassingly parallel. Consumes the
    /// outboxes (recycling their buffers into the pool) and returns the
    /// `(pool allocations, reused bytes)` the pass cost.
    fn bucket_pass(&mut self, out: Vec<Outboxes>) -> (u64, u64) {
        let ranks = self.ranks;
        assert_eq!(out.len(), ranks, "one outbox per source rank");
        debug_assert!(out.iter().all(|o| o.ranks() == ranks));

        let trace = self.trace.clone();
        let trace = trace.as_ref();
        let lvl = self.trace_level;
        let per_src: Vec<(u64, u64)> = out
            .par_iter()
            .zip(self.sorted.par_iter_mut())
            .zip(self.ends.par_chunks_mut(ranks))
            .enumerate()
            .map(|(s, ((outbox, sorted_s), ends_row))| {
                let (recs, dests) = outbox.parts();
                // Bucket work (= records sorted) is mode-independent, so
                // virtual-domain bucket spans match across transports.
                let t0 = ins::span_begin(trace);
                let res = bucket_by_dest(recs, dests, sorted_s, ends_row);
                ins::span_end(trace, s, ins::SPAN_BUCKET, ins::CAT_COMPUTE, lvl, t0, recs.len() as u64);
                res
            })
            .collect();

        let (mut allocs, mut reused) = (0u64, 0u64);
        for (a, r) in per_src {
            allocs += a;
            reused += r;
        }

        // Outbox buffers are spent; recycle them into their slots and
        // account the heap work their growth (if any) cost during
        // generation.
        for (s, o) in out.into_iter().enumerate() {
            let lent = o.lent_capacity();
            let (recs, dests) = o.into_parts();
            if recs.capacity() > lent {
                allocs += 1;
            } else {
                reused += (recs.len() * EdgeRec::WIRE_BYTES) as u64;
            }
            self.out_slots[s] = (recs, dests);
        }
        (allocs, reused)
    }

    /// Stats + assembly over the already-bucketed `sorted`/`ends`
    /// buffers — the one delivery step of [`Self::exchange`] and
    /// [`Self::exchange_faulty`]'s surviving variant.
    fn deliver(
        &mut self,
        mode: Messaging,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        let ranks = self.ranks;
        debug_assert!(layout.nodes() as usize == ranks, "layout/job mismatch");

        let mut stats = ExchangeStats::default();
        let sorted_ref = &self.sorted;
        let ends_ref = &self.ends;
        let src_stats: Vec<SrcStats> = (0..ranks)
            .into_par_iter()
            .map(|s| {
                let sorted_s = &sorted_ref[s];
                let ends_row = &ends_ref[s * ranks..(s + 1) * ranks];
                match mode {
                    Messaging::Direct => direct_src_stats(s, sorted_s, ends_row, layout, codec),
                    Messaging::Relay => relay_src_stats(s, sorted_s, ends_row, layout, codec),
                }
            })
            .collect();

        let mut send_msgs = vec![0u64; ranks];
        let mut send_bytes = vec![0u64; ranks];
        for (s, st) in src_stats.iter().enumerate() {
            send_msgs[s] = st.send_msgs;
            send_bytes[s] = st.send_bytes;
            stats.record_hops += st.record_hops;
            stats.inter_group_bytes += st.inter_group_bytes;
        }

        // Pass 2 — assemble every destination's inbox from contiguous
        // bucket slices. Each destination owns its inbox buffer, so this
        // pass is parallel over destinations; the per-relay forwarding
        // stats it discovers are merged afterwards.
        let mut inboxes: Vec<Vec<EdgeRec>> = (0..ranks)
            .map(|d| std::mem::take(&mut self.inbox_slots[d]))
            .collect();
        let sorted = &self.sorted;
        let ends = &self.ends;
        let trace = self.trace.clone();
        let trace = trace.as_ref();
        let lvl = self.trace_level;
        let deliver0 = ins::span_begin(trace);
        let dst_stats: Vec<AssembleStats> = inboxes
            .par_iter_mut()
            .enumerate()
            .map(|(d, inbox)| {
                // Deliver work (= records received) is identical across
                // transports — both deliver the same multiset.
                let t0 = ins::span_begin(trace);
                let res = match mode {
                    Messaging::Direct => {
                        let (allocs, reused) = assemble_direct(d, sorted, ends, ranks, inbox);
                        (Vec::new(), allocs, reused)
                    }
                    Messaging::Relay => {
                        assemble_relay(d, sorted, ends, ranks, layout, codec, inbox)
                    }
                };
                ins::span_end(trace, d, ins::SPAN_DELIVER, ins::CAT_NET, lvl, t0, inbox.len() as u64);
                res
            })
            .collect();

        for (forwards, allocs, reused) in dst_stats {
            for (r, msgs, bytes, hops) in forwards {
                // Relay forwarding is a transport artifact: record it
                // only in the wall domain so virtual traces stay
                // transport-invariant.
                if let Some(t) = trace {
                    if t.domain() == ClockDomain::Wall && (r as usize) < t.num_lanes() {
                        let now = t.begin();
                        t.span_at(
                            r as usize,
                            ins::SPAN_RELAY,
                            ins::CAT_NET,
                            lvl,
                            deliver0,
                            now.saturating_sub(deliver0),
                            hops,
                        );
                    }
                }
                send_msgs[r as usize] += msgs;
                send_bytes[r as usize] += bytes;
                stats.record_hops += hops;
            }
            stats.pool_allocs += allocs;
            stats.pool_reused_bytes += reused;
        }

        for s in 0..ranks {
            stats.messages += send_msgs[s];
            stats.bytes += send_bytes[s];
            stats.max_send_msgs_per_rank = stats.max_send_msgs_per_rank.max(send_msgs[s]);
            stats.max_send_bytes_per_rank = stats.max_send_bytes_per_rank.max(send_bytes[s]);
        }
        (inboxes, stats)
    }
}

/// Counting sort of one source's flat outbox stream into `sorted_s`,
/// bucketed by destination. On return `ends_row[d]` is the end offset of
/// destination `d`'s bucket (the start is `ends_row[d - 1]`, or 0).
/// Returns (pool allocations, bytes placed into reused capacity).
fn bucket_by_dest(
    recs: &[EdgeRec],
    dests: &[u32],
    sorted_s: &mut Vec<EdgeRec>,
    ends_row: &mut [usize],
) -> (u64, u64) {
    let n = recs.len();
    let (allocs, reused) = if n > sorted_s.capacity() {
        (1, 0)
    } else {
        (0, (n * EdgeRec::WIRE_BYTES) as u64)
    };

    ends_row.fill(0);
    for &d in dests {
        ends_row[d as usize] += 1;
    }
    // Exclusive prefix sum: ends_row[d] becomes bucket d's start, then
    // advances as the scatter cursor, finishing at bucket d's end.
    let mut run = 0usize;
    for e in ends_row.iter_mut() {
        let c = *e;
        *e = run;
        run += c;
    }
    sorted_s.clear();
    sorted_s.resize(n, FILL);
    for (&rec, &d) in recs.iter().zip(dests) {
        let slot = ends_row[d as usize];
        sorted_s[slot] = rec;
        ends_row[d as usize] += 1;
    }
    (allocs, reused)
}

/// Destination `d`'s bucket inside source `s`'s sorted stream.
#[inline]
fn bucket<'a>(sorted_s: &'a [EdgeRec], ends_row: &[usize], d: usize) -> &'a [EdgeRec] {
    let start = if d == 0 { 0 } else { ends_row[d - 1] };
    &sorted_s[start..ends_row[d]]
}

/// The contiguous slice of source `s`'s sorted stream covering every
/// destination in `group` (destinations are bucketed in ascending order
/// and groups are contiguous rank ranges).
#[inline]
fn group_slice<'a>(
    sorted_s: &'a [EdgeRec],
    ends_row: &[usize],
    layout: &GroupLayout,
    group: u32,
) -> &'a [EdgeRec] {
    let (gs, ge) = group_bounds(layout, group);
    let start = if gs == 0 { 0 } else { ends_row[gs as usize - 1] };
    &sorted_s[start..ends_row[ge as usize - 1]]
}

/// Direct-mode traffic accounting for one source: one message (at least
/// a termination indicator) to every other rank.
fn direct_src_stats(
    s: usize,
    sorted_s: &[EdgeRec],
    ends_row: &[usize],
    layout: &GroupLayout,
    codec: Codec,
) -> SrcStats {
    let mut st = SrcStats::default();
    for d in 0..ends_row.len() {
        if d == s {
            debug_assert!(bucket(sorted_s, ends_row, d).is_empty(), "self-addressed records");
            continue;
        }
        let recs = bucket(sorted_s, ends_row, d);
        let payload = codec.payload_bytes(recs);
        let msgs = msgs_for(payload);
        let bytes = payload + msgs * MSG_HEADER_BYTES;
        st.send_msgs += msgs;
        st.send_bytes += bytes;
        st.record_hops += recs.len() as u64;
        if layout.group_of(s as u32) != layout.group_of(d as u32) {
            st.inter_group_bytes += bytes;
        }
    }
    st
}

/// Relay-mode stage-1 accounting for one source: per-mate messages
/// inside its own group, one batched message per remote group (sent to
/// that group's relay node in the source's column).
fn relay_src_stats(
    s: usize,
    sorted_s: &[EdgeRec],
    ends_row: &[usize],
    layout: &GroupLayout,
    codec: Codec,
) -> SrcStats {
    let mut st = SrcStats::default();
    let my_group = layout.group_of(s as u32);
    debug_assert!(bucket(sorted_s, ends_row, s).is_empty(), "self-addressed records");

    let (gs, ge) = group_bounds(layout, my_group);
    for d in gs..ge {
        if d as usize == s {
            continue;
        }
        let recs = bucket(sorted_s, ends_row, d as usize);
        let payload = codec.payload_bytes(recs);
        let msgs = msgs_for(payload);
        st.send_msgs += msgs;
        st.send_bytes += payload + msgs * MSG_HEADER_BYTES;
        st.record_hops += recs.len() as u64;
    }
    for g in 0..layout.num_groups() {
        if g == my_group {
            continue;
        }
        let batch = group_slice(sorted_s, ends_row, layout, g);
        let payload = codec.payload_bytes(batch);
        let msgs = msgs_for(payload);
        let bytes = payload + msgs * MSG_HEADER_BYTES;
        st.send_msgs += msgs;
        st.send_bytes += bytes;
        st.record_hops += batch.len() as u64;
        st.inter_group_bytes += bytes;
    }
    st
}

/// Direct-mode inbox assembly: sources in ascending order.
fn assemble_direct(
    d: usize,
    sorted: &[Vec<EdgeRec>],
    ends: &[usize],
    ranks: usize,
    inbox: &mut Vec<EdgeRec>,
) -> (u64, u64) {
    let needed: usize = (0..ranks)
        .map(|s| bucket(&sorted[s], &ends[s * ranks..(s + 1) * ranks], d).len())
        .sum();
    let (allocs, reused) = pool_accounting(inbox, needed);
    inbox.clear();
    for s in 0..ranks {
        inbox.extend_from_slice(bucket(&sorted[s], &ends[s * ranks..(s + 1) * ranks], d));
    }
    (allocs, reused)
}

/// Relay-mode inbox assembly for destination `d`, as in-place offset
/// algebra over the sorted source streams (no per-relay buffers):
///
/// * part A — intra-group deliveries: sources in `d`'s group, ascending;
/// * part B — relayed streams: for each relay `r` in `d`'s group
///   (ascending), the sources in `r`'s column from other groups
///   (ascending), exactly the order the seed's two-stage materialization
///   produced.
///
/// Part-B appends land contiguously per relay, so each relay→`d`
/// forwarding message is measured on the freshly assembled region.
/// Returns (per-relay forward stats, pool allocations, reused bytes).
fn assemble_relay(
    d: usize,
    sorted: &[Vec<EdgeRec>],
    ends: &[usize],
    ranks: usize,
    layout: &GroupLayout,
    codec: Codec,
    inbox: &mut Vec<EdgeRec>,
) -> AssembleStats {
    let gd = layout.group_of(d as u32);
    let (gs, ge) = group_bounds(layout, gd);
    let size_gd = ge - gs;
    let row = |s: usize| -> (&[EdgeRec], &[usize]) { (&sorted[s], &ends[s * ranks..(s + 1) * ranks]) };

    let mut needed = 0usize;
    for s in gs..ge {
        if s as usize != d {
            let (b, e) = row(s as usize);
            needed += bucket(b, e, d).len();
        }
    }
    for s in 0..ranks {
        if layout.group_of(s as u32) != gd {
            let (b, e) = row(s);
            needed += bucket(b, e, d).len();
        }
    }
    let (allocs, reused) = pool_accounting(inbox, needed);
    inbox.clear();

    // Part A: direct intra-group deliveries, sources ascending.
    for s in gs..ge {
        if s as usize == d {
            continue;
        }
        let (b, e) = row(s as usize);
        inbox.extend_from_slice(bucket(b, e, d));
    }

    // Part B: one contiguous region per relay node, relays ascending.
    let mut forwards = Vec::with_capacity(size_gd as usize);
    for r in gs..ge {
        let col = layout.index_of(r);
        let mark = inbox.len();
        for s in 0..ranks {
            if layout.group_of(s as u32) == gd {
                continue;
            }
            if layout.index_of(s as u32) % size_gd == col {
                let (b, e) = row(s);
                inbox.extend_from_slice(bucket(b, e, d));
            }
        }
        if r as usize != d {
            let recs = &inbox[mark..];
            let payload = codec.payload_bytes(recs);
            let msgs = msgs_for(payload);
            let bytes = payload + msgs * MSG_HEADER_BYTES;
            forwards.push((r, msgs, bytes, recs.len() as u64));
        }
    }
    (forwards, allocs, reused)
}

/// Did serving `needed` records from this pooled buffer require heap
/// work? Returns (allocations, bytes served from retained capacity).
fn pool_accounting(buf: &Vec<EdgeRec>, needed: usize) -> (u64, u64) {
    if needed > buf.capacity() {
        (1, 0)
    } else {
        (0, (needed * EdgeRec::WIRE_BYTES) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(u: u64, v: u64) -> EdgeRec {
        EdgeRec { u, v }
    }

    fn filled_outboxes(arena: &mut ExchangeArena, per_pair: usize) -> Vec<Outboxes> {
        let ranks = arena.ranks();
        let mut out = arena.lend_outboxes();
        for (s, o) in out.iter_mut().enumerate() {
            for d in 0..ranks {
                if d == s {
                    continue;
                }
                for k in 0..per_pair {
                    o.push(d as u32, rec((s * ranks + k) as u64, d as u64));
                }
            }
        }
        out
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let ranks = 8;
        let layout = GroupLayout::new(ranks as u32, 4);
        let mut arena = ExchangeArena::new(ranks);
        // Warm-up: first exchange allocates every pooled buffer.
        let out = filled_outboxes(&mut arena, 3);
        let (inboxes, st) = arena.exchange(Messaging::Relay, out, &layout, Codec::Fixed(16));
        assert!(st.pool_allocs > 0, "cold start must allocate");
        arena.recycle_inboxes(inboxes);
        // Steady state: same traffic shape, zero heap work.
        for _ in 0..3 {
            let out = filled_outboxes(&mut arena, 3);
            let (inboxes, st) = arena.exchange(Messaging::Relay, out, &layout, Codec::Fixed(16));
            assert_eq!(st.pool_allocs, 0, "steady state must reuse every buffer");
            assert!(st.pool_reused_bytes > 0);
            arena.recycle_inboxes(inboxes);
        }
    }

    #[test]
    fn lend_after_exchange_reuses_outbox_buffers() {
        let ranks = 4;
        let layout = GroupLayout::new(ranks as u32, 2);
        let mut arena = ExchangeArena::new(ranks);
        let out = filled_outboxes(&mut arena, 100);
        let (inboxes, _) = arena.exchange(Messaging::Direct, out, &layout, Codec::Fixed(16));
        arena.recycle_inboxes(inboxes);
        let out2 = arena.lend_outboxes();
        assert_eq!(out2.len(), ranks);
        // Pool served every lend: no pending fresh allocations.
        let (_, st) = arena.exchange(Messaging::Direct, out2, &layout, Codec::Fixed(16));
        assert_eq!(st.pool_allocs, 0);
    }

    #[test]
    fn bucketing_preserves_push_order_within_destination() {
        let recs = vec![rec(1, 0), rec(2, 1), rec(3, 0), rec(4, 1), rec(5, 0)];
        let dests = vec![0, 1, 0, 1, 0];
        let mut sorted = Vec::new();
        let mut ends = vec![0usize; 2];
        bucket_by_dest(&recs, &dests, &mut sorted, &mut ends);
        assert_eq!(bucket(&sorted, &ends, 0), &[rec(1, 0), rec(3, 0), rec(5, 0)]);
        assert_eq!(bucket(&sorted, &ends, 1), &[rec(2, 1), rec(4, 1)]);
    }
}
