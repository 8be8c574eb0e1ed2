//! Differential tests of the pooled arena exchange against the seed's
//! allocate-classify-push exchange, which lives here (and only here) as
//! the oracle.
//!
//! * A fixed matrix of layouts, seeds and codecs: identical inboxes *in
//!   the same order* and identical wire statistics.
//! * Property tests over random traffic shapes, layouts, transports and
//!   codecs: identical per-destination multisets and wire statistics,
//!   cold and warm arena.
//! * Whole BFS runs at Graph500 scale 16: the engine over [`SeedExchange`],
//!   a test fabric that routes every phase through the seed path, must
//!   produce bit-identical parents and level statistics to the engine
//!   over the pooled [`SharedMem`] fabric.

use proptest::prelude::*;
use std::collections::BTreeMap;
use sw_graph::{generate_kronecker, KroneckerConfig};
use sw_net::GroupLayout;
use sw_trace::Tracer;
use swbfs_core::arena::ExchangeArena;
use swbfs_core::config::Messaging;
use swbfs_core::engine::{ClusterBuilder, SharedMem, Transport};
use swbfs_core::error::ExchangeError;
use swbfs_core::exchange::{Codec, ExchangeStats, MAX_BATCH_BYTES, MSG_HEADER_BYTES};
use swbfs_core::faults::FaultSession;
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;
use swbfs_core::BfsConfig;

/// The seed's exchange, kept verbatim as the oracle.
mod seed {
    use super::*;

    fn msgs_for(payload: u64) -> u64 {
        // At least the termination indicator; big payloads split into batches.
        1 + payload / MAX_BATCH_BYTES
    }

    fn group_bounds(layout: &GroupLayout, group: u32) -> (u32, u32) {
        let start = group * layout.group_size();
        (start, start + layout.group_size_of(group))
    }

    /// Dispatch over [`exchange_direct`]/[`exchange_relay`].
    pub fn exchange(
        mode: Messaging,
        out: Vec<Vec<Vec<EdgeRec>>>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        match mode {
            Messaging::Direct => exchange_direct(out, layout, codec),
            Messaging::Relay => exchange_relay(out, layout, codec),
        }
    }

    /// Direct point-to-point delivery.
    pub fn exchange_direct(
        out: Vec<Vec<Vec<EdgeRec>>>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        let ranks = out.len();
        let mut stats = ExchangeStats::default();
        let mut inbox: Vec<Vec<EdgeRec>> = vec![Vec::new(); ranks];
        for (s, boxes) in out.iter().enumerate() {
            let mut send_msgs = 0u64;
            let mut send_bytes = 0u64;
            for (d, recs) in boxes.iter().enumerate() {
                if d == s {
                    // Self-records are a module bug; generators claim locally.
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
                inbox[d].extend_from_slice(recs);
            }
            stats.messages += send_msgs;
            stats.bytes += send_bytes;
            stats.max_send_msgs_per_rank = stats.max_send_msgs_per_rank.max(send_msgs);
            stats.max_send_bytes_per_rank = stats.max_send_bytes_per_rank.max(send_bytes);
        }
        (inbox, stats)
    }

    /// Two-stage relayed delivery with group batching.
    pub fn exchange_relay(
        out: Vec<Vec<Vec<EdgeRec>>>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        let ranks = out.len();
        let groups = layout.num_groups() as usize;
        let mut stats = ExchangeStats::default();

        // Per-rank send accounting, accumulated over both stages.
        let mut send_msgs = vec![0u64; ranks];
        let mut send_bytes = vec![0u64; ranks];

        // Stage 1: source → relay (batched per destination group), or direct
        // delivery within the source's own group.
        // relay_inbox[r] holds (final_dest, rec) streams, in source order.
        let mut relay_inbox: Vec<Vec<(u32, EdgeRec)>> = vec![Vec::new(); ranks];
        let mut inbox: Vec<Vec<EdgeRec>> = vec![Vec::new(); ranks];

        for (s, boxes) in out.iter().enumerate() {
            let s = s as u32;
            let my_group = layout.group_of(s);
            // Batch records per destination group.
            let mut per_group: Vec<Vec<(u32, EdgeRec)>> = vec![Vec::new(); groups];
            for (d, recs) in boxes.iter().enumerate() {
                let d = d as u32;
                if d == s {
                    debug_assert!(recs.is_empty(), "self-addressed records");
                    continue;
                }
                for &r in recs {
                    per_group[layout.group_of(d) as usize].push((d, r));
                }
            }
            // Own group: deliver directly to each group-mate (one message per
            // mate, termination included).
            let (gs, ge) = group_bounds(layout, my_group);
            for d in gs..ge {
                if d == s {
                    continue;
                }
                let recs: Vec<EdgeRec> = per_group[my_group as usize]
                    .iter()
                    .filter(|(dest, _)| *dest == d)
                    .map(|&(_, r)| r)
                    .collect();
                let payload = codec.payload_bytes(&recs);
                let msgs = msgs_for(payload);
                let bytes = payload + msgs * MSG_HEADER_BYTES;
                send_msgs[s as usize] += msgs;
                send_bytes[s as usize] += bytes;
                stats.record_hops += recs.len() as u64;
                inbox[d as usize].extend(recs);
            }
            // Remote groups: one batched message to the group's relay node.
            for g in 0..groups as u32 {
                if g == my_group {
                    continue;
                }
                let batch = &per_group[g as usize];
                let relay = layout.node_at(g, layout.index_of(s));
                let batch_recs: Vec<EdgeRec> = batch.iter().map(|&(_, r)| r).collect();
                let payload = codec.payload_bytes(&batch_recs);
                let msgs = msgs_for(payload);
                let bytes = payload + msgs * MSG_HEADER_BYTES;
                send_msgs[s as usize] += msgs;
                send_bytes[s as usize] += bytes;
                stats.record_hops += batch.len() as u64;
                stats.inter_group_bytes += bytes;
                relay_inbox[relay as usize].extend(batch.iter().copied());
            }
        }

        // Stage 2: the Relay module — re-bucket by final destination and
        // forward inside the group.
        for (r, stream) in relay_inbox.iter().enumerate() {
            let r = r as u32;
            let my_group = layout.group_of(r);
            let (gs, ge) = group_bounds(layout, my_group);
            for d in gs..ge {
                let recs: Vec<EdgeRec> = stream
                    .iter()
                    .filter(|(dest, _)| *dest == d)
                    .map(|(_, rec)| *rec)
                    .collect();
                if d == r {
                    // Records whose final destination is the relay itself.
                    inbox[d as usize].extend(recs);
                    continue;
                }
                let payload = codec.payload_bytes(&recs);
                let msgs = msgs_for(payload);
                let bytes = payload + msgs * MSG_HEADER_BYTES;
                send_msgs[r as usize] += msgs;
                send_bytes[r as usize] += bytes;
                stats.record_hops += recs.len() as u64;
                inbox[d as usize].extend(recs);
            }
        }

        for s in 0..ranks {
            stats.messages += send_msgs[s];
            stats.bytes += send_bytes[s];
            stats.max_send_msgs_per_rank = stats.max_send_msgs_per_rank.max(send_msgs[s]);
            stats.max_send_bytes_per_rank = stats.max_send_bytes_per_rank.max(send_bytes[s]);
        }
        (inbox, stats)
    }
}

/// A test-only fabric: every fault-free phase goes through the seed
/// exchange; outbox lending, recycling, tracing and the fault layer
/// (which the seed never had) are `inner`'s.
struct SeedExchange<T> {
    inner: T,
}

impl<T: Transport> Transport for SeedExchange<T> {
    fn name(&self) -> &'static str {
        "seed-exchange"
    }

    fn setup(&mut self, num_ranks: usize) {
        self.inner.setup(num_ranks);
    }

    fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        self.inner.lend_outboxes()
    }

    fn exchange(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> Result<(Vec<Vec<EdgeRec>>, ExchangeStats), ExchangeError> {
        let nested = out.into_iter().map(Outboxes::into_inner).collect();
        Ok(seed::exchange(mode, nested, layout, codec))
    }

    fn exchange_faulty(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        self.inner
            .exchange_faulty(mode, out, layout, codec, session)
    }

    fn recycle_inboxes(&mut self, inboxes: Vec<Vec<EdgeRec>>) {
        self.inner.recycle_inboxes(inboxes);
    }

    fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.inner.set_tracer(tracer);
    }

    fn set_trace_level(&mut self, level: u32) {
        self.inner.set_trace_level(level);
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The same random traffic in both representations: flat arena outboxes
/// and the seed's nested per-destination vectors, identical push order.
fn traffic(ranks: usize, seed: u64) -> (Vec<Outboxes>, Vec<Vec<Vec<EdgeRec>>>) {
    let mut st = seed;
    let mut flat: Vec<Outboxes> = (0..ranks).map(|_| Outboxes::new(ranks)).collect();
    let mut nested: Vec<Vec<Vec<EdgeRec>>> = vec![vec![Vec::new(); ranks]; ranks];
    for s in 0..ranks {
        let n = (splitmix(&mut st) % 48) as usize;
        for _ in 0..n {
            let d = (splitmix(&mut st) as usize) % ranks;
            if d == s {
                continue; // the exchange never ships rank-to-self records
            }
            let rec = EdgeRec {
                u: splitmix(&mut st) % (1 << 20),
                v: splitmix(&mut st) % (1 << 20),
            };
            flat[s].push(d as u32, rec);
            nested[s][d].push(rec);
        }
    }
    (flat, nested)
}

/// Deterministic pseudo-random nested traffic: 50 draws per source.
fn random_out(ranks: usize, seed: u64) -> Vec<Vec<Vec<EdgeRec>>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<Vec<EdgeRec>>> = vec![vec![vec![]; ranks]; ranks];
    for (s, row) in out.iter_mut().enumerate() {
        for _ in 0..50 {
            let d = rng.gen_range(0..ranks);
            if d == s {
                continue;
            }
            row[d].push(EdgeRec {
                u: rng.gen_range(0..1000),
                v: d as u64,
            });
        }
    }
    out
}

/// One exchange of nested `out[s][d]` traffic through a fresh arena, as
/// flat outboxes (per-pair push order kept).
fn pooled(
    mode: Messaging,
    nested: &[Vec<Vec<EdgeRec>>],
    layout: &GroupLayout,
    codec: Codec,
) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
    let ranks = nested.len();
    let mut flat: Vec<Outboxes> = (0..ranks).map(|_| Outboxes::new(ranks)).collect();
    for (o, row) in flat.iter_mut().zip(nested) {
        for (d, recs) in row.iter().enumerate() {
            for &r in recs {
                o.push(d as u32, r);
            }
        }
    }
    ExchangeArena::new(ranks).exchange(mode, flat, layout, codec)
}

fn multiset(recs: &[EdgeRec]) -> BTreeMap<EdgeRec, usize> {
    let mut m = BTreeMap::new();
    for &r in recs {
        *m.entry(r).or_insert(0) += 1;
    }
    m
}

/// The pooled pipeline must reproduce the seed implementation
/// bit-for-bit: same inbox contents *in the same order*, same wire
/// stats — across both transports, uneven trailing groups included.
#[test]
fn arena_matches_legacy_exactly() {
    for &(ranks, group) in &[(8usize, 4u32), (12, 5), (16, 4), (9, 3), (7, 7), (5, 2)] {
        let layout = GroupLayout::new(ranks as u32, group);
        for seed in 0..4 {
            for &codec in &[Codec::Fixed(16), Codec::Compressed] {
                let nested = random_out(ranks, seed);
                let (di, ds) = pooled(Messaging::Direct, &nested, &layout, codec);
                let (ldi, lds) = seed::exchange_direct(nested.clone(), &layout, codec);
                assert_eq!(di, ldi, "direct inbox order r={ranks} g={group} s={seed}");
                assert_eq!(ds.wire(), lds.wire(), "direct stats r={ranks} g={group}");

                let (ri, rs) = pooled(Messaging::Relay, &nested, &layout, codec);
                let (lri, lrs) = seed::exchange_relay(nested, &layout, codec);
                assert_eq!(ri, lri, "relay inbox order r={ranks} g={group} s={seed}");
                assert_eq!(rs.wire(), lrs.wire(), "relay stats r={ranks} g={group}");
            }
        }
    }
}

/// Acceptance gate for the pooled exchange: at Graph500 scale 16 the
/// engine over the arena must produce *bit-identical* parent maps (and
/// level stats) to the engine over the seed exchange, on both messaging
/// modes.
#[test]
fn arena_parents_bit_identical_to_legacy_at_scale_16() {
    let el = generate_kronecker(&KroneckerConfig::graph500(16, 42));
    for msg in [Messaging::Direct, Messaging::Relay] {
        let cfg = BfsConfig::threaded_small(4).with_messaging(msg);
        let mut pooled = ClusterBuilder::new(&el, 8, cfg).build().unwrap();
        let mut legacy = ClusterBuilder::new(&el, 8, cfg)
            .transport(SeedExchange {
                inner: SharedMem::new(),
            })
            .build()
            .unwrap();
        let root = (0..512).max_by_key(|&v| pooled.degree_of(v)).unwrap();
        let op = pooled.run(root).unwrap();
        let ol = legacy.run(root).unwrap();
        assert_eq!(op.parents, ol.parents, "{msg:?} parent maps diverge");
        assert_eq!(op.levels, ol.levels, "{msg:?} level stats diverge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn arena_matches_seed_exchange(
        ranks in 1usize..12,
        group in 1u32..12,
        seed in 0u64..u64::MAX,
        relay in any::<bool>(),
        compressed in any::<bool>(),
    ) {
        let layout = GroupLayout::new(ranks as u32, group.min(ranks as u32));
        let mode = if relay { Messaging::Relay } else { Messaging::Direct };
        let codec = if compressed { Codec::Compressed } else { Codec::Fixed(16) };
        let (flat, nested) = traffic(ranks, seed);

        let mut arena = ExchangeArena::new(ranks);
        let (arena_in, arena_stats) = arena.exchange(mode, flat, &layout, codec);
        let (seed_in, seed_stats) = seed::exchange(mode, nested, &layout, codec);

        prop_assert_eq!(arena_in.len(), seed_in.len());
        for d in 0..ranks {
            prop_assert_eq!(multiset(&arena_in[d]), multiset(&seed_in[d]));
        }
        prop_assert_eq!(arena_stats.wire(), seed_stats.wire());
    }

    /// Recycling and re-lending must not change delivery: a second
    /// exchange through the same (now warm) arena equals a fresh one.
    #[test]
    fn warm_arena_equals_cold_arena(
        ranks in 1usize..8,
        group in 1u32..8,
        seed in 0u64..u64::MAX,
    ) {
        let layout = GroupLayout::new(ranks as u32, group.min(ranks as u32));
        let mut warm = ExchangeArena::new(ranks);
        // Warm-up round with different traffic.
        let (w, _) = traffic(ranks, seed ^ 0xDEAD_BEEF);
        let (inboxes, _) = warm.exchange(Messaging::Relay, w, &layout, Codec::Fixed(16));
        warm.recycle_inboxes(inboxes);

        let (flat, nested) = traffic(ranks, seed);
        let (warm_in, warm_stats) = warm.exchange(Messaging::Relay, flat, &layout, Codec::Fixed(16));
        let (seed_in, seed_stats) = seed::exchange_relay(nested, &layout, Codec::Fixed(16));
        prop_assert_eq!(&warm_in, &seed_in);
        prop_assert_eq!(warm_stats.wire(), seed_stats.wire());
    }
}
