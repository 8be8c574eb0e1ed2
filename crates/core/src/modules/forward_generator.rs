//! Forward Generator (Algorithm 2, `FORWARD_GENERATOR`): scan the current
//! frontier's edges, claim local targets immediately, and queue a forward
//! record `(u, v)` to `owner(v)` for remote targets — unless the replicated
//! hub-visited bitmap proves the message pointless, or this call already
//! queued a record for `v`.
//!
//! Remote records are **combined at the sender**: one record per target
//! per call, kept in a bitmap over global ids
//! (`KernelScratch::offered`). The frontier is scanned in ascending
//! id, so the first record for a target carries the smallest parent this
//! rank can offer it, and a later offer could only lose its
//! [`RankState::claim_min`] at the owner: parents, levels and every
//! counter but the records sent stay what the uncombined rule gives.
//!
//! Local claims are **cache-blocked**: the scan stages `(target, parent)`
//! pairs instead of claiming inline, then applies them grouped by target
//! block so the parent-array writes land with locality instead of
//! hopping across the whole owned range. Every claim goes through
//! [`RankState::claim_min`], so each contest's winner is its smallest
//! parent whatever order the claims are applied in: parents stay
//! bit-identical to the seed kernel, which the unit tests keep as their
//! oracle. Remote records are pushed during the scan, in scan order.
//!
//! The frontier is enumerated in ascending order: a dense one swept
//! word-parallel over its bitmap (zero words skipped with one compare),
//! a sparse one through its sorted queue.

use super::{ModuleStats, Outboxes};
use crate::hubs::HubState;
use crate::messages::EdgeRec;
use crate::rank::{tail_mask, KernelScratch, RankState};
use sw_graph::{Bitmap, Vid};

/// Local-claim block: 2^12 targets = 32 KB of parent entries, sized for
/// a core-local cache tile.
const BLOCK_BITS: u32 = 12;

/// One frontier vertex's row: hub-visited suppression (one bit test by
/// vertex id), remote push of a target not yet offered, local stage.
fn scan_vertex(
    state: &RankState,
    hubs: &HubState,
    u_local: usize,
    staged: &mut Vec<(u32, Vid)>,
    offered: &mut Bitmap,
    out: &mut Outboxes,
    stats: &mut ModuleStats,
) {
    let u = state.global(u_local);
    for &v in state.csr.neighbors_local(u_local) {
        stats.edges_scanned += 1;
        if hubs.settled_td_hub(v) {
            stats.hub_skips += 1;
            continue;
        }
        if state.owns(v) {
            staged.push((state.local(v) as u32, u));
        } else if !offered.set(v as usize) {
            out.push(state.part.owner(v), EdgeRec { u, v });
            stats.records_out += 1;
        }
    }
}

/// Runs the Forward Generator over `state`'s current frontier.
pub fn forward_generator(
    state: &mut RankState,
    hubs: &HubState,
    out: &mut Outboxes,
) -> ModuleStats {
    let mut stats = ModuleStats::default();
    let mut scratch = std::mem::take(&mut state.scratch);
    let KernelScratch {
        staged,
        cursors,
        order,
        offered,
        ..
    } = &mut scratch;
    let n = state.part.num_vertices() as usize;
    if offered.len() != n {
        *offered = Bitmap::new(n);
    }
    offered.clear_all();

    // Pass 1 — scan: remote records out in scan order (the first offer
    // of each target only), local claims staged as (target, parent) in
    // scan order. Frontier enumeration is
    // the sorted queue while sparse, a word-parallel bitmap sweep once
    // dense — ascending either way, as the reference kernel's
    // `curr.iter()`.
    staged.clear();
    if state.curr.is_sparse() {
        for u_local in state.curr.iter() {
            scan_vertex(state, hubs, u_local, staged, offered, out, &mut stats);
        }
    } else {
        let bits = state.curr.as_bitmap();
        let len = bits.len();
        for (wi, &word) in bits.words().iter().enumerate() {
            stats.words_scanned += 1;
            let mut w = word & tail_mask(wi, len);
            if w == 0 {
                stats.words_skipped += 1;
                continue;
            }
            while w != 0 {
                let u_local = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                scan_vertex(state, hubs, u_local, staged, offered, out, &mut stats);
            }
        }
    }

    // Pass 2 — blocked claim: counting sort by target block, then
    // min-parent claims block by block.
    let num_blocks = (state.owned() >> BLOCK_BITS) + 1;
    cursors.clear();
    cursors.resize(num_blocks + 1, 0);
    for &(vl, _) in staged.iter() {
        cursors[(vl >> BLOCK_BITS) as usize + 1] += 1;
    }
    for b in 0..num_blocks {
        cursors[b + 1] += cursors[b];
    }
    order.clear();
    order.resize(staged.len(), 0);
    for (idx, &(vl, _)) in staged.iter().enumerate() {
        let c = &mut cursors[(vl >> BLOCK_BITS) as usize];
        order[*c as usize] = idx as u32;
        *c += 1;
    }
    for &idx in order.iter() {
        let (vl, u) = staged[idx as usize];
        if state.claim_min(vl as usize, u) {
            stats.local_claims += 1;
        }
    }
    state.scratch = scratch;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::sequential_bfs_levels;
    use crate::config::{BfsConfig, Messaging};
    use crate::engine::ClusterBuilder;
    use crate::modules::{forward_handler, reference};
    use crate::policy::Direction;
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};
    use sw_graph::hub::HubSet;
    use sw_graph::{EdgeList, Partition1D};

    fn setup() -> (RankState, HubState) {
        // 8 vertices over 2 ranks; rank 0 owns 0..4.
        // Edges: 0-1 (local to r0), 0-5 (remote), 0-6 (remote hub), 1-2.
        let el = EdgeList::new(8, vec![(0, 1), (0, 5), (0, 6), (1, 2)]);
        let part = Partition1D::new(8, 2);
        let state = RankState::build(0, part, &el);
        let hubs = HubState::new(HubSet::from_degrees(vec![(6, 50)], 4));
        (state, hubs)
    }

    /// Engine-style seeding: claim then promote, keeping parent map,
    /// visited bitmap, and frontier consistent.
    fn seed_frontier(state: &mut RankState, members: &[(usize, Vid)]) {
        for &(local, parent) in members {
            state.claim(local, parent);
        }
        state.advance_level();
    }

    #[test]
    fn claims_local_and_queues_remote() {
        let (mut state, hubs) = setup();
        seed_frontier(&mut state, &[(0, 0)]); // frontier = {0}
        let mut out = Outboxes::new(2);
        let stats = forward_generator(&mut state, &hubs, &mut out);
        assert_eq!(stats.edges_scanned, 3);
        assert_eq!(stats.local_claims, 1); // v=1
        assert_eq!(stats.records_out, 2); // v=5, v=6 (hub not yet visited)
        assert_eq!(out.for_rank(1), &[EdgeRec { u: 0, v: 5 }, EdgeRec { u: 0, v: 6 }]);
        assert!(state.visited(1));
        assert!(state.next.contains(1));
    }

    #[test]
    fn hub_visited_suppresses_message() {
        let (mut state, mut hubs) = setup();
        seed_frontier(&mut state, &[(0, 0)]);
        hubs.mark_hub(6, false, true);
        let mut out = Outboxes::new(2);
        let stats = forward_generator(&mut state, &hubs, &mut out);
        assert_eq!(stats.hub_skips, 1);
        assert_eq!(stats.records_out, 1); // only v=5
        assert_eq!(out.for_rank(1), &[EdgeRec { u: 0, v: 5 }]);
    }

    #[test]
    fn already_visited_local_target_not_reclaimed() {
        let (mut state, hubs) = setup();
        // Settle v=1 a level before 0 enters the frontier.
        seed_frontier(&mut state, &[(1, 0)]);
        seed_frontier(&mut state, &[(0, 0)]); // frontier = {0}, next empty
        let mut out = Outboxes::new(2);
        let stats = forward_generator(&mut state, &hubs, &mut out);
        assert_eq!(stats.local_claims, 0);
        assert!(!state.next.contains(1));
    }

    #[test]
    fn empty_frontier_is_a_noop() {
        let (mut state, hubs) = setup();
        let mut out = Outboxes::new(2);
        let stats = forward_generator(&mut state, &hubs, &mut out);
        assert_eq!(stats, ModuleStats::default());
        assert_eq!(out.total_records(), 0);
    }

    #[test]
    fn dense_frontier_sweeps_words() {
        // 130 owned vertices, frontier dense in the first word only:
        // words 1 and 2 are skipped with one compare each.
        let edges: Vec<(Vid, Vid)> = (0..130u64).map(|v| (v, (v + 1) % 130)).collect();
        let el = EdgeList::new(130, edges);
        let mut state = RankState::build(0, Partition1D::new(130, 1), &el);
        let members: Vec<(usize, Vid)> = (0..8).map(|i| (i, i as Vid)).collect();
        seed_frontier(&mut state, &members);
        assert!(!state.curr.is_sparse(), "8/130 must be dense at divisor 32");
        let hubs = HubState::new(HubSet::from_degrees(vec![], 4));
        let mut out = Outboxes::new(1);
        let stats = forward_generator(&mut state, &hubs, &mut out);
        assert_eq!(stats.words_scanned, 3);
        assert_eq!(stats.words_skipped, 2);
    }

    /// 60 vertices over 2 ranks, many frontier vertices sharing targets
    /// on both sides of the split; rank 0's state with frontier 0..12,
    /// and a hub (2) that is not settled.
    fn contested() -> (RankState, HubState) {
        let edges: Vec<(Vid, Vid)> = (0..60u64)
            .flat_map(|v| [(v, (v + 1) % 60), (v, (v * 13 + 7) % 60), (v % 6, (v + 30) % 60)])
            .collect();
        let el = EdgeList::new(60, edges);
        let mut state = RankState::build(0, Partition1D::new(60, 2), &el);
        let members: Vec<(usize, Vid)> = (0..12).map(|i| (i, i as Vid)).collect();
        seed_frontier(&mut state, &members);
        (state, HubState::new(HubSet::from_degrees(vec![(2, 90)], 4)))
    }

    /// The uncombined rule, written out: every remote edge of the
    /// frontier queues a record, local claims are applied as met.
    fn uncombined(state: &mut RankState, hubs: &HubState, out: &mut Outboxes) -> ModuleStats {
        let mut stats = ModuleStats::default();
        let frontier: Vec<usize> = state.curr.iter().collect();
        for u_local in frontier {
            let u = state.global(u_local);
            for v in state.csr.neighbors_local(u_local).to_vec() {
                stats.edges_scanned += 1;
                if hubs.settled_td_hub(v) {
                    stats.hub_skips += 1;
                } else if state.owns(v) {
                    if state.claim_min(state.local(v), u) {
                        stats.local_claims += 1;
                    }
                } else {
                    out.push(state.part.owner(v), EdgeRec { u, v });
                    stats.records_out += 1;
                }
            }
        }
        stats
    }

    #[test]
    fn drops_each_later_repeat_of_a_target_in_push_order() {
        let (mut combined, hubs) = contested();
        let mut seed = combined.clone();
        let (mut out_c, mut out_s) = (Outboxes::new(2), Outboxes::new(2));
        let st_c = forward_generator(&mut combined, &hubs, &mut out_c);
        let st_s = uncombined(&mut seed, &hubs, &mut out_s);
        // The seed rule's outbox with every repeat of a target dropped.
        let mut seen = HashSet::new();
        let (recs, dests) = out_s.parts();
        let (want_recs, want_dests): (Vec<EdgeRec>, Vec<u32>) =
            recs.iter().zip(dests).filter(|(r, _)| seen.insert(r.v)).map(|(&r, &d)| (r, d)).unzip();
        assert!(want_recs.len() < recs.len(), "the graph must repeat a remote target");
        assert_eq!(out_c.parts(), (&want_recs[..], &want_dests[..]));
        assert_eq!(st_c.records_out, want_recs.len() as u64);
        assert_eq!(combined.parent, seed.parent);
        assert_eq!(combined.next.as_bitmap(), seed.next.as_bitmap());
        assert_eq!(
            (st_c.edges_scanned, st_c.local_claims, st_c.hub_skips),
            (st_s.edges_scanned, st_s.local_claims, st_s.hub_skips)
        );
    }

    #[test]
    fn every_call_offers_afresh() {
        // The same frontier twice: the second call's offers are not
        // suppressed by the first's.
        let (mut state, hubs) = contested();
        let (mut first, mut second) = (Outboxes::new(2), Outboxes::new(2));
        forward_generator(&mut state, &hubs, &mut first);
        forward_generator(&mut state, &hubs, &mut second);
        assert!(first.total_records() > 0);
        assert_eq!(first.parts(), second.parts());
    }

    #[test]
    fn matches_reference_kernel() {
        // Contested claims: many frontier vertices share targets, so the
        // blocked pass must reproduce every min-parent outcome.
        let (mut word, hubs) = contested();
        let mut refk = word.clone();
        let (mut out_w, mut out_r) = (Outboxes::new(2), Outboxes::new(2));
        let st_w = forward_generator(&mut word, &hubs, &mut out_w);
        let st_r = reference::forward_generator(&mut refk, &hubs, &mut out_r);
        assert_eq!(word.parent, refk.parent);
        assert_eq!(out_w.parts(), out_r.parts());
        assert_eq!(word.next.as_bitmap(), refk.next.as_bitmap());
        assert_eq!(st_w.edges_scanned, st_r.edges_scanned);
        assert_eq!(st_w.local_claims, st_r.local_claims);
        assert_eq!(st_w.hub_skips, st_r.hub_skips);
        assert_eq!(st_w.records_out, st_r.records_out);
    }

    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An `n`-vertex graph from raw pairs, and both directions of each
    /// edge.
    fn graph(n: Vid, raw: &[(u64, u64)]) -> (EdgeList, Vec<(Vid, Vid)>) {
        let edges: Vec<(Vid, Vid)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
        let arcs = edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
        (EdgeList::new(n, edges), arcs)
    }

    /// Hands every rank its share of the outboxes and applies it.
    fn deliver(states: &mut [RankState], outs: &[Outboxes]) {
        let mut inboxes: Vec<Vec<EdgeRec>> = vec![Vec::new(); states.len()];
        for out in outs {
            let (recs, dests) = out.parts();
            for (&rec, &d) in recs.iter().zip(dests) {
                inboxes[d as usize].push(rec);
            }
        }
        for (state, inbox) in states.iter_mut().zip(&inboxes) {
            forward_handler(state, inbox);
        }
    }

    // Over random graphs, rank counts and frontiers: the Forward
    // Generator and Forward Handler of every rank driven by hand against
    // the uncombined rule, and whole Top-Down-only engine runs (on the
    // rank pool, so ci.sh also runs these at `SW_POOL_THREADS=4`), where
    // the uncombined rule's parents are known in closed form: every claim
    // keeps its smallest offer, so a vertex's parent is its smallest
    // neighbour one level up.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn each_sender_offers_each_target_once_with_its_smallest_parent(
            n in 1u64..=128,
            raw in collection::vec((any::<u64>(), any::<u64>()), 0..400),
            ranks in 1u32..=6,
            frontier_seed in any::<u64>(),
        ) {
            let ranks = ranks.min(n as u32);
            let (el, arcs) = graph(n, &raw);
            let part = Partition1D::new(n, ranks);
            let in_frontier = |v: Vid| splitmix(frontier_seed ^ v).is_multiple_of(3);
            let hubs = HubState::new(HubSet::from_degrees(Vec::new(), 0));
            let (mut combined, mut seed) = (Vec::new(), Vec::new());
            let (mut outs_c, mut outs_s) = (Vec::new(), Vec::new());
            for r in 0..ranks {
                let mut state = RankState::build(r, part, &el);
                let (lo, hi) = part.range(r);
                let members: Vec<(usize, Vid)> =
                    (lo..hi).filter(|&v| in_frontier(v)).map(|v| ((v - lo) as usize, v)).collect();
                seed_frontier(&mut state, &members);
                let (mut c, mut s) = (state.clone(), state);
                let (mut out_c, mut out_s) = (Outboxes::new(ranks as usize), Outboxes::new(ranks as usize));
                let st_c = forward_generator(&mut c, &hubs, &mut out_c);
                let st_s = uncombined(&mut s, &hubs, &mut out_s);
                prop_assert_eq!(
                    (st_c.edges_scanned, st_c.local_claims, st_c.hub_skips),
                    (st_s.edges_scanned, st_s.local_claims, st_s.hub_skips)
                );

                // One record per target, carrying the sender's smallest
                // frontier neighbour of it, for every remote neighbour.
                let mut smallest: BTreeMap<Vid, Vid> = BTreeMap::new();
                for &(u, v) in &arcs {
                    if part.owner(u) == r && part.owner(v) != r && in_frontier(u) {
                        let e = smallest.entry(v).or_insert(u);
                        *e = (*e).min(u);
                    }
                }
                let (recs, dests) = out_c.parts();
                let offered: BTreeMap<Vid, Vid> = recs.iter().map(|rec| (rec.v, rec.u)).collect();
                // A target offered twice would collapse into one map entry.
                prop_assert_eq!(offered.len(), recs.len());
                prop_assert_eq!(&offered, &smallest);
                prop_assert!(recs.iter().zip(dests).all(|(rec, &d)| part.owner(rec.v) == d));

                // The uncombined outbox less each later repeat of a target.
                let mut seen = HashSet::new();
                let (recs_s, dests_s) = out_s.parts();
                let (want, want_dests): (Vec<EdgeRec>, Vec<u32>) = recs_s
                    .iter()
                    .zip(dests_s)
                    .filter(|(rec, _)| seen.insert(rec.v))
                    .map(|(&rec, &d)| (rec, d))
                    .unzip();
                prop_assert_eq!(out_c.parts(), (&want[..], &want_dests[..]));

                combined.push(c);
                seed.push(s);
                outs_c.push(out_c);
                outs_s.push(out_s);
            }
            deliver(&mut combined, &outs_c);
            deliver(&mut seed, &outs_s);
            for (c, s) in combined.iter().zip(&seed) {
                prop_assert_eq!(&c.parent, &s.parent);
                prop_assert_eq!(c.next.as_bitmap(), s.next.as_bitmap());
            }
        }

        #[test]
        fn top_down_runs_keep_the_uncombined_parents(
            n in 2u64..=160,
            raw in collection::vec((any::<u64>(), any::<u64>()), 1..480),
            ranks in 1u32..=8,
            root_pick in any::<u64>(),
            relay in any::<bool>(),
            varint in any::<bool>(),
        ) {
            let ranks = ranks.min(n as u32);
            let (el, arcs) = graph(n, &raw);
            let part = Partition1D::new(n, ranks);
            // Top-Down only, and no Top-Down hubs: no record is suppressed
            // as settled, so each level's count is known exactly.
            let mut cfg = BfsConfig {
                force_top_down: true,
                top_down_hubs: 0,
                ..BfsConfig::threaded_small(2)
            }
            .with_messaging(if relay { Messaging::Relay } else { Messaging::Direct });
            if varint {
                cfg = cfg.with_compression();
            }
            let mut engine = ClusterBuilder::new(&el, ranks, cfg).build().unwrap();
            let root = raw[root_pick as usize % raw.len()].0 % n;
            let out = engine.run(root).unwrap();
            let levels = sequential_bfs_levels(&el, root);

            // The uncombined rule's parents: the smallest neighbour one
            // level up.
            let mut smallest: Vec<Option<Vid>> = vec![None; n as usize];
            for &(u, v) in &arcs {
                if let (Some(lu), Some(lv)) = (levels[u as usize], levels[v as usize]) {
                    if lu + 1 == lv {
                        let p = &mut smallest[v as usize];
                        *p = Some(p.map_or(u, |p| p.min(u)));
                    }
                }
            }
            for v in 0..n {
                match smallest[v as usize] {
                    Some(p) => prop_assert_eq!((v, out.parents[v as usize]), (v, p)),
                    None => prop_assert_eq!(levels[v as usize].is_some(), v == root),
                }
            }

            // Each level sends one record per (sender, remote neighbour of
            // its frontier) pair.
            for ls in &out.levels {
                prop_assert_eq!(ls.direction, Direction::TopDown);
                let pairs: HashSet<(u32, Vid)> = arcs
                    .iter()
                    .filter(|&&(u, v)| levels[u as usize] == Some(ls.level) && part.owner(u) != part.owner(v))
                    .map(|&(u, v)| (part.owner(u), v))
                    .collect();
                prop_assert_eq!((ls.level, ls.records_generated), (ls.level, pairs.len() as u64));
            }
        }
    }
}
