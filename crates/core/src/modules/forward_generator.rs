//! Forward Generator (Algorithm 2, `FORWARD_GENERATOR`): scan the current
//! frontier's edges, claim local targets immediately, and queue a forward
//! record `(u, v)` to `owner(v)` for remote targets — unless the replicated
//! hub-visited bitmap proves the message pointless.
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
use sw_graph::Vid;

/// Local-claim block: 2^12 targets = 32 KB of parent entries, sized for
/// a core-local cache tile.
const BLOCK_BITS: u32 = 12;

/// One frontier vertex's row: hub-visited suppression (one bit test by
/// vertex id), remote push, local stage.
fn scan_vertex(
    state: &RankState,
    hubs: &HubState,
    u_local: usize,
    staged: &mut Vec<(u32, Vid)>,
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
        } else {
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
        ..
    } = &mut scratch;

    // Pass 1 — scan: remote records out in scan order, local claims
    // staged as (target, parent) in scan order. Frontier enumeration is
    // the sorted queue while sparse, a word-parallel bitmap sweep once
    // dense — ascending either way, as the reference kernel's
    // `curr.iter()`.
    staged.clear();
    if state.curr.is_sparse() {
        for u_local in state.curr.iter() {
            scan_vertex(state, hubs, u_local, staged, out, &mut stats);
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
                scan_vertex(state, hubs, u_local, staged, out, &mut stats);
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
    use crate::modules::reference;
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

    #[test]
    fn matches_reference_kernel() {
        // Contested claims: many frontier vertices share targets, so the
        // blocked pass must reproduce every min-parent outcome.
        let edges: Vec<(Vid, Vid)> = (0..60u64)
            .flat_map(|v| [(v, (v + 1) % 60), (v, (v * 13 + 7) % 60), (v % 6, (v + 30) % 60)])
            .collect();
        let el = EdgeList::new(60, edges);
        let part = Partition1D::new(60, 2);
        let hubs = HubState::new(HubSet::from_degrees(vec![(2, 90)], 4));
        let mut word = RankState::build(0, part, &el);
        let mut refk = word.clone();
        let members: Vec<(usize, Vid)> = (0..12).map(|i| (i, i as Vid)).collect();
        seed_frontier(&mut word, &members);
        seed_frontier(&mut refk, &members);
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
}
