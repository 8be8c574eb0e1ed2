//! Backward Generator (Algorithm 2, `BACKWARD_GENERATOR`): every unvisited
//! owned vertex searches its neighbours for a frontier parent.
//!
//! Three resolution tiers, cheapest first:
//!
//! 1. **hub** — the replicated hub frontier, read by vertex id, is
//!    *authoritative* for every hub, owned here or not: one bit test
//!    claims and stops on a hit; a hub outside it needs no further test
//!    and no query;
//! 2. **local** — a non-hub neighbour owned here; its frontier bit
//!    answers immediately and the scan short-circuits on a hit;
//! 3. **remote** — a backward query `(u, v)` must go to `owner(u)`; these
//!    are queued only if tiers 1–2 found no parent.
//!
//! With every vertex that has an edge a hub (the engine's build-time
//! [`HubState::complete`]), tier 1 is the whole kernel: one frontier-view
//! bit per neighbour, no query, `out` untouched — the `COMPLETE`
//! instance of the one sweep body.
//!
//! The sweep over "every unvisited vertex" is **word-parallel**: the
//! complement of the visited bitmap is examined one `u64` at a time, a
//! fully-settled block of 64 vertices costs a single compare, and set
//! bits are enumerated with `trailing_zeros` — ascending local index,
//! exactly the order the scalar loop used, so parents are bit-identical
//! to the seed kernel, which the unit tests keep as their oracle. A
//! word's claims settle together once it is swept: a parent per vertex,
//! then one OR into the visited and next-frontier words.
//! A row is tested first through [`RankState::head`], a dense
//! column of first neighbours read in the sweep's own order — under
//! degree order the likeliest parent — and the row itself is loaded only
//! when the head does not answer (the paper's degree-aware prefetch as
//! data rather than as a prefetch instruction).

use super::{ModuleStats, Outboxes};
use crate::hubs::HubState;
use crate::messages::EdgeRec;
use crate::rank::{tail_mask, RankState};
use sw_graph::Vid;

/// One row scan: the three tiers over a neighbour stream (the hub tier
/// alone when `COMPLETE`). Returns the parent found, if any; buffered
/// queries are only flushed by the caller when no tier answered.
#[inline]
fn scan_row<const COMPLETE: bool>(
    state: &RankState,
    hubs: &HubState,
    v: Vid,
    neighbours: impl Iterator<Item = Vid>,
    queries: &mut Vec<EdgeRec>,
    stats: &mut ModuleStats,
) -> Option<Vid> {
    for u in neighbours {
        stats.edges_scanned += 1;
        // A frontier hub answers whoever owns it: one bit test, and
        // with every vertex a hub the only test a parent needs. The view
        // is rebuilt after every close-out, so for an owned hub it is
        // exactly its `curr` bit.
        if hubs.frontier_hub(u) {
            return Some(u);
        }
        let owned = state.owns(u);
        if COMPLETE {
            // Every neighbour is a hub: a miss is an authoritative no.
            debug_assert!(hubs.set.contains(u), "{u} has an edge but is not a hub");
            stats.hub_skips += u64::from(!owned);
        } else if hubs.set.contains(u) {
            // A hub outside the frontier view is an authoritative no:
            // an owned one needs no frontier test, a remote one no
            // query (counted as a skip).
            stats.hub_skips += u64::from(!owned);
        } else if owned {
            if state.curr.contains(state.local(u)) {
                return Some(u);
            }
        } else {
            queries.push(EdgeRec { u, v });
        }
    }
    None
}

/// Runs the Backward Generator over `state`'s unvisited vertices; the
/// complete instance when `hubs` covers every vertex with an edge.
pub fn backward_generator(
    state: &mut RankState,
    hubs: &HubState,
    out: &mut Outboxes,
) -> ModuleStats {
    if hubs.complete {
        sweep::<true>(state, hubs, out)
    } else {
        sweep::<false>(state, hubs, out)
    }
}

/// The word-parallel sweep; `COMPLETE` drops tiers 2–3.
fn sweep<const COMPLETE: bool>(
    state: &mut RankState,
    hubs: &HubState,
    out: &mut Outboxes,
) -> ModuleStats {
    let mut stats = ModuleStats::default();
    let mut queries = std::mem::take(&mut state.scratch.recs);
    let owned = state.owned();
    let num_words = state.visited_bits.words().len();
    for wi in 0..num_words {
        // Snapshot the word: its claims below settle after the sweep of
        // it, and touch no other word.
        let unvisited = !state.visited_bits.words()[wi] & tail_mask(wi, owned);
        stats.words_scanned += 1;
        if unvisited == 0 {
            stats.words_skipped += 1;
            continue;
        }
        // Counted as a scanned word above, whatever it holds; rows
        // without a neighbour have nothing to scan and no parent to find
        // (a third of a Kronecker graph, and all that is left unvisited
        // in the tail levels).
        let mut w = unvisited & state.has_row().words()[wi];
        // The word's claims, settled together once it is swept.
        let mut claimed = 0u64;
        while w != 0 {
            let v_local = wi * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            let v = state.global(v_local);
            if !COMPLETE {
                queries.clear();
            }
            // The head column first; the row only if it did not answer.
            let head = state.head(v_local);
            debug_assert_eq!(Some(&head), state.csr.neighbors_local(v_local).first());
            let first = std::iter::once(head);
            let found = scan_row::<COMPLETE>(state, hubs, v, first, &mut queries, &mut stats)
                .or_else(|| {
                    let rest = state.csr.neighbors_local(v_local)[1..].iter().copied();
                    scan_row::<COMPLETE>(state, hubs, v, rest, &mut queries, &mut stats)
                });
            if let Some(u) = found {
                state.parent[v_local] = u;
                claimed |= 1 << (v_local % 64);
                stats.local_claims += 1;
            } else if !COMPLETE {
                for q in &queries {
                    out.push(state.part.owner(q.u), *q);
                    stats.records_out += 1;
                }
            }
        }
        state.settle_word(wi, claimed);
    }
    state.scratch.recs = queries;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubs::{covers_rows, gather_hub_level};
    use crate::modules::reference;
    use sw_graph::hub::HubSet;
    use sw_graph::{EdgeList, Partition1D};

    // 8 vertices over 2 ranks; rank 0 owns 0..4.
    // Edges: 0-1, 1-4, 2-6 (6 is a hub), 3-5, 3-7.
    fn setup() -> (RankState, HubState) {
        let el = EdgeList::new(8, vec![(0, 1), (1, 4), (2, 6), (3, 5), (3, 7)]);
        let part = Partition1D::new(8, 2);
        let state = RankState::build(0, part, &el);
        let hubs = HubState::new(HubSet::from_degrees(vec![(6, 50)], 4));
        (state, hubs)
    }

    /// Seeds a frontier the way the engine does: claim, then promote
    /// `next` into `curr` — keeping parent map, visited bitmap, and
    /// frontier consistent.
    fn seed_frontier(state: &mut RankState, members: &[(usize, Vid)]) {
        for &(local, parent) in members {
            state.claim(local, parent);
        }
        state.advance_level();
    }

    #[test]
    fn local_frontier_parent_short_circuits() {
        let (mut state, hubs) = setup();
        seed_frontier(&mut state, &[(0, 0)]); // 0 in frontier
        let mut out = Outboxes::new(2);
        let stats = backward_generator(&mut state, &hubs, &mut out);
        // v=1 finds local parent 0 and sends nothing for itself — and its
        // remote neighbour 4 is never queried because of the break.
        assert!(state.visited(state.local(1)));
        assert_eq!(state.parent[1], 0);
        assert!(stats.local_claims >= 1);
        for r in out.for_rank(1) {
            assert_ne!(r.v, 1, "v=1 should not have queried after local hit");
        }
    }

    #[test]
    fn hub_in_frontier_claims_without_query() {
        let (mut state, mut hubs) = setup();
        hubs.mark_hub(6, true, true);
        let mut out = Outboxes::new(2);
        backward_generator(&mut state, &hubs, &mut out);
        // v=2's only neighbour is hub 6, in frontier: claimed locally.
        assert_eq!(state.parent[2], 6);
        for r in out.for_rank(1) {
            assert_ne!(r.v, 2);
        }
    }

    #[test]
    fn hub_not_in_frontier_skips_query_entirely() {
        let (mut state, hubs) = setup();
        let mut out = Outboxes::new(2);
        let stats = backward_generator(&mut state, &hubs, &mut out);
        // v=2 -> hub 6 not in frontier: no query, counted as hub skip.
        assert!(stats.hub_skips >= 1);
        for r in out.for_rank(1) {
            assert_ne!(r.u, 6, "no query should ever target a hub");
        }
    }

    #[test]
    fn remote_non_hub_neighbours_are_queried() {
        let (mut state, hubs) = setup();
        let mut out = Outboxes::new(2);
        backward_generator(&mut state, &hubs, &mut out);
        // v=3 has remote neighbours 5 and 7: two queries to rank 1.
        let qs: Vec<_> = out.for_rank(1).into_iter().filter(|r| r.v == 3).collect();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].u, 5);
        assert_eq!(qs[1].u, 7);
        // v=1 queries remote 4 (0 not in frontier).
        assert!(out.for_rank(1).iter().any(|r| r.v == 1 && r.u == 4));
    }

    #[test]
    fn visited_vertices_do_not_scan() {
        let (mut state, hubs) = setup();
        for i in 0..4 {
            state.claim(i, 0);
        }
        state.advance_level();
        let mut out = Outboxes::new(2);
        let stats = backward_generator(&mut state, &hubs, &mut out);
        assert_eq!(stats.edges_scanned, 0);
        assert_eq!(out.total_records(), 0);
        // All four owned vertices settled: the single word is dismissed
        // with one compare.
        assert_eq!(stats.words_scanned, 1);
        assert_eq!(stats.words_skipped, 1);
    }

    #[test]
    fn matches_reference_kernel() {
        // A denser two-rank graph; frontier = two vertices on rank 0.
        let edges: Vec<(Vid, Vid)> = (0..40u64)
            .flat_map(|v| {
                [
                    (v, (v + 1) % 40),
                    (v, (v * 7 + 3) % 40),
                    (0, (v * 11 + 5) % 40),
                ]
            })
            .collect();
        let el = EdgeList::new(40, edges);
        let part = Partition1D::new(40, 2);
        let mut hubs = HubState::new(HubSet::from_degrees(vec![(0, 100)], 4));
        let mut word = RankState::build(0, part, &el);
        let mut refk = word.clone();
        seed_frontier(&mut word, &[(0, 0), (3, 3)]);
        seed_frontier(&mut refk, &[(0, 0), (3, 3)]);
        // The engine gathers after every close-out: hub 0, rank 0's own,
        // is then in the frontier view.
        gather_hub_level(&mut hubs, [(word.global(0), word.curr.as_bitmap(), &word.visited_bits)]);
        assert!(hubs.frontier_hub(0));
        let (mut out_w, mut out_r) = (Outboxes::new(2), Outboxes::new(2));
        let st_w = backward_generator(&mut word, &hubs, &mut out_w);
        let st_r = reference::backward_generator(&mut refk, &hubs, &mut out_r);
        assert_eq!(word.parent, refk.parent);
        assert_eq!(out_w.parts(), out_r.parts());
        assert_eq!(st_w.edges_scanned, st_r.edges_scanned);
        assert_eq!(st_w.local_claims, st_r.local_claims);
        assert_eq!(st_w.hub_skips, st_r.hub_skips);
        assert_eq!(st_w.records_out, st_r.records_out);
    }

    #[test]
    fn complete_view_matches_reference_kernel_without_a_query() {
        // The graph of `matches_reference_kernel` over 48 ids: 8 of rank
        // 1's are isolated. Every vertex with an edge is a hub; frontier
        // vertices on both ranks, so parents are found at home and away.
        let edges: Vec<(Vid, Vid)> = (0..40u64)
            .flat_map(|v| [(v, (v + 1) % 40), (v, (v * 7 + 3) % 40), (0, (v * 11 + 5) % 40)])
            .collect();
        let el = EdgeList::new(48, edges);
        let part = Partition1D::new(48, 2);
        let mut word = RankState::build(0, part, &el);
        let mut other = RankState::build(1, part, &el);
        let degrees: Vec<(Vid, u64)> = [&word, &other].iter().flat_map(|r| r.owned_degrees()).collect();
        let mut hubs = HubState::new(HubSet::from_degrees(degrees, 48));
        hubs.complete = covers_rows(&hubs.set, [word.has_row(), other.has_row()]);
        assert!(hubs.complete && hubs.set.len() == 40);
        seed_frontier(&mut word, &[(3, 3), (17, 17)]);
        seed_frontier(&mut other, &[(6, 30)]);
        let mut refk = word.clone();
        gather_hub_level(
            &mut hubs,
            [&word, &other].map(|r| (r.global(0), r.curr.as_bitmap(), &r.visited_bits)),
        );
        let (mut out_w, mut out_r) = (Outboxes::new(2), Outboxes::new(2));
        let st_w = backward_generator(&mut word, &hubs, &mut out_w);
        let st_r = reference::backward_generator(&mut refk, &hubs, &mut out_r);
        assert_eq!(word.parent, refk.parent);
        assert!(word.parent.contains(&30), "a remote frontier hub claimed");
        assert_eq!(
            (st_w.edges_scanned, st_w.hub_skips, st_w.local_claims),
            (st_r.edges_scanned, st_r.hub_skips, st_r.local_claims)
        );
        assert!(st_w.hub_skips > 0 && st_w.local_claims > 0);
        assert_eq!((st_w.records_out, out_w.total_records(), out_r.total_records()), (0, 0, 0));
    }

    #[test]
    fn isolated_rows_are_masked_out_but_still_counted() {
        // 200 vertices over 2 ranks; rank 0 owns 0..100 (two words).
        // Only every third vertex below 150 has edges; the rest — two
        // thirds of rank 0's rows, and whole stretches of both words —
        // are isolated. The masked sweep must match the scalar
        // reference in parents and records, and count words exactly as
        // the unmasked sweep did: by what is *unvisited*, isolated or
        // not.
        let edges: Vec<(Vid, Vid)> = (0..150u64)
            .step_by(3)
            .flat_map(|v| [(v, (v + 3) % 150), (v, (v * 7 + 102) % 150 / 3 * 3)])
            .collect();
        let el = EdgeList::new(200, edges);
        let part = Partition1D::new(200, 2);
        let hubs = HubState::new(HubSet::from_degrees(vec![(102, 9)], 4));
        let mut word = RankState::build(0, part, &el);
        let isolated = (0..word.owned()).filter(|&i| word.csr.degree_local(i) == 0).count();
        assert!(isolated > 60, "{isolated} isolated rows");
        let mut refk = word.clone();
        seed_frontier(&mut word, &[(0, 0), (30, 30)]);
        seed_frontier(&mut refk, &[(0, 0), (30, 30)]);
        let (mut out_w, mut out_r) = (Outboxes::new(2), Outboxes::new(2));
        let st_w = backward_generator(&mut word, &hubs, &mut out_w);
        let st_r = reference::backward_generator(&mut refk, &hubs, &mut out_r);
        assert_eq!(word.parent, refk.parent);
        assert_eq!(out_w.parts(), out_r.parts());
        assert!(out_w.total_records() > 0 && st_w.local_claims > 0);
        assert_eq!(
            ModuleStats { words_scanned: 0, words_skipped: 0, ..st_w },
            st_r,
            "every counter the reference reports"
        );
        // Two words, neither fully settled: scanned, not skipped.
        assert_eq!((st_w.words_scanned, st_w.words_skipped), (2, 0));

        // Settle every vertex *with* a row: what is left unvisited is
        // isolated rows only. The words still count as scanned and not
        // skipped (they hold unvisited vertices), yet no row is scanned.
        for i in 0..word.owned() {
            if word.csr.degree_local(i) > 0 {
                word.claim(i, 0);
            }
        }
        word.advance_level();
        let mut out = Outboxes::new(2);
        let st = backward_generator(&mut word, &hubs, &mut out);
        assert_eq!((st.words_scanned, st.words_skipped), (2, 0));
        assert_eq!((st.edges_scanned, st.local_claims, out.total_records()), (0, 0, 0));
        assert_eq!(word.next.count(), 0);
    }
}
