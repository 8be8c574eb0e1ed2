//! Backward Handler (Algorithm 2, `BACKWARD_HANDLER`): answer backward
//! queries — a *reaction* module: for each query `(u, v)` with `u` in the
//! current frontier, emit the forward claim `(u, v)` towards `owner(v)`.
//!
//! The query inbox may arrive in **any order**: a query is answered by
//! one frontier-bit test that nothing else in the batch can change, and
//! self-addressed replies claim min-parent ([`RankState::claim_min`]).
//! The *reply* order per destination is observable only through the
//! varint codec, whose byte count is a function of delta order. So the
//! handler collects the hits and, under [`Codec::Compressed`] only, sorts
//! them by `(u, v)` before it pushes — the engine's one remaining sort,
//! kept off the inbox because replies are a fraction of the queries.
//! Under a fixed codec a batch costs `count × size` bytes whatever its
//! order, so the replies go out in arrival order.

use super::{ModuleStats, Outboxes};
use crate::exchange::Codec;
use crate::messages::EdgeRec;
use crate::rank::RankState;

/// Answers a batch of backward queries, in any order. Queries must
/// target vertices this rank owns (`u` owned here). `codec` is the one
/// the replies will travel under: only [`Codec::Compressed`] reads their
/// order, and only then are they sorted.
pub fn backward_handler(
    state: &mut RankState,
    records: &[EdgeRec],
    out: &mut Outboxes,
    codec: Codec,
) -> ModuleStats {
    let mut stats = ModuleStats {
        edges_scanned: records.len() as u64,
        ..Default::default()
    };
    let mut hits = std::mem::take(&mut state.scratch.recs);
    hits.clear();
    hits.extend(records.iter().filter(|rec| {
        debug_assert!(state.owns(rec.u), "backward record misrouted");
        state.curr.contains(state.local(rec.u))
    }));
    if codec == Codec::Compressed {
        hits.sort_unstable();
    }
    for rec in &hits {
        if state.owns(rec.v) {
            // The asker is this very rank (possible when a relay path
            // folds back): claim directly.
            let vl = state.local(rec.v);
            if state.claim_min(vl, rec.u) {
                stats.local_claims += 1;
            }
        } else {
            out.push(state.part.owner(rec.v), *rec);
            stats.records_out += 1;
        }
    }
    state.scratch.recs = hits;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{EdgeList, Partition1D};

    const FIXED: Codec = Codec::Fixed(16);

    fn state() -> RankState {
        // rank 1 owns 4..8; edge 4-5 so both have nonzero degree.
        let el = EdgeList::new(8, vec![(4, 5), (4, 0)]);
        RankState::build(1, Partition1D::new(8, 2), &el)
    }

    /// Puts vertex 4 in the current frontier the way the engine does —
    /// claim then promote — so parent map, visited bitmap, and frontier
    /// stay consistent.
    fn seed_frontier_with_4(s: &mut RankState) {
        let l4 = s.local(4);
        s.claim(l4, 4);
        s.advance_level();
    }

    #[test]
    fn frontier_hit_emits_forward_claim() {
        let mut s = state();
        seed_frontier_with_4(&mut s);
        let mut out = Outboxes::new(2);
        let stats = backward_handler(
            &mut s,
            &[EdgeRec { u: 4, v: 0 }, EdgeRec { u: 5, v: 0 }],
            &mut out,
            FIXED,
        );
        assert_eq!(stats.records_out, 1);
        assert_eq!(out.for_rank(0), &[EdgeRec { u: 4, v: 0 }]);
        assert_eq!(out.for_rank(1).len(), 0);
    }

    #[test]
    fn non_frontier_query_is_dropped() {
        let mut s = state();
        let mut out = Outboxes::new(2);
        let stats = backward_handler(&mut s, &[EdgeRec { u: 4, v: 0 }], &mut out, FIXED);
        assert_eq!(stats.records_out, 0);
        assert_eq!(out.total_records(), 0);
        assert_eq!(stats.edges_scanned, 1);
    }

    #[test]
    fn self_targeted_reply_claims_directly() {
        let mut s = state();
        seed_frontier_with_4(&mut s);
        let mut out = Outboxes::new(2);
        let stats = backward_handler(&mut s, &[EdgeRec { u: 4, v: 5 }], &mut out, FIXED);
        assert_eq!(stats.local_claims, 1);
        assert_eq!(s.parent[s.local(5)], 4);
        assert_eq!(out.total_records(), 0);
    }

    #[test]
    fn any_inbox_order_yields_the_sorted_inbox_replies() {
        // Rank 1 of 3 owns 8..16; frontier = {8, 9, 11, 15}. Queries from
        // askers on all three ranks — so replies go to ranks 0 and 2 and
        // the self-addressed branch claims, with contests (10 and 12 are
        // each asked about by several frontier vertices) whose winner
        // the order decides — plus misses and a duplicate.
        let edges: Vec<(u64, u64)> = (8..16).map(|v| (v, (v + 1) % 24)).collect();
        let el = EdgeList::new(24, edges);
        let mut base = RankState::build(1, Partition1D::new(24, 3), &el);
        for u in [8u64, 9, 11, 15] {
            let l = base.local(u);
            base.claim(l, u);
        }
        base.advance_level();
        let frontier = [8u64, 9, 11, 15, 10, 13]; // last two: misses
        let askers = [0u64, 3, 7, 10, 12, 14, 17, 20, 23];
        let mut sorted: Vec<EdgeRec> = frontier
            .iter()
            .flat_map(|&u| askers.iter().map(move |&v| EdgeRec { u, v }))
            .collect();
        sorted.push(EdgeRec { u: 9, v: 3 }); // a multi-edge asks twice
        sorted.sort_unstable();

        let run = |inbox: &[EdgeRec], codec: Codec| {
            let mut s = base.clone();
            let mut out = Outboxes::new(3);
            let stats = backward_handler(&mut s, inbox, &mut out, codec);
            (out, stats, s.parent.clone(), s.next.iter().collect::<Vec<_>>())
        };
        // Reversed, rotated, and a fixed-seed Fisher-Yates shuffle.
        let mut shuffled = sorted.clone();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..shuffled.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut reversed = sorted.clone();
        reversed.reverse();
        let mut rotated = sorted.clone();
        rotated.rotate_left(17);
        // Per-destination reply multisets: what a fixed codec observes.
        let multisets = |out: &Outboxes| {
            (0..3)
                .map(|d| {
                    let mut r = out.for_rank(d);
                    r.sort_unstable();
                    r
                })
                .collect::<Vec<_>>()
        };

        let (out_sorted, stats_sorted, parent_sorted, next_sorted) =
            run(&sorted, Codec::Compressed);
        assert!(stats_sorted.records_out > 0 && stats_sorted.local_claims > 0);
        assert_eq!(parent_sorted[base.local(10)], 8, "least (u, v) wins the contest");
        let inboxes = [
            ("sorted", &sorted),
            ("shuffled", &shuffled),
            ("reversed", &reversed),
            ("rotated", &rotated),
        ];
        for codec in [Codec::Compressed, FIXED] {
            for (label, inbox) in inboxes {
                let label = format!("{codec:?} {label}");
                let (out, stats, parent, next) = run(inbox, codec);
                if codec == Codec::Compressed {
                    assert_eq!(out.parts(), out_sorted.parts(), "{label}: reply stream");
                } else {
                    assert_eq!(
                        multisets(&out),
                        multisets(&out_sorted),
                        "{label}: replies per destination"
                    );
                }
                assert_eq!(stats, stats_sorted, "{label}: module stats");
                assert_eq!(parent, parent_sorted, "{label}: self-addressed claims");
                assert_eq!(next, next_sorted, "{label}: next frontier");
            }
        }
        // Unsorted under the fixed codec: the reversed inbox's replies
        // come out in its order, not the sorted one.
        assert_ne!(run(&reversed, FIXED).0.parts(), out_sorted.parts());
    }
}
