//! Per-rank state: the slice of the graph a node owns plus its share of
//! the traversal state.

use crate::frontier::Frontier;
use crate::messages::EdgeRec;
use crate::NO_PARENT;
use sw_graph::{Bitmap, Csr, EdgeList, GraphStore, Partition1D, Vid};

/// One rank's (node's) state under 1-D partitioning.
#[derive(Clone, Debug)]
pub struct RankState {
    /// This rank's id.
    pub rank: u32,
    /// The global partition map.
    pub part: Partition1D,
    /// CSR rows owned by this rank (columns are global ids), read-only
    /// outside this module.
    pub csr: RankRows,
    /// Parent of each owned vertex, by local index; `NO_PARENT` when
    /// unvisited.
    pub parent: Vec<Vid>,
    /// Dense visited map, bit `i` ⟺ `parent[i] != NO_PARENT`. Kept in
    /// lockstep by [`RankState::claim`]; the word surface is what the
    /// Bottom-Up sweep scans to skip 64 settled vertices at a time.
    pub visited_bits: Bitmap,
    /// Local frontier: owned vertices in the current level (hybrid
    /// sparse/dense representation).
    pub curr: Frontier,
    /// Owned vertices discovered this level.
    pub next: Frontier,
    /// First owned global id: `part.range(rank).0`, cached so the
    /// per-edge ownership test is a subtract-and-compare, not a divide.
    lo: Vid,
    /// Bit `i` ⟺ row `i` has at least one neighbour, fixed at
    /// construction. The Bottom-Up sweep masks its unvisited words with
    /// it: an isolated vertex can never find a parent.
    has_row: Bitmap,
    /// Working buffers of the kernels, kept here so a level allocates
    /// nothing once they are warm.
    pub(crate) scratch: KernelScratch,
}

/// A rank's CSR rows together with their first-neighbour column.
///
/// Reads go through [`Csr`] (the type derefs to it); nothing outside this
/// module can replace the rows, so the column cannot fall out of step
/// with them. Row order is decided once, by the builder
/// ([`Csr::build_partitioned`]).
///
/// ```compile_fail
/// fn replace(r: &mut swbfs_core::rank::RankState, rows: sw_graph::Csr) {
///     *r.csr = rows; // the rows are read-only
/// }
/// ```
#[derive(Clone, Debug)]
pub struct RankRows {
    csr: Csr,
    /// First neighbour of row `i` (`NO_PARENT` for an empty row), in the
    /// rows' order: under degree order the row's likeliest parent, which
    /// the Bottom-Up sweep tests before it loads the row.
    heads: Vec<Vid>,
}

impl RankRows {
    fn new(csr: Csr) -> Self {
        let heads = (0..csr.num_rows() as usize)
            .map(|i| csr.neighbors_local(i).first().copied().unwrap_or(NO_PARENT))
            .collect();
        Self { csr, heads }
    }
}

impl std::ops::Deref for RankRows {
    type Target = Csr;
    fn deref(&self) -> &Csr {
        &self.csr
    }
}

/// Per-call buffers of the generator and handler kernels. A kernel
/// `mem::take`s the struct, works, and puts it back with capacity intact.
/// Every buffer is emptied (`offered`: zeroed) before it is read, so
/// nothing carries over from one call to the next.
#[derive(Clone, Debug, Default)]
pub(crate) struct KernelScratch {
    /// Forward Generator: local claims `(target, parent)` in scan order.
    pub staged: Vec<(u32, Vid)>,
    /// Forward Generator: per-block cursors of the counting sort.
    pub cursors: Vec<u32>,
    /// Forward Generator: staged indices grouped by target block.
    pub order: Vec<u32>,
    /// Backward Generator: one row's pending queries. Backward Handler:
    /// the queries that hit the frontier.
    pub recs: Vec<EdgeRec>,
    /// Forward Generator: the targets this call already sent a record,
    /// one bit per global vertex id (*n* bits: 8 KB at scale 16), sized
    /// and cleared in full at each call's entry.
    pub offered: Bitmap,
}

impl RankState {
    /// Builds rank `rank`'s state from the global edge list.
    pub fn build(rank: u32, part: Partition1D, edges: &EdgeList) -> Self {
        let (start, end) = part.range(rank);
        let csr = Csr::from_edge_list_rows(edges, start, end - start);
        Self::over(rank, part, csr)
    }

    /// Fresh traversal state over an owned CSR slice.
    pub(crate) fn over(rank: u32, part: Partition1D, csr: Csr) -> Self {
        let owned = csr.num_rows() as usize;
        let (lo, hi) = part.range(rank);
        assert_eq!((hi - lo) as usize, owned, "CSR rows disagree with the partition");
        let mut has_row = Bitmap::new(owned);
        for (i, w) in csr.offsets().windows(2).enumerate() {
            if w[1] > w[0] {
                has_row.set(i);
            }
        }
        Self {
            rank,
            part,
            csr: RankRows::new(csr),
            parent: vec![NO_PARENT; owned],
            visited_bits: Bitmap::new(owned),
            curr: Frontier::new(owned),
            next: Frontier::new(owned),
            lo,
            has_row,
            scratch: KernelScratch::default(),
        }
    }

    /// Builds rank `rank`'s state from an opened partition store.
    ///
    /// The CSR is a *view* into the store's backing bytes — on the mmap
    /// backend no adjacency word is copied. The rows are persisted in
    /// their final order, which is why the manifest records
    /// `degree_ordered` and engine construction refuses a config that
    /// disagrees.
    pub fn from_store(rank: u32, part: Partition1D, store: &GraphStore) -> Self {
        Self::over(rank, part, store.csr())
    }

    /// Number of owned vertices.
    pub fn owned(&self) -> usize {
        self.parent.len()
    }

    /// True if this rank owns global vertex `v`: one range test against
    /// the cached block (ids below `lo` wrap to huge offsets).
    #[inline]
    pub fn owns(&self, v: Vid) -> bool {
        v.wrapping_sub(self.lo) < self.parent.len() as Vid
    }

    /// Local index of an owned global vertex.
    #[inline]
    pub fn local(&self, v: Vid) -> usize {
        debug_assert!(self.owns(v));
        (v - self.lo) as usize
    }

    /// Global id of a local index.
    #[inline]
    pub fn global(&self, local: usize) -> Vid {
        self.lo + local as Vid
    }

    /// Rows with at least one neighbour, as a bitmap over local indices.
    pub(crate) fn has_row(&self) -> &Bitmap {
        &self.has_row
    }

    /// First neighbour of the non-empty row at `local`:
    /// `csr.neighbors_local(local)[0]`, from a dense column.
    #[inline]
    pub fn head(&self, local: usize) -> Vid {
        self.csr.heads[local]
    }

    /// True if the owned vertex at `local` has been settled.
    pub fn visited(&self, local: usize) -> bool {
        self.parent[local] != NO_PARENT
    }

    /// Claims vertex `local` for `parent` if unclaimed; returns whether the
    /// claim won. Winners enter `next` and the visited bitmap.
    ///
    /// `always`, not a hint: LLVM honoured the hint in the Bottom-Up
    /// sweep or in the Forward Handler, never both, and flipped between
    /// them when unrelated code in this crate changed size — a call per
    /// claimed vertex in the sweep is 6 % of a `g500_shm` root.
    #[inline(always)]
    pub fn claim(&mut self, local: usize, parent: Vid) -> bool {
        if self.parent[local] == NO_PARENT {
            self.parent[local] = parent;
            self.visited_bits.set(local);
            self.next.insert(local);
            true
        } else {
            false
        }
    }

    /// Settles the vertices of `mask` in word `wi` whose parents the
    /// caller has just written (they were unvisited): what
    /// [`Self::claim`] does per vertex, one word at a time.
    #[inline]
    pub(crate) fn settle_word(&mut self, wi: usize, mask: u64) {
        debug_assert!(
            (0..64).filter(|b| mask >> b & 1 == 1).all(|b| self.parent[wi * 64 + b] != NO_PARENT),
            "word {wi}: a settled vertex has no parent"
        );
        let w = &mut self.visited_bits.words_mut()[wi];
        debug_assert_eq!(*w & mask, 0);
        *w |= mask;
        self.next.insert_word(wi, mask);
    }

    /// The claim rule of every offered parent, a priority write: claims
    /// `local` for `u` like [`Self::claim`] when unvisited (`true`), else
    /// lowers the parent of a vertex claimed *this level* (in `next`) to
    /// a smaller `u`. A vertex settled earlier is never touched; the
    /// smallest offer wins whatever order the offers come in.
    #[inline(always)]
    pub fn claim_min(&mut self, local: usize, u: Vid) -> bool {
        if self.claim(local, u) {
            true
        } else {
            if u < self.parent[local] && self.next.contains(local) {
                self.parent[local] = u;
            }
            false
        }
    }

    /// Returns the rank to its pre-run state: parents unset, visited and
    /// both frontiers empty. Capacity is kept.
    pub fn reset(&mut self) {
        self.parent.fill(NO_PARENT);
        self.visited_bits.clear_all();
        self.curr.clear();
        self.next.clear();
    }

    /// Ends the level: `next` becomes `curr` (iterating in ascending
    /// order, whatever order its members were claimed in), `next`
    /// clears. Returns the number of vertices settled this level.
    pub fn advance_level(&mut self) -> u64 {
        let settled = self.next.count() as u64;
        std::mem::swap(&mut self.curr, &mut self.next);
        self.curr.sort();
        self.next.clear();
        settled
    }

    /// Sum of degrees of current-frontier vertices (this rank's share of
    /// `m_f`), read from the offsets slice.
    pub fn frontier_edges(&self) -> u64 {
        let offsets = self.csr.offsets();
        self.curr.iter().map(|i| offsets[i + 1] - offsets[i]).sum()
    }

    /// Sum of degrees of unvisited owned vertices (this rank's share of
    /// `m_u`).
    ///
    /// Word-parallel: each 64-vertex block is one complement-and-test;
    /// fully-settled blocks — most of the graph once Bottom-Up engages —
    /// cost one word compare instead of 64 predicate calls.
    pub fn unvisited_edges(&self) -> u64 {
        let owned = self.owned();
        let offsets = self.csr.offsets();
        let mut sum = 0u64;
        for (wi, &vw) in self.visited_bits.words().iter().enumerate() {
            let mut w = !vw & tail_mask(wi, owned);
            if w == 0 {
                continue;
            }
            while w != 0 {
                let i = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                sum += offsets[i + 1] - offsets[i];
            }
        }
        sum
    }

    /// Degrees of owned vertices as `(global, degree)` pairs with nonzero
    /// degree — input to distributed hub selection.
    pub fn owned_degrees(&self) -> Vec<(Vid, u64)> {
        (0..self.owned())
            .filter_map(|i| {
                let d = self.csr.degree_local(i);
                (d > 0).then(|| (self.global(i), d))
            })
            .collect()
    }
}

/// Valid-bit mask for word `wi` of a `len`-bit surface: all-ones for
/// interior words, low `len % 64` bits for a partial last word.
#[inline]
pub(crate) fn tail_mask(wi: usize, len: usize) -> u64 {
    let base = wi * 64;
    debug_assert!(base < len || len == 0);
    if len - base >= 64 {
        !0
    } else {
        (1u64 << (len - base)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_setup() -> (RankState, RankState) {
        // 6 vertices, path 0-1-2-3-4-5; ranks own [0,3) and [3,6).
        let el = EdgeList::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let part = Partition1D::new(6, 2);
        (
            RankState::build(0, part, &el),
            RankState::build(1, part, &el),
        )
    }

    #[test]
    fn build_partitions_rows() {
        let (r0, r1) = two_rank_setup();
        assert_eq!(r0.owned(), 3);
        assert_eq!(r1.owned(), 3);
        assert!(r0.owns(2) && !r0.owns(3));
        assert!(r1.owns(3) && r1.owns(5) && !r1.owns(2) && !r1.owns(6));
        assert_eq!(r1.local(3), 0);
        assert_eq!(r1.global(0), 3);
        assert_eq!(r0.csr.neighbors(2), &[1, 3]);
    }

    #[test]
    fn range_test_agrees_with_the_partition_algebra() {
        // Uneven blocks and empty tail ranks: 10 ids over 4 ranks owns
        // [0,3) [3,6) [6,9) [9,10); 5 ids over 8 ranks leaves ranks 5-7
        // empty.
        for (n, p) in [(10u64, 4u32), (5, 8), (64, 1)] {
            let el = EdgeList::new(n, vec![(0, n - 1)]);
            let part = Partition1D::new(n, p);
            for rank in 0..p {
                let r = RankState::build(rank, part, &el);
                assert_eq!(r.owned() as u64, part.owned_count(rank));
                for v in 0..n {
                    assert_eq!(r.owns(v), part.owner(v) == rank, "n={n} p={p} rank={rank} v={v}");
                    if r.owns(v) {
                        assert_eq!(r.local(v), part.to_local(v) as usize);
                        assert_eq!(r.global(r.local(v)), v);
                    }
                }
                assert!(!r.owns(n) && !r.owns(Vid::MAX));
            }
        }
    }

    #[test]
    fn has_row_marks_exactly_the_rows_with_neighbours() {
        let el = EdgeList::new(70, vec![(0, 1), (1, 65), (69, 69)]);
        let r = RankState::build(0, Partition1D::new(70, 1), &el);
        let expect: Vec<usize> = (0..70).filter(|&i| r.csr.degree_local(i) > 0).collect();
        assert_eq!(r.has_row().iter_ones().collect::<Vec<_>>(), expect);
        assert!(expect.contains(&65) && !expect.contains(&2));
    }

    #[test]
    fn heads_follow_the_row_order() {
        // Row 0 lists 1, 2, 3 in id order; 3 has the largest degree (4),
        // so degree order puts it first. Row 4 is empty.
        let edges = vec![(0, 1), (0, 2), (0, 3), (3, 5), (3, 6), (3, 2), (1, 2)];
        let el = EdgeList::new(7, edges);
        let part = Partition1D::new(7, 1);
        let check = |r: &RankState| {
            for i in (0..r.owned()).filter(|&i| r.has_row().get(i)) {
                assert_eq!(r.head(i), r.csr.neighbors_local(i)[0], "row {i}");
            }
        };
        let r = RankState::build(0, part, &el);
        check(&r);
        assert_eq!(r.head(0), 1);
        let rows = Csr::build_partitioned(&part, sw_graph::RowOrder::ByDegree, |_| {
            el.edges.iter().copied()
        });
        let r = RankState::over(0, part, rows.into_iter().next().unwrap());
        check(&r);
        assert_eq!(r.head(0), 3);
        assert!(!r.has_row().get(4));
    }

    #[test]
    fn claim_min_local_versus_remote_contest() {
        // Rank 1 owns 4..8; vertex 6 is offered by its local frontier
        // neighbour 7 (the generator's staged claim) and by 1 on rank 0
        // (a forward record). Either order settles it on 1.
        use crate::hubs::HubState;
        use crate::modules::{forward_generator, forward_handler, Outboxes};
        use sw_graph::hub::HubSet;
        let el = EdgeList::new(8, vec![(7, 6), (1, 6)]);
        let hubs = HubState::new(HubSet::from_degrees(vec![], 4));
        let mut base = RankState::build(1, Partition1D::new(8, 2), &el);
        base.claim(base.local(7), 7);
        base.advance_level();
        let remote = [EdgeRec { u: 1, v: 6 }];
        let mut gen_first = base.clone();
        forward_generator(&mut gen_first, &hubs, &mut Outboxes::new(2));
        assert_eq!(gen_first.parent[base.local(6)], 7, "local claim lands first");
        assert_eq!(forward_handler(&mut gen_first, &remote).local_claims, 0);
        let mut remote_first = base.clone();
        assert_eq!(forward_handler(&mut remote_first, &remote).local_claims, 1);
        let st = forward_generator(&mut remote_first, &hubs, &mut Outboxes::new(2));
        assert_eq!(st.local_claims, 0, "6 was already claimed this level");
        assert_eq!(gen_first.parent[base.local(6)], 1, "the smaller parent wins");
        assert_eq!(gen_first.parent, remote_first.parent);
        assert_eq!(gen_first.next.as_bitmap(), remote_first.next.as_bitmap());
        assert_eq!(gen_first.visited_bits, remote_first.visited_bits);
    }

    #[test]
    fn claim_min_counts_duplicate_offers_once() {
        let (mut r0, _) = two_rank_setup();
        assert!(r0.claim_min(2, 3), "first offer claims");
        assert!(!r0.claim_min(2, 3), "a duplicate edge is no new claim");
        assert!(!r0.claim_min(2, 1), "a smaller offer lowers, claims nothing");
        assert!(!r0.claim_min(2, 3), "a larger one does neither");
        assert_eq!(r0.parent[2], 1);
        assert_eq!(r0.next.count(), 1);
        assert_eq!(r0.advance_level(), 1);
    }

    #[test]
    fn claim_min_self_addressed_reply_races_remote_replies_order_free() {
        // Rank 1 owns 4..8 with 4 and 7 in the frontier. Vertex 5 asked
        // about 7 (same rank: the Backward Handler claims it directly)
        // and about 1 and 2 on rank 0 (their replies reach the Forward
        // Handler). Any order of the two handlers settles 5 on 1.
        use crate::exchange::Codec;
        use crate::modules::{backward_handler, forward_handler, Outboxes};
        let el = EdgeList::new(8, vec![(5, 7), (5, 1), (5, 2), (4, 0)]);
        let mut base = RankState::build(1, Partition1D::new(8, 2), &el);
        for v in [4, 7] {
            base.claim(base.local(v), v);
        }
        base.advance_level();
        let queries = [EdgeRec { u: 7, v: 5 }, EdgeRec { u: 4, v: 0 }];
        let replies = [EdgeRec { u: 2, v: 5 }, EdgeRec { u: 1, v: 5 }];
        let mut handler_first = base.clone();
        let mut out = Outboxes::new(2);
        let st = backward_handler(&mut handler_first, &queries, &mut out, Codec::Fixed(16));
        assert_eq!((st.local_claims, st.records_out), (1, 1));
        assert_eq!(out.for_rank(0), &[EdgeRec { u: 4, v: 0 }]);
        assert_eq!(handler_first.parent[base.local(5)], 7);
        forward_handler(&mut handler_first, &replies);
        let mut replies_first = base.clone();
        forward_handler(&mut replies_first, &replies);
        let st = backward_handler(&mut replies_first, &queries, &mut Outboxes::new(2), Codec::Fixed(16));
        assert_eq!(st.local_claims, 0, "5 was already claimed this level");
        assert_eq!(handler_first.parent[base.local(5)], 1);
        assert_eq!(handler_first.parent, replies_first.parent);
        assert_eq!(handler_first.next.as_bitmap(), replies_first.next.as_bitmap());
    }

    #[test]
    fn claim_min_never_lowers_a_vertex_settled_in_an_earlier_level() {
        let (mut r0, _) = two_rank_setup();
        assert!(r0.claim_min(2, 2));
        r0.advance_level();
        assert!(!r0.claim_min(2, 0), "settled last level");
        assert_eq!(r0.parent[2], 2, "not lowered");
        assert!(r0.next.is_empty(), "not re-entered into next");
    }

    #[test]
    fn claim_is_first_wins() {
        let (mut r0, _) = two_rank_setup();
        assert!(r0.claim(1, 0));
        assert!(!r0.claim(1, 2));
        assert_eq!(r0.parent[1], 0);
        assert!(r0.next.contains(1));
        assert!(r0.visited(1));
    }

    #[test]
    fn advance_level_swaps_and_counts() {
        let (mut r0, _) = two_rank_setup();
        r0.claim(0, 0);
        r0.claim(2, 1);
        assert_eq!(r0.advance_level(), 2);
        assert!(r0.curr.contains(0) && r0.curr.contains(2));
        assert!(r0.next.is_empty());
        assert_eq!(r0.curr.count(), 2);
        // degrees: v0 = 1 (0-1), v2 = 2 (1-2, 2-3).
        assert_eq!(r0.frontier_edges(), 3);
    }

    #[test]
    fn unvisited_edges_shrinks_as_claims_land() {
        let (mut r0, _) = two_rank_setup();
        let before = r0.unvisited_edges();
        r0.claim(1, 0); // degree 2
        assert_eq!(r0.unvisited_edges(), before - 2);
    }

    #[test]
    fn claim_tracks_visited_bitmap() {
        let (mut r0, _) = two_rank_setup();
        r0.claim(1, 0);
        assert!(r0.visited_bits.get(1));
        assert!(!r0.visited_bits.get(0));
        // The bitmap and the parent map agree bit for bit.
        for i in 0..r0.owned() {
            assert_eq!(r0.visited_bits.get(i), r0.visited(i));
        }
        r0.reset();
        assert!(r0.visited_bits.all_zero());
        assert_eq!(r0.parent, vec![NO_PARENT; 3]);
        assert!(r0.curr.is_empty() && r0.next.is_empty());
    }

    #[test]
    fn unvisited_edges_matches_scalar_filter() {
        // 70 vertices in a ring: every vertex degree 2, one rank.
        let edges: Vec<(Vid, Vid)> = (0..70u64).map(|v| (v, (v + 1) % 70)).collect();
        let el = EdgeList::new(70, edges);
        let mut r = RankState::build(0, Partition1D::new(70, 1), &el);
        for i in (0..70).step_by(3) {
            r.claim(i, 0);
        }
        let scalar: u64 = (0..r.owned())
            .filter(|&i| !r.visited(i))
            .map(|i| r.csr.degree_local(i))
            .sum();
        assert_eq!(r.unvisited_edges(), scalar);
        // Settle everything: the word sweep must short-circuit to zero.
        for i in 0..70 {
            r.claim(i, 0);
        }
        assert_eq!(r.unvisited_edges(), 0);
    }

    #[test]
    fn tail_mask_edges() {
        assert_eq!(tail_mask(0, 64), !0);
        assert_eq!(tail_mask(0, 3), 0b111);
        assert_eq!(tail_mask(1, 70), (1 << 6) - 1);
        assert_eq!(tail_mask(1, 128), !0);
    }

    #[test]
    fn owned_degrees_skip_isolated() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let part = Partition1D::new(4, 1);
        let r = RankState::build(0, part, &el);
        assert_eq!(r.owned_degrees(), vec![(0, 1), (1, 1)]);
    }
}
