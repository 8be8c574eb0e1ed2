//! Replicated hub state — the paper's "degree aware prefetch" (§5).
//!
//! Every rank holds, for the global top-k hub vertices, two replicated
//! bitmaps: *hub-curr* (is the hub in the current frontier?) and
//! *hub-visited* (has it been settled?). They are refreshed by an
//! all-gather at every level boundary. Two optimizations from §5 are
//! modeled in the traffic accounting:
//!
//! * the gather moves a compressed bitmap, not vertex lists;
//! * when a rank's contribution is all-empty (common in late levels) it
//!   gathers a one-byte flag instead of the bitmap ("reduce global
//!   communication").
//!
//! During Top-Down, a generator skips the message for an edge whose target
//! hub is already visited. During Bottom-Up, a hub neighbour is decided
//! *authoritatively* from hub-curr — in or out of the frontier, no query
//! is ever sent for a hub.
//!
//! The replicated state is kept by vertex id, not by hub index: a
//! frontier view (bit `v` ⟺ hub `v` is in the frontier) and a Top-Down
//! settled view (bit `v` ⟺ hub `v` of the Top-Down prefix is settled).
//! A gather rebuilds both with word operations — every rank's frontier
//! and visited words placed at its id range, ANDed with a membership
//! bitmap — so its cost is the id space over 64, whatever the hub
//! count, and the generators test one bit per scanned edge. Every
//! rank's copy is the same, so the engine keeps one.
//! When the set holds every vertex with an edge (`covers_rows`), a
//! Bottom-Up level needs no query at all: one local pass per rank.

use sw_graph::hub::HubSet;
use sw_graph::{Bitmap, Vid};

/// The replicated hub state (identical on every rank).
#[derive(Clone, Debug)]
pub struct HubState {
    /// The global hub set (identical on every rank), ordered by descending
    /// degree — the Top-Down subset is its prefix.
    pub(crate) set: HubSet,
    /// Size of the Top-Down hub subset (2^12 in the paper): only hubs with
    /// index below this participate in the Top-Down visited-skip. The
    /// kernels read `td_members`; the seed kernels ask by index.
    #[cfg(test)]
    pub(crate) td_limit: u32,
    /// Bit `v` ⟺ `v` is one of the first `td_limit` hubs.
    td_members: Bitmap,
    /// Bit `v` ⟺ hub `v` is in the frontier. What the Backward
    /// Generator tests first for every neighbour.
    frontier_ids: Bitmap,
    /// Bit `v` ⟺ hub `v` of the Top-Down prefix is settled. What the
    /// Forward Generator tests per scanned edge.
    td_settled_ids: Bitmap,
    /// The set holds every vertex with an edge ([`covers_rows`]), so a
    /// Bottom-Up sweep never queries. Set by the engine at build time.
    pub(crate) complete: bool,
}

impl HubState {
    /// Fresh state over a hub set, with the whole set active in both
    /// directions.
    pub fn new(set: HubSet) -> Self {
        let td = set.len() as u32;
        Self::with_td_limit(set, td)
    }

    /// Fresh state with a Top-Down prefix of `td_limit` hubs.
    pub fn with_td_limit(set: HubSet, td_limit: u32) -> Self {
        let ids = set.members().len();
        let mut td_members = Bitmap::new(ids);
        for &v in set.hubs().iter().take(td_limit as usize) {
            td_members.set(v as usize);
        }
        Self {
            set,
            #[cfg(test)]
            td_limit,
            td_members,
            frontier_ids: Bitmap::new(ids),
            td_settled_ids: Bitmap::new(ids),
            complete: false,
        }
    }

    /// True if vertex `v` is a hub in the current frontier: one bit
    /// test, false for any non-hub id.
    #[inline]
    pub fn frontier_hub(&self, v: Vid) -> bool {
        self.frontier_ids.test(v as usize)
    }

    /// True if vertex `v` is a settled hub of the Top-Down prefix: one
    /// bit test, false for any other id.
    #[inline]
    pub fn settled_td_hub(&self, v: Vid) -> bool {
        self.td_settled_ids.test(v as usize)
    }

    /// Back to the pre-run state: no hub in the frontier or settled.
    pub(crate) fn reset(&mut self) {
        self.frontier_ids.clear_all();
        self.td_settled_ids.clear_all();
    }

    /// ORs one rank's frontier and visited words, placed at bit `at`,
    /// into the views: the frontier ANDed with the membership bitmap,
    /// the visited words with the Top-Down prefix's. Returns whether the
    /// rank owns a hub that is in the frontier or settled — its
    /// contribution is not the empty flag.
    fn place(&mut self, at: usize, curr: &[u64], visited: &[u64]) -> bool {
        debug_assert_eq!(curr.len(), visited.len());
        let members = self.set.members().words();
        let td = self.td_members.words();
        let (frontier, settled) = (self.frontier_ids.words_mut(), self.td_settled_ids.words_mut());
        let mut any = 0;
        let mut put = |d: usize, c: u64, v: u64| {
            if let Some(&m) = members.get(d) {
                frontier[d] |= c & m;
                settled[d] |= v & td[d];
                any |= (c | v) & m;
            }
        };
        // Ranges need not start on a word: each source word then
        // straddles two view words.
        let (w0, sh) = (at / 64, (at % 64) as u32);
        for (i, (&c, &v)) in curr.iter().zip(visited).enumerate() {
            put(w0 + i, c << sh, v << sh);
            if sh != 0 {
                put(w0 + i + 1, c >> (64 - sh), v >> (64 - sh));
            }
        }
        any != 0
    }
}

/// True when `set` holds every vertex with an edge, given every rank's
/// `has_row` bitmap. A hub has an edge ([`HubSet::from_degrees`] drops
/// degree 0), so the sets are equal exactly when their sizes are.
pub(crate) fn covers_rows<'a>(set: &HubSet, has_row: impl IntoIterator<Item = &'a Bitmap>) -> bool {
    let rows: usize = has_row.into_iter().map(Bitmap::count_ones).sum();
    set.len() == rows
}

/// Outcome of the per-level hub gather.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubGatherStats {
    /// Bytes moved by the gather, network-wide.
    pub bytes: u64,
    /// True when every rank contributed the empty flag.
    pub all_empty: bool,
}

/// One rank's share of a hub gather: the first vertex id it owns, and
/// its frontier and visited bitmaps over its owned range (bit `i` is
/// vertex `first + i`).
pub type HubBlock<'a> = (Vid, &'a Bitmap, &'a Bitmap);

/// Rebuilds the replicated views from every rank's frontier and visited
/// words and accounts the gather traffic.
///
/// The merged result is what every rank would hold after the
/// all-gather; the engine keeps that one copy rather than a replica per
/// rank. Traffic is still every rank's broadcast: each of the ranks
/// sends, to each of the others, either its pair of hub bitmaps (in
/// frontier, settled — [`HubSet::bitmap_bytes`] each) or, when it owns no
/// hub that is in either, a 1-byte flag.
pub fn gather_hub_level<'a>(
    state: &mut HubState,
    blocks: impl IntoIterator<Item = HubBlock<'a>>,
) -> HubGatherStats {
    state.reset();
    let (mut ranks, mut contributing) = (0u64, 0u64);
    for (first, curr, visited) in blocks {
        ranks += 1;
        contributing += u64::from(state.place(first as usize, curr.words(), visited.words()));
    }
    let pair = 2 * state.set.bitmap_bytes() as u64;
    let bytes = (contributing * pair + (ranks - contributing)) * ranks.saturating_sub(1);
    HubGatherStats { bytes, all_empty: contributing == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::RankState;
    use sw_graph::hub::HubSet;
    use sw_graph::Partition1D;

    /// The hub-index lookups: test-only, like the seed kernels that use
    /// them.
    impl HubState {
        /// Hub index of `v`, if it is a hub. Like the two index-based
        /// lookups below, it serves the seed kernels and the unit tests,
        /// which look hubs up by index; the generators read the
        /// vertex-indexed views.
        pub(crate) fn hub_index(&self, v: Vid) -> Option<u32> {
            self.set.hub_index(v)
        }

        /// True if hub `idx` is in the current frontier.
        pub(crate) fn in_frontier(&self, idx: u32) -> bool {
            self.frontier_hub(self.set.hub_vertex(idx))
        }

        /// True if hub `idx` of the Top-Down prefix has been settled. No
        /// view holds the settled hubs past the prefix: nothing reads them.
        pub(crate) fn is_visited(&self, idx: u32) -> bool {
            assert!(idx < self.td_limit, "hub {idx} is past the Top-Down prefix");
            self.settled_td_hub(self.set.hub_vertex(idx))
        }

        /// Puts hub `v` in the frontier view and, if it is in the Top-Down
        /// prefix, the settled view, as a gather would; unit tests of the
        /// generators seed the views with it.
        pub(crate) fn mark_hub(&mut self, v: Vid, in_frontier: bool, settled: bool) {
            assert!(self.set.contains(v), "{v} is not a hub");
            if in_frontier {
                self.frontier_ids.set(v as usize);
            }
            if settled && self.td_members.test(v as usize) {
                self.td_settled_ids.set(v as usize);
            }
        }
    }

    fn hub_state(hubs: usize) -> HubState {
        // A hub set over vertices 0..hubs (degrees descending).
        let degrees: Vec<(Vid, u64)> = (0..hubs as u64).map(|v| (v, 1_000 - v)).collect();
        HubState::new(HubSet::from_degrees(degrees, hubs))
    }

    /// Every rank's `(first id, frontier, visited)` over `part`, with
    /// `curr(v)` / `visited(v)` deciding each owned vertex.
    fn blocks(
        part: &Partition1D,
        curr: impl Fn(Vid) -> bool,
        visited: impl Fn(Vid) -> bool,
    ) -> Vec<(Vid, Bitmap, Bitmap)> {
        (0..part.num_ranks())
            .map(|r| {
                let (lo, hi) = part.range(r);
                let (mut c, mut v) = (Bitmap::new((hi - lo) as usize), Bitmap::new((hi - lo) as usize));
                for id in lo..hi {
                    if curr(id) {
                        c.set((id - lo) as usize);
                    }
                    if visited(id) {
                        v.set((id - lo) as usize);
                    }
                }
                (lo, c, v)
            })
            .collect()
    }

    fn gather(st: &mut HubState, blocks: &[(Vid, Bitmap, Bitmap)]) -> HubGatherStats {
        gather_hub_level(st, blocks.iter().map(|(lo, c, v)| (*lo, c, v)))
    }

    #[test]
    fn merge_unions_contributions() {
        let mut st = hub_state(8);
        let part = Partition1D::new(8, 3);
        let stats = gather(&mut st, &blocks(&part, |v| v == 1 || v == 5, |_| false));
        assert!(!stats.all_empty);
        assert!(st.in_frontier(1) && st.frontier_hub(1));
        assert!(st.in_frontier(5) && st.frontier_hub(5));
        assert!(!st.in_frontier(0) && !st.frontier_hub(0));
    }

    #[test]
    fn settled_view_follows_the_visited_words() {
        let mut st = hub_state(4);
        let part = Partition1D::new(4, 2);
        gather(&mut st, &blocks(&part, |_| false, |v| v == 0));
        assert!(st.is_visited(0) && st.settled_td_hub(0) && !st.settled_td_hub(3));
        gather(&mut st, &blocks(&part, |_| false, |v| v == 0 || v == 3));
        assert!(st.is_visited(0) && st.settled_td_hub(0));
        assert!(st.is_visited(3) && st.settled_td_hub(3));
        st.reset();
        assert!(!st.is_visited(0) && !st.settled_td_hub(0));
    }

    #[test]
    fn curr_is_replaced_not_accumulated() {
        let mut st = hub_state(4);
        let part = Partition1D::new(4, 1);
        gather(&mut st, &blocks(&part, |v| v == 0, |_| false));
        assert!(st.in_frontier(0) && st.frontier_hub(0));
        gather(&mut st, &blocks(&part, |_| false, |_| false));
        assert!(!st.in_frontier(0), "old frontier must clear");
        assert!(!st.frontier_hub(0), "and its view with it");
    }

    #[test]
    fn empty_flag_shrinks_traffic() {
        let mut st = hub_state(64);
        let part = Partition1D::new(64, 4);
        let stats = gather(&mut st, &blocks(&part, |_| false, |_| false));
        assert!(stats.all_empty);
        // 4 ranks × 3 peers × 1 byte.
        assert_eq!(stats.bytes, 12);

        let stats2 = gather(&mut st, &blocks(&part, |v| v == 0, |_| false));
        assert!(!stats2.all_empty);
        // Rank 0 sends its bitmap pair (2 × 8 bytes), the others the flag.
        assert_eq!(stats2.bytes, (2 * 8 + 3) * 3);
    }

    #[test]
    fn settled_hubs_past_the_top_down_prefix_still_contribute() {
        // Hub 3 is past a Top-Down prefix of 2: it has no settled view,
        // but the rank owning it sends its bitmaps, not the flag.
        let degrees: Vec<(Vid, u64)> = (0..4).map(|v| (v, 10 - v)).collect();
        let mut st = HubState::with_td_limit(HubSet::from_degrees(degrees, 4), 2);
        let part = Partition1D::new(4, 2);
        let stats = gather(&mut st, &blocks(&part, |_| false, |v| v == 3));
        assert!(!st.settled_td_hub(3));
        assert_eq!(stats.bytes, 2 * 8 + 1);
    }

    #[test]
    fn coverage_counts_rows_not_vertices() {
        // 12 vertices over 3 ranks of 4: rank 1 (vertices 4..8) has no
        // row at all; 8 vertices have an edge.
        let el = sw_graph::EdgeList::new(12, vec![(0, 1), (1, 2), (2, 3), (8, 9), (9, 10), (10, 11), (0, 11)]);
        let part = Partition1D::new(12, 3);
        let ranks: Vec<RankState> = (0..3).map(|r| RankState::build(r, part, &el)).collect();
        assert_eq!(ranks[1].has_row().count_ones(), 0);
        let degrees: Vec<(Vid, u64)> = ranks.iter().flat_map(RankState::owned_degrees).collect();
        let covers = |k: usize| {
            covers_rows(&HubSet::from_degrees(degrees.clone(), k), ranks.iter().map(RankState::has_row))
        };
        // Covered at k = rows, not one short of it.
        assert!(covers(8));
        assert!(!covers(7));
        // The isolated vertices never become hubs, so asking for every
        // vertex selects the same 8, and they still cover the rows.
        assert_eq!(HubSet::from_degrees(degrees.clone(), 12).len(), 8);
        assert!(covers(12));
        assert!(!covers(0));
        // A graph without an edge is covered by the empty set.
        let bare = sw_graph::EdgeList::new(4, vec![]);
        let lone = RankState::build(0, Partition1D::new(4, 1), &bare);
        assert!(covers_rows(&HubSet::from_degrees(lone.owned_degrees(), 4), [lone.has_row()]));
    }

    /// The gather as it was when the state was kept by hub index: every
    /// rank loops over the hubs it owns and fills a pair of hub-indexed
    /// bitmaps. Returns the bytes charged and, by hub index, the frontier
    /// and settled bits every rank then holds.
    fn index_gather(
        set: &HubSet,
        part: &Partition1D,
        curr: &[bool],
        visited: &[bool],
    ) -> (u64, Vec<bool>, Vec<bool>) {
        let ranks = part.num_ranks() as u64;
        let k = set.len();
        let mut bytes = 0;
        let (mut frontier, mut settled) = (vec![false; k], vec![false; k]);
        for r in 0..part.num_ranks() {
            let (mut c, mut v) = (Bitmap::new(k), Bitmap::new(k));
            for (i, &h) in set.hubs().iter().enumerate() {
                if part.owner(h) == r {
                    if curr[h as usize] {
                        c.set(i);
                    }
                    if visited[h as usize] {
                        v.set(i);
                    }
                }
            }
            bytes += if c.all_zero() && v.all_zero() {
                1
            } else {
                (c.byte_size() + v.byte_size()) as u64
            } * (ranks - 1);
            c.iter_ones().for_each(|i| frontier[i] = true);
            v.iter_ones().for_each(|i| settled[i] = true);
        }
        (bytes, frontier, settled)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        #[test]
        fn views_agree_with_the_hub_index_gather(
            degrees in proptest::collection::vec(0u64..40, 8..1600),
            k_pick in 0usize..5,
            td_pick in 0usize..1 << 20,
            rank_pick in 0usize..5,
            density in 0u32..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Vertices with degree 0 are never hubs; `k` from none
            // through one to every vertex with an edge, `td` anywhere in
            // it, rank counts that cut the id space off word boundaries.
            let n = degrees.len();
            let k = [0, 1, 1 << 8, 1 << 10, n + 64][k_pick];
            let ranks = [1, 3, 5, 7, 8][rank_pick];
            let set = HubSet::from_degrees(degrees.iter().enumerate().map(|(v, &d)| (v as Vid, d)).collect(), k);
            let td = (td_pick % (set.len() + 1)) as u32;
            let mut st = HubState::with_td_limit(set.clone(), td);
            let part = Partition1D::new(n as u64, ranks);
            let mut rng = seed;
            // Two gathers: the second replaces the first's frontier and
            // settled map. Density 0 leaves every rank empty; 1 in 64
            // leaves some ranks empty.
            for _ in 0..2 {
                let odds = [0, 1, 16, 32][density as usize];
                let mut draw = || (splitmix(&mut rng) % 64) < odds;
                let curr: Vec<bool> = (0..n).map(|_| draw()).collect();
                let visited: Vec<bool> = (0..n).map(|_| draw()).collect();
                let (bytes, frontier, settled) = index_gather(&set, &part, &curr, &visited);
                let stats = gather(&mut st, &blocks(&part, |v| curr[v as usize], |v| visited[v as usize]));
                proptest::prop_assert_eq!(stats.bytes, bytes);
                proptest::prop_assert_eq!(stats.all_empty, !frontier.iter().chain(&settled).any(|&b| b));
                for idx in 0..set.len() as u32 {
                    proptest::prop_assert_eq!((idx, st.in_frontier(idx)), (idx, frontier[idx as usize]));
                    if idx < td {
                        proptest::prop_assert_eq!((idx, st.is_visited(idx)), (idx, settled[idx as usize]));
                    }
                }
                let past = set.hubs().iter().max().map_or(0, |&m| m + 1);
                let probes = (0..n as Vid + 64).chain([past, past + 1, past + 64, Vid::MAX]);
                for v in probes {
                    let idx = st.hub_index(v);
                    proptest::prop_assert_eq!((v, set.contains(v)), (v, idx.is_some()));
                    proptest::prop_assert_eq!(
                        (v, st.frontier_hub(v)),
                        (v, idx.is_some_and(|i| frontier[i as usize]))
                    );
                    proptest::prop_assert_eq!(
                        (v, st.settled_td_hub(v)),
                        (v, idx.is_some_and(|i| i < td && settled[i as usize]))
                    );
                }
            }
        }
    }
}
