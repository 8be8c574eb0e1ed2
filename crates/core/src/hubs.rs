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
//! The generators read the bitmaps through two views indexed by vertex
//! id, rebuilt once per gather: one bit test per scanned edge, no
//! hub-index lookup. Every rank's copy is the same, so the engine keeps
//! one.

use sw_graph::hub::HubSet;
use sw_graph::{Bitmap, Vid};

/// The replicated hub state (identical on every rank).
#[derive(Clone, Debug)]
pub struct HubState {
    /// The global hub set (identical on every rank), ordered by descending
    /// degree — the Top-Down subset is its prefix.
    pub(crate) set: HubSet,
    /// Size of the Top-Down hub subset (2^12 in the paper): only hubs with
    /// index below this participate in the Top-Down visited-skip.
    pub(crate) td_limit: u32,
    /// Hub membership in the current frontier, by hub index.
    pub(crate) curr: Bitmap,
    /// Hub settled map, by hub index.
    pub(crate) visited: Bitmap,
    /// `curr` by vertex id: bit `v` ⟺ hub `v` is in the frontier. What
    /// the Backward Generator tests per hub neighbour.
    frontier_ids: Bitmap,
    /// Settled hubs of the Top-Down prefix, by vertex id. What the
    /// Forward Generator tests per scanned edge.
    td_settled_ids: Bitmap,
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
        let n = set.len();
        let ids = set.hubs().iter().max().map_or(0, |&m| m as usize + 1);
        Self {
            set,
            td_limit,
            curr: Bitmap::new(n),
            visited: Bitmap::new(n),
            frontier_ids: Bitmap::new(ids),
            td_settled_ids: Bitmap::new(ids),
        }
    }

    /// Hub index of `v`, if it is a hub. Test-only, like the two
    /// index-based lookups below: the seed kernels and the unit tests
    /// look hubs up by index, the generators read the vertex-indexed
    /// views.
    #[cfg(test)]
    pub(crate) fn hub_index(&self, v: Vid) -> Option<u32> {
        self.set.hub_index(v)
    }

    /// True if hub `idx` is in the current frontier.
    #[cfg(test)]
    pub(crate) fn in_frontier(&self, idx: u32) -> bool {
        self.curr.get(idx as usize)
    }

    /// True if hub `idx` has been settled.
    #[cfg(test)]
    pub(crate) fn is_visited(&self, idx: u32) -> bool {
        self.visited.get(idx as usize)
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

    /// Rebuilds the vertex-indexed views from `curr`, `visited` and
    /// `td_limit`; call it after writing those fields directly.
    pub(crate) fn refresh_views(&mut self) {
        let hubs = self.set.hubs();
        self.frontier_ids.clear_all();
        for i in self.curr.iter_ones() {
            self.frontier_ids.set(hubs[i] as usize);
        }
        self.td_settled_ids.clear_all();
        for i in self.visited.iter_ones().take_while(|&i| i < self.td_limit as usize) {
            self.td_settled_ids.set(hubs[i] as usize);
        }
    }

    /// Back to the pre-run state: no hub in the frontier or settled.
    pub(crate) fn reset(&mut self) {
        self.curr.clear_all();
        self.visited.clear_all();
        self.refresh_views();
    }
}

/// Outcome of the per-level hub gather.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubGatherStats {
    /// Bytes moved by the gather, network-wide.
    pub bytes: u64,
    /// True when every rank contributed the empty flag.
    pub all_empty: bool,
}

/// Merges per-rank hub contributions into the replicated state and
/// accounts the gather traffic.
///
/// `contribs[r]` is rank r's local view: bits set for hubs the rank owns
/// that are (in the new frontier, settled). The merged result is what
/// every rank would hold after the all-gather; the engine keeps that one
/// copy rather than a replica per rank. Traffic is still every rank's
/// broadcast: each of the `contribs.len()` ranks sends either its bitmap
/// pair or (if empty) a 1-byte flag to each of the others.
pub fn gather_hub_level(
    state: &mut HubState,
    contribs_curr: &[Bitmap],
    contribs_visited: &[Bitmap],
) -> HubGatherStats {
    let ranks = contribs_curr.len() as u64;
    assert_eq!(contribs_visited.len() as u64, ranks);
    let mut bytes = 0u64;
    let mut all_empty = true;
    for (c, v) in contribs_curr.iter().zip(contribs_visited) {
        // Broadcast to the other (ranks-1) peers: bitmap pair or flag.
        let payload = if c.all_zero() && v.all_zero() {
            1
        } else {
            all_empty = false;
            (c.byte_size() + v.byte_size()) as u64
        };
        bytes += payload * (ranks - 1);
    }

    state.curr.clear_all();
    for c in contribs_curr {
        state.curr.union_with(c);
    }
    for v in contribs_visited {
        state.visited.union_with(v);
    }
    state.refresh_views();
    HubGatherStats { bytes, all_empty }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::hub::HubSet;

    fn hub_state(hubs: usize) -> HubState {
        // A hub set over vertices 0..hubs (degrees descending).
        let degrees: Vec<(Vid, u64)> = (0..hubs as u64).map(|v| (v, 1_000 - v)).collect();
        HubState::new(HubSet::from_degrees(degrees, hubs))
    }

    fn empty(ranks: usize, hubs: usize) -> Vec<Bitmap> {
        (0..ranks).map(|_| Bitmap::new(hubs)).collect()
    }

    #[test]
    fn merge_unions_contributions() {
        let mut st = hub_state(8);
        let mut c = empty(3, 8);
        c[0].set(1);
        c[2].set(5);
        let stats = gather_hub_level(&mut st, &c, &empty(3, 8));
        assert!(!stats.all_empty);
        assert!(st.in_frontier(1) && st.frontier_hub(1));
        assert!(st.in_frontier(5) && st.frontier_hub(5));
        assert!(!st.in_frontier(0) && !st.frontier_hub(0));
    }

    #[test]
    fn visited_accumulates_across_levels() {
        let mut st = hub_state(4);
        let mut v1 = empty(2, 4);
        v1[0].set(0);
        gather_hub_level(&mut st, &empty(2, 4), &v1);
        let mut v2 = empty(2, 4);
        v2[1].set(3);
        gather_hub_level(&mut st, &empty(2, 4), &v2);
        assert!(st.is_visited(0) && st.settled_td_hub(0));
        assert!(st.is_visited(3) && st.settled_td_hub(3));
        st.reset();
        assert!(!st.is_visited(0) && !st.settled_td_hub(0));
    }

    #[test]
    fn curr_is_replaced_not_accumulated() {
        let mut st = hub_state(4);
        let mut c1 = empty(1, 4);
        c1[0].set(0);
        gather_hub_level(&mut st, &c1, &empty(1, 4));
        assert!(st.in_frontier(0) && st.frontier_hub(0));
        gather_hub_level(&mut st, &empty(1, 4), &empty(1, 4));
        assert!(!st.in_frontier(0), "old frontier must clear");
        assert!(!st.frontier_hub(0), "and its view with it");
    }

    #[test]
    fn empty_flag_shrinks_traffic() {
        let mut st = hub_state(64);
        let stats = gather_hub_level(&mut st, &empty(4, 64), &empty(4, 64));
        assert!(stats.all_empty);
        // 4 ranks × 3 peers × 1 byte.
        assert_eq!(stats.bytes, 12);

        let mut c = empty(4, 64);
        c[0].set(0);
        let stats2 = gather_hub_level(&mut st, &c, &empty(4, 64));
        assert!(stats2.bytes > stats.bytes);
    }

    /// The accounting as it was when every rank kept its own replica and
    /// the gather merged into all of them.
    fn replica_gather(replicas: &mut [HubState], curr: &[Bitmap], visited: &[Bitmap]) -> u64 {
        let ranks = replicas.len() as u64;
        let mut bytes = 0;
        for (c, v) in curr.iter().zip(visited) {
            bytes += if c.all_zero() && v.all_zero() {
                1
            } else {
                (c.byte_size() + v.byte_size()) as u64
            } * (ranks - 1);
        }
        for st in replicas.iter_mut() {
            st.curr.clear_all();
            for (c, v) in curr.iter().zip(visited) {
                st.curr.union_with(c);
                st.visited.union_with(v);
            }
        }
        bytes
    }

    #[test]
    fn one_shared_state_charges_what_eight_replicas_did() {
        // 8 ranks, 200 hubs; each level some ranks contribute nothing
        // (the one-byte flag), others frontier and/or settled bits.
        let mut shared = hub_state(200);
        let mut replicas: Vec<HubState> = (0..8).map(|_| hub_state(200)).collect();
        for level in 0..6usize {
            let (mut c, mut v) = (empty(8, 200), empty(8, 200));
            for r in 0..8 {
                if (r + level) % 3 == 0 {
                    continue;
                }
                c[r].set((r * 23 + level * 7) % 200);
                v[r].set((r * 31 + level * 11) % 200);
                if r % 2 == 0 {
                    v[r].set((r + level) % 200);
                }
            }
            let bytes = gather_hub_level(&mut shared, &c, &v).bytes;
            let replicated = replica_gather(&mut replicas, &c, &v);
            assert_eq!(bytes, replicated, "level {level}");
            for st in &replicas {
                assert_eq!((&st.curr, &st.visited), (&shared.curr, &shared.visited));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn views_agree_with_hub_index_and_the_hub_bitmaps(
            ids in proptest::collection::vec(0u64..2048, 0..64),
            k in 0usize..48,
            td in 0u32..64,
            curr_bits in proptest::collection::vec(0usize..64, 0..24),
            visited_bits in proptest::collection::vec(0usize..64, 0..24),
        ) {
            // Distinct ids; `k` cuts the set from empty through k = 1 to
            // everything drawn, `td` anywhere inside or past it.
            let mut seen = std::collections::HashSet::new();
            let degrees: Vec<(Vid, u64)> = ids
                .iter()
                .filter(|&&v| seen.insert(v))
                .enumerate()
                .map(|(i, &v)| (v, 1_000 - i as u64))
                .collect();
            let set = HubSet::from_degrees(degrees.clone(), k);
            let n = set.len();
            let mut st = HubState::with_td_limit(set, td.min(n as u32));
            // Two gathers over two ranks: the second replaces the
            // frontier and adds to the settled map.
            for half in [0, 1] {
                let (mut c, mut v) = (empty(2, n), empty(2, n));
                for (j, &b) in curr_bits.iter().enumerate().filter(|(j, _)| j % 2 == half) {
                    if b < n {
                        c[j % 2].set(b);
                    }
                }
                for (j, &b) in visited_bits.iter().enumerate().filter(|(j, _)| j % 2 == half) {
                    if b < n {
                        v[j % 2].set(b);
                    }
                }
                gather_hub_level(&mut st, &c, &v);
                let past = st.set.hubs().iter().max().map_or(0, |&m| m + 1);
                let probes = degrees.iter().map(|&(v, _)| v).chain(0..64).chain([past, past + 1, past + 64, Vid::MAX]);
                for v in probes {
                    let idx = st.hub_index(v);
                    proptest::prop_assert_eq!((v, st.set.contains(v)), (v, idx.is_some()));
                    proptest::prop_assert_eq!((v, st.frontier_hub(v)), (v, idx.is_some_and(|i| st.in_frontier(i))));
                    proptest::prop_assert_eq!(
                        (v, st.settled_td_hub(v)),
                        (v, idx.is_some_and(|i| i < st.td_limit && st.is_visited(i)))
                    );
                }
            }
        }
    }
}
