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

use sw_graph::hub::HubSet;
use sw_graph::{Bitmap, Vid};

/// The replicated hub state one rank keeps.
#[derive(Clone, Debug)]
pub struct HubState {
    /// The global hub set (identical on every rank), ordered by descending
    /// degree — the Top-Down subset is its prefix.
    pub set: HubSet,
    /// Size of the Top-Down hub subset (2^12 in the paper): only hubs with
    /// index below this participate in the Top-Down visited-skip.
    pub td_limit: u32,
    /// Hub membership in the current frontier.
    pub curr: Bitmap,
    /// Hub settled map.
    pub visited: Bitmap,
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
        Self {
            set,
            td_limit,
            curr: Bitmap::new(n),
            visited: Bitmap::new(n),
        }
    }

    /// Hub index of `v`, if it is a hub.
    #[inline]
    pub fn hub_index(&self, v: Vid) -> Option<u32> {
        self.set.hub_index(v)
    }

    /// True if hub `idx` is in the current frontier.
    #[inline]
    pub fn in_frontier(&self, idx: u32) -> bool {
        self.curr.get(idx as usize)
    }

    /// True if hub `idx` has been settled.
    #[inline]
    pub fn is_visited(&self, idx: u32) -> bool {
        self.visited.get(idx as usize)
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

/// Merges per-rank hub contributions into every rank's replicated state
/// and accounts the gather traffic.
///
/// `contribs[r]` is rank r's local view: bits set for hubs the rank owns
/// that are (in `next`, settled). The merged result is written into every
/// element of `states`. Traffic: each rank broadcasts either its bitmap or
/// (if empty) a 1-byte flag to all other ranks.
pub fn gather_hub_level(
    states: &mut [HubState],
    contribs_curr: &[Bitmap],
    contribs_visited: &[Bitmap],
) -> HubGatherStats {
    let ranks = states.len();
    assert_eq!(contribs_curr.len(), ranks);
    assert_eq!(contribs_visited.len(), ranks);
    if ranks == 0 {
        return HubGatherStats::default();
    }

    let mut bytes = 0u64;
    let mut all_empty = true;
    for r in 0..ranks {
        let empty = contribs_curr[r].all_zero() && contribs_visited[r].all_zero();
        // Broadcast to the other (ranks-1) peers: bitmap pair or flag.
        let payload = if empty {
            1
        } else {
            all_empty = false;
            (contribs_curr[r].byte_size() + contribs_visited[r].byte_size()) as u64
        };
        bytes += payload * (ranks as u64 - 1);
    }

    // Merge in place, no bitmap allocated: rank 0's `curr` (about to be
    // replaced anyway) first holds the merged *visited* contributions
    // while every rank ORs them in, then becomes the merged frontier
    // the other ranks copy.
    let (first, rest) = states.split_first_mut().expect("ranks > 0");
    first.curr.clear_all();
    for c in contribs_visited {
        first.curr.union_with(c);
    }
    first.visited.union_with(&first.curr);
    for st in rest.iter_mut() {
        st.visited.union_with(&first.curr);
    }
    first.curr.clear_all();
    for c in contribs_curr {
        first.curr.union_with(c);
    }
    for st in rest.iter_mut() {
        st.curr.copy_from(&first.curr);
    }

    HubGatherStats { bytes, all_empty }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::hub::HubSet;

    fn hub_states(ranks: usize, hubs: usize) -> Vec<HubState> {
        // A hub set over vertices 0..hubs (degrees descending).
        let degrees: Vec<(Vid, u64)> = (0..hubs as u64).map(|v| (v, 100 - v)).collect();
        let set = HubSet::from_degrees(degrees, hubs);
        (0..ranks).map(|_| HubState::new(set.clone())).collect()
    }

    #[test]
    fn merge_unions_contributions() {
        let mut states = hub_states(3, 8);
        let mut c: Vec<Bitmap> = (0..3).map(|_| Bitmap::new(8)).collect();
        let v: Vec<Bitmap> = (0..3).map(|_| Bitmap::new(8)).collect();
        c[0].set(1);
        c[2].set(5);
        let stats = gather_hub_level(&mut states, &c, &v);
        assert!(!stats.all_empty);
        for st in &states {
            assert!(st.in_frontier(1));
            assert!(st.in_frontier(5));
            assert!(!st.in_frontier(0));
        }
    }

    #[test]
    fn visited_accumulates_across_levels() {
        let mut states = hub_states(2, 4);
        let empty: Vec<Bitmap> = (0..2).map(|_| Bitmap::new(4)).collect();
        let mut v1: Vec<Bitmap> = (0..2).map(|_| Bitmap::new(4)).collect();
        v1[0].set(0);
        gather_hub_level(&mut states, &empty, &v1);
        let mut v2: Vec<Bitmap> = (0..2).map(|_| Bitmap::new(4)).collect();
        v2[1].set(3);
        gather_hub_level(&mut states, &empty, &v2);
        assert!(states[0].is_visited(0));
        assert!(states[0].is_visited(3));
    }

    #[test]
    fn curr_is_replaced_not_accumulated() {
        let mut states = hub_states(1, 4);
        let mut c1 = vec![Bitmap::new(4)];
        c1[0].set(0);
        let v = vec![Bitmap::new(4)];
        gather_hub_level(&mut states, &c1, &v);
        assert!(states[0].in_frontier(0));
        let c2 = vec![Bitmap::new(4)];
        gather_hub_level(&mut states, &c2, &v);
        assert!(!states[0].in_frontier(0), "old frontier must clear");
    }

    #[test]
    fn empty_flag_shrinks_traffic() {
        let mut states = hub_states(4, 64);
        let empty: Vec<Bitmap> = (0..4).map(|_| Bitmap::new(64)).collect();
        let stats = gather_hub_level(&mut states, &empty, &empty);
        assert!(stats.all_empty);
        // 4 ranks × 3 peers × 1 byte.
        assert_eq!(stats.bytes, 12);

        let mut c: Vec<Bitmap> = (0..4).map(|_| Bitmap::new(64)).collect();
        c[0].set(0);
        let stats2 = gather_hub_level(&mut states, &c, &empty);
        assert!(stats2.bytes > stats.bytes);
    }
}
