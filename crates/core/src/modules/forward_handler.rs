//! Forward Handler (Algorithm 2, `FORWARD_HANDLER`): apply incoming
//! forward claims — a *dispose* module (reads, updates memory, sends
//! nothing). Claims are min-parent ([`RankState::claim_min`]), so the
//! inbox may arrive in any order.

use super::ModuleStats;
use crate::messages::EdgeRec;
use crate::rank::RankState;

/// Applies a batch of forward records, in any order, to the owned
/// parent map. Records must target vertices this rank owns.
pub fn forward_handler(state: &mut RankState, records: &[EdgeRec]) -> ModuleStats {
    let mut stats = ModuleStats::default();
    for rec in records {
        debug_assert!(state.owns(rec.v), "forward record misrouted");
        let vl = state.local(rec.v);
        if state.claim_min(vl, rec.u) {
            stats.local_claims += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{EdgeList, Partition1D};

    fn state() -> RankState {
        let el = EdgeList::new(8, vec![(4, 5), (5, 6)]);
        RankState::build(1, Partition1D::new(8, 2), &el)
    }

    #[test]
    fn smallest_parent_wins_duplicates_ignored() {
        let mut s = state();
        let recs = vec![
            EdgeRec { u: 1, v: 5 },
            EdgeRec { u: 0, v: 5 },
            EdgeRec { u: 2, v: 6 },
            EdgeRec { u: 2, v: 6 },
        ];
        let stats = forward_handler(&mut s, &recs);
        assert_eq!(stats.local_claims, 2, "one per newly claimed vertex");
        assert_eq!(s.parent[s.local(5)], 0);
        assert_eq!(s.parent[s.local(6)], 2);
        assert!(s.next.contains(s.local(5)));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut s = state();
        let stats = forward_handler(&mut s, &[]);
        assert_eq!(stats, ModuleStats::default());
    }
}
