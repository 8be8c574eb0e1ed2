//! Distributed graph construction — Graph500 step (3) as the real machine
//! runs it.
//!
//! On the physical system no node ever sees the whole edge list: the
//! generator writes per-node chunks, and construction *shuffles* each
//! edge to the owners of its endpoints before the local CSR build — one
//! more reaction-module workload, and part of what §5 means by scaling
//! "the entire benchmark to 10.6 million cores". This module implements
//! that shuffle over the same Direct/Relay exchange as the traversal and
//! proves (by test) that the resulting partitioned CSRs are identical to
//! the shortcut build from the full list.

use crate::arena::ExchangeArena;
use crate::config::Messaging;
use crate::exchange::{Codec, ExchangeStats};
use crate::messages::EdgeRec;
use sw_graph::{Csr, EdgeList, Partition1D, RowOrder, Vid};
use sw_net::GroupLayout;

/// Traffic and outcome of a distributed construction.
#[derive(Debug)]
pub struct Construction {
    /// Per-rank CSR partitions, identical to the shortcut
    /// [`Csr::build_partitioned`] over the full list.
    pub csrs: Vec<Csr>,
    /// Exchange traffic the shuffle generated.
    pub stats: ExchangeStats,
}

/// Shuffles `el` — held as `ranks` generator chunks — to endpoint owners
/// and builds every rank's CSR partition in `order`.
///
/// Chunk `r` is `el.edges[r * chunk .. (r+1) * chunk]` (the deterministic
/// slices a per-node Kronecker generator would emit). Every edge travels
/// to `owner(u)` and, when different, `owner(v)`.
pub fn build_distributed(
    el: &EdgeList,
    part: &Partition1D,
    layout: &GroupLayout,
    messaging: Messaging,
    order: RowOrder,
) -> Construction {
    let ranks = part.num_ranks() as usize;
    let chunk = el.len().div_ceil(ranks.max(1));

    // Shuffle edges to owners. Each rank keeps locally-owned edges and
    // sends the rest.
    let mut kept: Vec<Vec<(Vid, Vid)>> = vec![Vec::new(); ranks];
    let mut arena = ExchangeArena::new(ranks);
    let mut out = arena.lend_outboxes();
    for (r, edges) in el.edges.chunks(chunk.max(1)).enumerate() {
        for &(u, v) in edges {
            let ou = part.owner(u) as usize;
            let ov = part.owner(v) as usize;
            if ou == r {
                kept[r].push((u, v));
            } else {
                out[r].push(ou as u32, EdgeRec { u, v });
            }
            if ov != ou {
                if ov == r {
                    kept[r].push((u, v));
                } else {
                    out[r].push(ov as u32, EdgeRec { u, v });
                }
            }
        }
    }
    let (inboxes, stats) = arena.exchange(messaging, out, layout, Codec::Fixed(16));
    // Its outbox and bucket buffers are spent: free them for the rows.
    drop(arena);

    // Rank `r` builds from its kept edges and its inbox, read where they
    // lie. Every row is sorted into a total order, so arrival order does
    // not matter.
    let csrs = Csr::build_partitioned(part, order, |r| {
        let r = r as usize;
        kept[r].iter().copied().chain(inboxes[r].iter().map(|rec| (rec.u, rec.v)))
    });
    Construction { csrs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{generate_kronecker, KroneckerConfig};

    fn check(el: &EdgeList, ranks: u32, messaging: Messaging) {
        let part = Partition1D::new(el.num_vertices, ranks);
        let layout = GroupLayout::new(ranks, 3.min(ranks));
        for order in [RowOrder::ById, RowOrder::ByDegree] {
            let built = build_distributed(el, &part, &layout, messaging, order);
            let expect = Csr::build_partitioned(&part, order, |_| el.edges.iter().copied());
            assert_eq!(built.csrs, expect, "{order:?}");
        }
    }

    #[test]
    fn matches_shortcut_build_on_kronecker() {
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 12));
        for ranks in [1u32, 4, 7] {
            check(&el, ranks, Messaging::Relay);
        }
        check(&el, 5, Messaging::Direct);
    }

    #[test]
    fn handles_self_loops_and_duplicates() {
        let el = EdgeList::new(6, vec![(0, 0), (1, 5), (1, 5), (5, 1), (2, 2)]);
        check(&el, 3, Messaging::Relay);
    }

    #[test]
    fn traffic_is_bounded_by_two_records_per_edge() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 8));
        let part = Partition1D::new(el.num_vertices, 8);
        let layout = GroupLayout::new(8, 4);
        let built = build_distributed(&el, &part, &layout, Messaging::Direct, RowOrder::ById);
        assert!(built.stats.record_hops <= 2 * el.len() as u64);
        assert!(built.stats.record_hops > 0);
    }

    #[test]
    fn empty_graph_constructs() {
        let el = EdgeList::new(4, vec![]);
        check(&el, 2, Messaging::Direct);
    }
}
