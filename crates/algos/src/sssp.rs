//! Single-Source Shortest Paths: the shared unreachable marker and the
//! sequential Dijkstra oracle.
//!
//! The distributed kernel is Δ-stepping ([`crate::delta_stepping`]).
//! Weights are synthetic but deterministic ([`crate::runtime::edge_weight`]),
//! recomputable from the endpoints, so no weighted input format is needed
//! and the oracle below sees exactly the weights the kernel relaxes.

use crate::runtime::edge_weight;
use std::collections::BinaryHeap;
use sw_graph::{Csr, EdgeList, Vid};

/// Unreachable marker.
pub const INF: u64 = u64::MAX;

/// Single-node Dijkstra oracle over the same synthetic weights.
pub fn sssp_oracle(el: &EdgeList, root: Vid, max_weight: u64) -> Vec<u64> {
    let csr = Csr::from_edge_list(el);
    let n = el.num_vertices as usize;
    let mut dist = vec![INF; n];
    dist[root as usize] = 0;
    let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, Vid)> = BinaryHeap::new();
    heap.push((std::cmp::Reverse(0), root));
    while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &v in csr.neighbors(u) {
            let cand = d + edge_weight(u, v, max_weight);
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push((std::cmp::Reverse(cand), v));
            }
        }
    }
    dist
}
