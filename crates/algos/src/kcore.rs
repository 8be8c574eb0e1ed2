//! K-core decomposition by distributed iterative peeling.
//!
//! A vertex is in the k-core if it survives repeatedly deleting all
//! vertices of degree < k. Each round, ranks peel their local
//! sub-threshold vertices and shuffle degree-decrement records
//! `(neighbor, 1)` to owners — the same reaction-module shape again.
//! Terminates when a round peels nothing.

use crate::runtime::AlgoCluster;
use sw_graph::{Csr, EdgeList};
use swbfs_core::engine::Transport;

/// One rank's remaining degrees and alive flags.
struct Peel {
    deg: Vec<u64>,
    alive: Vec<bool>,
}

/// Runs distributed k-core; returns a boolean per vertex: true iff the
/// vertex is in the k-core.
pub fn kcore_distributed<T: Transport>(cluster: &mut AlgoCluster<T>, k: u64) -> Vec<bool> {
    // Remaining degree (self-loops don't support a core) and alive flags.
    let mut state: Vec<Peel> = (0..cluster.num_ranks())
        .map(|r| {
            let csr = &cluster.csrs[r as usize];
            let (start, _) = cluster.part.range(r);
            let deg: Vec<u64> = (0..csr.num_rows() as usize)
                .map(|i| {
                    let u = start + i as u64;
                    csr.neighbors_local(i).iter().filter(|&&v| v != u).count() as u64
                })
                .collect();
            let alive = vec![true; deg.len()];
            Peel { deg, alive }
        })
        .collect();
    cluster.set_round(0);
    // Peel everything currently below threshold; each peeled vertex
    // sends its neighbours a decrement. A local decrement applies at once
    // and may cascade within the same round — harmless, k-core is
    // peeling-order independent.
    while cluster.push(
        &mut state,
        |s, i, _, _| {
            let peel = s.alive[i] && s.deg[i] < k;
            s.alive[i] &= !peel;
            peel.then_some(())
        },
        |(), u, v| (v != u).then_some(1),
        |s, l, dec| s.deg[l] = s.deg[l].saturating_sub(dec),
    ) {}

    // Ranks own consecutive id blocks in rank order.
    state.into_iter().flat_map(|s| s.alive).collect()
}

/// Single-node peeling oracle.
pub fn kcore_oracle(el: &EdgeList, k: u64) -> Vec<bool> {
    let csr = Csr::from_edge_list(el);
    let n = el.num_vertices as usize;
    let mut deg: Vec<u64> = (0..n)
        .map(|i| {
            csr.neighbors_local(i)
                .iter()
                .filter(|&&v| v != i as u64)
                .count() as u64
        })
        .collect();
    let mut alive = vec![true; n];
    loop {
        let mut peeled = false;
        for u in 0..n {
            if alive[u] && deg[u] < k {
                alive[u] = false;
                peeled = true;
                for &v in csr.neighbors_local(u) {
                    if v as usize != u {
                        deg[v as usize] = deg[v as usize].saturating_sub(1);
                    }
                }
            }
        }
        if !peeled {
            break;
        }
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{generate_kronecker, KroneckerConfig};
    use swbfs_core::config::Messaging;

    #[test]
    fn local_cascades_match_oracle() {
        // A path peels from both ends inward; local decrements cascade
        // within a round while remote ones wait for the exchange.
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        let core = kcore_distributed(&mut c, 2);
        assert_eq!(core, kcore_oracle(&el, 2));
        assert!(core.iter().all(|&x| !x));
    }

    #[test]
    fn matches_oracle_on_kronecker() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 8));
        for k in [2u64, 4, 8, 16] {
            let oracle = kcore_oracle(&el, k);
            let mut c = AlgoCluster::new(&el, 5, 2, Messaging::Relay);
            assert_eq!(kcore_distributed(&mut c, k), oracle, "k = {k}");
        }
    }

    #[test]
    fn triangle_survives_2core_tail_does_not() {
        // Triangle 0-1-2 with a tail 2-3.
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Relay);
        let core = kcore_distributed(&mut c, 2);
        assert_eq!(core, vec![true, true, true, false]);
    }

    #[test]
    fn k0_keeps_everyone_kbig_kills_everyone() {
        let el = generate_kronecker(&KroneckerConfig::graph500(7, 1));
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        assert!(kcore_distributed(&mut c, 0).iter().all(|&x| x));
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        assert!(kcore_distributed(&mut c, 1 << 30).iter().all(|&x| !x));
    }

    #[test]
    fn self_loops_do_not_support_a_core() {
        let el = EdgeList::new(2, vec![(0, 0), (0, 1)]);
        let mut c = AlgoCluster::new(&el, 1, 1, Messaging::Direct);
        let core = kcore_distributed(&mut c, 2);
        assert_eq!(core, vec![false, false]);
    }
}
