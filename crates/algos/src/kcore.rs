//! K-core decomposition by distributed iterative peeling.
//!
//! A vertex is in the k-core if it survives repeatedly deleting all
//! vertices of degree < k. Each round, ranks peel their local
//! sub-threshold vertices and shuffle degree-decrement records
//! `(neighbor, 1)` to owners — the same reaction-module shape again.
//! Terminates when a round peels nothing.

use crate::runtime::AlgoCluster;
use swbfs_core::engine::Transport;
use sw_graph::{Csr, EdgeList};
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;

/// Runs distributed k-core; returns a boolean per vertex: true iff the
/// vertex is in the k-core.
pub fn kcore_distributed<T: Transport>(cluster: &mut AlgoCluster<T>, k: u64) -> Vec<bool> {
    let ranks = cluster.num_ranks() as usize;

    // Remaining degree (self-loops don't support a core) and alive flags.
    let mut deg: Vec<Vec<u64>> = (0..ranks)
        .map(|r| {
            let csr = &cluster.csrs[r];
            let (start, _) = cluster.part.range(r as u32);
            (0..csr.num_rows() as usize)
                .map(|i| {
                    let u = start + i as u64;
                    csr.neighbors_local(i).iter().filter(|&&v| v != u).count() as u64
                })
                .collect()
        })
        .collect();
    let mut alive: Vec<Vec<bool>> = deg.iter().map(|d| vec![true; d.len()]).collect();

    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();
    let mut round = 0u32;
    loop {
        cluster.set_round(round);
        // Peel everything currently below threshold.
        let mut out = cluster.lend_outboxes();
        let mut peeled_any = false;
        for r in 0..ranks {
            let t0 = ins::span_begin(tr);
            let mut produced = 0u64;
            let csr = &cluster.csrs[r];
            let (start, _) = cluster.part.range(r as u32);
            for i in 0..deg[r].len() {
                if alive[r][i] && deg[r][i] < k {
                    alive[r][i] = false;
                    peeled_any = true;
                    let u = start + i as u64;
                    for &v in csr.neighbors_local(i) {
                        if v == u {
                            continue;
                        }
                        produced += 1;
                        let owner = cluster.part.owner(v) as usize;
                        if owner == r {
                            // Local decrement applies immediately (and may
                            // cascade within this same round — harmless,
                            // k-core is peeling-order independent).
                            let vl = cluster.part.to_local(v) as usize;
                            deg[r][vl] = deg[r][vl].saturating_sub(1);
                        } else {
                            out[r].push(owner as u32, EdgeRec { u: v, v: 1 });
                        }
                    }
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
        }
        if !peeled_any {
            break;
        }
        // Apply decrements (local ones included — they travelled through
        // the outbox to keep one code path; owner == r records deliver to
        // self, which the exchange forbids, so subtract them inline).
        let inboxes = cluster.exchange(out);
        for (r, inbox) in inboxes.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            for rec in inbox {
                let vl = cluster.part.to_local(rec.u) as usize;
                deg[r][vl] = deg[r][vl].saturating_sub(rec.v);
            }
            ins::span_end(
                tr,
                r,
                ins::SPAN_HANDLE,
                ins::CAT_COMPUTE,
                round,
                t0,
                inbox.len() as u64,
            );
        }
        cluster.recycle_inboxes(inboxes);
        round += 1;
    }

    // Ranks own consecutive id blocks in rank order.
    alive.concat()
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
