//! PageRank by damped power iteration over the shuffle framework.
//!
//! Per iteration every vertex shuffles `rank/degree` contributions to its
//! neighbours' owners — a pure reaction-module workload (the paper's §8
//! point: the shuffle *is* the algorithm). Contributions are f64 payloads
//! carried in the record's second word, summed in fixed point
//! ([`crate::fixed`]) so arrival order cannot change a bit. Dangling mass
//! (degree-0 vertices) is redistributed uniformly, keeping the
//! distribution stochastic.

use crate::fixed::{from_fixed, to_fixed};
use crate::runtime::AlgoCluster;
use swbfs_core::engine::Transport;
use sw_graph::Vid;
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;

/// Damping factor used by the standard formulation.
pub const DAMPING: f64 = 0.85;

/// Runs `iterations` of distributed PageRank; returns per-vertex scores
/// summing to 1.
pub fn pagerank_distributed<T: Transport>(
    cluster: &mut AlgoCluster<T>,
    iterations: u32,
) -> Vec<f64> {
    let ranks = cluster.num_ranks() as usize;
    let n = cluster.num_vertices() as usize;

    let mut score: Vec<Vec<f64>> = (0..ranks)
        .map(|r| vec![1.0 / n as f64; cluster.part.owned_count(r as u32) as usize])
        .collect();
    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();

    for round in 0..iterations {
        cluster.set_round(round);
        // Generate contributions.
        let mut out = cluster.lend_outboxes();
        let mut acc: Vec<Vec<i128>> = score.iter().map(|s| vec![0; s.len()]).collect();
        let mut dangling = 0;
        for r in 0..ranks {
            let t0 = ins::span_begin(tr);
            let mut produced = 0u64;
            let csr = &cluster.csrs[r];
            for (i, &sc) in score[r].iter().enumerate() {
                let deg = csr.degree_local(i);
                if deg == 0 {
                    dangling += to_fixed(sc);
                    continue;
                }
                let contrib = sc / deg as f64;
                for &v in csr.neighbors_local(i) {
                    produced += 1;
                    let owner = cluster.part.owner(v) as usize;
                    if owner == r {
                        acc[r][cluster.part.to_local(v) as usize] += to_fixed(contrib);
                    } else {
                        out[r].push(
                            owner as u32,
                            EdgeRec {
                                u: v,
                                v: contrib.to_bits(),
                            },
                        );
                    }
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
        }
        // Exchange and reduce.
        let inboxes = cluster.exchange(out);
        for (r, inbox) in inboxes.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            for rec in inbox {
                acc[r][cluster.part.to_local(rec.u) as usize] += to_fixed(f64::from_bits(rec.v));
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
        // Apply damping + dangling redistribution.
        let base = (1.0 - DAMPING) / n as f64 + DAMPING * from_fixed(dangling) / n as f64;
        for (s, a) in score.iter_mut().flatten().zip(acc.iter().flatten()) {
            *s = base + DAMPING * from_fixed(*a);
        }
    }

    // Ranks own consecutive id blocks in rank order.
    score.concat()
}

/// Single-node oracle: the same terms, summed in the same fixed point,
/// so the distributed kernel equals it bit for bit.
pub fn pagerank_oracle(el: &sw_graph::EdgeList, iterations: u32) -> Vec<f64> {
    let csr = sw_graph::Csr::from_edge_list(el);
    let n = el.num_vertices as usize;
    let mut score = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut acc = vec![0i128; n];
        let mut dangling = 0;
        for (u, &su) in score.iter().enumerate() {
            let deg = csr.degree_local(u);
            if deg == 0 {
                dangling += to_fixed(su);
                continue;
            }
            let contrib = su / deg as f64;
            for &v in csr.neighbors_local(u) {
                acc[v as usize] += to_fixed(contrib);
            }
        }
        let base = (1.0 - DAMPING) / n as f64 + DAMPING * from_fixed(dangling) / n as f64;
        for (s, &a) in score.iter_mut().zip(&acc) {
            *s = base + DAMPING * from_fixed(a);
        }
    }
    score
}

/// The top-`k` vertices by score, descending (ties by ascending id).
pub fn top_k(scores: &[f64], k: usize) -> Vec<(Vid, f64)> {
    let mut idx: Vec<(Vid, f64)> = scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as Vid, s))
        .collect();
    idx.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{generate_kronecker, Csr, EdgeList, KroneckerConfig, RowOrder};
    use swbfs_core::config::Messaging;

    #[test]
    fn matches_oracle_bit_for_bit() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 3));
        let bits = |x: Vec<f64>| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let oracle = bits(pagerank_oracle(&el, 15));
        for order in [RowOrder::ById, RowOrder::ByDegree] {
            for ranks in [1u32, 2, 3, 5, 8] {
                let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Relay);
                c.csrs = Csr::build_partitioned(&c.part, order, |_| el.edges.iter().copied());
                let got = bits(pagerank_distributed(&mut c, 15));
                assert!(got == oracle, "{order:?}, {ranks} ranks");
            }
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let el = generate_kronecker(&KroneckerConfig::graph500(8, 1));
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        let s = pagerank_distributed(&mut c, 10);
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    fn hub_outranks_leaf_on_a_star() {
        let el = EdgeList::new(6, vec![(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        let s = pagerank_distributed(&mut c, 30);
        let top = top_k(&s, 1);
        assert_eq!(top[0].0, 0);
        assert!(s[0] > 2.0 * s[1]);
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // Vertex 3 is isolated (dangling).
        let el = EdgeList::new(4, vec![(0, 1), (1, 2)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Relay);
        let s = pagerank_distributed(&mut c, 25);
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s[3] > 0.0);
    }
}
