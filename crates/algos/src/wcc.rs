//! Weakly Connected Components by distributed label propagation.
//!
//! Every vertex starts labelled with its own id; each round, vertices
//! whose label shrank propagate it to their neighbours (a shuffle of
//! `(neighbor, label)` records — exactly the Forward Generator shape), and
//! owners keep the minimum. Terminates when a round changes nothing. The
//! component label of every vertex is the minimum vertex id in its
//! component.

use crate::runtime::AlgoCluster;
use sw_graph::{Csr, EdgeList, Vid};
use swbfs_core::engine::Transport;
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;

/// Runs distributed WCC; returns the per-vertex component label.
pub fn wcc_distributed<T: Transport>(cluster: &mut AlgoCluster<T>) -> Vec<Vid> {
    let ranks = cluster.num_ranks() as usize;

    // Per-rank label arrays and dirty flags.
    let mut labels: Vec<Vec<Vid>> = (0..ranks)
        .map(|r| {
            let (s, e) = cluster.part.range(r as u32);
            (s..e).collect()
        })
        .collect();
    let mut dirty: Vec<Vec<bool>> = labels.iter().map(|l| vec![true; l.len()]).collect();
    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();

    let mut round = 0u32;
    loop {
        cluster.set_round(round);
        // Generate: every dirty vertex offers its label to all neighbours.
        let mut out = cluster.lend_outboxes();
        let mut any = false;
        for r in 0..ranks {
            let t0 = ins::span_begin(tr);
            let mut produced = 0u64;
            let csr = &cluster.csrs[r];
            for i in 0..labels[r].len() {
                if !std::mem::replace(&mut dirty[r][i], false) {
                    continue;
                }
                any = true;
                let lab = labels[r][i];
                for &v in csr.neighbors_local(i) {
                    produced += 1;
                    let owner = cluster.part.owner(v) as usize;
                    if owner == r {
                        // Local apply.
                        let vl = cluster.part.to_local(v) as usize;
                        if lab < labels[r][vl] {
                            labels[r][vl] = lab;
                            dirty[r][vl] = true;
                        }
                    } else {
                        out[r].push(owner as u32, EdgeRec { u: v, v: lab });
                    }
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
        }
        if !any {
            break;
        }
        // Exchange + apply minima.
        let inboxes = cluster.exchange(out);
        for (r, inbox) in inboxes.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            for rec in inbox {
                let vl = cluster.part.to_local(rec.u) as usize;
                if rec.v < labels[r][vl] {
                    labels[r][vl] = rec.v;
                    dirty[r][vl] = true;
                }
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
    labels.concat()
}

/// Single-node oracle: union-find with path halving.
pub fn wcc_oracle(el: &EdgeList) -> Vec<Vid> {
    let n = el.num_vertices as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v) in &el.edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru.max(rv)] = ru.min(rv);
        }
    }
    // Label every vertex with the minimum id in its component.
    let mut min_of_root = vec![Vid::MAX; n];
    for v in 0..n {
        let r = find(&mut parent, v);
        min_of_root[r] = min_of_root[r].min(v as Vid);
    }
    (0..n).map(|v| min_of_root[find(&mut parent, v)]).collect()
}

/// Component statistics used by examples and tests.
pub fn component_sizes(labels: &[Vid]) -> std::collections::HashMap<Vid, u64> {
    let mut sizes = std::collections::HashMap::new();
    for &l in labels {
        *sizes.entry(l).or_insert(0) += 1;
    }
    sizes
}

/// Ensures CSR construction isn't accidentally required by callers that
/// only have the cluster (compile-time usage hook for the shared types).
#[allow(dead_code)]
fn _uses_csr(_: &Csr) {}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{generate_kronecker, KroneckerConfig};
    use swbfs_core::config::Messaging;

    #[test]
    fn matches_oracle_on_kronecker() {
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 7));
        let oracle = wcc_oracle(&el);
        for ranks in [1u32, 4, 7] {
            let mut c = AlgoCluster::new(&el, ranks, 3, Messaging::Relay);
            let got = wcc_distributed(&mut c);
            assert_eq!(got, oracle, "ranks = {ranks}");
        }
    }

    #[test]
    fn direct_and_relay_agree() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 2));
        let mut a = AlgoCluster::new(&el, 5, 2, Messaging::Direct);
        let mut b = AlgoCluster::new(&el, 5, 2, Messaging::Relay);
        assert_eq!(wcc_distributed(&mut a), wcc_distributed(&mut b));
        assert!(b.stats.messages < a.stats.messages);
    }

    #[test]
    fn separate_components_keep_separate_labels() {
        let el = EdgeList::new(7, vec![(0, 1), (1, 2), (4, 5)]);
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        let labels = wcc_distributed(&mut c);
        assert_eq!(labels, vec![0, 0, 0, 3, 4, 4, 6]);
        let sizes = component_sizes(&labels);
        assert_eq!(sizes[&0], 3);
        assert_eq!(sizes[&4], 2);
        assert_eq!(sizes[&3], 1);
    }

    #[test]
    fn giant_component_dominates_rmat() {
        let el = generate_kronecker(&KroneckerConfig::graph500(11, 4));
        let mut c = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
        let labels = wcc_distributed(&mut c);
        let sizes = component_sizes(&labels);
        let giant = sizes.values().max().unwrap();
        let non_isolated = labels.len() as u64 - sizes.iter().filter(|(_, &s)| s == 1).count() as u64;
        assert!(*giant as f64 > 0.95 * non_isolated as f64);
    }
}
