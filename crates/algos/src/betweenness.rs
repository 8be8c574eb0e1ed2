//! Betweenness centrality (Brandes) on the shuffle framework.
//!
//! BC is the stress test of §8's claim: it needs *two* shuffle-shaped
//! sweeps per source — a forward BFS that counts shortest paths (σ) and a
//! level-by-level backward accumulation of dependencies (δ). Both phases
//! move `(target, value)` records to owners, exactly like the BFS's
//! forward/backward modules. σ travels and sums as an exact `u64` path
//! count; δ sums in fixed point ([`crate::fixed`]), so neither depends
//! on the order records arrive in.
//!
//! The exact algorithm is O(nm); like all practical implementations this
//! module also offers sampled approximation (pivot sources), which is how
//! BC is run on large graphs.

use crate::fixed::{from_fixed, to_fixed};
use crate::runtime::AlgoCluster;
use swbfs_core::engine::Transport;
use sw_graph::{Csr, EdgeList, Vid};
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;

/// Per-vertex state of one source's sweep, per rank.
struct Sweep {
    level: Vec<i64>,
    /// Shortest-path counts, exact.
    sigma: Vec<u64>,
    /// Dependencies in fixed point ([`crate::fixed`]).
    delta: Vec<i128>,
}

impl Sweep {
    /// Forward: `v` is reached at `depth + 1` by `sg` more shortest
    /// paths (arrivals of one round commute: a first claim, then sums).
    fn reach(&mut self, v: usize, depth: i64, sg: u64) {
        if self.level[v] == -1 {
            self.level[v] = depth + 1;
        }
        if self.level[v] == depth + 1 {
            self.sigma[v] = add_paths(self.sigma[v], sg);
        }
    }

    /// Backward: `u`, if it precedes a level-`d` vertex with coefficient
    /// `coeff`, gains that vertex's dependency share.
    fn depend(&mut self, u: usize, d: i64, coeff: f64) {
        if self.level[u] == d - 1 {
            self.delta[u] += to_fixed(self.sigma[u] as f64 * coeff);
        }
    }
}

/// σ(v) + σ(u), refusing to wrap.
fn add_paths(a: u64, b: u64) -> u64 {
    a.checked_add(b)
        .expect("shortest-path count σ overflows u64")
}

/// What a level-`d` vertex ships to its predecessors:
/// ρ(v) = (1 + δ(v)) / σ(v). The owner multiplies by its own σ(u).
fn coefficient(delta: i128, sigma: u64) -> f64 {
    (1.0 + from_fixed(delta)) / sigma as f64
}

/// Runs exact Brandes BC from every vertex in `sources`, returning the
/// per-vertex centrality (undirected convention: contributions halved).
pub fn betweenness_distributed<T: Transport>(
    cluster: &mut AlgoCluster<T>,
    sources: &[Vid],
) -> Vec<f64> {
    let ranks = cluster.num_ranks() as usize;
    let n = cluster.num_vertices() as usize;
    let mut bc = vec![0.0f64; n];
    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();
    // One monotone round counter across every source's two sweeps, so
    // span levels stay unique per exchange like the other kernels.
    let mut round = 0u32;

    for &s in sources {
        let mut sw: Vec<Sweep> = (0..ranks)
            .map(|r| {
                let owned = cluster.part.owned_count(r as u32) as usize;
                Sweep {
                    level: vec![-1; owned],
                    sigma: vec![0; owned],
                    delta: vec![0; owned],
                }
            })
            .collect();
        {
            let r = cluster.part.owner(s) as usize;
            let l = cluster.part.to_local(s) as usize;
            sw[r].level[l] = 0;
            sw[r].sigma[l] = 1;
        }

        // ---- forward: level-synchronous σ counting ----
        // Frontier vertices send (neighbor, σ) to owners; a rank applies
        // its own targets as it generates.
        let mut depth = 0i64;
        loop {
            cluster.set_round(round);
            let mut out = cluster.lend_outboxes();
            let mut any = false;
            for (r, swr) in sw.iter_mut().enumerate() {
                let t0 = ins::span_begin(tr);
                let mut produced = 0u64;
                let csr = &cluster.csrs[r];
                for i in 0..swr.level.len() {
                    if swr.level[i] != depth {
                        continue;
                    }
                    any = true;
                    let sg = swr.sigma[i];
                    for &v in csr.neighbors_local(i) {
                        produced += 1;
                        let owner = cluster.part.owner(v) as usize;
                        if owner == r {
                            swr.reach(cluster.part.to_local(v) as usize, depth, sg);
                        } else {
                            out[r].push(owner as u32, EdgeRec { u: v, v: sg });
                        }
                    }
                }
                ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
            }
            if !any {
                break;
            }
            let inboxes = cluster.exchange(out);
            for (r, inbox) in inboxes.iter().enumerate() {
                let t0 = ins::span_begin(tr);
                for rec in inbox {
                    sw[r].reach(cluster.part.to_local(rec.u) as usize, depth, rec.v);
                }
                let recs = inbox.len() as u64;
                ins::span_end(tr, r, ins::SPAN_HANDLE, ins::CAT_COMPUTE, round, t0, recs);
            }
            cluster.recycle_inboxes(inboxes);
            depth += 1;
            round += 1;
        }

        // ---- backward: δ accumulation from the deepest level up ----
        // Vertices at level d send ρ(v) to every neighbour u; the owner
        // adds σ(u)·ρ(v) only for true predecessors, which it checks by
        // level.
        for d in (1..=depth).rev() {
            cluster.set_round(round);
            let mut out = cluster.lend_outboxes();
            for (r, swr) in sw.iter_mut().enumerate() {
                let t0 = ins::span_begin(tr);
                let mut produced = 0u64;
                let csr = &cluster.csrs[r];
                for i in 0..swr.level.len() {
                    if swr.level[i] != d {
                        continue;
                    }
                    let coeff = coefficient(swr.delta[i], swr.sigma[i]);
                    let bits = coeff.to_bits();
                    for &u in csr.neighbors_local(i) {
                        produced += 1;
                        let owner = cluster.part.owner(u) as usize;
                        if owner == r {
                            swr.depend(cluster.part.to_local(u) as usize, d, coeff);
                        } else {
                            out[r].push(owner as u32, EdgeRec { u, v: bits });
                        }
                    }
                }
                ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
            }
            let inboxes = cluster.exchange(out);
            for (r, inbox) in inboxes.iter().enumerate() {
                let t0 = ins::span_begin(tr);
                for rec in inbox {
                    let u = cluster.part.to_local(rec.u) as usize;
                    sw[r].depend(u, d, f64::from_bits(rec.v));
                }
                let recs = inbox.len() as u64;
                ins::span_end(tr, r, ins::SPAN_HANDLE, ins::CAT_COMPUTE, round, t0, recs);
            }
            cluster.recycle_inboxes(inboxes);
            round += 1;
        }

        // Accumulate (excluding the source; halve for undirected pairs).
        // Ranks own consecutive id blocks in rank order.
        let deltas = sw.iter().flat_map(|swr| &swr.delta);
        for (v, &dv) in deltas.enumerate().filter(|&(v, _)| v as Vid != s) {
            bc[v] += from_fixed(dv) / 2.0;
        }
    }
    bc
}

/// Single-node Brandes oracle over the same sources: the same σ counts,
/// coefficients and fixed-point sums, so the kernel equals it bit for
/// bit.
pub fn betweenness_oracle(el: &EdgeList, sources: &[Vid]) -> Vec<f64> {
    let csr = Csr::from_edge_list(el);
    let n = el.num_vertices as usize;
    let mut bc = vec![0.0f64; n];
    for &s in sources {
        let mut level = vec![-1i64; n];
        let mut sigma = vec![0u64; n];
        let mut order: Vec<Vid> = Vec::new();
        level[s as usize] = 0;
        sigma[s as usize] = 1;
        let mut q = std::collections::VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            order.push(u);
            for &v in csr.neighbors(u) {
                if level[v as usize] == -1 {
                    level[v as usize] = level[u as usize] + 1;
                    q.push_back(v);
                }
                if level[v as usize] == level[u as usize] + 1 {
                    sigma[v as usize] = add_paths(sigma[v as usize], sigma[u as usize]);
                }
            }
        }
        let mut delta = vec![0i128; n];
        for &v in order.iter().rev() {
            let coeff = coefficient(delta[v as usize], sigma[v as usize]);
            for &u in csr.neighbors(v) {
                if level[u as usize] == level[v as usize] - 1 {
                    delta[u as usize] += to_fixed(sigma[u as usize] as f64 * coeff);
                }
            }
            if v != s {
                bc[v as usize] += from_fixed(delta[v as usize]) / 2.0;
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{generate_kronecker, KroneckerConfig, RowOrder};
    use swbfs_core::config::Messaging;

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|x| x.to_bits()).collect()
    }

    /// The kernel on `el` equals the oracle bit for bit.
    fn exact(bc: &[f64], el: &EdgeList, sources: &[Vid]) -> bool {
        bits(bc) == bits(&betweenness_oracle(el, sources))
    }

    #[test]
    fn path_center_has_highest_bc() {
        // 0-1-2-3-4: vertex 2 lies on the most shortest paths.
        let el = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let sources: Vec<Vid> = (0..5).collect();
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Relay);
        let bc = betweenness_distributed(&mut c, &sources);
        assert!(exact(&bc, &el, &sources));
        assert!(bc[2] > bc[1] && bc[1] > bc[0]);
        // Exact values on a path: endpoints 0, then 3, 4, 3 pattern: for
        // n=5: bc = [0, 3, 4, 3, 0].
        assert!((bc[2] - 4.0).abs() < 1e-9, "bc = {bc:?}");
        assert!((bc[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn star_hub_dominates() {
        let el = EdgeList::new(6, vec![(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let sources: Vec<Vid> = (0..6).collect();
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Direct);
        let bc = betweenness_distributed(&mut c, &sources);
        assert!(exact(&bc, &el, &sources));
        // Hub carries all C(5,2) = 10 pairs; leaves none.
        assert!((bc[0] - 10.0).abs() < 1e-9, "bc = {bc:?}");
        for leaf in &bc[1..] {
            assert!(leaf.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_oracle_on_kronecker_sampled() {
        let el = generate_kronecker(&KroneckerConfig::graph500(8, 6));
        let sources: Vec<Vid> = vec![1, 17, 42, 100];
        for order in [RowOrder::ById, RowOrder::ByDegree] {
            for ranks in [1u32, 2, 3, 5, 8] {
                let mut c = AlgoCluster::new(&el, ranks, 3, Messaging::Relay);
                c.csrs = Csr::build_partitioned(&c.part, order, |_| el.edges.iter().copied());
                let bc = betweenness_distributed(&mut c, &sources);
                assert!(exact(&bc, &el, &sources), "{order:?}, {ranks} ranks");
            }
        }
    }

    #[test]
    fn multigraph_edges_count_multiply() {
        // Parallel edges multiply path counts; both implementations must
        // agree on the (multigraph) convention.
        let el = EdgeList::new(3, vec![(0, 1), (0, 1), (1, 2)]);
        let sources: Vec<Vid> = (0..3).collect();
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Relay);
        let bc = betweenness_distributed(&mut c, &sources);
        assert!(exact(&bc, &el, &sources));
    }

    /// A chain of 65 two-way diamonds: 2^k shortest paths reach the end
    /// of diamond k, so σ passes 2^64 and must stop the run rather than
    /// wrap or round.
    #[test]
    #[should_panic(expected = "σ overflows u64")]
    fn path_count_overflow_panics() {
        let mut edges = Vec::new();
        for k in 0..65u64 {
            let (end, a, b, next) = (3 * k, 3 * k + 1, 3 * k + 2, 3 * k + 3);
            edges.extend([(end, a), (end, b), (a, next), (b, next)]);
        }
        let el = EdgeList::new(3 * 65 + 1, edges);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Relay);
        betweenness_distributed(&mut c, &[0]);
    }
}
