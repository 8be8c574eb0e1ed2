//! The harness-owned reference: one sequential BFS over one
//! `Csr::from_edge_list`, against which every root and every query of
//! every run is checked.
//!
//! It shares no code with the engines it judges (no partitioning, no
//! exchange, no direction switch). Up to 64 roots advance together as
//! bits of a word so that a thousand queries can be checked inside a
//! run; `graph500::validate_bfs` (the five-rule validator) independently
//! re-checks a few roots per run and must agree on the edge count.

use sw_graph::{Csr, EdgeList, Vid};
use sw_net::framing::QueryOp;
use swbfs_core::NO_PARENT;

/// Level of a vertex the root does not reach.
pub const UNREACHED: u32 = u32::MAX;

pub struct Reference {
    csr: Csr,
    /// Input tuples whose first endpoint is the vertex: both endpoints
    /// of a tuple share a component, so the tuples a search traverses
    /// are exactly those whose first endpoint it reaches.
    tuples_from: Vec<u32>,
}

impl Reference {
    pub fn new(el: &EdgeList) -> Self {
        let mut tuples_from = vec![0u32; el.num_vertices as usize];
        for &(u, _) in &el.edges {
            tuples_from[u as usize] += 1;
        }
        Self {
            csr: Csr::from_edge_list(el),
            tuples_from,
        }
    }

    pub fn num_vertices(&self) -> u64 {
        self.tuples_from.len() as u64
    }

    /// Has the vertex a neighbour other than itself (the Graph500
    /// "non-trivial root" rule)?
    pub fn non_trivial(&self, v: Vid) -> bool {
        self.csr.neighbors(v).iter().any(|&w| w != v)
    }

    /// Level arrays of up to 64 roots, `out[k][v]` = distance from
    /// `roots[k]` to `v`.
    pub fn levels(&self, roots: &[Vid]) -> Vec<Vec<u32>> {
        assert!((1..=64).contains(&roots.len()), "1..=64 roots per pass");
        let n = self.tuples_from.len();
        let mut out: Vec<Vec<u32>> = roots.iter().map(|_| vec![UNREACHED; n]).collect();
        let mut seen = vec![0u64; n];
        let mut curr = vec![0u64; n];
        let mut next = vec![0u64; n];
        for (k, &r) in roots.iter().enumerate() {
            seen[r as usize] |= 1 << k;
            curr[r as usize] |= 1 << k;
            out[k][r as usize] = 0;
        }
        let mut depth = 0u32;
        loop {
            depth += 1;
            let mut any = false;
            for (v, &mask) in curr.iter().enumerate().filter(|(_, &m)| m != 0) {
                for &w in self.csr.neighbors(v as Vid) {
                    let w = w as usize;
                    let mut new = mask & !seen[w];
                    if new == 0 {
                        continue;
                    }
                    any = true;
                    seen[w] |= new;
                    next[w] |= new;
                    while new != 0 {
                        out[new.trailing_zeros() as usize][w] = depth;
                        new &= new - 1;
                    }
                }
            }
            if !any {
                return out;
            }
            std::mem::swap(&mut curr, &mut next);
            next.fill(0);
        }
    }

    /// Input edge tuples with a reached endpoint: the TEPS numerator.
    pub fn traversed_edges(&self, levels: &[u32]) -> u64 {
        levels
            .iter()
            .zip(&self.tuples_from)
            .filter(|(&l, _)| l != UNREACHED)
            .map(|(_, &c)| u64::from(c))
            .sum()
    }

    /// Is `parents` a BFS tree of `root`? The reached set equals the
    /// reference's, the root is its own parent, and every other reached
    /// vertex hangs one level below a parent it shares an edge with.
    pub fn check_parents(&self, root: Vid, parents: &[Vid], levels: &[u32]) -> Result<(), String> {
        if parents.len() != levels.len() {
            return Err(format!(
                "{} parents for {} vertices",
                parents.len(),
                levels.len()
            ));
        }
        if parents[root as usize] != root {
            return Err(format!("root {root} is not its own parent"));
        }
        for (v, (&p, &lv)) in parents.iter().zip(levels).enumerate() {
            if (p == NO_PARENT) != (lv == UNREACHED) {
                return Err(format!("root {root}: vertex {v} reached by one side only"));
            }
            if p == NO_PARENT || v as Vid == root {
                continue;
            }
            if p as usize >= levels.len() || levels[p as usize].wrapping_add(1) != lv {
                return Err(format!(
                    "root {root}: tree edge {p}->{v} does not span one level"
                ));
            }
            if !self.csr.neighbors(v as Vid).contains(&p) {
                return Err(format!(
                    "root {root}: tree edge {p}->{v} is not in the graph"
                ));
            }
        }
        Ok(())
    }
}

/// The exact answer the service owes for one query.
pub fn answer(op: QueryOp, levels: &[u32], target: Vid, hops: u32) -> u64 {
    match op {
        QueryOp::Distance => match levels[target as usize] {
            UNREACHED => u64::MAX,
            l => u64::from(l),
        },
        QueryOp::Reachable => u64::from(levels[target as usize] != UNREACHED),
        QueryOp::KHop => levels.iter().filter(|&&l| l <= hops).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_algos::msbfs::bfs_levels_oracle;
    use sw_graph::{generate_kronecker, KroneckerConfig};

    fn path() -> EdgeList {
        // 0 - 1 - 2 - 3, 4 isolated, 5 with only a self-loop.
        EdgeList::new(6, vec![(0, 1), (2, 1), (2, 3), (5, 5)])
    }

    #[test]
    fn word_parallel_levels_match_single_source_bfs() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 4));
        let r = Reference::new(&el);
        let roots: Vec<Vid> = (0..64).map(|i| (i * 7) % el.num_vertices).collect();
        let got = r.levels(&roots);
        for (k, &root) in roots.iter().enumerate() {
            assert_eq!(got[k], bfs_levels_oracle(&el, root), "root {root}");
        }
        assert_eq!(
            r.levels(&roots[..1])[0],
            got[0],
            "width does not change answers"
        );
    }

    #[test]
    fn traversed_edges_counts_tuples_of_the_component() {
        let r = Reference::new(&path());
        let lv = &r.levels(&[0])[0];
        assert_eq!(lv, &[0, 1, 2, 3, UNREACHED, UNREACHED]);
        assert_eq!(r.traversed_edges(lv), 3);
        assert_eq!(r.traversed_edges(&r.levels(&[5])[0]), 1);
        assert!(r.non_trivial(0) && !r.non_trivial(4) && !r.non_trivial(5));
    }

    #[test]
    fn check_parents_accepts_a_tree_and_names_each_defect() {
        let r = Reference::new(&path());
        let lv = &r.levels(&[0])[0];
        let good = [0, 0, 1, 2, NO_PARENT, NO_PARENT];
        assert!(r.check_parents(0, &good, lv).is_ok());
        let mut bad = good;
        bad[0] = 1;
        assert!(r
            .check_parents(0, &bad, lv)
            .unwrap_err()
            .contains("own parent"));
        bad = good;
        bad[3] = NO_PARENT;
        assert!(r
            .check_parents(0, &bad, lv)
            .unwrap_err()
            .contains("one side"));
        bad = good;
        bad[3] = 1;
        assert!(r
            .check_parents(0, &bad, lv)
            .unwrap_err()
            .contains("one level"));
        bad = good;
        bad[2] = 3; // level 3 parent for a level-2 child
        assert!(r.check_parents(0, &bad, lv).is_err());
        // Right level, but no such edge: 3's parent claimed as 1's sibling.
        let el = EdgeList::new(4, vec![(0, 1), (0, 2), (1, 3)]);
        let r = Reference::new(&el);
        let lv = &r.levels(&[0])[0];
        assert!(r
            .check_parents(0, &[0, 0, 0, 2], lv)
            .unwrap_err()
            .contains("not in the graph"));
    }

    #[test]
    fn answers_follow_the_service_contract() {
        let r = Reference::new(&path());
        let lv = &r.levels(&[0])[0];
        assert_eq!(answer(QueryOp::Distance, lv, 3, 0), 3);
        assert_eq!(answer(QueryOp::Distance, lv, 4, 0), u64::MAX);
        assert_eq!(answer(QueryOp::Reachable, lv, 4, 0), 0);
        assert_eq!(answer(QueryOp::Reachable, lv, 2, 0), 1);
        assert_eq!(answer(QueryOp::KHop, lv, 0, 2), 3);
    }
}
