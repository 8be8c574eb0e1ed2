//! Δ-stepping SSSP, the crate's one distributed shortest-path kernel.
//!
//! Relaxing every improved vertex each round (Bellman–Ford) re-relaxes
//! long-distance vertices many times on weighted graphs. Δ-stepping
//! (Meyer & Sanders) processes vertices in distance buckets of width Δ:
//! *light* edges (weight ≤ Δ) are relaxed repeatedly inside the current
//! bucket until it stabilizes, *heavy* edges once when the bucket
//! retires. With Δ ≥ the largest weight every edge is light and the
//! kernel degenerates to Bellman–Ford rounds. Communication stays
//! shuffle-shaped — `(target, candidate)` records to owners — so it
//! slots into the same exchange machinery and benefits from the same
//! relay batching.

use crate::runtime::{edge_weight, AlgoCluster};
use crate::sssp::INF;
use sw_graph::Vid;
use swbfs_core::engine::Transport;

/// One rank's distances, and which vertices' edges (of the phase's
/// class) are pending relaxation.
struct Dist {
    dist: Vec<u64>,
    pending: Vec<bool>,
}

impl Dist {
    /// Keeps the shorter candidate; a distance that improves below
    /// `horizon` is pending for another light phase.
    fn relax(&mut self, l: usize, cand: u64, horizon: u64) {
        if cand < self.dist[l] {
            self.dist[l] = cand;
            if cand < horizon {
                self.pending[l] = true;
            }
        }
    }
}

/// Runs Δ-stepping from `root` with synthetic weights in `1..=max_weight`
/// and bucket width `delta`. Returns per-vertex distances.
pub fn sssp_delta_stepping<T: Transport>(
    cluster: &mut AlgoCluster<T>,
    root: Vid,
    max_weight: u64,
    delta: u64,
) -> Vec<u64> {
    assert!(delta > 0, "zero bucket width");
    let mut state: Vec<Dist> = (0..cluster.num_ranks())
        .map(|r| {
            let owned = cluster.part.owned_count(r) as usize;
            Dist {
                dist: vec![INF; owned],
                pending: vec![false; owned],
            }
        })
        .collect();
    {
        let s = &mut state[cluster.part.owner(root) as usize];
        let l = cluster.part.to_local(root) as usize;
        s.dist[l] = 0;
        s.pending[l] = true;
    }
    let weight = |u, v| edge_weight(u, v, max_weight);
    cluster.set_round(0);
    let mut bucket = 0u64;
    loop {
        // --- light-edge phases within the current bucket ---
        let horizon = (bucket + 1) * delta;
        while cluster.push(
            &mut state,
            |s, i, _, _| {
                let due = s.pending[i] && s.dist[i] < horizon;
                s.pending[i] &= !due;
                due.then(|| s.dist[i])
            },
            |du, u, v| {
                let w = weight(u, v);
                (w <= delta).then(|| du + w)
            },
            |s, l, cand| s.relax(l, cand, horizon),
        ) {}

        // --- heavy-edge phase: every settled vertex of this bucket fires
        // its heavy edges once. Heavy targets land in future buckets; the
        // bucket advance re-marks them, so no horizon here ---
        cluster.push(
            &mut state,
            |s, i, _, _| Some(s.dist[i]).filter(|&d| d != INF && d / delta == bucket),
            |du, u, v| {
                let w = weight(u, v);
                (w > delta).then(|| du + w)
            },
            |s, l, cand| s.relax(l, cand, 0),
        );

        // --- advance to the next non-empty bucket ---
        let mut next = u64::MAX;
        for s in &state {
            for (&d, &p) in s.dist.iter().zip(&s.pending) {
                if d != INF && (d / delta > bucket || p) {
                    next = next.min(d / delta);
                }
            }
        }
        if next == u64::MAX {
            break;
        }
        bucket = next;
        // Vertices in the new bucket become pending.
        for s in &mut state {
            for (&d, p) in s.dist.iter().zip(&mut s.pending) {
                if d != INF && d / delta == bucket {
                    *p = true;
                }
            }
        }
    }

    // Ranks own consecutive id blocks in rank order.
    state.into_iter().flat_map(|s| s.dist).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::sssp_oracle;
    use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};
    use swbfs_core::config::Messaging;

    #[test]
    fn matches_dijkstra_for_every_bucket_width() {
        // Δ = 20 and beyond is the largest weight: every edge is light,
        // which is Bellman–Ford's round structure.
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 4));
        let oracle = sssp_oracle(&el, 2, 20);
        for ranks in [1u32, 4, 5, 6] {
            for delta in [1u64, 4, 8, 20, 1000] {
                let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Relay);
                let got = sssp_delta_stepping(&mut c, 2, 20, delta);
                assert_eq!(got, oracle, "ranks {ranks}, delta {delta}");
            }
        }
    }

    #[test]
    fn unit_weights_reduce_to_bfs_levels() {
        let el = generate_kronecker(&KroneckerConfig::graph500(8, 9));
        let mut c = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
        let d = sssp_delta_stepping(&mut c, 0, 1, 1);
        let bfs = swbfs_core::baseline::sequential_bfs_levels(&el, 0);
        for (dd, lv) in d.iter().zip(bfs.iter()) {
            match lv {
                Some(l) => assert_eq!(*dd, *l as u64),
                None => assert_eq!(*dd, INF),
            }
        }
    }

    #[test]
    fn weighted_path_picks_cheaper_detour() {
        // Triangle 0-1-2: whichever of the direct edge 0-2 and the detour
        // through 1 the synthetic weights make cheaper, Δ-stepping must
        // find it, with the detour's edges light or heavy.
        let el = EdgeList::new(3, vec![(0, 1), (1, 2), (0, 2)]);
        let oracle = sssp_oracle(&el, 0, 100);
        for delta in [1u64, 10, 100] {
            let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Direct);
            assert_eq!(
                sssp_delta_stepping(&mut c, 0, 100, delta),
                oracle,
                "delta {delta}"
            );
        }
    }

    #[test]
    fn big_delta_reduces_to_bellman_ford_rounds() {
        // Δ ≥ max distance: a single bucket, still correct.
        let el = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let oracle = sssp_oracle(&el, 0, 10);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        assert_eq!(sssp_delta_stepping(&mut c, 0, 10, 1_000_000), oracle);
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Relay);
        let d = sssp_delta_stepping(&mut c, 0, 5, 3);
        assert_eq!(d[0], 0);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    #[should_panic(expected = "zero bucket width")]
    fn zero_delta_rejected() {
        let el = EdgeList::new(2, vec![(0, 1)]);
        let mut c = AlgoCluster::new(&el, 1, 1, Messaging::Direct);
        sssp_delta_stepping(&mut c, 0, 5, 0);
    }
}
