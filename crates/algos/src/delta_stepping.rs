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
use swbfs_core::engine::Transport;
use crate::sssp::INF;
use sw_graph::Vid;
use sw_trace::Tracer;
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;

/// Runs Δ-stepping from `root` with synthetic weights in `1..=max_weight`
/// and bucket width `delta`. Returns per-vertex distances.
pub fn sssp_delta_stepping<T: Transport>(
    cluster: &mut AlgoCluster<T>,
    root: Vid,
    max_weight: u64,
    delta: u64,
) -> Vec<u64> {
    assert!(delta > 0, "zero bucket width");
    let ranks = cluster.num_ranks() as usize;

    let mut dist: Vec<Vec<u64>> = (0..ranks)
        .map(|r| vec![INF; cluster.part.owned_count(r as u32) as usize])
        .collect();
    // Vertices whose distance improved and whose edges (of the given
    // class) are pending relaxation.
    let mut pending: Vec<Vec<bool>> = dist.iter().map(|d| vec![false; d.len()]).collect();
    {
        let r = cluster.part.owner(root) as usize;
        let l = cluster.part.to_local(root) as usize;
        dist[r][l] = 0;
        pending[r][l] = true;
    }

    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();
    let mut round = 0u32;
    let mut bucket = 0u64;
    loop {
        // --- light-edge phases within the current bucket ---
        loop {
            cluster.set_round(round);
            let mut out = cluster.lend_outboxes();
            let mut any = false;
            for r in 0..ranks {
                let t0 = ins::span_begin(tr);
                let mut produced = 0u64;
                let csr = &cluster.csrs[r];
                let (start, _) = cluster.part.range(r as u32);
                for i in 0..dist[r].len() {
                    let du = dist[r][i];
                    if !pending[r][i] || du >= (bucket + 1) * delta {
                        continue;
                    }
                    // Stays pending for the heavy phase; light edges relax
                    // now.
                    let u = start + i as Vid;
                    any = true;
                    pending[r][i] = false;
                    for &v in csr.neighbors_local(i) {
                        let w = edge_weight(u, v, max_weight);
                        if w > delta {
                            continue;
                        }
                        produced += 1;
                        relax(
                            cluster,
                            &mut dist,
                            &mut pending,
                            &mut out,
                            r,
                            v,
                            du + w,
                            (bucket + 1) * delta,
                        );
                    }
                }
                ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
            }
            if !any {
                break;
            }
            let inboxes = cluster.exchange(out);
            apply(
                cluster,
                &mut dist,
                &mut pending,
                &inboxes,
                (bucket + 1) * delta,
                tr,
                round,
            );
            cluster.recycle_inboxes(inboxes);
            round += 1;
        }

        // --- heavy-edge phase: every settled vertex of this bucket fires
        // its heavy edges once ---
        cluster.set_round(round);
        let mut out = cluster.lend_outboxes();
        for r in 0..ranks {
            let t0 = ins::span_begin(tr);
            let mut produced = 0u64;
            let csr = &cluster.csrs[r];
            let (start, _) = cluster.part.range(r as u32);
            for i in 0..dist[r].len() {
                let du = dist[r][i];
                if du == INF || du / delta != bucket {
                    continue;
                }
                let u = start + i as Vid;
                for &v in csr.neighbors_local(i) {
                    let w = edge_weight(u, v, max_weight);
                    if w <= delta {
                        continue;
                    }
                    produced += 1;
                    // Heavy targets land in future buckets; the bucket
                    // advance re-marks them, so no horizon here.
                    relax(cluster, &mut dist, &mut pending, &mut out, r, v, du + w, 0);
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
        }
        let inboxes = cluster.exchange(out);
        apply(cluster, &mut dist, &mut pending, &inboxes, 0, tr, round);
        cluster.recycle_inboxes(inboxes);
        round += 1;

        // --- advance to the next non-empty bucket ---
        let mut next = u64::MAX;
        for r in 0..ranks {
            for i in 0..dist[r].len() {
                let d = dist[r][i];
                if d != INF && d / delta > bucket {
                    next = next.min(d / delta);
                }
                if pending[r][i] && d != INF {
                    next = next.min(d / delta);
                }
            }
        }
        if next == u64::MAX {
            break;
        }
        bucket = next;
        // Vertices in the new bucket become pending.
        for r in 0..ranks {
            for i in 0..dist[r].len() {
                let d = dist[r][i];
                if d != INF && d / delta == bucket {
                    pending[r][i] = true;
                }
            }
        }
    }

    // Ranks own consecutive id blocks in rank order.
    dist.concat()
}

#[allow(clippy::too_many_arguments)]
fn relax<T: Transport>(
    cluster: &AlgoCluster<T>,
    dist: &mut [Vec<u64>],
    pending: &mut [Vec<bool>],
    out: &mut [Outboxes],
    from_rank: usize,
    v: Vid,
    cand: u64,
    light_horizon: u64,
) {
    let owner = cluster.part.owner(v) as usize;
    if owner == from_rank {
        let vl = cluster.part.to_local(v) as usize;
        if cand < dist[from_rank][vl] {
            dist[from_rank][vl] = cand;
            if cand < light_horizon {
                pending[from_rank][vl] = true;
            }
        }
    } else {
        out[from_rank].push(owner as u32, EdgeRec { u: v, v: cand });
    }
}

#[allow(clippy::too_many_arguments)]
fn apply<T: Transport>(
    cluster: &AlgoCluster<T>,
    dist: &mut [Vec<u64>],
    pending: &mut [Vec<bool>],
    inboxes: &[Vec<EdgeRec>],
    light_horizon: u64,
    tr: Option<&Tracer>,
    round: u32,
) {
    for (r, inbox) in inboxes.iter().enumerate() {
        let t0 = ins::span_begin(tr);
        for rec in inbox {
            let vl = cluster.part.to_local(rec.u) as usize;
            if rec.v < dist[r][vl] {
                dist[r][vl] = rec.v;
                if rec.v < light_horizon {
                    pending[r][vl] = true;
                }
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
