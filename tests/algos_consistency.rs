//! Cross-kernel integration: the §8 algorithms must agree with the BFS
//! and with each other on the same graph — reachability, distance bounds,
//! core nesting, probability mass.

use swbfs::algos::sssp::{sssp_oracle, INF};
use swbfs::algos::{
    kcore_distributed, pagerank_distributed, sssp_delta_stepping, wcc_distributed, AlgoCluster,
};
use swbfs::bfs::baseline::sequential_bfs_levels;
use swbfs::bfs::config::Messaging;
use swbfs::bfs::{BfsConfig, ClusterBuilder};
use swbfs::graph::{generate_kronecker, KroneckerConfig};

fn graph() -> swbfs::graph::EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(11, 33))
}

#[test]
fn wcc_labels_agree_with_bfs_reachability() {
    let el = graph();
    let mut c = AlgoCluster::new(&el, 6, 3, Messaging::Relay);
    let labels = wcc_distributed(&mut c);

    // BFS from vertex 0 must reach exactly label-of-0's component.
    let mut tc = ClusterBuilder::new(&el, 6, BfsConfig::threaded_small(3))
        .build()
        .unwrap();
    let out = tc.run(0).unwrap();
    let l0 = labels[0];
    for (v, &label) in labels.iter().enumerate() {
        let reached = out.parents[v] != swbfs::bfs::NO_PARENT;
        assert_eq!(
            reached,
            label == l0,
            "vertex {v}: BFS reach and WCC label disagree"
        );
    }
}

#[test]
fn sssp_distance_sandwiched_by_hops() {
    // For weights in 1..=W: hops(v) <= dist(v) <= W * hops(v).
    let el = graph();
    let w = 10u64;
    let mut c = AlgoCluster::new(&el, 5, 2, Messaging::Relay);
    let dist = sssp_delta_stepping(&mut c, 7, w, 4);
    let hops = sequential_bfs_levels(&el, 7);
    for v in 0..el.num_vertices as usize {
        match hops[v] {
            Some(h) => {
                assert!(dist[v] >= h as u64, "v {v}: dist {} < hops {h}", dist[v]);
                assert!(
                    dist[v] <= w * h as u64 || h == 0,
                    "v {v}: dist {} > {w}*{h}",
                    dist[v]
                );
            }
            None => assert_eq!(dist[v], INF, "v {v} unreachable but has distance"),
        }
    }
}

#[test]
fn delta_stepping_matches_dijkstra() {
    // Two cluster shapes, a light-heavy split and an all-light one
    // (Δ ≥ the largest weight, Bellman–Ford's rounds).
    let el = graph();
    let oracle = sssp_oracle(&el, 3, 50);
    let mut a = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
    let mut b = AlgoCluster::new(&el, 7, 3, Messaging::Direct);
    assert_eq!(sssp_delta_stepping(&mut a, 3, 50, 50), oracle);
    assert_eq!(sssp_delta_stepping(&mut b, 3, 50, 12), oracle);
}

#[test]
fn kcores_are_nested() {
    let el = graph();
    let mut prev: Option<Vec<bool>> = None;
    for k in [2u64, 3, 5, 8, 13] {
        let mut c = AlgoCluster::new(&el, 5, 2, Messaging::Relay);
        let core = kcore_distributed(&mut c, k);
        if let Some(bigger) = &prev {
            for v in 0..core.len() {
                assert!(
                    !core[v] || bigger[v],
                    "vertex {v} in {k}-core but not in the smaller-k core"
                );
            }
        }
        prev = Some(core);
    }
}

#[test]
fn pagerank_respects_structure() {
    let el = graph();
    let mut c = AlgoCluster::new(&el, 6, 3, Messaging::Relay);
    let scores = pagerank_distributed(&mut c, 25);
    // Mass conserved.
    let total: f64 = scores.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    // The max-degree vertex outscores the median-degree vertex.
    let csr = swbfs::graph::Csr::from_edge_list(&el);
    let hub = (0..el.num_vertices).max_by_key(|&v| csr.degree(v)).unwrap();
    let mut degs: Vec<(u64, u64)> = (0..el.num_vertices).map(|v| (csr.degree(v), v)).collect();
    degs.sort_unstable();
    let median = degs[degs.len() / 2].1;
    assert!(
        scores[hub as usize] > scores[median as usize],
        "hub {hub} should outrank median-degree {median}"
    );
}

#[test]
fn all_kernels_insensitive_to_transport_and_rank_count() {
    let el = generate_kronecker(&KroneckerConfig::graph500(9, 5));
    let runs = |ranks: u32, m: Messaging| {
        let mut c = AlgoCluster::new(&el, ranks, 2, m);
        let wcc = wcc_distributed(&mut c);
        let mut c = AlgoCluster::new(&el, ranks, 2, m);
        let sssp = sssp_delta_stepping(&mut c, 1, 9, 3);
        let mut c = AlgoCluster::new(&el, ranks, 2, m);
        let core = kcore_distributed(&mut c, 4);
        (wcc, sssp, core)
    };
    let a = runs(3, Messaging::Direct);
    let b = runs(8, Messaging::Relay);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}
