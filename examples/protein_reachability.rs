//! Protein-interaction reachability — the paper's other motivating domain
//! ("unstructured data such as ... protein structures").
//!
//! Builds a synthetic protein-protein interaction (PPI) network (an R-MAT
//! graph with a flatter initiator than the social default — PPI networks
//! are heavy-tailed but less extreme), then answers reachability and
//! pathway-cost queries:
//!
//! * which proteins are in the same interaction cluster as a query protein
//!   (BFS reachability + hop distance),
//! * minimum interaction-cost pathways (SSSP with confidence-derived
//!   weights),
//! * how deep the query protein sits in the interaction core (k-core).
//!
//! Run with: `cargo run --release --example protein_reachability`

use swbfs::algos::sssp::INF;
use swbfs::algos::{kcore_distributed, sssp_delta_stepping, AlgoCluster};
use swbfs::bfs::config::Messaging;
use swbfs::bfs::{BfsConfig, ClusterBuilder};
use swbfs::graph::kronecker::{generate_kronecker, KroneckerConfig};

fn main() {
    // A flatter initiator (A=0.45) than Graph500's 0.57: still scale-free,
    // closer to measured PPI degree exponents.
    let cfg = KroneckerConfig {
        scale: 14,
        edge_factor: 8,
        a: 0.45,
        b: 0.22,
        c: 0.22,
        seed: 99,
        permute_vertices: true,
    };
    let el = generate_kronecker(&cfg);
    println!(
        "synthetic PPI network: {} proteins, {} interactions\n",
        el.num_vertices,
        el.len()
    );

    // Query protein: a mid-degree one (not the hub — hubs are trivially
    // connected to everything).
    let mut bfs = ClusterBuilder::new(&el, 6, BfsConfig::threaded_small(3))
        .build()
        .unwrap();
    let query = (0..el.num_vertices)
        .find(|&v| (4..=8).contains(&bfs.degree_of(v)))
        .expect("a mid-degree protein");
    println!(
        "query protein: {query} ({} direct interactions)",
        bfs.degree_of(query)
    );

    // Reachability + hop distances.
    let out = bfs.run(query).unwrap();
    let levels = out.levels_from_parents();
    println!(
        "interaction cluster: {} proteins reachable, max path length {}",
        out.reached(),
        out.depth()
    );
    let within3 = levels
        .iter()
        .flatten()
        .filter(|&&l| l <= 3 && l > 0)
        .count();
    println!("proteins within 3 interaction hops: {within3}");

    // Minimum-cost pathways: weight = synthetic interaction confidence.
    let mut cluster = AlgoCluster::new(&el, 6, 3, Messaging::Relay);
    let dist = sssp_delta_stepping(&mut cluster, query, 100, 20);
    let reachable: Vec<u64> = dist.iter().copied().filter(|&d| d != INF).collect();
    let max_cost = reachable.iter().max().unwrap();
    let mean_cost: f64 =
        reachable.iter().sum::<u64>() as f64 / reachable.len() as f64;
    println!(
        "\npathway costs from {query}: mean {mean_cost:.1}, max {max_cost} \
         (confidence-weighted; {} pathways)",
        reachable.len() - 1
    );

    // Hop-optimal vs cost-optimal divergence: proteins where the cheapest
    // pathway is NOT a shortest-hop pathway would show dist > hops * max_w.
    let divergent = levels
        .iter()
        .zip(dist.iter())
        .filter(|(l, &d)| matches!(l, Some(h) if d != INF && d > *h as u64 * 100))
        .count();
    println!("(sanity: {divergent} proteins violate the hop-cost bound — expect 0)");

    // Core placement.
    println!("\ninteraction-core membership of the query protein:");
    for k in [2u64, 3, 4, 6, 8] {
        let mut cluster = AlgoCluster::new(&el, 6, 3, Messaging::Relay);
        let core = kcore_distributed(&mut cluster, k);
        let total = core.iter().filter(|&&x| x).count();
        println!(
            "  {k}-core: {}, core size {total}",
            if core[query as usize] { "IN " } else { "out" }
        );
    }
}
