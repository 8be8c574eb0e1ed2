//! Route planning on a weighted network — exercises the Δ-stepping SSSP
//! kernel.
//!
//! Models a logistics network as a random power-law graph with synthetic
//! per-link costs, then answers: cheapest routes from a depot, and how Δ
//! (the bucket width) trades rounds for redundant relaxations in
//! exchanged traffic. A Δ above the largest cost makes every link light,
//! which is Bellman–Ford's round structure.
//!
//! Run with: `cargo run --release --example route_planning`

use std::time::Instant;
use swbfs::algos::sssp::{sssp_oracle, INF};
use swbfs::algos::{sssp_delta_stepping, AlgoCluster};
use swbfs::bfs::config::Messaging;
use swbfs::graph::{generate_kronecker, KroneckerConfig};

fn main() {
    let el = generate_kronecker(&KroneckerConfig::graph500(14, 77));
    let depot = 0u64;
    let max_w = 100;
    println!(
        "logistics network: {} sites, {} links, costs 1..={max_w}\n",
        el.num_vertices,
        el.len()
    );

    // Ground truth.
    let oracle = sssp_oracle(&el, depot, max_w);
    let reachable = oracle.iter().filter(|&&d| d != INF).count();
    let max_cost = oracle.iter().filter(|&&d| d != INF).max().unwrap();
    println!("from depot {depot}: {reachable} sites reachable, costliest route {max_cost}");

    // Δ-stepping at several bucket widths.
    println!("\nbucket widths (8 ranks, relay transport):");
    for delta in [5u64, 20, 50, 200] {
        let mut c = AlgoCluster::new(&el, 8, 4, Messaging::Relay);
        let t = Instant::now();
        let ds = sssp_delta_stepping(&mut c, depot, max_w, delta);
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(ds, oracle, "delta {delta} wrong");
        println!(
            "  Δ-stepping Δ={delta:<4}: {:.3}s, {:>9} record-hops",
            dt, c.stats.record_hops
        );
    }

    // A few concrete routes.
    println!("\nsample cheapest-route costs from the depot:");
    for target in [42u64, 999, 7777, 16000] {
        let d = oracle[target as usize % oracle.len()];
        if d == INF {
            println!("  site {target:>6}: unreachable");
        } else {
            println!("  site {target:>6}: cost {d}");
        }
    }
}
