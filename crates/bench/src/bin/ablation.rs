//! Ablation study over the design choices DESIGN.md calls out, measured
//! on the threaded backend with a real Kronecker graph: each row removes
//! or adds one technique relative to the paper configuration and reports
//! work and traffic.
//!
//! Usage: `ablation [scale] [ranks]`

use std::time::Instant;
use sw_bench::{print_table, PositionalArgs};
use sw_graph::{generate_kronecker, KroneckerConfig};
use swbfs_core::policy::Direction;
use swbfs_core::{BfsConfig, ClusterBuilder, Messaging};

fn main() {
    let args = PositionalArgs::new("ablation [scale] [ranks]");
    let scale: u32 = args.get(0, 17);
    let ranks: u32 = args.get(1, 16);

    let el = generate_kronecker(&KroneckerConfig::graph500(scale, 4));
    eprintln!(
        "graph: scale {scale} ({} vertices, {} edges), {ranks} ranks",
        el.num_vertices,
        el.len()
    );
    // The paper's Bottom-Up protocol is the subject here: at 2^10 hubs
    // most Bottom-Up neighbours are left to a QUERY/REPLY exchange.
    let base = BfsConfig {
        bottom_up_hubs: 1 << 10,
        ..BfsConfig::threaded_small((ranks / 4).max(1))
    };

    let variants: Vec<(&str, BfsConfig)> = vec![
        ("paper (relay, dir-opt, hubs)", base),
        (
            "- direction optimization",
            BfsConfig {
                force_top_down: true,
                ..base
            },
        ),
        (
            "- hub prefetch",
            BfsConfig {
                top_down_hubs: 1,
                bottom_up_hubs: 1,
                ..base
            },
        ),
        ("- relay (direct messaging)", base.with_messaging(Messaging::Direct)),
        ("+ message compression (§7)", base.with_compression()),
        (
            "+ degree-ordered adjacency [25]",
            BfsConfig {
                degree_ordered_adjacency: true,
                ..base
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let mut tc = ClusterBuilder::new(&el, ranks, cfg).build().expect("cluster");
        let root = (0..el.num_vertices.min(512))
            .max_by_key(|&v| tc.degree_of(v))
            .unwrap();
        let t0 = Instant::now();
        let out = tc.run(root).expect("bfs");
        let dt = t0.elapsed().as_secs_f64();
        let records: u64 = out.levels.iter().map(|l| l.records_generated).sum();
        if cfg == base {
            let bottom_up: u64 = out
                .levels
                .iter()
                .filter(|l| l.direction == Direction::BottomUp)
                .map(|l| l.records_generated)
                .sum();
            assert!(bottom_up > 0, "the base row must exercise Bottom-Up queries");
        }
        let bytes: u64 = out.levels.iter().map(|l| l.bytes_sent).sum();
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", dt),
            format!("{}", out.total_edges_scanned()),
            format!("{records}"),
            format!("{}", out.total_messages_sent()),
            format!("{:.1}", bytes as f64 / (1 << 20) as f64),
            format!("{}", out.reached()),
        ]);
    }
    println!("\nAblation (threaded backend, wall time on this host):\n");
    print_table(
        &[
            "variant",
            "time (s)",
            "edges scanned",
            "records",
            "messages",
            "MiB sent",
            "reached",
        ],
        &rows,
    );
    println!("\nExpected: removing direction optimization multiplies scanned edges;");
    println!("removing hubs multiplies records; direct messaging multiplies message");
    println!("count; compression divides bytes by ~3 while changing nothing else.");
}
