//! Partitioning ablation: 1-D direct vs 1-D relay (the paper's design) vs
//! 2-D grid partitioning, on the communication-structure metrics the
//! paper's §7 comparison is about.
//!
//! Usage: `ablation2d [scale] [procs]` (procs must be a perfect square).

use sw_bench::{print_table, PositionalArgs};
use sw_graph::{generate_kronecker, Csr, KroneckerConfig};
use swbfs_core::baseline2d::bfs_2d;
use swbfs_core::{BfsConfig, ClusterBuilder, Messaging};

fn main() {
    let args = PositionalArgs::new("ablation2d [scale] [procs]");
    let scale: u32 = args.get(0, 15);
    let procs: u32 = args.get(1, 16);
    let side = (procs as f64).sqrt() as u32;
    assert_eq!(side * side, procs, "procs must be a perfect square");

    let el = generate_kronecker(&KroneckerConfig::graph500(scale, 12));
    let csr = Csr::from_edge_list(&el);
    let root = (0..el.num_vertices)
        .max_by_key(|&v| csr.degree(v))
        .unwrap();
    eprintln!(
        "graph: scale {scale}, {} vertices; {procs} processors; root {root}",
        el.num_vertices
    );

    // 1-D runs (Top-Down only, to compare partitioning apples-to-apples —
    // the 2-D implementation is Top-Down).
    let run_1d = |messaging| {
        let cfg = BfsConfig {
            force_top_down: true,
            ..BfsConfig::threaded_small((procs / side).max(1))
        }
        .with_messaging(messaging);
        let mut tc = ClusterBuilder::new(&el, procs, cfg).build().unwrap();
        let out = tc.run(root).unwrap();
        let records: u64 = out.levels.iter().map(|l| l.records_generated).sum();
        (out, records)
    };
    let (o_direct, rec_direct) = run_1d(Messaging::Direct);
    let (o_relay, rec_relay) = run_1d(Messaging::Relay);

    // 2-D run.
    let (o_2d, s_2d) = bfs_2d(&el, side, side, root);

    // All three must agree on hop distances.
    assert_eq!(
        o_direct.levels_from_parents(),
        o_2d.levels_from_parents(),
        "1-D and 2-D disagree"
    );

    let depth = o_direct.depth() as u64;
    println!("\nPartitioning comparison (Top-Down traversal, {procs} processors):\n");
    let rows = vec![
        vec![
            "1-D + direct".into(),
            format!("{}", procs - 1),
            format!("{}", o_direct.total_messages_sent()),
            format!("{rec_direct}"),
            format!("{}", o_direct.total_edges_scanned()),
        ],
        vec![
            format!("1-D + relay ({0}x{0} groups)", side),
            format!("{}", (procs / side - 1) + (side - 1) + (side - 1)),
            format!("{}", o_relay.total_messages_sent()),
            format!("{rec_relay}"),
            format!("{}", o_relay.total_edges_scanned()),
        ],
        vec![
            format!("2-D ({side}x{side} grid)"),
            format!("{}", side - 1 + side - 1),
            format!("{}", s_2d.messages),
            format!("{}", s_2d.expand_records + s_2d.fold_records),
            format!("{}", o_2d.total_edges_scanned()),
        ],
    ];
    print_table(
        &[
            "layout",
            "peers/proc/level",
            "messages total",
            "records",
            "edges scanned",
        ],
        &rows,
    );
    let _ = depth;
    println!("\n§7's trade, quantified: 2-D and relay both collapse the peer count");
    println!("from O(P) to O(sqrt P); the paper keeps 1-D (relay) because it also");
    println!("needs the Bottom-Up direction, which 1-D supports naturally.");
}
