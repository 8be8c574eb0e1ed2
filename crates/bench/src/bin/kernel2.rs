//! Runs Graph500 kernel 2 (SSSP, spec v3) on the distributed framework —
//! §8's transferability claim under benchmark conditions, with every
//! distance map validated against Dijkstra.
//!
//! Usage: `kernel2 [scale] [ranks] [roots] [max_weight]`

use sw_bench::{print_table, PositionalArgs};
use sw_graph500::{run_kernel2, Graph500Spec};

fn main() {
    let args = PositionalArgs::new("kernel2 [scale] [ranks] [roots] [max_weight]");
    let scale: u32 = args.get(0, 15);
    let ranks: u32 = args.get(1, 8);
    let roots: usize = args.get(2, 8);
    let max_w: u64 = args.get(3, 255);

    eprintln!("kernel 2: scale {scale}, {ranks} ranks, {roots} roots, weights 1..={max_w}");
    let spec = Graph500Spec::quick(scale, 3, roots);
    let res = match run_kernel2(&spec, ranks, (ranks / 4).max(1), max_w) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("kernel2: {e}");
            std::process::exit(1);
        }
    };

    println!("\nGraph500 kernel 2 (SSSP) on the threaded framework:\n");
    let rows: Vec<Vec<String>> = res
        .runs
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.root),
                format!("{:.4}", r.time_s),
                format!("{}", r.reached),
                format!("{}", r.traversed_edges),
                format!("{:.3e}", r.teps),
            ]
        })
        .collect();
    print_table(&["root", "time (s)", "reached", "traversed", "TEPS"], &rows);
    println!(
        "\nharmonic_mean_TEPS: {:.4e}   (all distance maps validated against Dijkstra)",
        res.stats.harmonic_mean
    );
}
