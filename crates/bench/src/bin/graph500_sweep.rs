//! Multi-scale Graph500 sweep on the threaded backend, CSV output —
//! handy for tracking host-TEPS across graph sizes and rank counts.
//!
//! Usage: `graph500_sweep [min_scale] [max_scale] [ranks] [roots]`

use sw_bench::PositionalArgs;
use sw_graph500::{run_benchmark, Graph500Spec};
use swbfs_core::BfsConfig;

fn main() {
    let args = PositionalArgs::new("graph500_sweep [min_scale] [max_scale] [ranks] [roots]");
    let min_scale: u32 = args.get(0, 12);
    let max_scale: u32 = args.get(1, 18);
    let ranks: u32 = args.get(2, 8);
    let roots: usize = args.get(3, 8);

    println!(
        "scale,vertices,edges,ranks,roots,construction_s,min_teps,median_teps,harmonic_mean_teps,max_teps"
    );
    for scale in min_scale..=max_scale {
        let spec = Graph500Spec::quick(scale, 7, roots);
        match run_benchmark(&spec, ranks, BfsConfig::threaded_small((ranks / 4).max(1))) {
            Ok(res) => {
                let s = &res.stats;
                println!(
                    "{scale},{},{},{ranks},{},{:.3},{:.3e},{:.3e},{:.3e},{:.3e}",
                    spec.num_vertices(),
                    spec.num_edges(),
                    res.runs.len(),
                    res.construction_s,
                    s.min,
                    s.median,
                    s.harmonic_mean,
                    s.max
                );
            }
            Err(e) => {
                eprintln!("scale {scale}: {e}");
            }
        }
    }
}
