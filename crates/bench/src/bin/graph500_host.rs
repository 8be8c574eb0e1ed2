//! Runs the full Graph500 benchmark (all six steps, official output
//! block) on the threaded backend at host scale.
//!
//! Usage: `graph500_host [scale] [ranks] [roots] [seed]`

use sw_bench::PositionalArgs;
use sw_graph500::{report::format_report, run_benchmark, Graph500Spec};
use swbfs_core::BfsConfig;

fn main() {
    let args = PositionalArgs::new("graph500_host [scale] [ranks] [roots] [seed]");
    let scale: u32 = args.get(0, 18);
    let ranks: u32 = args.get(1, 8);
    let roots: usize = args.get(2, 16);
    let seed: u64 = args.get(3, 1);

    eprintln!("Graph500: scale {scale}, {ranks} ranks, {roots} roots, seed {seed}");
    let spec = Graph500Spec::quick(scale, seed, roots);
    let res = match run_benchmark(&spec, ranks, BfsConfig::threaded_small((ranks / 4).max(1))) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("graph500_host: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", format_report(&res));
    eprintln!(
        "\nall {} parent trees passed the five validation rules",
        res.runs.len()
    );
}
