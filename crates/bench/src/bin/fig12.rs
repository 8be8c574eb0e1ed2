//! Regenerates Figure 12: weak scaling of the final (Relay + CPE) BFS —
//! GTEPS vs node count for the paper's three per-node data sizes (1.6 M,
//! 6.5 M, 26.2 M vertices per node, reaching 2^36/2^38/2^40 vertices on
//! the full machine).

use sw_arch::ChipConfig;
use sw_bench::{experiment_profile, fmt_gteps, print_table, PositionalArgs};
use sw_net::NetworkConfig;
use swbfs_core::traffic::extrapolate_depth;
use swbfs_core::{BfsConfig, ModelOutcome, ModeledCluster};

fn main() {
    let args = PositionalArgs::new("fig12 [profile_scale] [profile_ranks]");
    let profile_scale: u32 = args.get(0, 18);
    let profile_ranks: u32 = args.get(1, 16);

    eprintln!("measuring traffic profile (scale {profile_scale}, {profile_ranks} ranks)...");
    let base_profile = experiment_profile(profile_scale, profile_ranks);

    let sizes: [(&str, u64); 3] = [
        ("1.6M", 1_600_000),
        ("6.5M", 6_500_000),
        ("26.2M", 26_200_000),
    ];

    println!("\nFigure 12: weak scaling (Relay CPE), GTEPS by vertices/node\n");
    let mut rows = Vec::new();
    for nodes in [80u32, 320, 1280, 5120, 20480, 40768] {
        let mut row = vec![format!("{nodes}")];
        for (_, vpn) in &sizes {
            let growth =
                (nodes as u64 * vpn) as f64 / ((1u64 << profile_scale) as f64);
            let profile = extrapolate_depth(&base_profile, growth);
            let model = ModeledCluster::new(
                ChipConfig::sw26010(),
                NetworkConfig::taihulight(nodes),
                BfsConfig::paper(),
                *vpn,
                profile,
            );
            match model.run() {
                ModelOutcome::Completed(r) => row.push(fmt_gteps(Some(r.gteps))),
                ModelOutcome::Crashed { .. } => row.push(fmt_gteps(None)),
            }
        }
        rows.push(row);
    }
    print_table(&["nodes", "1.6M vpn", "6.5M vpn", "26.2M vpn"], &rows);

    println!("\nPaper shape targets: near-linear weak scaling on all three lines;");
    println!("similar starting points at 80 nodes; at 40,768 nodes the 26.2M line");
    println!("sits ≈4x above 6.5M, which sits ≈4x above 1.6M (latency/overhead-bound");
    println!("small-data runs). Paper headline: 23,755.7 GTEPS at scale 40.");
}
