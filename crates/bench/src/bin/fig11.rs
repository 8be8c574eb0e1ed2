//! Regenerates Figure 11: performance comparison of the paper's
//! techniques — {Direct, Relay} messaging × {MPE, CPE} processing — as
//! GTEPS vs node count at 16 M vertices per node.
//!
//! The per-level traffic profile is *measured* at startup by running the
//! threaded backend on a real Kronecker graph, then replayed through the
//! chip + network cost models at each sweep point. Crash cells print
//! `CRASH` with the violated constraint, matching the paper's narrative
//! (Direct-CPE dies past 256 nodes from SPM capacity; Direct-MPE plateaus
//! at 4 Ki and dies at 16 Ki from MPI connection memory).

use sw_arch::ChipConfig;
use sw_bench::{experiment_profile, fmt_gteps, print_table, PositionalArgs};
use sw_net::NetworkConfig;
use swbfs_core::traffic::extrapolate_depth;
use swbfs_core::{BfsConfig, Messaging, ModelOutcome, ModeledCluster, Processing};

fn main() {
    let args = PositionalArgs::new("fig11 [profile_scale] [profile_ranks]");
    let profile_scale: u32 = args.get(0, 18);
    let profile_ranks: u32 = args.get(1, 16);
    let vpn: u64 = 16 << 20;

    eprintln!("measuring traffic profile (scale {profile_scale}, {profile_ranks} ranks)...");
    let base_profile = experiment_profile(profile_scale, profile_ranks);

    let configs: [(&str, BfsConfig); 4] = [
        (
            "Direct MPE",
            BfsConfig::paper()
                .with_messaging(Messaging::Direct)
                .with_processing(Processing::Mpe),
        ),
        (
            "Direct CPE",
            BfsConfig::paper().with_messaging(Messaging::Direct),
        ),
        (
            "Relay MPE",
            BfsConfig::paper().with_processing(Processing::Mpe),
        ),
        ("Relay CPE", BfsConfig::paper()),
    ];

    println!("\nFigure 11: technique comparison, GTEPS at 16M vertices/node\n");
    let mut rows = Vec::new();
    let mut crash_notes: Vec<String> = Vec::new();
    for nodes in [64u32, 256, 1024, 4096, 16384, 40960] {
        let growth = (nodes as u64 * vpn) as f64
            / ((1u64 << profile_scale) as f64);
        let profile = extrapolate_depth(&base_profile, growth);
        let mut row = vec![format!("{nodes}")];
        for (name, cfg) in &configs {
            let model = ModeledCluster::new(
                ChipConfig::sw26010(),
                NetworkConfig::taihulight(nodes),
                *cfg,
                vpn,
                profile.clone(),
            );
            match model.run() {
                ModelOutcome::Completed(r) => row.push(fmt_gteps(Some(r.gteps))),
                ModelOutcome::Crashed { error } => {
                    row.push(fmt_gteps(None));
                    crash_notes.push(format!("{name} @ {nodes} nodes: {error}"));
                }
            }
        }
        rows.push(row);
    }
    print_table(
        &["nodes", "Direct MPE", "Direct CPE", "Relay MPE", "Relay CPE"],
        &rows,
    );

    if !crash_notes.is_empty() {
        println!("\nCrash causes:");
        for n in crash_notes {
            println!("  {n}");
        }
    }
    println!("\nPaper shape targets: CPE ≈ 10x MPE where both run; Direct CPE");
    println!("crashes past 256 nodes (SPM); Direct MPE caps near 4Ki and");
    println!("crashes at 16Ki (MPI memory); Relay CPE scales to the full machine.");
}
