//! Regenerates Table 2: comparison with published distributed-BFS systems.
//! The literature rows are the paper's own citations; the "present work"
//! row is the paper's measured result; the reproduction rows are produced
//! by this codebase (modeled full machine + honest host-scale threaded
//! run).

use std::time::Instant;
use sw_arch::ChipConfig;
use sw_bench::{experiment_profile, print_table, PositionalArgs};
use sw_graph500::{run_benchmark, Graph500Spec};
use sw_net::NetworkConfig;
use swbfs_core::traffic::extrapolate_depth;
use swbfs_core::{BfsConfig, ModelOutcome, ModeledCluster};

fn main() {
    let args = PositionalArgs::new("table2 [host_scale]");
    let host_scale: u32 = args.get(0, 18);

    // Modeled full machine: 40,768 nodes, 26.2M vertices/node (scale 40).
    eprintln!("measuring traffic profile...");
    let base = experiment_profile(18, 16);
    let vpn = 26_200_000u64;
    let growth = (40_768u64 * vpn) as f64 / (1u64 << 18) as f64;
    let outcome = ModeledCluster::new(
        ChipConfig::sw26010(),
        NetworkConfig::taihulight(40_768),
        BfsConfig::paper(),
        vpn,
        extrapolate_depth(&base, growth),
    )
    .run();
    let modeled_gteps = match &outcome {
        ModelOutcome::Completed(r) => r.gteps,
        ModelOutcome::Crashed { error } => panic!("full-machine model crashed: {error}"),
    };

    // Honest host-scale run on the threaded backend.
    eprintln!("running host-scale Graph500 (scale {host_scale}, 8 ranks, 8 roots)...");
    let t0 = Instant::now();
    let res = run_benchmark(
        &Graph500Spec::quick(host_scale, 2, 8),
        8,
        BfsConfig::threaded_small(4),
    )
    .expect("host benchmark");
    eprintln!("host benchmark took {:.1}s", t0.elapsed().as_secs_f64());
    let host_gteps = res.stats.harmonic_mean / 1e9;

    println!("\nTable 2: distributed BFS results (paper rows + this reproduction)\n");
    let rows = vec![
        row("Ueno [11]", 2013, 35, 317.0, "1,366 + 4096 GPUs", "Xeon X5670 + Fermi M2050", "Hetero."),
        row("Beamer [3]", 2013, 35, 240.0, "7,187 (115.0K cores)", "Cray XK6", "Homo."),
        row("Hiragushi [12]", 2013, 31, 117.0, "1,024", "Tesla M2090", "Hetero."),
        row("Checconi [4]", 2014, 40, 15_363.0, "65,536 (1.05M cores)", "Blue Gene/Q", "Homo."),
        row("Buluc [5]", 2015, 36, 865.3, "4,817 (115.6K cores)", "Cray XC30", "Homo."),
        row("K Computer [2]", 2015, 40, 38_621.4, "82,944 (663.5K cores)", "SPARC64 VIIIfx", "Homo."),
        row("Bisson [13]", 2016, 33, 830.0, "4,096", "Kepler K20X", "Hetero."),
        row("Lin (paper)", 2016, 40, 23_755.7, "40,768 (10.6M cores)", "SW26010", "Hetero."),
        row(
            "This repro (modeled)",
            2026,
            40,
            modeled_gteps,
            "40,768 (modeled)",
            "SW26010 simulator",
            "Hetero.",
        ),
        row(
            "This repro (host)",
            2026,
            host_scale,
            host_gteps,
            "8 threaded ranks",
            "host CPU",
            "Homo.",
        ),
    ];
    print_table(
        &["Authors", "Year", "Scale", "GTEPS", "Processors", "Architecture", "Type"],
        &rows,
    );
    println!(
        "\nModeled-vs-paper headline: {:.0} vs 23,755.7 GTEPS ({:+.0}%).",
        modeled_gteps,
        100.0 * (modeled_gteps - 23_755.7) / 23_755.7
    );
}

fn row(
    who: &str,
    year: u32,
    scale: u32,
    gteps: f64,
    procs: &str,
    arch: &str,
    ty: &str,
) -> Vec<String> {
    vec![
        who.into(),
        year.to_string(),
        scale.to_string(),
        if gteps >= 100.0 {
            format!("{gteps:.1}")
        } else {
            format!("{gteps:.3}")
        },
        procs.into(),
        arch.into(),
        ty.into(),
    ]
}
