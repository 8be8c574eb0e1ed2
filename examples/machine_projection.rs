//! Machine-scale projection: use the modeled backend as a design tool.
//!
//! Suppose you are porting a traversal workload onto a TaihuLight-class
//! machine and must choose between the paper's four design points
//! ({Direct, Relay} messaging × {MPE, CPE} processing). This example
//! measures a traffic profile from a real (small) run, then projects every
//! configuration at several job sizes — including the configurations that
//! *cannot* run, with the hardware constraint that kills them.
//!
//! Run with: `cargo run --release --example machine_projection`

use swbfs::arch::ChipConfig;
use swbfs::bfs::traffic::{extrapolate_depth, measure_profile};
use swbfs::bfs::{BfsConfig, Messaging, ModelOutcome, ModeledCluster, Processing};
use swbfs::net::NetworkConfig;

fn main() {
    // 1. Measure how your workload actually behaves, per level.
    let profile_scale = 16;
    // The paper-style Bottom-Up hub count, so the Bottom-Up levels carry
    // the QUERY/REPLY traffic the model projects.
    let cfg = BfsConfig {
        bottom_up_hubs: 1 << 10,
        ..BfsConfig::threaded_small(4)
    };
    let profile = measure_profile(profile_scale, 7, 8, cfg, 1).expect("profile measurement");
    println!("measured profile: {} levels", profile.len());
    for (i, l) in profile.iter().enumerate() {
        println!(
            "  level {i}: {:?}, frontier {:.4}%, scans {:.3}% of edges, \
             records {:.3}% of edges",
            l.direction,
            100.0 * l.frontier_frac,
            100.0 * l.edges_scanned_frac,
            100.0 * l.records_frac
        );
    }

    // 2. Project it onto the machine.
    let vpn: u64 = 16 << 20;
    let configs = [
        ("Direct + MPE", Messaging::Direct, Processing::Mpe),
        ("Direct + CPE", Messaging::Direct, Processing::Cpe),
        ("Relay  + MPE", Messaging::Relay, Processing::Mpe),
        ("Relay  + CPE", Messaging::Relay, Processing::Cpe),
    ];
    for nodes in [256u32, 4096, 40_960] {
        println!("\n=== {nodes} nodes, {} M vertices/node ===", vpn >> 20);
        let growth = (nodes as u64 * vpn) as f64 / (1u64 << profile_scale) as f64;
        let prof = extrapolate_depth(&profile, growth);
        for (name, msg, proc_) in configs {
            let cfg = BfsConfig::paper()
                .with_messaging(msg)
                .with_processing(proc_);
            let outcome = ModeledCluster::new(
                ChipConfig::sw26010(),
                NetworkConfig::taihulight(nodes),
                cfg,
                vpn,
                prof.clone(),
            )
            .run();
            match outcome {
                ModelOutcome::Completed(r) => {
                    // Where does the time go?
                    let compute: f64 = r.levels.iter().map(|l| l.compute_ns).sum();
                    let network: f64 = r.levels.iter().map(|l| l.network_ns).sum();
                    let gather: f64 = r.levels.iter().map(|l| l.gather_ns).sum();
                    println!(
                        "  {name}: {:>8.1} GTEPS  ({:.0} ms/BFS; compute {:.0} ms, \
                         network {:.0} ms, global ops {:.0} ms; {} connections/node)",
                        r.gteps,
                        r.time_s * 1e3,
                        compute / 1e6,
                        network / 1e6,
                        gather / 1e6,
                        r.connections_per_node
                    );
                }
                ModelOutcome::Crashed { error } => {
                    println!("  {name}: INFEASIBLE — {error}");
                }
            }
        }
    }
    println!("\nThe paper's final design (Relay + CPE) is the only one that");
    println!("remains feasible and fast at full-machine scale.");
}
