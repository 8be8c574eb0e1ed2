//! Cross-crate integration: the chip simulator, the network model, and the
//! BFS agree with each other where their domains overlap.

use swbfs::arch::{ChipConfig, ShuffleEngine};
use swbfs::bfs::arena::ExchangeArena;
use swbfs::bfs::exchange::Codec;
use swbfs::bfs::messages::EdgeRec;
use swbfs::bfs::modules::Outboxes;
use swbfs::bfs::shuffling::{bfs_shuffle_layout, bucket_count};
use swbfs::bfs::traffic::{extrapolate_depth, measure_profile};
use swbfs::bfs::{BfsConfig, Messaging, ModeledCluster, Processing};
use swbfs::net::{GroupLayout, NetworkConfig};

/// The on-chip shuffle engine and the rank-level exchange implement the
/// same bucketing: routing one rank's outbox through the CPE mesh must
/// produce exactly the per-destination buffers the exchange would send.
#[test]
fn chip_shuffle_agrees_with_rank_exchange() {
    let ranks = 16u32;
    let layout = GroupLayout::new(ranks, 4);
    // Synthesize an outbox for rank 0: records addressed by destination.
    let records: Vec<EdgeRec> = (0..5000u64)
        .map(|i| EdgeRec {
            u: i,
            v: 1 + (i * 7) % 15, // destinations 1..16
        })
        .collect();

    // Path A: the sw-arch shuffle engine buckets them on the mesh.
    let engine = ShuffleEngine::new(
        ChipConfig::sw26010(),
        bfs_shuffle_layout(&BfsConfig::paper()),
    )
    .unwrap();
    let nb = bucket_count(Messaging::Direct, &layout, 0);
    assert_eq!(nb, 16);
    let report = engine
        .run(&records, nb, 16, |r| r.v as usize)
        .expect("shuffle");

    // Path B: the swbfs-core exchange delivers the same outbox.
    let mut out: Vec<Outboxes> = (0..16).map(|_| Outboxes::new(16)).collect();
    for r in &records {
        out[0].push(r.v as u32, *r);
    }
    let (inbox, _) =
        ExchangeArena::new(16).exchange(Messaging::Direct, out, &layout, Codec::Fixed(16));

    for (d, dst_inbox) in inbox.iter().enumerate().skip(1) {
        let mut a = report.buckets[d].clone();
        let mut b = dst_inbox.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "bucket {d} mismatch between chip and exchange");
    }
    // And the shuffle respected hardware limits while doing it.
    assert!(report.max_link_flits > 0);
    assert!(report.throughput_gbps() > 5.0);
}

/// The modeled backend's feasibility gates are exactly the chip and
/// network constraints, at the same thresholds.
#[test]
fn model_crash_thresholds_match_constraint_sources() {
    let chip = ChipConfig::sw26010();
    let max_dest = bfs_shuffle_layout(&BfsConfig::paper()).max_destinations(&chip);
    assert_eq!(max_dest, 944);

    let profile = swbfs::bfs::traffic::typical_kronecker_profile();
    let run = |nodes: u32, msg: Messaging, proc_: Processing| {
        ModeledCluster::new(
            chip,
            NetworkConfig::taihulight(nodes),
            BfsConfig::paper().with_messaging(msg).with_processing(proc_),
            16 << 20,
            profile.clone(),
        )
        .run()
    };

    // Direct CPE lives exactly up to max_dest nodes.
    assert!(run(max_dest as u32, Messaging::Direct, Processing::Cpe)
        .gteps()
        .is_some());
    assert!(run(max_dest as u32 + 1, Messaging::Direct, Processing::Cpe)
        .gteps()
        .is_none());

    // Direct MPE: the connection-memory wall sits between 8Ki and 16Ki.
    assert!(run(8192, Messaging::Direct, Processing::Mpe).gteps().is_some());
    assert!(run(16384, Messaging::Direct, Processing::Mpe).gteps().is_none());

    // Relay CPE survives the full machine.
    assert!(run(40_960, Messaging::Relay, Processing::Cpe).gteps().is_some());
}

/// A measured profile drives the model to the same qualitative outcome as
/// the fixture profile (the harness does not depend on magic constants).
#[test]
fn measured_and_fixture_profiles_agree_qualitatively() {
    let measured = measure_profile(12, 3, 8, BfsConfig::threaded_small(4), 1).unwrap();
    let growth = (1024u64 * (16 << 20)) as f64 / (1u64 << 12) as f64;
    let gteps = |profile| {
        ModeledCluster::new(
            ChipConfig::sw26010(),
            NetworkConfig::taihulight(1024),
            BfsConfig::paper(),
            16 << 20,
            profile,
        )
        .run()
        .gteps()
        .unwrap()
    };
    let a = gteps(extrapolate_depth(&measured, growth));
    let b = gteps(swbfs::bfs::traffic::typical_kronecker_profile());
    // Same order of magnitude.
    let ratio = a / b;
    assert!(
        (0.1..10.0).contains(&ratio),
        "measured {a} vs fixture {b} GTEPS"
    );
}

/// Weak-scaling sanity on the measured pipeline end to end: growing the
/// modeled machine 4x grows modeled GTEPS close to 4x for the final
/// configuration (the Figure 12 property).
#[test]
fn modeled_weak_scaling_near_linear_mid_range() {
    let profile = swbfs::bfs::traffic::typical_kronecker_profile();
    let gteps = |nodes: u32| {
        ModeledCluster::new(
            ChipConfig::sw26010(),
            NetworkConfig::taihulight(nodes),
            BfsConfig::paper(),
            26 << 20,
            profile.clone(),
        )
        .run()
        .gteps()
        .unwrap()
    };
    let r1 = gteps(1280) / gteps(320);
    assert!(r1 > 2.6, "320→1280 speedup {r1}");
    let r2 = gteps(5120) / gteps(1280);
    assert!(r2 > 2.4, "1280→5120 speedup {r2}");
}
