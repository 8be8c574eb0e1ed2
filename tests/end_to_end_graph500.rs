//! End-to-end integration: the full Graph500 pipeline (generate → roots →
//! build → kernel → validate → stats) across backend configurations.

use swbfs::bfs::{BfsConfig, Messaging, Processing};
use swbfs::graph::{generate_kronecker, KroneckerConfig};
use swbfs::graph500::{run_benchmark, select_roots, validate_bfs, Graph500Spec};

#[test]
fn full_benchmark_scale_14_validates_every_root() {
    let spec = Graph500Spec::quick(14, 11, 8);
    let res = run_benchmark(&spec, 8, BfsConfig::threaded_small(4)).expect("benchmark");
    assert_eq!(res.runs.len(), 8);
    // Every run reached a nontrivial share of the graph and the stats are
    // coherent.
    for r in &res.runs {
        assert!(r.reached > 100, "root {} reached only {}", r.root, r.reached);
        assert!(r.teps > 0.0);
        assert!((3..=12).contains(&r.depth), "odd depth {}", r.depth);
    }
    assert!(res.stats.harmonic_mean <= res.stats.max);
    assert!(res.stats.harmonic_mean >= res.stats.min);
}

#[test]
fn every_configuration_produces_the_same_valid_tree() {
    // Direct/Relay × Mpe/Cpe with canonical ordering must give identical
    // parent maps, and each must pass the five validation rules.
    let el = generate_kronecker(&KroneckerConfig::graph500(13, 5));
    let root = select_roots(&el, 1, 3)[0];
    let base = BfsConfig::threaded_small(3);
    let mut reference = None;
    for messaging in [Messaging::Direct, Messaging::Relay] {
        for processing in [Processing::Mpe, Processing::Cpe] {
            let cfg = base.with_messaging(messaging).with_processing(processing);
            let mut tc = swbfs::bfs::ClusterBuilder::new(&el, 9, cfg).build().unwrap();
            let out = tc.run(root).unwrap();
            validate_bfs(&el, &out)
                .unwrap_or_else(|e| panic!("{messaging:?}/{processing:?}: {e}"));
            match &reference {
                None => reference = Some(out.parents),
                Some(r) => assert_eq!(
                    &out.parents, r,
                    "{messaging:?}/{processing:?} diverged"
                ),
            }
        }
    }
}

#[test]
fn direction_optimization_beats_top_down_on_work() {
    // The ablation the paper's framework choice rests on: direction
    // optimization must slash scanned edges on a power-law graph.
    let el = generate_kronecker(&KroneckerConfig::graph500(14, 9));
    let root = select_roots(&el, 1, 1)[0];

    let mut optimized = swbfs::bfs::ClusterBuilder::new(&el, 8, BfsConfig::threaded_small(4))
        .build()
        .unwrap();
    let mut plain = swbfs::bfs::ClusterBuilder::new(
        &el,
        8,
        BfsConfig {
            force_top_down: true,
            ..BfsConfig::threaded_small(4)
        },
    )
    .build()
    .unwrap();

    let a = optimized.run(root).unwrap();
    let b = plain.run(root).unwrap();

    // Same coverage...
    assert_eq!(a.reached(), b.reached());
    let la = a.levels_from_parents();
    let lb = b.levels_from_parents();
    assert_eq!(la, lb, "hop distances must agree");

    // ...far less work.
    let scanned_opt = a.total_edges_scanned();
    let scanned_plain = b.total_edges_scanned();
    assert!(
        (scanned_opt as f64) < 0.5 * scanned_plain as f64,
        "direction optimization only saved {scanned_opt} vs {scanned_plain}"
    );
}

#[test]
fn hub_prefetch_reduces_remote_records() {
    let el = generate_kronecker(&KroneckerConfig::graph500(13, 21));
    let root = select_roots(&el, 1, 2)[0];
    let with_hubs = BfsConfig::threaded_small(4);
    let without_hubs = BfsConfig {
        top_down_hubs: 1,
        bottom_up_hubs: 1,
        ..with_hubs
    };
    let mut a = swbfs::bfs::ClusterBuilder::new(&el, 8, with_hubs).build().unwrap();
    let mut b = swbfs::bfs::ClusterBuilder::new(&el, 8, without_hubs).build().unwrap();
    let oa = a.run(root).unwrap();
    let ob = b.run(root).unwrap();
    assert_eq!(oa.reached(), ob.reached());
    let ra: u64 = oa.levels.iter().map(|l| l.records_generated).sum();
    let rb: u64 = ob.levels.iter().map(|l| l.records_generated).sum();
    assert!(
        (ra as f64) < 0.7 * rb as f64,
        "hub prefetch saved too little: {ra} vs {rb}"
    );
}

#[test]
fn degree_ordered_adjacency_cuts_bottom_up_scans() {
    // The Yasui-style refinement: hubs first in each neighbour list means
    // the Bottom-Up early exit fires sooner, so fewer edges are scanned
    // for the same (valid) traversal.
    // Ordering is the default since PR 25, so the plain side opts out.
    let el = generate_kronecker(&KroneckerConfig::graph500(13, 17));
    let root = select_roots(&el, 1, 4)[0];
    let base = BfsConfig::threaded_small(4);
    assert!(base.degree_ordered_adjacency, "hubs first by default");
    let mut plain = swbfs::bfs::ClusterBuilder::new(
        &el,
        8,
        BfsConfig {
            degree_ordered_adjacency: false,
            ..base
        },
    )
    .build()
    .unwrap();
    let mut ordered = swbfs::bfs::ClusterBuilder::new(&el, 8, base).build().unwrap();
    let (mut distributed, _) = swbfs::bfs::ClusterBuilder::new(&el, 8, base)
        .build_distributed()
        .unwrap();
    let a = plain.run(root).unwrap();
    let b = ordered.run(root).unwrap();
    let c = distributed.run(root).unwrap();
    // Same coverage and hop distances; both valid.
    assert_eq!(a.reached(), b.reached());
    assert_eq!(a.levels_from_parents(), b.levels_from_parents());
    validate_bfs(&el, &b).unwrap();
    // Bottom-up levels scan fewer edges.
    let bu_scans = |o: &swbfs::bfs::BfsOutput| -> u64 {
        o.levels
            .iter()
            .filter(|l| l.direction == swbfs::bfs::policy::Direction::BottomUp)
            .map(|l| l.edges_scanned)
            .sum()
    };
    let (sa, sb) = (bu_scans(&a), bu_scans(&b));
    assert!(
        sb < sa,
        "degree ordering did not reduce bottom-up scans: {sb} !< {sa}"
    );
    // The distributed construction keeps the ordering (before PR 25 it
    // swapped unordered rows back in after preparing the ordered ones).
    assert_eq!(bu_scans(&c), sb, "build_distributed lost the ordering");
    assert_eq!(c, b, "build_distributed and build disagree");
}

#[test]
fn relay_messaging_cuts_message_count_at_scale() {
    // With enough ranks for several groups, relay must send far fewer
    // discrete messages than direct while delivering identical records.
    let el = generate_kronecker(&KroneckerConfig::graph500(12, 8));
    let root = select_roots(&el, 1, 5)[0];
    let cfg = BfsConfig::threaded_small(4); // 16 ranks -> 4 groups of 4
    let mut direct =
        swbfs::bfs::ClusterBuilder::new(&el, 16, cfg.with_messaging(Messaging::Direct))
            .build()
            .unwrap();
    let mut relay =
        swbfs::bfs::ClusterBuilder::new(&el, 16, cfg.with_messaging(Messaging::Relay))
            .build()
            .unwrap();
    let od = direct.run(root).unwrap();
    let or = relay.run(root).unwrap();
    assert_eq!(od.parents, or.parents);
    let dm = od.total_messages_sent();
    let rm = or.total_messages_sent();
    assert!(
        (rm as f64) < 0.75 * dm as f64,
        "relay messages {rm} not far below direct {dm}"
    );
}
