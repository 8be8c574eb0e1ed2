//! Observability guarantees of the instrumented algorithm kernels:
//!
//! 1. Every kernel flattens its per-phase exchange statistics through
//!    the canonical `absorb_exchange` merge, so all five report the
//!    exact counter key set the BFS backends report.
//! 2. A virtual-work trace of a fixed-seed kernel run is
//!    bit-reproducible and (faults off) transport-invariant: Direct and
//!    Relay exports are byte-identical, relay forwarding being a
//!    wall-domain artifact.
//! 3. The sw-insight analyzer consumes kernel traces directly: per-round
//!    attribution, critical path, and imbalance all populate, and the
//!    rendered report is itself deterministic.

use sw_algos::betweenness::betweenness_distributed;
use sw_algos::delta_stepping::sssp_delta_stepping;
use sw_algos::kcore::kcore_distributed;
use sw_algos::pagerank::pagerank_distributed;
use sw_algos::runtime::AlgoCluster;
use sw_algos::wcc::wcc_distributed;
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};
use sw_trace::{analyze, check_syntax, ClockDomain, CounterSet, MachineContext, Tracer};
use swbfs_core::config::Messaging;
use swbfs_core::exchange::ExchangeStats;

fn graph(scale: u32, seed: u64) -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(scale, seed))
}

/// The canonical flattened key set, derived from the merge paths the
/// BFS backends use — not hand-listed, so it cannot drift.
fn canonical_keys() -> Vec<String> {
    let mut cs = CounterSet::new();
    swbfs_core::absorb_exchange(&mut cs, &ExchangeStats::default());
    swbfs_core::absorb_store(&mut cs, &swbfs_core::StoreStats::default());
    cs.iter().map(|(k, _)| k.to_string()).collect()
}

fn run_kernel(name: &str, cluster: &mut AlgoCluster) {
    match name {
        "pagerank" => {
            pagerank_distributed(cluster, 5);
        }
        "sssp" => {
            sssp_delta_stepping(cluster, 1, 10, 4);
        }
        "wcc" => {
            wcc_distributed(cluster);
        }
        "kcore" => {
            kcore_distributed(cluster, 3);
        }
        "betweenness" => {
            betweenness_distributed(cluster, &[1, 17]);
        }
        other => panic!("unknown kernel {other}"),
    }
}

const KERNELS: [&str; 5] = ["pagerank", "sssp", "wcc", "kcore", "betweenness"];

#[test]
fn kernels_report_canonical_exchange_counters() {
    let el = graph(10, 5);
    let expected = canonical_keys();
    for name in KERNELS {
        let mut c = AlgoCluster::new(&el, 6, 3, Messaging::Relay);
        run_kernel(name, &mut c);
        let got: Vec<String> = c.metrics().iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(got, expected, "{name} counter key set");
        assert!(
            c.metrics().get("exchange.messages") > 0,
            "{name} moved no messages"
        );
    }
}

#[test]
fn virtual_traces_reproducible_and_transport_invariant() {
    let el = graph(10, 7);
    let ranks = 6u32;
    for name in KERNELS {
        let run_traced = |messaging: Messaging| {
            let mut c = AlgoCluster::new(&el, ranks, 3, messaging);
            let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, ranks as usize, 1 << 14);
            c.set_tracer(Some(tracer.clone()));
            run_kernel(name, &mut c);
            tracer.report().to_json()
        };
        let a = run_traced(Messaging::Relay);
        let b = run_traced(Messaging::Relay);
        assert_eq!(a, b, "{name}: same transport, same seed, same bytes");
        let c = run_traced(Messaging::Direct);
        assert_eq!(
            a, c,
            "{name}: virtual-work trace must be transport-invariant"
        );
        check_syntax(&a).expect("report JSON well-formed");
    }
}

#[test]
fn insight_analyzes_kernel_traces() {
    let el = graph(11, 3);
    let ranks = 6u32;
    let run_insight = || {
        let mut c = AlgoCluster::new(&el, ranks, 3, Messaging::Relay);
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, ranks as usize, 1 << 14);
        c.set_tracer(Some(tracer.clone()));
        sssp_delta_stepping(&mut c, 0, 10, 4);
        let rep = tracer.report();
        let ctx = MachineContext::new().with_group_size(3);
        analyze(&rep, &ctx)
    };
    let insight = run_insight();
    assert!(
        !insight.attribution.levels.is_empty(),
        "per-round attribution populated"
    );
    assert!(insight.critical_path.total_units > 0, "critical path found");
    assert!(
        insight.critical_path.work_units >= insight.critical_path.total_units,
        "total work bounds the critical path"
    );
    assert_eq!(insight.imbalance.ranks.n as u32, ranks);
    assert_eq!(insight.imbalance.supernodes.n, 2, "6 ranks / groups of 3");

    let text = insight.to_text();
    assert!(text.contains("bottleneck attribution"));
    assert!(text.contains("critical path"));
    check_syntax(&insight.to_json()).expect("insight JSON well-formed");

    let again = run_insight();
    assert_eq!(text, again.to_text(), "insight report is deterministic");
}

#[test]
fn tracer_off_changes_nothing() {
    let el = graph(9, 2);
    let mut on = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
    let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 4, 1 << 12);
    on.set_tracer(Some(tracer.clone()));
    let a = wcc_distributed(&mut on);
    let mut off = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
    let b = wcc_distributed(&mut off);
    assert_eq!(a, b, "tracing is observation only");
    assert_eq!(
        on.metrics().get("exchange.messages"),
        off.metrics().get("exchange.messages"),
        "counters identical armed or not"
    );
    assert!(tracer.recorded_events() > 0);
}
