//! Golden guarantees of the sw-insight analysis layer on real BFS
//! traces:
//!
//! 1. The full rendered insight report (attribution + critical path +
//!    imbalance + model deviation) of a fixed-seed virtual-work run is
//!    **byte-identical across runs** and — faults off — **across
//!    Direct/Relay transports**, because it is a pure function of the
//!    (already golden) trace and a fixed machine context.
//! 2. A seeded degrading run (dead relay) is classified **retry-bound**
//!    at exactly the levels where the fault layer left retry/fault
//!    instants.

use sw_net::{flow_prediction, simulate_phase, NetworkConfig, SimMessage};
use sw_trace::analyze::attribution::Bottleneck;
use sw_trace::analyze::deviation;
use sw_trace::{analyze, check_syntax, ClockDomain, CounterSet, MachineContext, Tracer};
use swbfs_core::{BfsConfig, ClusterBuilder, FaultPlan, Messaging};
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};

fn graph(scale: u32, seed: u64) -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(scale, seed))
}

/// A fixed deterministic machine context: netsim tier occupancy of a
/// synthetic phase (pure arithmetic — identical on every run and
/// transport).
fn machine_context() -> MachineContext {
    let cfg = NetworkConfig::taihulight(512);
    let msgs: Vec<SimMessage> = (0..256u32)
        .map(|i| SimMessage {
            src: i,
            dst: (i * 7 + 13) % 512,
            bytes: 1 << 14,
        })
        .collect();
    let mut cs = CounterSet::new();
    simulate_phase(&cfg, &msgs).tiers.publish(&mut cs);
    MachineContext::new().with_group_size(4).with_counters(cs)
}

#[test]
fn insight_report_is_byte_identical_across_runs_and_transports() {
    let el = graph(14, 8);
    let ranks = 8u32;

    let run_insight = |messaging: Messaging| {
        let cfg = BfsConfig::threaded_small(4).with_messaging(messaging);
        let mut cluster = ClusterBuilder::new(&el, ranks, cfg).build().unwrap();
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, ranks as usize, 1 << 14);
        cluster.set_tracer(Some(tracer.clone()));
        cluster.run(1).unwrap();
        let insight = analyze(&tracer.report(), &machine_context());
        (insight.to_text(), insight.to_json())
    };

    let (ta, ja) = run_insight(Messaging::Relay);
    let (tb, jb) = run_insight(Messaging::Relay);
    assert_eq!(ta, tb, "same seed, same transport: byte-identical text");
    assert_eq!(ja, jb, "…and byte-identical JSON");

    let (tc, jc) = run_insight(Messaging::Direct);
    assert_eq!(
        ta, tc,
        "virtual-work analysis is transport-invariant with faults off"
    );
    assert_eq!(ja, jc);
    check_syntax(&ja).expect("insight JSON well-formed");
    assert!(ta.contains("bottleneck attribution"));
    assert!(ta.contains("critical path"));
    assert!(ta.contains("load imbalance"));
}

#[test]
fn insight_counters_export_deterministically() {
    let el = graph(12, 5);
    let cfg = BfsConfig::threaded_small(3);
    let mut cluster = ClusterBuilder::new(&el, 6, cfg).build().unwrap();
    let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 6, 1 << 13);
    cluster.set_tracer(Some(tracer.clone()));
    cluster.run(0).unwrap();
    let insight = analyze(&tracer.report(), &machine_context());

    let a = insight.to_counters();
    let b = insight.to_counters();
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.get("insight.levels") > 0);
    assert!(a.get("insight.critical_units") > 0);
    assert!(
        a.get("insight.parallelism_permille") >= 1000,
        "critical path cannot exceed total work"
    );
}

#[test]
fn degrading_run_is_retry_bound_at_degraded_levels() {
    let el = graph(12, 8);
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Relay);
    let mut cluster = ClusterBuilder::new(&el, 6, cfg)
        .fault_plan(FaultPlan::quiet(3).with_dead_relay(2))
        .build()
        .unwrap();
    let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 6, 1 << 14);
    cluster.set_tracer(Some(tracer.clone()));
    cluster.run(3).unwrap();
    let (retries, injected, _) = cluster.fault_counters();
    assert!(retries + injected > 0, "the dead relay actually fired");

    let insight = analyze(&tracer.report(), &MachineContext::new());
    let retry_levels: Vec<u32> = insight
        .attribution
        .levels
        .iter()
        .filter(|l| l.retries + l.faults > 0)
        .map(|l| l.level)
        .collect();
    assert!(
        !retry_levels.is_empty(),
        "fault instants must surface in the trace"
    );
    for l in &insight.attribution.levels {
        let expect = if l.retries + l.faults > 0 {
            Bottleneck::Retry
        } else {
            l.class
        };
        assert_eq!(
            l.class, expect,
            "level {} with {} retries / {} faults must be retry-bound",
            l.level, l.retries, l.faults
        );
        if l.retries + l.faults == 0 {
            assert_ne!(
                l.class,
                Bottleneck::Retry,
                "clean level {} must not be retry-bound",
                l.level
            );
        }
    }
    assert!(insight.attribution.class_count(Bottleneck::Retry) >= 1);
}

#[test]
fn model_deviation_report_flags_the_makespan_not_the_accounting() {
    // Predicted (flow model) vs measured (event sim) on the same
    // traffic: the tier busy accounting must agree to the nanosecond,
    // while the makespan legitimately deviates (queueing, convoys).
    let cfg = NetworkConfig::taihulight(512);
    let msgs: Vec<SimMessage> = (0..400u32)
        .map(|i| SimMessage {
            src: i % 512,
            dst: (i * 11 + 5) % 512,
            bytes: 1 << 15,
        })
        .collect();
    let mut predicted = CounterSet::new();
    flow_prediction(&cfg, &msgs).publish(&mut predicted);
    let mut measured = CounterSet::new();
    simulate_phase(&cfg, &msgs).publish(&mut measured);

    let dev = deviation::compare(
        &predicted.section("netmodel."),
        &measured.section("net."),
    );
    assert!(!dev.rows.is_empty());
    for row in &dev.rows {
        if row.key != "makespan_ns" {
            assert!(
                row.error_permille <= 1,
                "{}: accounting must agree (got {}‰)",
                row.key,
                row.error_permille
            );
        }
    }
    let text = dev.to_text();
    assert!(text.contains("makespan_ns"));
}
