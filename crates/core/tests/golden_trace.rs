//! Golden-trace and counter-parity guarantees of the `sw-trace`
//! integration:
//!
//! 1. A virtual-work trace of a fixed-seed BFS is **bit-reproducible**:
//!    two runs export byte-identical `TraceReport` JSON.
//! 2. It is **transport-invariant**: with faults disabled, Direct and
//!    Relay messaging charge identical work (records generated,
//!    records delivered, edges scanned), so the full report is
//!    byte-identical across transports — relay forwarding appears only
//!    in wall-domain traces.
//! 3. The shared-memory and socket backends report the **same counter
//!    key set** and identical `exchange.*`/`faults.*` values on
//!    identical traffic (the single-merge-path fix).
//! 4. A tracer with a tiny ring **drops instead of blocking** and the
//!    truncated trace still exports well-formed Chrome JSON.

use swbfs_core::engine::SocketTransport;
use swbfs_core::{BfsConfig, ClusterBuilder, FaultPlan, Messaging};
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};
use sw_trace::{check_syntax, ClockDomain, Tracer};

/// The socket fabric over Unix-domain sockets, pinned to the rank
/// daemon Cargo built alongside this test binary.
fn socket_unix() -> SocketTransport {
    SocketTransport::unix().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

fn graph(scale: u32, seed: u64) -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(scale, seed))
}

#[test]
fn virtual_trace_is_bit_reproducible_and_transport_invariant() {
    let el = graph(14, 8);
    let ranks = 8u32;
    let root = 1u64;

    let run_traced = |messaging: Messaging| {
        let cfg = BfsConfig::threaded_small(4).with_messaging(messaging);
        let mut cluster = ClusterBuilder::new(&el, ranks, cfg).build().unwrap();
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, ranks as usize, 1 << 14);
        cluster.set_tracer(Some(tracer.clone()));
        let out = cluster.run(root).unwrap();
        (out.parents, tracer.report().to_json())
    };

    let (pa, ja) = run_traced(Messaging::Relay);
    let (pb, jb) = run_traced(Messaging::Relay);
    assert_eq!(pa, pb, "BFS itself must be deterministic");
    assert_eq!(ja, jb, "same transport, same seed: byte-identical trace");

    let (pc, jc) = run_traced(Messaging::Direct);
    assert_eq!(pa, pc, "transports agree on the parent map");
    assert_eq!(
        ja, jc,
        "virtual-work traces charge transport-invariant work, so \
         Direct and Relay exports must be byte-identical"
    );
    assert!(check_syntax(&ja).is_ok(), "report JSON well-formed");
}

#[test]
fn trace_survives_cluster_reuse_identically() {
    let el = graph(11, 6);
    let cfg = BfsConfig::threaded_small(3);
    let mut cluster = ClusterBuilder::new(&el, 5, cfg).build().unwrap();
    let mut exports = Vec::new();
    for _ in 0..2 {
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 5, 1 << 12);
        cluster.set_tracer(Some(tracer.clone()));
        cluster.run(9).unwrap();
        exports.push(tracer.report().to_json());
    }
    assert_eq!(
        exports[0], exports[1],
        "a reused cluster with a fresh tracer reproduces the trace"
    );
}

/// The satellite fix: both backends flatten their per-phase
/// [`swbfs_core::exchange::ExchangeStats`] through the one
/// `absorb_exchange` merge, so identical traffic yields identical
/// counter coverage — not just similar numbers, the same key set.
#[test]
fn backends_report_identical_counter_sets_on_identical_traffic() {
    let el = graph(11, 8);
    // Direct + no compression: the rank mesh is point-to-point, so
    // this is the regime where both backends move byte-identical wire
    // traffic.
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let mut threaded = ClusterBuilder::new(&el, 6, cfg).build().unwrap();
    let mut socket = ClusterBuilder::new(&el, 6, cfg)
        .transport(socket_unix())
        .build()
        .unwrap();
    for root in [0u64, 77] {
        let a = threaded.run(root).unwrap();
        let b = socket.run(root).unwrap();
        assert_eq!(a.parents, b.parents);

        let tm = threaded.metrics();
        let sm = socket.metrics();
        let tkeys: Vec<&str> = tm.iter().map(|(k, _)| k).collect();
        let skeys: Vec<&str> = sm.iter().map(|(k, _)| k).collect();
        assert_eq!(tkeys, skeys, "identical counter key sets (root {root})");
        for (k, v) in tm.iter() {
            if k.starts_with("exchange.") || k.starts_with("faults.") {
                assert_eq!(
                    v,
                    sm.get(k),
                    "counter {k} diverges across backends (root {root})"
                );
            }
        }
    }
}

#[test]
fn backends_count_identical_fault_telemetry() {
    let el = graph(11, 8);
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let plan = FaultPlan::lossy(0xBADD);
    let mut threaded = ClusterBuilder::new(&el, 4, cfg)
        .fault_plan(plan.clone())
        .build()
        .unwrap();
    let mut socket = ClusterBuilder::new(&el, 4, cfg)
        .transport(socket_unix())
        .fault_plan(plan)
        .build()
        .unwrap();
    let a = threaded.run(3).unwrap();
    let b = socket.run(3).unwrap();
    assert_eq!(a.parents, b.parents, "survivable faults change nothing");
    assert_eq!(
        threaded.fault_counters(),
        socket.fault_counters(),
        "same plan, same traffic, same fault counters"
    );
    assert!(
        threaded.fault_counters().0 > 0 || threaded.fault_counters().1 > 0,
        "the lossy plan actually fired"
    );
}

#[test]
fn tiny_ring_drops_events_without_blocking() {
    let el = graph(12, 8);
    let cfg = BfsConfig::threaded_small(4);
    let mut cluster = ClusterBuilder::new(&el, 6, cfg).build().unwrap();
    // 8 events per lane is far less than a scale-12 BFS records.
    let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 6, 8);
    cluster.set_tracer(Some(tracer.clone()));
    cluster.run(0).unwrap();
    assert!(
        tracer.dropped_events() > 0,
        "the tiny ring must have overflowed"
    );
    let report = tracer.report();
    assert!(report.total_dropped() > 0);
    assert!(report.total_events() > 0, "the first events were kept");
    // Truncated, but still structurally valid exports.
    check_syntax(&report.chrome_trace_json()).expect("chrome export well-formed");
    check_syntax(&report.to_json()).expect("report export well-formed");
    check_syntax(&report.metrics_json()).expect("metrics export well-formed");
}

#[test]
fn wall_trace_smoke() {
    let el = graph(10, 4);
    let cfg = BfsConfig::threaded_small(2);
    let mut cluster = ClusterBuilder::new(&el, 4, cfg).build().unwrap();
    let tracer = Tracer::for_ranks(ClockDomain::Wall, 4, 1 << 12);
    cluster.set_tracer(Some(tracer.clone()));
    cluster.run(5).unwrap();
    let report = tracer.report();
    assert_eq!(report.domain, ClockDomain::Wall);
    // Every rank lane saw compute spans; the run lane saw level spans.
    for lane in &report.lanes[..4] {
        assert!(
            lane.events.iter().any(|e| e.cat == "compute"),
            "lane {} has no compute spans",
            lane.name
        );
    }
    assert!(report.lanes[4].events.iter().any(|e| e.name == "level"));
    check_syntax(&report.chrome_trace_json()).expect("chrome export well-formed");
}

/// Arming the live telemetry plane must be a pure observer: the same
/// fixed-seed BFS produces byte-identical deterministic counters and
/// an identical virtual-work trace whether the plane is armed or not —
/// the only difference is that the armed run leaves wall-clock
/// exchange samples behind in the `live.*` namespace.
#[test]
fn armed_live_plane_never_perturbs_deterministic_state() {
    use sw_trace::live;

    let el = graph(12, 8);
    let run = || {
        let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
        let mut cluster = ClusterBuilder::new(&el, 6, cfg).build().unwrap();
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, 6, 1 << 14);
        cluster.set_tracer(Some(tracer.clone()));
        let out = cluster.run(1).unwrap();
        (out.parents, cluster.metrics().to_json(), tracer.report().to_json())
    };

    live::set_armed(false);
    let (pa, ma, ja) = run();

    live::set_armed(true);
    let before = live::global()
        .histogram_snapshot("exchange.micros")
        .map_or(0, |s| s.count());
    let (pb, mb, jb) = run();
    live::set_armed(false);

    assert_eq!(pa, pb, "arming live telemetry changed the BFS result");
    assert_eq!(ma, mb, "arming live telemetry moved a deterministic counter");
    assert_eq!(ja, jb, "arming live telemetry perturbed the virtual trace");

    let after = live::global()
        .histogram_snapshot("exchange.micros")
        .map_or(0, |s| s.count());
    assert!(
        after > before,
        "the armed run must have recorded exchange samples ({before} -> {after})"
    );
}
