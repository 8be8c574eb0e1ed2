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
//! 4. Every kernel's output, wire counters and trace size on one fixed
//!    cluster are pinned to constants, on both messaging modes.

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

/// Runs kernel `name` on `cluster`; returns its output as words
/// (floats as bits, flags as 0/1).
fn run_kernel(name: &str, cluster: &mut AlgoCluster) -> Vec<u64> {
    let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect();
    match name {
        "pagerank" => bits(pagerank_distributed(cluster, 5)),
        "sssp" => sssp_delta_stepping(cluster, 17, 10, 4),
        "wcc" => wcc_distributed(cluster),
        "kcore" => kcore_distributed(cluster, 3)
            .into_iter()
            .map(u64::from)
            .collect(),
        "betweenness" => bits(betweenness_distributed(cluster, &[1, 17])),
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

/// The wire counters [`pinned_outputs_counters_and_traces`] holds, in
/// the counter set's (sorted) order: every `exchange.*` and `pool.*` key.
const WIRE_KEYS: [&str; 8] = [
    "exchange.bytes",
    "exchange.inter_group_bytes",
    "exchange.max_send_bytes_per_rank",
    "exchange.max_send_msgs_per_rank",
    "exchange.messages",
    "exchange.record_hops",
    "pool.allocs",
    "pool.reused_bytes",
];

/// One kernel run on `graph500(10, 7)` over 6 ranks in groups of 3:
/// an FNV-1a digest of its output words, its [`WIRE_KEYS`] counters and
/// its virtual-work trace's event count.
struct Pin {
    kernel: &'static str,
    messaging: Messaging,
    digest: u64,
    wire: [u64; 8],
    events: usize,
}

const PINS: [Pin; 10] = [
    Pin {
        kernel: "pagerank",
        messaging: Messaging::Relay,
        digest: 0x3e50_568e_ff05_0b9d,
        wire: [
            3_035_920, 1_309_200, 118_392, 5, 150, 189_670, 18, 5_212_416,
        ],
        events: 120,
    },
    Pin {
        kernel: "pagerank",
        messaging: Messaging::Direct,
        digest: 0x3e50_568e_ff05_0b9d,
        wire: [2_173_040, 1_309_680, 84_056, 5, 150, 135_740, 18, 5_212_416],
        events: 120,
    },
    Pin {
        kernel: "sssp",
        messaging: Messaging::Relay,
        digest: 0xc3a6_306f_fd68_7a14,
        wire: [618_720, 265_920, 57_992, 5, 450, 38_445, 75, 349_280],
        events: 390,
    },
    Pin {
        kernel: "sssp",
        messaging: Messaging::Direct,
        digest: 0xc3a6_306f_fd68_7a14,
        wire: [444_048, 267_360, 43_272, 5, 450, 27_528, 76, 331_936],
        events: 390,
    },
    Pin {
        kernel: "wcc",
        messaging: Messaging::Relay,
        digest: 0x8f3f_d26c_b944_343b,
        wire: [1_548_480, 665_264, 118_392, 5, 120, 96_720, 18, 2_017_776],
        events: 102,
    },
    Pin {
        kernel: "wcc",
        messaging: Messaging::Direct,
        digest: 0x8f3f_d26c_b944_343b,
        wire: [1_107_920, 665_648, 84_056, 5, 120, 69_185, 18, 2_017_776],
        events: 102,
    },
    Pin {
        kernel: "kcore",
        messaging: Messaging::Relay,
        digest: 0xdc81_4100_f9e3_4c25,
        wire: [5_344, 2_000, 1_048, 5, 60, 304, 18, 48],
        events: 54,
    },
    Pin {
        kernel: "kcore",
        messaging: Messaging::Direct,
        digest: 0xdc81_4100_f9e3_4c25,
        wire: [4_000, 2_192, 792, 5, 60, 220, 18, 48],
        events: 54,
    },
    Pin {
        kernel: "betweenness",
        messaging: Messaging::Relay,
        digest: 0x8345_16df_cfe5_1c87,
        wire: [1_215_824, 523_888, 97_016, 5, 300, 75_839, 43, 1_328_592],
        events: 264,
    },
    Pin {
        kernel: "betweenness",
        messaging: Messaging::Direct,
        digest: 0x8345_16df_cfe5_1c87,
        wire: [870_816, 524_848, 68_568, 5, 300, 54_276, 43, 1_328_592],
        events: 264,
    },
];

fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every kernel's output, wire counters and trace size on one cluster,
/// against constants captured from the shipped kernels. The output
/// digests hold the kernels to their results; the counters and event
/// counts hold them to the rounds they run and the records they send.
/// Neither may depend on the pool size (ci.sh runs this at
/// `SW_POOL_THREADS=4` too).
#[test]
fn pinned_outputs_counters_and_traces() {
    let el = graph(10, 7);
    let ranks = 6u32;
    for pin in &PINS {
        let mut c = AlgoCluster::new(&el, ranks, 3, pin.messaging);
        let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, ranks as usize, 1 << 14);
        c.set_tracer(Some(tracer.clone()));
        let digest = fnv1a(&run_kernel(pin.kernel, &mut c));
        let (keys, wire): (Vec<&str>, Vec<u64>) = c
            .metrics()
            .iter()
            .filter(|(k, _)| k.starts_with("exchange.") || k.starts_with("pool."))
            .unzip();
        let at = format!("{} {:?}", pin.kernel, pin.messaging);
        assert_eq!(keys, WIRE_KEYS, "{at}: wire key set");
        assert_eq!(digest, pin.digest, "{at}: output digest");
        assert_eq!(wire, pin.wire, "{at}: wire counters");
        assert_eq!(tracer.recorded_events(), pin.events, "{at}: trace events");
    }
}
