//! Transport conformance: every fabric behind the unified superstep
//! engine passes one shared battery, so a future third transport
//! (sharded, async, net-model-coupled) gets the full parity suite by
//! adding one `conformance::battery(...)` call.
//!
//! The battery holds each transport to the engine's contract:
//!
//! 1. **Oracle parity** — bit-identical parents/levels vs the
//!    sequential baseline at Graph500 scale 14.
//! 2. **Canonical counters** — exactly the 15 canonical
//!    `exchange.*`/`kernel.*`/`pool.*`/`faults.*` keys after every run, and
//!    identical `exchange.*`/`faults.*` *values* across transports on
//!    identical traffic.
//! 3. **Fault determinism** — a survivable lossy plan leaves the output
//!    bit-identical to the fault-free oracle and replays the same
//!    injection trace run after run.
//! 4. **Complete surface** — the whole telemetry/accessor API works for
//!    every transport (no fabric can lack `pool_counters`,
//!    `injection_trace` or `is_degraded`).

use swbfs_core::baseline::sequential_bfs_levels;
use swbfs_core::engine::{
    Channels, ClusterBuilder, SharedMem, SocketTransport, SuperstepEngine, Transport,
};
use swbfs_core::exchange::Codec;
use swbfs_core::faults::{FaultSession, InjectionEvent, RetryPolicy};
use swbfs_core::messages::EdgeRec;
use swbfs_core::{BfsConfig, FaultPlan, Messaging};
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig, StorageBackend, Vid};
use sw_net::GroupLayout;
use sw_trace::CounterSet;

/// The socket fabric over Unix-domain sockets, pinned to the rank
/// daemon Cargo built alongside this test binary.
fn socket_unix() -> SocketTransport {
    SocketTransport::unix().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

/// The same fabric over TCP loopback.
fn socket_tcp() -> SocketTransport {
    SocketTransport::tcp().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

fn graph(scale: u32, seed: u64) -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(scale, seed))
}

/// The 19 canonical counter keys every run must report — the
/// `absorb_exchange` + `absorb_kernel` + `absorb_store` merge paths'
/// complete coverage.
const CANONICAL_KEYS: [&str; 19] = [
    "exchange.bytes",
    "exchange.inter_group_bytes",
    "exchange.max_send_bytes_per_rank",
    "exchange.max_send_msgs_per_rank",
    "exchange.messages",
    "exchange.record_hops",
    "faults.degraded_levels",
    "faults.injected",
    "faults.retries",
    "kernel.bytes_decoded",
    "kernel.rows_compressed",
    "kernel.words_scanned",
    "kernel.words_skipped",
    "pool.allocs",
    "pool.reused_bytes",
    "store.bytes_copied",
    "store.bytes_mapped",
    "store.partitions_mapped",
    "store.sections_verified",
];

fn build<T: Transport>(
    el: &EdgeList,
    ranks: u32,
    cfg: BfsConfig,
    make: fn() -> T,
) -> SuperstepEngine<T> {
    ClusterBuilder::new(el, ranks, cfg)
        .transport(make())
        .build()
        .expect("conformance build")
}

/// A root inside the giant component (ids are permuted; low ids can be
/// isolated on RMAT graphs).
fn good_root<T: Transport>(engine: &SuperstepEngine<T>) -> Vid {
    (0..512.min(engine.num_vertices()))
        .max_by_key(|&v| engine.degree_of(v))
        .unwrap()
}

/// Battery 1: bit-identical parents/levels vs the sequential oracle at
/// scale 14, on both messaging modes.
fn check_oracle_parity<T: Transport>(make: fn() -> T) {
    let el = graph(14, 21);
    for messaging in [Messaging::Direct, Messaging::Relay] {
        let cfg = BfsConfig::threaded_small(4).with_messaging(messaging);
        let mut engine = build(&el, 8, cfg, make);
        let name = engine.transport().name();
        let root = good_root(&engine);
        let out = engine.run(root).unwrap();
        let oracle = sequential_bfs_levels(&el, root);
        assert_eq!(
            out.levels_from_parents(),
            oracle,
            "{name}/{messaging:?}: level map diverges from the sequential oracle"
        );
        // The policy inputs are carried, not swept (`m_u` is the total
        // minus every frontier's `m_f` so far): hold both to the degree
        // sums the oracle's level map implies, at every level.
        let degree_sum = |keep: &dyn Fn(Option<u32>) -> bool| -> u64 {
            (0..engine.num_vertices())
                .filter(|&v| keep(oracle[v as usize]))
                .map(|v| engine.degree_of(v))
                .sum()
        };
        for ls in &out.levels {
            let l = ls.level;
            assert_eq!(
                ls.frontier_edges,
                degree_sum(&|lv| lv == Some(l)),
                "{name}/{messaging:?}: m_f at level {l}"
            );
            assert_eq!(
                ls.unvisited_edges,
                degree_sum(&|lv| lv.is_none_or(|x| x > l)),
                "{name}/{messaging:?}: m_u at level {l}"
            );
        }
        // Tree edges must exist in the graph (Graph500 validation rule).
        let edges: std::collections::HashSet<(Vid, Vid)> = el.symmetric_iter().collect();
        for (v, &p) in out.parents.iter().enumerate() {
            if p != swbfs_core::NO_PARENT && v as Vid != root {
                assert!(
                    edges.contains(&(p, v as Vid)),
                    "{name}/{messaging:?}: tree edge {p}->{v} not in graph"
                );
            }
        }
    }
}

/// Battery 2: exactly the 19 canonical counter keys after a clean run.
fn check_canonical_counters<T: Transport>(make: fn() -> T) {
    let el = graph(11, 5);
    let mut engine = build(&el, 6, BfsConfig::threaded_small(3), make);
    let name = engine.transport().name();
    engine.run(good_root(&engine)).unwrap();
    let keys: Vec<&str> = engine.metrics().iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys, CANONICAL_KEYS,
        "{name}: counter key set drifted from the canonical 19"
    );
    // An edge-list build opened no store: the storage counters exist
    // (key-set parity) but are all zero.
    assert_eq!(engine.store_counters(), (0, 0, 0, 0), "{name}");
}

/// Battery 5: storage-backend conformance. A persisted store restarted
/// on either backend must be indistinguishable from the cold build —
/// bit-identical parents/levels and bit-identical values for all 15
/// pre-store canonical counters — while the `store.*` counters prove
/// which path ran (mmap maps every byte and copies none; heap the
/// inverse).
fn check_store_restart_parity<T: Transport>(make: fn() -> T) {
    let el = graph(12, 33);
    let cfg = BfsConfig::threaded_small(3);
    let mut cold = build(&el, 6, cfg, make);
    let name = cold.transport().name();
    let dir = std::env::temp_dir().join(format!("swbfs_conformance_store_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    cold.persist_store(&dir).expect("persist store");
    let root = good_root(&cold);
    let oracle = cold.run(root).unwrap();

    for backend in [StorageBackend::Mapped, StorageBackend::Heap] {
        let mut warm = ClusterBuilder::from_store_dir(&dir, cfg)
            .storage(backend)
            .transport(make())
            .build()
            .unwrap_or_else(|e| panic!("{name}/{backend:?}: store restart refused: {e}"));
        let out = warm.run(root).unwrap();
        assert_eq!(
            out, oracle,
            "{name}/{backend:?}: restart output diverges from the cold build"
        );
        for section in ["exchange.", "kernel.", "pool.", "faults."] {
            assert_eq!(
                warm.metrics().section(section),
                cold.metrics().section(section),
                "{name}/{backend:?}: {section}* counters diverge after restart"
            );
        }
        let (mapped, copied, verified, parts) = warm.store_counters();
        assert_eq!(parts, 6, "{name}/{backend:?}: one partition per rank");
        assert!(verified >= 2 * parts, "{name}/{backend:?}: sections unverified");
        match backend {
            StorageBackend::Mapped => {
                assert!(mapped > 0, "{name}: mmap restart mapped nothing");
                assert_eq!(copied, 0, "{name}: mmap restart copied adjacency bytes");
            }
            StorageBackend::Heap => {
                assert!(copied > 0, "{name}: heap restart copied nothing");
                assert_eq!(mapped, 0, "{name}: heap restart mapped bytes");
            }
        }
        // The view over construction facts and the per-run counters
        // must agree.
        assert_eq!(
            (mapped, copied, verified, parts),
            (
                warm.metrics().get("store.bytes_mapped"),
                warm.metrics().get("store.bytes_copied"),
                warm.metrics().get("store.sections_verified"),
                warm.metrics().get("store.partitions_mapped"),
            ),
            "{name}/{backend:?}: store_counters must be a view over metrics()"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Battery 3: a survivable lossy schedule leaves the output
/// bit-identical to the fault-free oracle and replays deterministically,
/// injection trace included.
fn check_fault_determinism<T: Transport>(make: fn() -> T) {
    let el = graph(12, 9);
    let cfg = BfsConfig::threaded_small(3);
    let mut clean = build(&el, 6, cfg, make);
    let name = clean.transport().name();
    let root = good_root(&clean);
    let oracle = clean.run(root).unwrap();

    let mut faulty = ClusterBuilder::new(&el, 6, cfg)
        .transport(make())
        .fault_plan(FaultPlan::lossy(23))
        .build()
        .unwrap();
    let out = faulty.run(root).unwrap();
    assert_eq!(
        out.parents, oracle.parents,
        "{name}: survivable faults changed the answer"
    );
    let (retries, injected, degraded) = faulty.fault_counters();
    assert!(injected > 0, "{name}: lossy plan never fired");
    assert!(retries > 0, "{name}: faults without re-sends");
    assert_eq!(degraded, 0, "{name}: clamped faults must not degrade");

    let trace: Vec<_> = faulty.injection_trace().to_vec();
    let counters = faulty.fault_counters();
    let again = faulty.run(root).unwrap();
    assert_eq!(again.parents, oracle.parents, "{name}: replay diverged");
    assert_eq!(
        faulty.injection_trace(),
        trace.as_slice(),
        "{name}: injection trace is not deterministic"
    );
    assert_eq!(faulty.fault_counters(), counters, "{name}: fault tallies drifted");
}

/// Battery 4: the complete engine surface works — every accessor the two
/// pre-unification backends exposed between them, now on one type.
fn check_complete_surface<T: Transport>(make: fn() -> T) {
    let el = graph(10, 2);
    let cfg = BfsConfig::threaded_small(2);
    let mut engine = build(&el, 4, cfg, make);
    let name = engine.transport().name();
    assert!(!name.is_empty());
    assert_eq!(engine.num_ranks(), 4);
    assert_eq!(engine.num_vertices(), el.num_vertices);
    assert_eq!(engine.input_edges(), el.len() as u64);
    assert!(engine.total_directed_edges() > 0);
    assert_eq!(engine.config().group_size, cfg.group_size);
    assert!((0..engine.num_vertices()).any(|v| engine.degree_of(v) > 0));

    // Telemetry surface, pre-run: empty but present.
    assert_eq!(engine.fault_counters(), (0, 0, 0), "{name}");
    assert!(engine.injection_trace().is_empty(), "{name}");
    assert!(!engine.is_degraded(), "{name}");

    let out = engine.run(1).unwrap();
    assert_eq!(out.root, 1);
    assert!(!engine.metrics().is_empty(), "{name}: no metrics after a run");
    let (allocs, reused) = engine.pool_counters();
    assert_eq!(
        (allocs, reused),
        (
            engine.metrics().get("pool.allocs"),
            engine.metrics().get("pool.reused_bytes")
        ),
        "{name}: pool_counters must be a view over metrics()"
    );
}

#[test]
fn shared_mem_matches_the_sequential_oracle_at_scale_14() {
    check_oracle_parity(SharedMem::new);
}

#[test]
fn channels_matches_the_sequential_oracle_at_scale_14() {
    check_oracle_parity(Channels::new);
}

#[test]
fn shared_mem_reports_the_canonical_counter_keys() {
    check_canonical_counters(SharedMem::new);
}

#[test]
fn channels_reports_the_canonical_counter_keys() {
    check_canonical_counters(Channels::new);
}

#[test]
fn shared_mem_replays_fault_plans_deterministically() {
    check_fault_determinism(SharedMem::new);
}

#[test]
fn channels_replays_fault_plans_deterministically() {
    check_fault_determinism(Channels::new);
}

#[test]
fn shared_mem_exposes_the_complete_surface() {
    check_complete_surface(SharedMem::new);
}

#[test]
fn shared_mem_restarts_from_a_store_bit_identically() {
    check_store_restart_parity(SharedMem::new);
}

#[test]
fn channels_restarts_from_a_store_bit_identically() {
    check_store_restart_parity(Channels::new);
}

#[test]
fn channels_exposes_the_complete_surface() {
    check_complete_surface(Channels::new);
}

// ---- the socket fabric: real processes, real sockets, same battery ----

#[test]
fn socket_unix_matches_the_sequential_oracle_at_scale_14() {
    check_oracle_parity(socket_unix);
}

#[test]
fn socket_tcp_matches_the_sequential_oracle_at_scale_14() {
    check_oracle_parity(socket_tcp);
}

#[test]
fn socket_unix_reports_the_canonical_counter_keys() {
    check_canonical_counters(socket_unix);
}

#[test]
fn socket_tcp_reports_the_canonical_counter_keys() {
    check_canonical_counters(socket_tcp);
}

#[test]
fn socket_unix_replays_fault_plans_deterministically() {
    check_fault_determinism(socket_unix);
}

#[test]
fn socket_tcp_replays_fault_plans_deterministically() {
    check_fault_determinism(socket_tcp);
}

#[test]
fn socket_unix_exposes_the_complete_surface() {
    check_complete_surface(socket_unix);
}

#[test]
fn socket_tcp_exposes_the_complete_surface() {
    check_complete_surface(socket_tcp);
}

#[test]
fn socket_unix_restarts_from_a_store_bit_identically() {
    check_store_restart_parity(socket_unix);
}

/// Cross-transport parity on identical traffic: identical parent maps
/// and identical `exchange.*`/`faults.*` counter values (Direct mode,
/// fixed framing — the traffic both fabrics describe identically).
#[test]
fn transports_agree_with_each_other_on_identical_traffic() {
    let el = graph(12, 17);
    let cfg = BfsConfig::threaded_small(3).with_messaging(Messaging::Direct);
    let mut shm = build(&el, 6, cfg, SharedMem::new);
    let mut chn = build(&el, 6, cfg, Channels::new);
    let mut sock = build(&el, 6, cfg, socket_unix);
    let root = good_root(&shm);
    let a = shm.run(root).unwrap();
    let b = chn.run(root).unwrap();
    let c = sock.run(root).unwrap();
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.parents, c.parents);
    assert_eq!(a.levels, b.levels, "engine-owned level stats must agree");
    assert_eq!(a.levels, c.levels, "socket level stats must agree");
    for section in ["exchange.", "faults."] {
        assert_eq!(
            shm.metrics().section(section),
            chn.metrics().section(section),
            "{section}* values diverge between transports"
        );
        assert_eq!(
            shm.metrics().section(section),
            sock.metrics().section(section),
            "{section}* values diverge between shared-mem and socket"
        );
    }
}

/// What one faulty run leaves behind: parents, injection trace, the
/// `faults.*` and `exchange.*` sections, and the degradation flag.
type FaultyRun = (Vec<Vid>, Vec<InjectionEvent>, CounterSet, CounterSet, bool);

fn faulty_run<T: Transport>(
    el: &EdgeList,
    cfg: BfsConfig,
    plan: &FaultPlan,
    make: fn() -> T,
) -> FaultyRun {
    let mut e = ClusterBuilder::new(el, 6, cfg)
        .transport(make())
        .fault_plan(plan.clone())
        .build()
        .expect("fault-parity build");
    let name = e.transport().name();
    let root = good_root(&e);
    let out = e.run(root).unwrap_or_else(|err| panic!("{name}: {err}"));
    (
        out.parents,
        e.injection_trace().to_vec(),
        e.metrics().section("faults."),
        e.metrics().section("exchange."),
        e.is_degraded(),
    )
}

/// Cross-fabric parity under faults: every fabric takes its verdict from
/// the same deterministic pass over the same Direct message set, so one
/// fault plan must leave identical parents, identical injection traces
/// and identical `faults.*`/`exchange.*` values on all three — under
/// lossy schedules on both codecs, and under a corrupt link that forces
/// the compression fallback mid-run.
#[test]
fn shared_mem_channels_and_socket_agree_under_one_fault_plan() {
    let el = graph(12, 31);
    let direct = BfsConfig::threaded_small(3).with_messaging(Messaging::Direct);
    let cases = [
        ("lossy/fixed", direct, FaultPlan::lossy(41)),
        ("lossy/varint", direct.with_compression(), FaultPlan::lossy(43)),
        (
            "corrupt/varint",
            direct.with_compression(),
            FaultPlan::lossy(47).with_corrupt_link(1, 4).dead_from(2),
        ),
    ];
    for (case, cfg, plan) in cases {
        let shm = faulty_run(&el, cfg, &plan, SharedMem::new);
        assert!(!shm.1.is_empty(), "{case}: the plan never fired");
        assert_eq!(shm.4, case.starts_with("corrupt"), "{case}: wrong degradation state");
        let others = [
            ("channels", faulty_run(&el, cfg, &plan, Channels::new)),
            ("socket-unix", faulty_run(&el, cfg, &plan, socket_unix)),
        ];
        for (other, got) in others {
            assert_eq!(got.0, shm.0, "{case}: {other} parents diverge from shared-mem");
            assert_eq!(got.1, shm.1, "{case}: {other} injection trace diverges");
            assert_eq!(got.2, shm.2, "{case}: {other} faults.* diverge");
            assert_eq!(got.3, shm.3, "{case}: {other} exchange.* diverge");
            assert_eq!(got.4, shm.4, "{case}: {other} degradation state diverges");
        }
    }
}

/// Drives `calls` faulty exchanges (one record from every rank to its
/// successor) through `t` under `plan`; returns, per call, whether it
/// delivered and the session's phase counter afterwards.
fn faulty_phases<T: Transport>(mut t: T, plan: FaultPlan, calls: usize) -> Vec<(bool, u64)> {
    let layout = GroupLayout::new(4, 2);
    let policy = RetryPolicy::default();
    let mut session = FaultSession::new(plan);
    t.setup(4);
    (0..calls)
        .map(|_| {
            let mut out = t.lend_outboxes();
            for (s, o) in out.iter_mut().enumerate() {
                let d = (s + 1) % 4;
                o.push(d as u32, EdgeRec { u: s as u64, v: d as u64 });
            }
            let (result, _) = t.exchange_faulty(
                Messaging::Direct,
                out,
                &layout,
                Codec::Compressed,
                Codec::Fixed(16),
                &policy,
                &mut session,
            );
            let ok = result.map(|inboxes| t.recycle_inboxes(inboxes)).is_ok();
            (ok, session.phase())
        })
        .collect()
}

/// Every path through a fabric's faulty exchange closes the session's
/// phase exactly once: delivered, refused by the verdict, failed on the
/// wire, and refused by a sticky-failed socket fabric.
#[test]
fn shared_mem_channels_and_socket_close_one_phase_per_faulty_exchange() {
    let delivered = vec![(true, 1), (true, 2), (true, 3)];
    let refused = vec![(false, 1), (false, 2)];
    let lossy = || FaultPlan::lossy(13);
    let dead = || FaultPlan::quiet(13).with_dead_link(0, 1);
    assert_eq!(faulty_phases(SharedMem::new(), lossy(), 3), delivered);
    assert_eq!(faulty_phases(Channels::new(), lossy(), 3), delivered);
    assert_eq!(faulty_phases(socket_unix(), lossy(), 3), delivered);
    assert_eq!(faulty_phases(SharedMem::new(), dead(), 2), refused);
    assert_eq!(faulty_phases(Channels::new(), dead(), 2), refused);
    assert_eq!(faulty_phases(socket_unix(), dead(), 2), refused);
    // Rank 1's daemon dies in wire phase 1; the fabric then stays
    // failed, and the session still advances once per call.
    let dying = socket_unix().kill_rank_at_phase(1, 1);
    assert_eq!(
        faulty_phases(dying, FaultPlan::quiet(13), 3),
        vec![(true, 1), (false, 2), (false, 3)]
    );
}

/// Fault-free scale-14 counter snapshot parity: the socket fabric must
/// report bit-identical `exchange.*`/`faults.*` counters to the
/// shared-memory oracle on Direct traffic — the wire arithmetic is
/// shared, and a real kernel in the middle must not perturb it (this is
/// what keeps the perf-regression bands transport-independent).
#[test]
fn socket_scale_14_counter_snapshot_matches_shared_mem() {
    let el = graph(14, 21);
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let mut shm = build(&el, 8, cfg, SharedMem::new);
    let mut sock = build(&el, 8, cfg, socket_unix);
    let root = good_root(&shm);
    let a = shm.run(root).unwrap();
    let b = sock.run(root).unwrap();
    assert_eq!(a, b, "scale-14 outputs diverge between fabrics");
    for section in ["exchange.", "faults."] {
        assert_eq!(
            shm.metrics().section(section),
            sock.metrics().section(section),
            "{section}* snapshot diverges at scale 14"
        );
    }
    // A fault-free run realizes nothing physically.
    assert_eq!(sock.transport().wire_incidents().total(), 0);
}
