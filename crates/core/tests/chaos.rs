//! The differential chaos harness — the headline test of the fault
//! subsystem.
//!
//! Scale-14 and scale-16 BFS runs are subjected to randomized fault
//! schedules and compared against a fault-free oracle:
//!
//! * **Survivable** schedules (random drop/truncate/delay faults with
//!   `max_burst < max_attempts`, no dead hardware) must produce output
//!   **bit-identical** to the oracle — parents, levels, the lot. The
//!   resilience layer may retry and back off as much as it likes, but
//!   it may not change a single answer bit.
//! * **Degrading** schedules (a dead relay the transport must route
//!   around) must still produce oracle-identical parents and depths,
//!   with the degradation visible in the counters.
//! * **Unsurvivable** schedules (dead links, delay storms beyond the
//!   level budget) must fail with a structured [`ExchangeError`] —
//!   never a panic, never a hang, never silent corruption — and the
//!   cluster must remain usable afterwards.

use swbfs_core::config::{BfsConfig, Messaging};
use swbfs_core::engine::{ClusterBuilder, SocketTransport};
use swbfs_core::policy::Direction;
use swbfs_core::{BfsOutput, ExchangeError, ExecError, FaultPlan};
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};

fn socket_unix() -> SocketTransport {
    SocketTransport::unix().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized schedule that is survivable *by construction*: only
/// random faults (no dead links/relays), and `max_burst` strictly below
/// the default retry budget, so every message eventually lands.
fn random_survivable_plan(state: &mut u64) -> FaultPlan {
    FaultPlan {
        drop_permille: (splitmix(state) % 120) as u16,
        truncate_permille: (splitmix(state) % 80) as u16,
        delay_permille: (splitmix(state) % 80) as u16,
        delay_ns: 1 + splitmix(state) % 8_000,
        max_burst: 1 + (splitmix(state) % 3) as u32, // < max_attempts = 5
        ..FaultPlan::quiet(splitmix(state))
    }
}

/// Records the Bottom-Up generators and handlers produced in one run.
fn bottom_up_records(out: &BfsOutput) -> u64 {
    out.levels
        .iter()
        .filter(|l| l.direction == Direction::BottomUp)
        .map(|l| l.records_generated)
        .sum()
}

fn scale14() -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(14, 8))
}

fn scale16() -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(16, 8))
}

/// 50+ randomized survivable schedules at scale 14, across both
/// transports and both codecs: every run must be bit-identical to the
/// fault-free oracle, full `BfsOutput` equality.
#[test]
fn fifty_survivable_schedules_are_bit_identical_at_scale_14() {
    let el = scale14();
    let mut state = 0x5EED_CA05u64;
    // The paper-style 2^10 Bottom-Up hubs on one arm: its Bottom-Up
    // levels exchange queries and replies, so faults land on them too.
    for (mode, compress, bottom_up_hubs) in [
        (Messaging::Direct, false, None),
        (Messaging::Relay, false, Some(1 << 10)),
        (Messaging::Direct, true, None),
        (Messaging::Relay, true, None),
    ] {
        let mut cfg = BfsConfig::threaded_small(4).with_messaging(mode);
        if compress {
            cfg = cfg.with_compression();
        }
        if let Some(bottom_up_hubs) = bottom_up_hubs {
            cfg.bottom_up_hubs = bottom_up_hubs;
        }
        let mut cluster = ClusterBuilder::new(&el, 8, cfg).build().unwrap();
        let root = splitmix(&mut state) % el.num_vertices;
        let oracle = cluster.run(root).unwrap();
        if bottom_up_hubs.is_some() {
            assert!(
                bottom_up_records(&oracle) > 0,
                "the paper-style arm must exchange Bottom-Up queries"
            );
        }
        // 13 schedules per configuration = 52 total.
        for round in 0..13 {
            let plan = random_survivable_plan(&mut state);
            cluster.set_fault_plan(Some(plan.clone()));
            let chaotic = cluster.run(root).unwrap();
            assert_eq!(
                chaotic, oracle,
                "survivable schedule diverged: mode {mode:?} compress {compress} round {round} plan {plan:?}"
            );
            let (retries, injected, degraded) = cluster.fault_counters();
            assert_eq!(degraded, 0, "survivable schedules must not degrade");
            assert!(
                plan.is_quiet() || injected == 0 || retries > 0 || !cluster.injection_trace().is_empty(),
                "injections must be visible in the counters or trace"
            );
            cluster.set_fault_plan(None);
        }
    }
}

/// The same property at scale 16 (65 536 vertices): a smaller batch of
/// schedules, both transports, to show nothing about survivability is
/// an artifact of small graphs.
#[test]
fn survivable_schedules_are_bit_identical_at_scale_16() {
    let el = scale16();
    let mut state = 0xBEEF16u64;
    for mode in [Messaging::Direct, Messaging::Relay] {
        let cfg = BfsConfig::threaded_small(4).with_messaging(mode);
        let mut cluster = ClusterBuilder::new(&el, 8, cfg).build().unwrap();
        let root = splitmix(&mut state) % el.num_vertices;
        let oracle = cluster.run(root).unwrap();
        for _ in 0..3 {
            let plan = random_survivable_plan(&mut state);
            cluster.set_fault_plan(Some(plan.clone()));
            let chaotic = cluster.run(root).unwrap();
            assert_eq!(chaotic, oracle, "mode {mode:?} plan {plan:?}");
            cluster.set_fault_plan(None);
        }
    }
}

/// A dead relay forces relay→direct fallback mid-run: parents and
/// depths stay oracle-identical while the degradation shows up in the
/// counters.
#[test]
fn degrading_schedules_keep_the_answers_identical() {
    let el = scale14();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Relay);
    let mut cluster = ClusterBuilder::new(&el, 8, cfg).build().unwrap();
    let root = 3u64;
    let oracle = cluster.run(root).unwrap();
    for relay in [1u32, 5] {
        cluster.set_fault_plan(Some(FaultPlan::quiet(11).with_dead_relay(relay)));
        let degraded = cluster.run(root).unwrap();
        assert_eq!(degraded.parents, oracle.parents, "relay {relay}");
        assert_eq!(
            degraded.levels_from_parents(),
            oracle.levels_from_parents()
        );
        assert!(cluster.is_degraded(), "fallback must have engaged");
        let (_, _, degraded_levels) = cluster.fault_counters();
        assert!(degraded_levels > 0);
        cluster.set_fault_plan(None);
    }
}

/// Unsurvivable schedules produce structured errors — the process does
/// not panic, the run does not hang, and no wrong answer escapes. The
/// cluster stays usable after each failure.
#[test]
fn unsurvivable_schedules_fail_with_structured_errors() {
    let el = scale14();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let mut cluster = ClusterBuilder::new(&el, 8, cfg).build().unwrap();
    let root = 1u64;
    let oracle = cluster.run(root).unwrap();

    // A dead link on the Direct transport has no fallback.
    cluster.set_fault_plan(Some(FaultPlan::quiet(23).with_dead_link(2, 6)));
    match cluster.run(root) {
        Err(ExecError::Exchange(ExchangeError::RetriesExhausted { src, dst, .. })) => {
            assert_eq!((src, dst), (2, 6));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }

    // A delay storm beyond the per-level simulated-time budget.
    let mut tight = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    tight.retry.level_timeout_ns = 50_000;
    let mut stormy = ClusterBuilder::new(&el, 8, tight).build().unwrap();
    stormy.set_fault_plan(Some(FaultPlan {
        delay_permille: 1000,
        delay_ns: 10_000,
        max_burst: 1,
        ..FaultPlan::quiet(99)
    }));
    match stormy.run(root) {
        Err(ExecError::Exchange(ExchangeError::LevelTimeout { .. })) => {}
        other => panic!("expected LevelTimeout, got {other:?}"),
    }

    // A dead relay with the fallback switched off exhausts its budget.
    let mut rigid = BfsConfig::threaded_small(4).with_messaging(Messaging::Relay);
    rigid.retry.fallback_direct = false;
    let mut relayed = ClusterBuilder::new(&el, 8, rigid).build().unwrap();
    relayed.set_fault_plan(Some(FaultPlan::quiet(31).with_dead_relay(1)));
    match relayed.run(root) {
        Err(ExecError::Exchange(ExchangeError::RetriesExhausted { .. })) => {}
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }

    // After every failure the cluster recovers once disarmed.
    cluster.set_fault_plan(None);
    assert_eq!(cluster.run(root).unwrap(), oracle);
}

/// Socket chaos: randomized survivable schedules where the faults are
/// *physically realized* — every scheduled drop closes a real
/// connection, every truncation short-writes a real frame prefix —
/// and the output must still be bit-identical to the in-process
/// shared-memory oracle, full `BfsOutput` equality. The incident
/// counters prove the wire actually suffered.
#[test]
fn socket_survivable_schedules_are_bit_identical_to_the_oracle() {
    let el = scale14();
    let mut state = 0x50CE_7CA5u64;
    for compress in [false, true] {
        let mut cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
        if compress {
            cfg = cfg.with_compression();
        }
        let root = splitmix(&mut state) % el.num_vertices;
        let oracle = ClusterBuilder::new(&el, 8, cfg)
            .build()
            .unwrap()
            .run(root)
            .unwrap();
        let mut engine = ClusterBuilder::new(&el, 8, cfg)
            .transport(socket_unix())
            .build()
            .unwrap();
        assert_eq!(engine.run(root).unwrap(), oracle, "fault-free socket run diverges");
        let mut realized = 0u64;
        for round in 0..4 {
            let plan = random_survivable_plan(&mut state);
            engine.set_fault_plan(Some(plan.clone()));
            let chaotic = engine.run(root).unwrap();
            assert_eq!(
                chaotic, oracle,
                "socket chaos diverged: compress {compress} round {round} plan {plan:?}"
            );
            let (_, _, degraded) = engine.fault_counters();
            assert_eq!(degraded, 0, "survivable schedules must not degrade");
            realized += engine.transport().wire_incidents().total();
            engine.set_fault_plan(None);
        }
        assert!(
            realized > 0,
            "four lossy schedules realized nothing on the wire (compress {compress})"
        );
        let inc = engine.transport().wire_incidents();
        assert!(
            inc.torn_frames + inc.resets > 0,
            "no physical short-write or disconnect was realized"
        );
        // Surviving is not enough: a daemon that missed a readiness
        // event (a re-sent `MSG` riding in with its reconnect's `PEER`)
        // recovers when its 100 ms poll times out, and only the phase
        // latency shows it.
        for (r, t) in engine.transport().rank_telemetry().iter().enumerate() {
            assert!(
                t.hist.max < 50_000,
                "rank {r}: a phase took {} us (compress {compress})",
                t.hist.max
            );
        }
    }
}

/// Socket chaos failures replay identically: the same unsurvivable
/// plan on two fresh fabrics produces the same structured error and
/// the same injection trace — process boundaries don't cost
/// reproducibility.
#[test]
fn socket_failing_runs_replay_identically() {
    let el = scale14();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let plan = FaultPlan::quiet(47).with_dead_link(0, 3);
    let run = |plan: FaultPlan| {
        let mut engine = ClusterBuilder::new(&el, 8, cfg)
            .transport(socket_unix())
            .fault_plan(plan)
            .build()
            .unwrap();
        let err = engine.run(5).unwrap_err();
        (format!("{err}"), engine.injection_trace().to_vec())
    };
    let (ea, ta) = run(plan.clone());
    let (eb, tb) = run(plan);
    assert_eq!(ea, eb);
    assert_eq!(ta, tb);
    match ea {
        ref s if s.contains("0->3") => {}
        other => panic!("expected the dead link in the error, got {other}"),
    }
}

/// The injection trace of a failing run pins down the culprit: replay
/// with the same plan reproduces the identical trace, which is what
/// makes chaos failures debuggable.
#[test]
fn failing_runs_replay_identically() {
    let el = scale14();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let plan = FaultPlan::quiet(47).with_dead_link(0, 3);
    let mut a = ClusterBuilder::new(&el, 8, cfg)
        .fault_plan(plan.clone())
        .build()
        .unwrap();
    let mut b = ClusterBuilder::new(&el, 8, cfg)
        .fault_plan(plan)
        .build()
        .unwrap();
    let ea = a.run(5).unwrap_err();
    let eb = b.run(5).unwrap_err();
    assert_eq!(format!("{ea}"), format!("{eb}"));
    assert_eq!(a.injection_trace(), b.injection_trace());
}
