//! Teardown and re-delivery guarantees of the socket fabric.
//!
//! A rank process dying mid-level must surface as a structured
//! [`ExchangeError::PeerDisconnected`] — never a hang — with every
//! child reaped and its exit code recorded, and a fresh fabric must
//! work immediately afterwards. Separately, the re-delivery-without-
//! regeneration contract (see the `Transport` trait docs) is exercised
//! physically: truncated frames are torn on a real socket, and the
//! retransmitted copies must reproduce the fault-free answer bit for
//! bit, per-level statistics included.

#![cfg(unix)]

use swbfs_core::config::{BfsConfig, Messaging};
use swbfs_core::engine::{ClusterBuilder, SocketTransport};
use swbfs_core::{ExchangeError, ExecError, FaultPlan};
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};

fn socket_unix() -> SocketTransport {
    SocketTransport::unix().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

fn scale14() -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(14, 8))
}

/// Killing a rank daemon mid-level produces `PeerDisconnected`, not a
/// hang; the dead child's exit code (41, the die knob) and the clean
/// exits (0) of every reaped sibling are recorded; the failed engine
/// stays failed (sticky) without respawning anything; and a fresh
/// fabric built immediately afterwards works.
///
/// Two arms: the paper-style 2^10 Bottom-Up hubs, whose run takes nine
/// phases (phase 3 is a Bottom-Up level's reply exchange), and every
/// vertex a hub, whose Bottom-Up levels run no phase: three Top-Down
/// exchanges, the last of them phase 2. Each first checks, on a clean
/// socket run, that the run reaches the phase it kills in.
#[test]
fn killing_a_rank_mid_level_fails_structurally_and_reaps_everyone() {
    let el = scale14();
    let complete = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    for (cfg, kill_phase) in [(BfsConfig { bottom_up_hubs: 1 << 10, ..complete }, 3), (complete, 2)] {
        kill_a_rank_mid_level(&el, cfg, kill_phase);
    }
}

fn kill_a_rank_mid_level(el: &EdgeList, cfg: BfsConfig, kill_phase: u32) {
    let oracle = ClusterBuilder::new(el, 8, cfg).build().unwrap().run(1).unwrap();

    // Every daemon times each phase it serves: a clean run's count is the
    // number of exchanges the run takes.
    let mut clean = ClusterBuilder::new(el, 8, cfg).transport(socket_unix()).build().unwrap();
    assert_eq!(clean.run(1).unwrap(), oracle);
    let phases = clean.transport().rank_telemetry()[2].hist.count();
    assert!(
        phases > u64::from(kill_phase),
        "the run takes {phases} phases: phase {kill_phase} is never reached"
    );
    drop(clean);

    let mut engine = ClusterBuilder::new(el, 8, cfg)
        .transport(socket_unix().kill_rank_at_phase(2, kill_phase))
        .build()
        .unwrap();
    match engine.run(1) {
        Err(ExecError::Exchange(ExchangeError::PeerDisconnected { rank })) => {
            assert_eq!(rank, 2, "the dying rank must be named");
        }
        other => panic!("expected PeerDisconnected, got {other:?}"),
    }

    let exits = engine.transport().last_exits().to_vec();
    assert_eq!(exits.len(), 8, "every child must be reaped");
    assert_eq!(exits[2], Some(41), "rank 2 died via the chaos knob");
    for (r, code) in exits.iter().enumerate() {
        if r != 2 {
            assert_eq!(*code, Some(0), "rank {r} must exit cleanly on teardown");
        }
    }

    // The failure is sticky: no respawn, the same error again, fast.
    match engine.run(1) {
        Err(ExecError::Exchange(ExchangeError::PeerDisconnected { rank: 2 })) => {}
        other => panic!("expected the sticky error, got {other:?}"),
    }

    // A fresh fabric is unaffected by the wreckage of the old one.
    let mut fresh = ClusterBuilder::new(el, 8, cfg)
        .transport(socket_unix())
        .build()
        .unwrap();
    assert_eq!(fresh.run(1).unwrap(), oracle);
}

/// The re-delivery-without-regeneration contract, realized physically:
/// a truncate-heavy survivable schedule tears compressed frames on the
/// wire (short write + shutdown), the sender retransmits the *same*
/// already-encoded batch after reconnecting, and the final output —
/// parents, levels, per-level `edges_scanned`, everything in
/// `BfsOutput` — equals the fault-free oracle exactly.
#[test]
fn torn_frames_are_redelivered_not_regenerated() {
    let el = scale14();
    let cfg = BfsConfig::threaded_small(4)
        .with_messaging(Messaging::Direct)
        .with_compression();
    let oracle = ClusterBuilder::new(&el, 8, cfg)
        .build()
        .unwrap()
        .run(9)
        .unwrap();

    let plan = FaultPlan {
        truncate_permille: 350,
        max_burst: 2, // < max_attempts = 5: survivable by construction
        ..FaultPlan::quiet(0xD05_EED)
    };
    let mut engine = ClusterBuilder::new(&el, 8, cfg)
        .transport(socket_unix())
        .fault_plan(plan)
        .build()
        .unwrap();
    let out = engine.run(9).unwrap();

    assert_eq!(out, oracle, "re-delivered batches must replace torn ones exactly");
    assert_eq!(
        out.levels, oracle.levels,
        "per-level statistics must survive re-delivery"
    );
    let inc = engine.transport().wire_incidents();
    assert!(
        inc.torn_frames > 0,
        "the schedule must actually tear frames on the wire (got {inc:?})"
    );
    let (_, _, degraded) = engine.fault_counters();
    assert_eq!(degraded, 0);
}
