//! The TELEM leg of the socket fabric: every `swbfs-rankd` ships its
//! cumulative per-phase latency histogram and send totals up the ctrl
//! connection after each phase, the parent stores them per rank with
//! replace semantics, and — when the live plane is armed — publishes
//! the merged view under `live.socket.*`. None of this may move a
//! deterministic counter or change the BFS answer.

#![cfg(unix)]

use swbfs_core::config::{BfsConfig, Messaging};
use swbfs_core::engine::{ClusterBuilder, RankTelemetry, SocketTransport};
use swbfs_core::FaultPlan;
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig};
use sw_trace::live;

fn socket_unix() -> SocketTransport {
    SocketTransport::unix().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

fn socket_tcp() -> SocketTransport {
    SocketTransport::tcp().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

fn scale12() -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(12, 8))
}

fn check_fabric_telemetry(make: fn() -> SocketTransport) {
    let el = scale12();
    let ranks = 6u32;
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let oracle = ClusterBuilder::new(&el, ranks, cfg)
        .build()
        .unwrap()
        .run(1)
        .unwrap();

    let mut engine = ClusterBuilder::new(&el, ranks, cfg)
        .transport(make())
        .build()
        .unwrap();
    let out = engine.run(1).unwrap();
    assert_eq!(out.parents, oracle.parents, "telemetry must not change the answer");

    let telem: &[RankTelemetry] = engine.transport().rank_telemetry();
    assert_eq!(telem.len(), ranks as usize, "one report per rank");
    for (r, t) in telem.iter().enumerate() {
        assert!(t.hist.count() > 0, "rank {r} reported no phase samples");
        assert!(t.frames > 0, "rank {r} reported no frames sent");
        assert!(t.bytes > 0, "rank {r} reported no bytes sent");
        assert!(t.hist.max > 0, "rank {r} phase histogram has zero max");
    }

    // The merged view is the bucket-wise sum of the per-rank reports.
    let merged = engine.transport().merged_telemetry();
    assert_eq!(
        merged.hist.count(),
        telem.iter().map(|t| t.hist.count()).sum::<u64>()
    );
    assert_eq!(merged.frames, telem.iter().map(|t| t.frames).sum::<u64>());
    assert_eq!(merged.bytes, telem.iter().map(|t| t.bytes).sum::<u64>());
}

#[test]
fn unix_fabric_reports_per_rank_telemetry() {
    check_fabric_telemetry(socket_unix);
}

#[test]
fn tcp_fabric_reports_per_rank_telemetry() {
    check_fabric_telemetry(socket_tcp);
}

/// Reports are cumulative with replace semantics: a second run on the
/// same fabric only grows every rank's totals — adding snapshots
/// instead of replacing them would double-count and break this.
#[test]
fn telemetry_is_cumulative_across_runs() {
    let el = scale12();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let mut engine = ClusterBuilder::new(&el, 4, cfg)
        .transport(socket_unix())
        .build()
        .unwrap();

    engine.run(1).unwrap();
    let first: Vec<RankTelemetry> = engine.transport().rank_telemetry().to_vec();
    engine.run(7).unwrap();
    let second: Vec<RankTelemetry> = engine.transport().rank_telemetry().to_vec();

    for (r, (a, b)) in first.iter().zip(second.iter()).enumerate() {
        assert!(
            b.hist.count() > a.hist.count(),
            "rank {r} phase count must grow ({} -> {})",
            a.hist.count(),
            b.hist.count()
        );
        assert!(b.frames >= a.frames, "rank {r} frame total must not shrink");
        assert!(b.bytes >= a.bytes, "rank {r} byte total must not shrink");
    }
}

/// With the live plane armed, the parent publishes each rank's report
/// under `live.socket.rank<r>.*`; disarmed, it publishes nothing — but
/// the fabric still collects, so `rank_telemetry()` works either way.
#[test]
fn armed_plane_receives_per_rank_fabric_metrics() {
    let el = scale12();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let mut engine = ClusterBuilder::new(&el, 4, cfg)
        .transport(socket_unix())
        .build()
        .unwrap();

    live::set_armed(true);
    engine.run(1).unwrap();
    live::set_armed(false);

    let plane = live::global();
    for r in 0..4 {
        let snap = plane
            .histogram_snapshot(&format!("socket.rank{r}.phase_micros"))
            .unwrap_or_else(|| panic!("rank {r} histogram missing from the live plane"));
        assert!(snap.count() > 0, "rank {r} snapshot is empty");
        assert_eq!(
            snap,
            engine.transport().rank_telemetry()[r].hist,
            "published snapshot must equal the fabric's own report (rank {r})"
        );
    }
    let counters = plane.to_counters();
    assert!(counters.get("live.socket.rank0.frames") > 0);
    assert!(counters.get("live.socket.rank0.bytes") > 0);
}

/// Both poll loops wait with a 100 ms timeout, so a readiness event a
/// loop failed to act on does not fail anything: it shows up as a
/// phase that took 100 ms. No phase of any rank may come near that —
/// over several roots on a healthy fabric, and over schedules whose
/// drops and truncations make daemons reconnect mid-phase (every
/// reconnect is a `PEER` with, often, the re-sent `MSG` in the same
/// segment: bytes the identifying read takes along and no later
/// readiness announces).
fn check_no_phase_waits_out_a_poll_timeout(make: fn() -> SocketTransport) {
    let el = scale12();
    let cfg = BfsConfig::threaded_small(4).with_messaging(Messaging::Direct);
    let oracle = |root| {
        ClusterBuilder::new(&el, 6, cfg)
            .build()
            .unwrap()
            .run(root)
            .unwrap()
    };
    let mut engine = ClusterBuilder::new(&el, 6, cfg).transport(make()).build().unwrap();
    let assert_no_stall = |fabric: &SocketTransport, what: &str| {
        for (r, t) in fabric.rank_telemetry().iter().enumerate() {
            assert!(t.hist.count() > 0);
            assert!(
                t.hist.max < 50_000,
                "rank {r}: a phase took {} us {what} — a lost wake-up waits out the 100 ms poll",
                t.hist.max
            );
        }
    };

    for root in [1, 7, 99, 1234, 4000] {
        assert_eq!(engine.run(root).unwrap(), oracle(root));
    }
    assert_no_stall(engine.transport(), "on a healthy fabric");

    for seed in [11, 12, 13] {
        engine.set_fault_plan(Some(FaultPlan {
            drop_permille: 100,
            truncate_permille: 80,
            max_burst: 2,
            ..FaultPlan::quiet(seed)
        }));
        assert_eq!(engine.run(seed).unwrap(), oracle(seed));
    }
    let inc = engine.transport().wire_incidents();
    assert!(inc.resets > 0 && inc.torn_frames > 0, "the schedules realized no reconnects: {inc:?}");
    assert_no_stall(engine.transport(), "under drops and truncations");
}

#[test]
fn unix_fabric_loses_no_wake_up() {
    check_no_phase_waits_out_a_poll_timeout(socket_unix);
}

#[test]
fn tcp_fabric_loses_no_wake_up() {
    check_no_phase_waits_out_a_poll_timeout(socket_tcp);
}
