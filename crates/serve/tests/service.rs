//! End-to-end battery for the query service: correctness against the
//! sequential oracle, structured deadlines (a late answer is a
//! `Timeout` result, never a hang), overload shedding (`BUSY`, then
//! full recovery), batching attribution, and clean shutdown.

use std::time::Duration;

use sw_algos::msbfs::bfs_levels_oracle;
use sw_algos::AlgoCluster;
use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig, StorageBackend};
use sw_net::framing::{QueryOp, QueryStatus, ResultFrame};
use sw_serve::{Client, Response, ServeConfig, Server};
use sw_trace::CounterSet;
use swbfs_core::config::Messaging;
use swbfs_core::{BfsConfig, ClusterBuilder};

fn graph() -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(10, 77))
}

fn answer(r: Response) -> ResultFrame {
    match r {
        Response::Answer(a) => a,
        Response::Busy(b) => panic!("unexpected BUSY (depth {})", b.queue_depth),
    }
}

#[test]
fn light_load_answers_match_oracle_with_zero_shed() {
    let el = graph();
    let n = el.num_vertices;
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();

    let roots = [1u64, 5, 1, 900, 5, 33];
    for (i, &root) in roots.iter().enumerate() {
        let target = (root * 7 + i as u64) % n;
        let oracle = bfs_levels_oracle(&el, root);

        let d = answer(client.query(QueryOp::Distance, root, target, 0, 0).unwrap());
        assert_eq!(d.status, QueryStatus::Ok);
        let want = oracle[target as usize];
        let want = if want == u32::MAX { u64::MAX } else { u64::from(want) };
        assert_eq!(d.value, want, "distance {root}->{target}");

        let r = answer(client.query(QueryOp::Reachable, root, target, 0, 0).unwrap());
        assert_eq!(r.value, u64::from(oracle[target as usize] != u32::MAX));

        let k = answer(client.query(QueryOp::KHop, root, 0, 2, 0).unwrap());
        let want_k = oracle.iter().filter(|&&l| l != u32::MAX && l <= 2).count() as u64;
        assert_eq!(k.value, want_k, "2-hop neighbourhood of {root}");
    }

    let m = server.metrics();
    assert_eq!(m.get("serve.shed"), 0, "light load must never shed");
    assert_eq!(m.get("serve.queries"), 3 * roots.len() as u64);
    assert_eq!(m.get("serve.results_ok"), 3 * roots.len() as u64);
    assert!(m.get("serve.cache_hits") > 0, "repeat roots must hit the cache");
    // The server's latency histogram holds one sample per answer, swept
    // or cached, whatever the op.
    let live = CounterSet::from_json(&client.stats_json().unwrap()).unwrap();
    assert_eq!(live.get("live.serve.latency_micros.count"), 3 * roots.len() as u64);
    server.shutdown();
}

/// Build-once/serve-forever: a server restarted from a persisted store
/// answers every query bit-identically to the cold-built server — over
/// mmap'ed partitions with zero adjacency bytes copied — and the
/// `store.*` counters and live-plane restart timing prove which path
/// ran.
#[test]
fn store_restarted_server_answers_bit_identically() {
    let el = graph();
    let n = el.num_vertices;
    let dir = std::env::temp_dir().join("sw_serve_store_restart");
    std::fs::remove_dir_all(&dir).ok();
    Server::build_store(&el, 4, &dir).unwrap();

    let mut cold = Server::start(&el, ServeConfig::default()).unwrap();
    let mut warm =
        Server::start_from_store(&dir, sw_graph::StorageBackend::Mapped, ServeConfig::default())
            .unwrap();
    assert_answers_alike(&cold, &warm, n);

    // The cold server opened no store; the restarted one mapped every
    // partition and copied nothing.
    let (mc, mw) = (cold.metrics(), warm.metrics());
    assert_eq!(mc.get("store.partitions_mapped"), 0);
    assert_eq!(mw.get("store.partitions_mapped"), 4);
    assert!(mw.get("store.bytes_mapped") > 0, "restart must map partitions");
    assert_eq!(mw.get("store.bytes_copied"), 0, "mmap restart must be zero-copy");
    // Live plane: each server recorded its construction under the
    // matching histogram.
    assert_eq!(cold.live().to_counters().get("live.serve.store_build_micros.count"), 1);
    assert_eq!(warm.live().to_counters().get("live.serve.store_map_micros.count"), 1);
    warm.shutdown();
    cold.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A Distance/Reachable/KHop battery that `warm` must answer exactly
/// as `cold` does.
fn assert_answers_alike(cold: &Server, warm: &Server, n: u64) {
    let mut cc = Client::connect(&cold.addr()).unwrap();
    let mut wc = Client::connect(&warm.addr()).unwrap();
    for (i, root) in [1u64, 5, 900, 33, 5, 411].into_iter().enumerate() {
        let target = (root * 13 + i as u64) % n;
        for (op, t, hops) in [
            (QueryOp::Distance, target, 0),
            (QueryOp::Reachable, target, 0),
            (QueryOp::KHop, 0, 3),
        ] {
            let a = answer(cc.query(op, root, t, hops, 0).unwrap());
            let b = answer(wc.query(op, root, t, hops, 0).unwrap());
            assert_eq!(a.status, b.status, "{op:?} {root}->{t}");
            assert_eq!(a.value, b.value, "{op:?} {root}->{t}: restart changed the answer");
        }
    }
}

/// One store layout: the service restarts from a store the BFS engine
/// persisted (hubs-first rows, its default) and answers exactly as a
/// cold server, copying no adjacency byte. A cluster opened from that
/// store persists it again in the same row order: the copy reopens, and
/// the engine, which refuses a store in the other order, opens it too.
#[test]
fn store_persisted_by_the_engine_restarts_the_server() -> Result<(), Box<dyn std::error::Error>> {
    let el = graph();
    let base = std::env::temp_dir().join(format!("sw_serve_engine_store_{}", std::process::id()));
    let (dir, again) = (base.join("engine"), base.join("again"));
    std::fs::remove_dir_all(&base).ok();
    ClusterBuilder::new(&el, 4, BfsConfig::threaded_small(2)).build()?.persist_store(&dir)?;

    let mut cold = Server::start(&el, ServeConfig::default())?;
    let mut warm = Server::start_from_store(&dir, StorageBackend::Mapped, ServeConfig::default())?;
    assert_answers_alike(&cold, &warm, el.num_vertices);
    let mw = warm.metrics();
    assert_eq!(mw.get("store.partitions_mapped"), 4);
    assert_eq!(mw.get("store.bytes_copied"), 0, "mmap restart must be zero-copy");
    warm.shutdown();
    cold.shutdown();

    let opened = AlgoCluster::from_store_dir(&dir, StorageBackend::Mapped, 2, Messaging::Relay)?;
    opened.persist_store(&again)?;
    let reopened = AlgoCluster::from_store_dir(&again, StorageBackend::Mapped, 2, Messaging::Relay)?;
    assert_eq!(reopened.csrs, opened.csrs);
    ClusterBuilder::from_store_dir(&again, BfsConfig::threaded_small(2)).build()?;
    std::fs::remove_dir_all(&base).ok();
    Ok(())
}

/// The error a bad config must end as: `InvalidInput`, naming the field.
fn refused<T>(r: std::io::Result<T>, field: &str) {
    let err = r.err().unwrap_or_else(|| panic!("a bad {field} was accepted"));
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains(field), "{err} does not name {field}");
}

#[test]
fn zero_ranks_is_refused_not_a_panic() {
    let el = graph();
    let cfg = || ServeConfig { ranks: 0, ..ServeConfig::default() };
    refused(Server::start(&el, cfg()), "ranks");
    refused(Server::start_tcp(&el, cfg()), "ranks");
    let dir = std::env::temp_dir().join(format!("sw_serve_zero_ranks_{}", std::process::id()));
    refused(Server::build_store(&el, 0, &dir), "ranks");
    assert!(!dir.exists(), "a refused build wrote nothing");
}

#[test]
fn more_ranks_than_vertices_is_refused_not_a_panic() {
    let el = EdgeList::new(3, vec![(0, 1), (1, 2)]);
    let cfg = || ServeConfig { ranks: 4, ..ServeConfig::default() };
    refused(Server::start(&el, cfg()), "ranks");
    refused(Server::start_tcp(&el, cfg()), "ranks");
    let dir = std::env::temp_dir().join(format!("sw_serve_many_ranks_{}", std::process::id()));
    refused(Server::build_store(&el, 4, &dir), "ranks");
}

#[test]
fn zero_group_size_is_refused_not_a_panic() {
    let el = graph();
    let cfg = || ServeConfig { group_size: 0, ..ServeConfig::default() };
    refused(Server::start(&el, cfg()), "group_size");
    refused(Server::start_tcp(&el, cfg()), "group_size");
}

#[test]
fn zero_group_size_is_refused_on_a_store_restart_too() {
    let el = graph();
    let dir = std::env::temp_dir().join(format!("sw_serve_zero_group_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Server::build_store(&el, 4, &dir).unwrap();
    let cfg = ServeConfig { group_size: 0, ..ServeConfig::default() };
    refused(Server::start_from_store(&dir, sw_graph::StorageBackend::Mapped, cfg), "group_size");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn expired_deadline_is_a_structured_timeout_not_a_hang() {
    let el = graph();
    let cfg = ServeConfig {
        service_delay: Duration::from_millis(60),
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();

    // 1 ms budget against a 60 ms service floor: must come back quickly
    // and shaped, with the timeout attributed in the counters.
    let t = answer(client.query(QueryOp::Distance, 1, 2, 0, 1).unwrap());
    assert_eq!(t.status, QueryStatus::Timeout);
    assert_eq!(t.value, 0);
    assert!(t.micros >= 1_000, "timeout must report real latency");

    // The same server keeps answering: a deadline-free query succeeds,
    // and a generous deadline is honoured.
    let ok = answer(client.query(QueryOp::Distance, 1, 2, 0, 0).unwrap());
    assert_eq!(ok.status, QueryStatus::Ok);
    let ok = answer(client.query(QueryOp::Distance, 1, 2, 0, 60_000).unwrap());
    assert_eq!(ok.status, QueryStatus::Ok);

    let m = server.metrics();
    assert_eq!(m.get("serve.timeouts"), 1);
    assert_eq!(m.get("serve.results_ok"), 2);
    server.shutdown();
}

#[test]
fn overload_sheds_busy_and_recovers() {
    let el = graph();
    let cfg = ServeConfig {
        max_queue: 4,
        start_paused: true,
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();

    // With the worker held, only the queue's 4 slots admit; the rest of
    // the burst must shed immediately with BUSY.
    const BURST: usize = 30;
    for i in 0..BURST {
        client.send(QueryOp::Distance, (i % 8) as u64, 1, 0, 0).unwrap();
    }
    // Wait until the reader has disposed of the whole burst (4 queued +
    // 26 shed) before releasing the worker, so the split is exact.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().get("serve.shed") + server.queue_depth() as u64 != BURST as u64 {
        assert!(std::time::Instant::now() < deadline, "burst never fully admitted/shed");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.resume();

    let mut busy = 0usize;
    let mut ok = 0usize;
    for _ in 0..BURST {
        match client.recv().unwrap() {
            Response::Busy(b) => {
                busy += 1;
                assert_eq!(b.queue_limit, 4);
                assert!(b.queue_depth <= 4);
            }
            Response::Answer(a) => {
                assert_eq!(a.status, QueryStatus::Ok);
                ok += 1;
            }
        }
    }
    assert_eq!(busy + ok, BURST);
    assert_eq!(busy, BURST - 4, "exactly the queue overflow must shed");

    // Recovered: a fresh query on the same connection answers fine.
    let a = answer(client.query(QueryOp::Distance, 3, 9, 0, 0).unwrap());
    assert_eq!(a.status, QueryStatus::Ok);

    let m = server.metrics();
    assert_eq!(m.get("serve.shed"), busy as u64);
    assert_eq!(m.get("serve.queries"), 5);
    server.shutdown();
}

#[test]
fn batching_attribution_and_cache_hits() {
    let el = graph();
    let cfg = ServeConfig {
        start_paused: true,
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();

    // Five queries over three distinct roots, staged into one cycle.
    let roots = [10u64, 20, 30, 10, 20];
    for &r in &roots {
        client.send(QueryOp::Distance, r, 1, 0, 0).unwrap();
    }
    wait_for_depth(&server, roots.len());
    server.resume();
    for _ in &roots {
        let a = answer(client.recv().unwrap());
        assert_eq!(a.status, QueryStatus::Ok);
        assert_eq!(a.batch_roots, 3, "one 3-root sweep serves the cycle");
    }

    // Re-asking a swept root is a cache hit: no sweep attribution.
    let a = answer(client.query(QueryOp::KHop, 20, 0, 1, 0).unwrap());
    assert_eq!(a.status, QueryStatus::Ok);
    assert_eq!(a.batch_roots, 0);

    let m = server.metrics();
    assert_eq!(m.get("serve.batches"), 1);
    assert_eq!(m.get("serve.swept_roots"), 3);
    assert_eq!(m.get("serve.max_roots_per_batch"), 3);
    assert_eq!(m.get("serve.coalesced"), 2);
    assert_eq!(m.get("serve.cache_hits"), 1);
    assert_eq!(m.get("serve.cache_misses"), 3);
    server.shutdown();
}

#[test]
fn out_of_range_queries_are_bad_not_fatal() {
    let el = graph();
    let n = el.num_vertices;
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();

    let bad_root = answer(client.query(QueryOp::Distance, n + 5, 0, 0, 0).unwrap());
    assert_eq!(bad_root.status, QueryStatus::BadQuery);
    let bad_target = answer(client.query(QueryOp::Reachable, 0, n, 0, 0).unwrap());
    assert_eq!(bad_target.status, QueryStatus::BadQuery);

    // KHop ignores `target`, so an out-of-range target is still valid.
    let ok = answer(client.query(QueryOp::KHop, 0, n + 9, 1, 0).unwrap());
    assert_eq!(ok.status, QueryStatus::Ok);

    let m = server.metrics();
    assert_eq!(m.get("serve.bad_queries"), 2);
    assert_eq!(m.get("serve.results_ok"), 1);
    server.shutdown();
}

#[test]
fn tcp_and_unix_serve_identical_answers() {
    let el = graph();
    let mut tcp = Server::start_tcp(&el, ServeConfig::default()).unwrap();
    let mut unix = Server::start(&el, ServeConfig::default()).unwrap();
    let mut ct = Client::connect(&tcp.addr()).unwrap();
    let mut cu = Client::connect(&unix.addr()).unwrap();
    for root in [2u64, 40, 600] {
        let at = answer(ct.query(QueryOp::KHop, root, 0, 3, 0).unwrap());
        let au = answer(cu.query(QueryOp::KHop, root, 0, 3, 0).unwrap());
        assert_eq!(at.value, au.value, "root {root}");
        assert_eq!(at.status, QueryStatus::Ok);
    }
    tcp.shutdown();
    unix.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_unblocks_clients() {
    let el = graph();
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(&addr).unwrap();
    let a = answer(client.query(QueryOp::Distance, 1, 2, 0, 0).unwrap());
    assert_eq!(a.status, QueryStatus::Ok);

    server.shutdown();
    server.shutdown(); // idempotent

    // The socket is gone: the pending read errors out instead of
    // hanging, and reconnecting fails.
    client.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    client.send(QueryOp::Distance, 1, 2, 0, 0).ok();
    assert!(client.recv().is_err(), "read after shutdown must fail");
    assert!(Client::connect(&addr).is_err(), "socket must be removed");

    if let sw_serve::ServerAddr::Unix(path) = &addr {
        assert!(!path.exists(), "unix socket file must be cleaned up");
    }
}

/// Polls until `n` queries are admitted and waiting (the server is
/// paused or its worker busy).
fn wait_for_depth(server: &Server, n: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.queue_depth() < n {
        assert!(std::time::Instant::now() < deadline, "queries never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A cached root's queries are answered by the connection's reader, a
/// miss by the worker. Mixed on one pipelined connection, the answers
/// still come back in send order, each with the oracle's value.
#[test]
fn pipelined_misses_and_hits_are_answered_in_send_order() {
    let el = graph();
    let n = el.num_vertices;
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();
    const HOT: u64 = 5;
    answer(client.query(QueryOp::Reachable, HOT, 1, 0, 0).unwrap());

    for round in 0..20u64 {
        // miss, hit, hit, miss, hit — fresh roots every round.
        let roots = [100 + 2 * round, HOT, HOT, 101 + 2 * round, HOT];
        let mut sent = Vec::new();
        for (i, &root) in roots.iter().enumerate() {
            let target = (root * 31 + i as u64) % n;
            let id = client.send(QueryOp::Distance, root, target, 0, 0).unwrap();
            sent.push((id, root, target));
        }
        for (id, root, target) in sent {
            let a = answer(client.recv().unwrap());
            assert_eq!(a.id, id, "round {round}: answers must keep send order");
            assert_eq!(a.status, QueryStatus::Ok);
            let want = bfs_levels_oracle(&el, root)[target as usize];
            let want = if want == u32::MAX { u64::MAX } else { u64::from(want) };
            assert_eq!(a.value, want, "distance {root}->{target}");
        }
    }
    let m = server.metrics();
    assert_eq!(m.get("serve.queries"), 1 + 5 * 20);
    assert_eq!(m.get("serve.results_ok"), 1 + 5 * 20);
    assert_eq!(m.get("serve.swept_roots"), 1 + 2 * 20);
    server.shutdown();
}

#[test]
fn paused_server_stages_cache_hits_too() {
    let el = graph();
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();
    answer(client.query(QueryOp::Reachable, 5, 1, 0, 0).unwrap());

    server.pause();
    for _ in 0..3 {
        client.send(QueryOp::Reachable, 5, 1, 0, 0).unwrap();
    }
    wait_for_depth(&server, 3);
    client.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    assert!(client.recv().is_err(), "a paused server must not answer, cached root or not");
    assert_eq!(server.queue_depth(), 3, "staged hits count as queued");

    server.resume();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..3 {
        let a = answer(client.recv().unwrap());
        assert_eq!((a.status, a.value, a.batch_roots), (QueryStatus::Ok, 1, 0));
    }
    assert_eq!(server.metrics().get("serve.cache_hits"), 3);
    server.shutdown();
}

/// While the worker is held up in one connection's cycle, another
/// connection's hit is answered at once by its own reader — and is in
/// `Server::metrics` by the time its answer can be read.
#[test]
fn a_hit_on_another_connection_does_not_wait_for_the_sweep() {
    const DELAY: Duration = Duration::from_millis(400);
    let el = graph();
    let cfg = ServeConfig {
        service_delay: DELAY,
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut first = Client::connect(&server.addr()).unwrap();
    let mut second = Client::connect(&server.addr()).unwrap();
    answer(second.query(QueryOp::Reachable, 5, 5, 0, 0).unwrap());

    // The miss is admitted before the hit is sent: staged while paused,
    // then released into a cycle that sits out the delay.
    server.pause();
    first.send(QueryOp::Distance, 900, 1, 0, 0).unwrap();
    wait_for_depth(&server, 1);
    server.resume();
    let before = server.metrics();
    let hit = answer(second.query(QueryOp::Reachable, 5, 5, 0, 0).unwrap());
    let after = server.metrics();
    assert_eq!((hit.status, hit.value, hit.batch_roots), (QueryStatus::Ok, 1, 0));
    assert!(
        u128::from(hit.micros) < DELAY.as_micros() / 2,
        "the hit waited {} us behind another connection's cycle",
        hit.micros
    );
    assert_eq!(
        after.get("serve.cache_hits"),
        before.get("serve.cache_hits") + 1,
        "the counters must already hold the hit when its answer can be read"
    );
    assert!(after.get("serve.queries") > before.get("serve.queries"));

    let miss = answer(first.recv().unwrap());
    assert_eq!(miss.status, QueryStatus::Ok);
    assert!(u128::from(miss.micros) >= DELAY.as_micros());
    server.shutdown();
}

/// A peer that pipelines a burst and closes without reading costs the
/// service that connection's replies and nothing else: the same cycle's
/// other connection is answered, and the server keeps serving.
#[test]
fn a_peer_that_vanishes_mid_burst_takes_only_its_own_replies() {
    let el = graph();
    let cfg = ServeConfig {
        start_paused: true,
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut vanishing = Client::connect(&server.addr()).unwrap();
    let mut staying = Client::connect(&server.addr()).unwrap();
    const BURST: usize = 64;
    for i in 0..BURST / 2 {
        vanishing.send(QueryOp::KHop, i as u64, 0, 2, 0).unwrap();
    }
    wait_for_depth(&server, BURST / 2);
    staying.send(QueryOp::Reachable, 7, 7, 0, 0).unwrap();
    wait_for_depth(&server, BURST / 2 + 1);
    for i in BURST / 2..BURST {
        vanishing.send(QueryOp::KHop, i as u64, 0, 2, 0).unwrap();
    }
    staying.send(QueryOp::Reachable, 8, 8, 0, 0).unwrap();
    wait_for_depth(&server, BURST + 2);
    drop(vanishing);
    server.resume();

    for _ in 0..2 {
        let a = answer(staying.recv().unwrap());
        assert_eq!((a.status, a.value), (QueryStatus::Ok, 1));
    }
    let a = answer(staying.query(QueryOp::KHop, 3, 0, 2, 0).unwrap());
    assert_eq!(a.status, QueryStatus::Ok);
    let m = server.metrics();
    assert_eq!(m.get("serve.queries"), BURST as u64 + 3);
    assert_eq!(m.get("serve.results_ok"), BURST as u64 + 3);
    server.shutdown();
}
