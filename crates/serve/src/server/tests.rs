//! In-crate tests: the k-hop memo against the scan it replaced, through
//! a running server, and the connection bookkeeping no client can see.

use super::*;
use crate::cache::khop_scan;
use crate::client::{Client, Response};
use sw_algos::msbfs::bfs_levels_oracle;
use sw_graph::{generate_kronecker, KroneckerConfig};

fn graph() -> EdgeList {
    generate_kronecker(&KroneckerConfig::graph500(10, 77))
}

fn value(r: Response) -> u64 {
    match r {
        Response::Answer(a) => {
            assert_eq!(a.status, QueryStatus::Ok);
            a.value
        }
        Response::Busy(b) => panic!("unexpected BUSY (depth {})", b.queue_depth),
    }
}

/// Every `hops` worth asking: each level, two past the deepest, the top.
fn all_hops(levels: &[u32]) -> impl Iterator<Item = u32> {
    let max_level = levels.iter().filter(|&&l| l != UNREACHED).max();
    (0..=max_level.map_or(0, |&l| l) + 2).chain([u32::MAX])
}

#[test]
fn khop_matches_the_scan_fresh_cached_evicted_and_reswept() {
    let el = graph();
    let cfg = ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();
    // Root 1, then root 900 takes the cache's only slot, then root 1 is
    // swept again: the first query of each visit builds the memo on a
    // fresh entry, the rest read it from the cached one.
    for root in [1u64, 900, 1] {
        let levels = bfs_levels_oracle(&el, root);
        assert!(levels.contains(&UNREACHED), "root {root} reaches everything");
        for hops in all_hops(&levels) {
            let got = value(client.query(QueryOp::KHop, root, 0, hops, 0).unwrap());
            assert_eq!(got, khop_scan(&levels, hops), "root {root} hops {hops}");
        }
    }
    let m = server.metrics();
    assert_eq!(m.get(c::SWEPT_ROOTS), 3, "root 1 must be evicted and swept twice");
    assert_eq!(m.get(c::CACHE_EVICTIONS), 2);
    server.shutdown();
}

/// At `hops = u32::MAX` a KHop counts the vertices the root reaches and
/// no others, on a fresh root (the word pass) and on a cached one (the
/// memo): an unreached vertex is within no number of hops.
#[test]
fn khop_at_the_top_counts_only_reached_vertices() {
    let el = graph();
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();
    let levels = bfs_levels_oracle(&el, 1);
    let reached = levels.iter().filter(|&&l| l != UNREACHED).count() as u64;
    assert!(reached < el.num_vertices, "root 1 reaches everything");
    for _ in 0..2 {
        let got = value(client.query(QueryOp::KHop, 1, 0, u32::MAX, 0).unwrap());
        assert_eq!(got, reached);
    }
    let m = server.metrics();
    assert_eq!(m.get(c::SWEPT_ROOTS), 1);
    assert_eq!(
        m.get(c::CACHE_HITS),
        1,
        "the second query must find the root cached"
    );
    server.shutdown();
}

#[test]
fn two_khops_coalesced_on_one_fresh_root_share_its_memo() {
    let el = graph();
    let cfg = ServeConfig {
        start_paused: true,
        ..ServeConfig::default()
    };
    let mut server = Server::start(&el, cfg).unwrap();
    let mut client = Client::connect(&server.addr()).unwrap();
    let levels = bfs_levels_oracle(&el, 33);
    for hops in [1, 2] {
        client.send(QueryOp::KHop, 33, 0, hops, 0).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.queue_depth() < 2 {
        assert!(Instant::now() < deadline, "the two queries were never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.resume();
    for hops in [1, 2] {
        assert_eq!(value(client.recv().unwrap()), khop_scan(&levels, hops));
    }
    let m = server.metrics();
    assert_eq!(m.get(c::BATCHES), 1);
    assert_eq!(m.get(c::COALESCED), 1);
    server.shutdown();
}

#[test]
fn connection_churn_leaves_the_handle_list_bounded() {
    let el = graph();
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    const CYCLES: usize = 200;
    for i in 0..CYCLES {
        let mut client = Client::connect(&server.addr()).unwrap();
        value(client.query(QueryOp::Reachable, (i % 7) as u64, 1, 0, 0).unwrap());
    }
    // Each accept reaps the readers that have seen their peer close; a
    // reader needs a moment to notice, so a few may still be listed.
    let held = server.shared.conns.lock().unwrap().len();
    assert!(held < CYCLES / 4, "{held} reader handles held after {CYCLES} closed connections");

    // The gauge counts open connections: this one, plus stragglers.
    let mut monitor = Client::connect(&server.addr()).unwrap();
    let stats = CounterSet::from_json(&monitor.stats_json().unwrap()).unwrap();
    let open = stats.get("live.serve.connections");
    assert!((1..CYCLES as u64 / 4).contains(&open), "{open} connections reported open");
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn flush_to_a_vanished_peer_drops_the_buffer() {
    use std::os::unix::net::UnixStream;
    let (ours, theirs) = UnixStream::pair().unwrap();
    let mut conn = Conn {
        stream: Stream::Unix(ours),
        buf: Vec::new(),
        in_flight: 0,
    };
    drop(theirs);
    conn.push(&Frame::control(KIND_QUERY, 0, 0, 0));
    assert!(conn.flush().is_err(), "the peer is gone");
    assert!(conn.buf.is_empty(), "the failed burst must not be kept");
    assert!(conn.flush().is_ok(), "an empty buffer writes nothing");
}

/// The worker answers a connection while that connection's reader sits
/// in a blocking read, so the reader must not keep the `Conn` lock over
/// the read. Here the test is the worker: it owns the queue a reader
/// admits to, and samples the lock while the reader idles.
#[cfg(unix)]
#[test]
fn an_idle_reader_does_not_hold_its_connection_lock() {
    use std::os::unix::net::UnixStream;
    let el = graph();
    let mut server = Server::start(&el, ServeConfig::default()).unwrap();
    let (ours, mut theirs) = UnixStream::pair().unwrap();
    let (tx, rx) = mpsc::sync_channel(4);
    let shared = Arc::clone(&server.shared);
    let reader = std::thread::spawn(move || reader_loop(Stream::Unix(ours), tx, shared));
    let miss = QueryFrame {
        id: 1,
        op: QueryOp::Reachable,
        root: 5,
        target: 6,
        hops: 0,
        deadline_ms: 0,
    };
    theirs.write_all(&miss.into_frame().encode()).unwrap();
    let job = rx.recv_timeout(Duration::from_secs(10)).expect("the miss is admitted");
    // Four read timeouts' worth of samples: a reader that locked across
    // its read would leave the lock free only between two reads.
    let free = (0..50)
        .filter(|_| {
            std::thread::sleep(Duration::from_millis(2));
            job.conn.try_lock().is_ok()
        })
        .count();
    assert!(free >= 45, "the connection lock was free in {free} of 50 samples");
    assert_eq!(job.conn.lock().unwrap().in_flight, 1);
    drop(theirs);
    reader.join().unwrap();
    server.shutdown();
}

/// A stats poll is answered on a reader thread and reads the handle
/// list for the `serve.connections` gauge; shutdown joins the readers.
/// It must not do that holding the list's lock: a poll that arrives
/// while its reader is still in the read it was in when shutdown began
/// would then wait for shutdown, and shutdown for it.
#[test]
fn shutdown_ends_under_stats_polling() {
    let el = graph();
    for _ in 0..10 {
        let mut server = Server::start(&el, ServeConfig::default()).unwrap();
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                let mut client = Client::connect(&server.addr()).unwrap();
                std::thread::spawn(move || {
                    while client.stats_json().is_ok() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(12));
        let (done_tx, done_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("shutdown hung with stats pollers connected");
        stopper.join().unwrap();
        pollers.into_iter().for_each(|p| p.join().unwrap());
    }
}
