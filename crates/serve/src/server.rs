//! The query server: admission → batcher → MS-BFS sweep → result
//! cache, behind a Unix-domain or TCP listener.
//!
//! One accept thread hands each connection to a reader thread; readers
//! admit `QUERY` frames onto one bounded queue (full queue → immediate
//! `BUSY`, never unbounded latency); a single worker thread owns the
//! graph cluster, drains the queue in FIFO order through
//! [`crate::batcher::CyclePlan`], runs at most one
//! [`sw_algos::msbfs`] sweep per cycle, and answers every query from a
//! root's level map — freshly swept or cached. A reader answers a query
//! itself when the root is cached and its connection has nothing at the
//! worker (so answers keep send order). Deadlines are enforced at
//! answer time as structured [`QueryStatus::Timeout`] results, so an
//! overloaded server degrades to late-but-shaped answers and sheds the
//! rest, instead of hanging clients.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sw_algos::msbfs::{msbfs_distributed, MAX_BATCH, UNREACHED};
use sw_algos::runtime::AlgoCluster;
use sw_graph::{EdgeList, StorageBackend, Vid};
use sw_net::framing::{
    BusyFrame, Frame, FrameDecoder, PayloadReader, QueryFrame, QueryOp, QueryStatus, ResultFrame,
    StatsFormat, StatsFrame, StatsReqFrame, KIND_QUERY, KIND_STATS_REQ,
};
use sw_trace::live::{LatencyHistogram, LivePlane, RollingCounter};
use sw_trace::{CounterSet, Tracer, NO_LEVEL};
use swbfs_core::config::Messaging;
use swbfs_core::instrument as ins;

use crate::batcher::{CyclePlan, Placement};
use crate::cache::{LevelCache, RootLevels};
use crate::counters as c;
use crate::wire::{frame_err, read_frame, ReadEvent, Stream};

/// How the server is reachable.
#[derive(Clone, Debug)]
pub enum ServerAddr {
    /// Path of a Unix-domain socket.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP endpoint on the loopback interface.
    Tcp(SocketAddr),
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Logical ranks of the in-process cluster.
    pub ranks: u32,
    /// Relay-group width of the cluster.
    pub group_size: u32,
    /// Exchange mode for sweep rounds.
    pub messaging: Messaging,
    /// Admission bound: queued-but-unanswered queries beyond this are
    /// shed with `BUSY`.
    pub max_queue: usize,
    /// Most roots one sweep may carry (clamped to [`MAX_BATCH`]).
    pub max_batch: usize,
    /// Hot-root level maps kept resident (0 disables the cache).
    pub cache_capacity: usize,
    /// Start with the worker paused — queries queue (and shed) but are
    /// not answered until [`Server::resume`]. Lets tests and `swgate`
    /// stage a whole burst into one deterministic cycle.
    pub start_paused: bool,
    /// Artificial pre-sweep delay per cycle, a test hook for exercising
    /// deadlines and overload without a slow graph.
    pub service_delay: Duration,
    /// Span recorder for `query`/`sweep` spans (counters are always on).
    pub tracer: Option<Tracer>,
    /// Queries slower than this (admission → answer, in microseconds)
    /// are recorded in the slow-query log with their bottleneck class;
    /// 0 disables the log.
    pub slow_query_micros: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            ranks: 4,
            group_size: 2,
            messaging: Messaging::Direct,
            max_queue: 256,
            max_batch: MAX_BATCH,
            cache_capacity: 32,
            start_paused: false,
            service_delay: Duration::ZERO,
            tracer: None,
            slow_query_micros: 100_000,
        }
    }
}

/// Refuses a rank count the graph cannot be partitioned over: at least
/// one rank, and no more ranks than vertices.
fn check_ranks(field: &str, ranks: u32, el: &EdgeList) -> io::Result<()> {
    if ranks == 0 || u64::from(ranks) > el.num_vertices {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{field}: {ranks} ranks for {} vertices", el.num_vertices),
        ));
    }
    Ok(())
}

/// Refuses relay groups of no ranks.
fn check_group_size(cfg: &ServeConfig) -> io::Result<()> {
    if cfg.group_size == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "ServeConfig::group_size: relay groups need at least one rank",
        ));
    }
    Ok(())
}

/// One entry of the slow-query log: a query whose admission-to-answer
/// latency crossed [`ServeConfig::slow_query_micros`], with enough
/// attribution to say *why* it was slow without replaying the trace.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query's correlation id.
    pub id: u64,
    /// Root vertex of the traversal.
    pub root: u64,
    /// The traversal operation.
    pub op: QueryOp,
    /// Admission-to-answer latency in microseconds.
    pub micros: u64,
    /// Synchronous rounds of the sweep that served it (0 = no sweep).
    pub rounds: u32,
    /// Roots in the batch that served it (0 = cache hit).
    pub batch_roots: u32,
    /// Bottleneck class: `"cache"` (slow despite a cache hit — queue
    /// wait dominated), `"sweep"` (the MS-BFS sweep dominated),
    /// `"queue"` (waiting for its cycle dominated), or `"bad"` (a
    /// malformed query that still crossed the threshold).
    pub class: &'static str,
}

/// Most recent slow queries kept; older entries are discarded first.
const SLOW_LOG_CAP: usize = 128;

/// One admitted query awaiting its cycle.
struct Job {
    query: QueryFrame,
    received: Instant,
    conn: Arc<Mutex<Conn>>,
}

/// A connection's write half, shared by its reader and the worker.
struct Conn {
    stream: Stream,
    /// Replies encoded in answer order and not yet written: one write
    /// per burst (reader) or per cycle (worker), not one per frame.
    buf: Vec<u8>,
    /// Queries of this connection admitted to the worker whose answers
    /// are not on the wire yet. The reader answers a cache hit itself
    /// only while this is zero, which keeps answers in send order.
    in_flight: usize,
}

impl Conn {
    fn push(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.buf);
    }

    /// Writes what [`Conn::push`] gathered. A failed write drops the
    /// buffer: the peer is gone and only its own replies go with it.
    fn flush(&mut self) -> io::Result<()> {
        let res = self.stream.write_all(&self.buf);
        self.buf.clear();
        res
    }
}

/// Per-burst tallies of the per-query `serve.*` counters: one merge
/// under the metrics lock per burst or cycle, not one per query.
#[derive(Default)]
struct Tally {
    queries: u64,
    cache_hits: u64,
    coalesced: u64,
    ok: u64,
    timeouts: u64,
    bad: u64,
}

/// State shared by the accept, reader, and worker threads.
struct Shared {
    stop: AtomicBool,
    paused: AtomicBool,
    /// Set by the worker only while it is sleeping in the paused
    /// state — the acknowledgement [`Server::pause`] blocks on.
    parked: AtomicBool,
    depth: AtomicUsize,
    max_queue: usize,
    metrics: Mutex<CounterSet>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    num_vertices: Vid,
    /// Hot-root level maps: filled by the worker, read by every thread.
    cache: Mutex<LevelCache>,
    /// The wall-clock telemetry plane — strictly beside the
    /// deterministic `metrics` above, never feeding into them.
    live: Arc<LivePlane>,
    /// Live instruments of the answer path, resolved once — recording
    /// is then one atomic op, no registry lock per query.
    lat_hist: Arc<LatencyHistogram>,
    answers_w: Arc<RollingCounter>,
    lookups_w: Arc<RollingCounter>,
    hits_w: Arc<RollingCounter>,
    /// Ring buffer of recent slow queries (newest at the back).
    slow: Mutex<VecDeque<SlowQuery>>,
    slow_threshold: u64,
    /// Kept for the stats endpoint's per-lane ring-drop gauges.
    tracer: Option<Tracer>,
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// A running query server. Dropping it shuts it down.
pub struct Server {
    addr: ServerAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
    /// Kept alive until shutdown so readers' sends see `Full`, not a
    /// disconnected channel, while the worker is busy.
    queue_tx: Option<SyncSender<Job>>,
    unix_dir: Option<PathBuf>,
}

impl Server {
    /// Loads `el` into an in-process cluster and starts serving on a
    /// fresh Unix-domain socket (TCP on non-Unix platforms).
    pub fn start(el: &EdgeList, cfg: ServeConfig) -> io::Result<Server> {
        check_ranks("ServeConfig::ranks", cfg.ranks, el)?;
        check_group_size(&cfg)?;
        // The cluster is built on the caller's thread (the partitioned
        // CSR builder, one rank per pool task) and moved into the worker.
        let t0 = Instant::now();
        let cluster = AlgoCluster::new(el, cfg.ranks, cfg.group_size, cfg.messaging);
        Self::start_cluster(cluster, cfg, "serve.store_build_micros", t0.elapsed())
    }

    /// Like [`Server::start`], but listening on an ephemeral loopback
    /// TCP port.
    pub fn start_tcp(el: &EdgeList, cfg: ServeConfig) -> io::Result<Server> {
        check_ranks("ServeConfig::ranks", cfg.ranks, el)?;
        check_group_size(&cfg)?;
        let t0 = Instant::now();
        let cluster = AlgoCluster::new(el, cfg.ranks, cfg.group_size, cfg.messaging);
        let micros = t0.elapsed();
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = ServerAddr::Tcp(listener.local_addr()?);
        let server = Self::spawn(cluster, cfg, Listener::Tcp(listener), addr, None)?;
        server
            .shared
            .live
            .histogram("serve.store_build_micros")
            .record(micros.as_micros() as u64);
        Ok(server)
    }

    /// The serve-forever half of build-once/serve-forever: restarts the
    /// service from a store directory persisted by
    /// [`Server::build_store`], mapping each partition in place — no
    /// Kronecker regeneration, no CSR rebuild, and (on the default
    /// [`StorageBackend::Mapped`]) zero adjacency bytes copied. The rank
    /// count comes from the store's manifest; [`ServeConfig::ranks`] is
    /// ignored. Query results are bit-identical to a cold
    /// [`Server::start`] on the same graph.
    pub fn start_from_store(
        dir: &std::path::Path,
        backend: StorageBackend,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        check_group_size(&cfg)?;
        let t0 = Instant::now();
        let cluster = AlgoCluster::from_store_dir(dir, backend, cfg.group_size, cfg.messaging)?;
        Self::start_cluster(cluster, cfg, "serve.store_map_micros", t0.elapsed())
    }

    /// The build-once half: partitions `el` across `ranks` and persists
    /// the store directory [`Server::start_from_store`] restarts from.
    pub fn build_store(el: &EdgeList, ranks: u32, dir: &std::path::Path) -> io::Result<()> {
        check_ranks("ranks", ranks, el)?;
        AlgoCluster::new(el, ranks, 1, Messaging::Direct).persist_store(dir)
    }

    /// Binds the default listener (Unix-domain socket; TCP elsewhere)
    /// and records the construction wall clock — `store_build` vs
    /// `store_map` is the live plane's cold-build/restart comparison.
    fn start_cluster(
        cluster: AlgoCluster,
        cfg: ServeConfig,
        build_histogram: &'static str,
        build_elapsed: Duration,
    ) -> io::Result<Server> {
        #[cfg(unix)]
        let server = {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "sw-serve-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir)?;
            let path = dir.join("sock");
            let listener = Listener::Unix(UnixListener::bind(&path)?);
            Self::spawn(cluster, cfg, listener, ServerAddr::Unix(path), Some(dir))?
        };
        #[cfg(not(unix))]
        let server = {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let addr = ServerAddr::Tcp(listener.local_addr()?);
            Self::spawn(cluster, cfg, Listener::Tcp(listener), addr, None)?
        };
        server
            .shared
            .live
            .histogram(build_histogram)
            .record(build_elapsed.as_micros() as u64);
        Ok(server)
    }

    fn spawn(
        cluster: AlgoCluster,
        cfg: ServeConfig,
        listener: Listener,
        addr: ServerAddr,
        unix_dir: Option<PathBuf>,
    ) -> io::Result<Server> {
        listener.set_nonblocking()?;
        let max_batch = cfg.max_batch.clamp(1, MAX_BATCH);
        let live = Arc::new(LivePlane::new());
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(cfg.start_paused),
            parked: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
            max_queue: cfg.max_queue.max(1),
            metrics: Mutex::new(CounterSet::new()),
            conns: Mutex::new(Vec::new()),
            num_vertices: cluster.num_vertices(),
            cache: Mutex::new(LevelCache::new(cfg.cache_capacity)),
            lat_hist: live.histogram("serve.latency_micros"),
            answers_w: live.window("serve.answers"),
            lookups_w: live.window("serve.lookups"),
            hits_w: live.window("serve.cache_hits"),
            live,
            slow: Mutex::new(VecDeque::new()),
            slow_threshold: cfg.slow_query_micros,
            tracer: cfg.tracer.clone(),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(shared.max_queue);

        // Surface the cluster's construction-time storage accounting
        // through the server's counter snapshot and stats endpoint: the
        // `store.*` keys exist on every server (zero for a cold build)
        // and prove the zero-copy property after a store restart.
        shared
            .metrics
            .lock()
            .unwrap()
            .merge_prefixed("store.", &cluster.metrics().section("store."));
        let worker = {
            let shared = Arc::clone(&shared);
            let delay = cfg.service_delay;
            std::thread::Builder::new()
                .name("sw-serve-worker".into())
                .spawn(move || worker_loop(cluster, rx, shared, max_batch, delay))?
        };

        let accept = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("sw-serve-accept".into())
                .spawn(move || accept_loop(listener, tx, shared))?
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            worker: Some(worker),
            queue_tx: Some(tx),
            unix_dir,
        })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> ServerAddr {
        self.addr.clone()
    }

    /// A snapshot of the accumulated `serve.*` counters.
    pub fn metrics(&self) -> CounterSet {
        self.shared.metrics.lock().unwrap().clone()
    }

    /// The server's live telemetry plane — the same registry the
    /// STATS endpoint exports, for in-process consumers.
    pub fn live(&self) -> Arc<LivePlane> {
        Arc::clone(&self.shared.live)
    }

    /// Recent slow queries, oldest first (bounded ring of the last 128
    /// entries).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.slow.lock().unwrap().iter().cloned().collect()
    }

    /// Holds the worker: queries keep queuing (and shedding past the
    /// admission bound) but no cycle runs until [`Server::resume`].
    ///
    /// Blocks until the worker has finished any in-flight cycle and
    /// actually parked, so everything sent after `pause` returns is
    /// guaranteed to be staged, not served early.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
        while !self.shared.parked.load(Ordering::SeqCst)
            && !self.shared.stop.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Releases a [`Server::pause`] — the worker drains everything
    /// queued in FIFO order.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
    }

    /// Queries currently admitted but not yet dequeued.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains the threads, and removes the socket.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Un-pause so a held worker can observe the stop flag promptly.
        self.shared.paused.store(false, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Taken out first: a reader answering a stats poll wants this
        // lock, and joining it while holding the lock would never end.
        let readers = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for h in readers {
            let _ = h.join();
        }
        // With the accept thread and every reader gone, dropping the
        // last sender lets the worker's recv disconnect.
        self.queue_tx = None;
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        if let Some(dir) = self.unix_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: Listener, tx: SyncSender<Job>, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let tx = tx.clone();
                let sh = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("sw-serve-conn".into())
                    .spawn(move || reader_loop(stream, tx, sh));
                if let Ok(h) = handle {
                    // Readers whose peer has gone are let go here, or
                    // connection churn grows the list without bound.
                    let mut conns = shared.conns.lock().unwrap();
                    conns.retain(|h| !h.is_finished());
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn reader_loop(stream: Stream, tx: SyncSender<Job>, shared: Arc<Shared>) {
    let conn = match stream.try_clone() {
        Ok(stream) => Arc::new(Mutex::new(Conn { stream, buf: Vec::new(), in_flight: 0 })),
        Err(_) => return,
    };
    let mut stream = stream;
    if stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .is_err()
    {
        return;
    }
    let tr = shared.tracer.as_ref();
    let mut dec = FrameDecoder::new();
    let mut tally = Tally::default();
    while !shared.stop.load(Ordering::SeqCst) {
        let frame = match dec.next_frame().map_err(frame_err) {
            Ok(Some(f)) => f,
            // The decoder ran dry: the burst ends here, its replies go
            // out in one write before the read blocks (and the lock is
            // released before it does).
            Ok(None) => {
                let flushed = shared.end_burst(&mut tally, &mut conn.lock().unwrap());
                match flushed.and_then(|()| read_frame(&mut stream, &mut dec)) {
                    Ok(ReadEvent::Frame(f)) => f,
                    Ok(ReadEvent::TimedOut) => continue,
                    Ok(ReadEvent::Closed) | Err(_) => break,
                }
            }
            Err(_) => break,
        };
        if frame.kind == KIND_STATS_REQ {
            // Telemetry polls are answered right here on the reader
            // thread: they never enter admission (so they cannot be
            // shed and cannot displace a query) and they never touch
            // the deterministic `serve.*` counters.
            match StatsReqFrame::from_frame(&frame) {
                Ok(req) => {
                    let body = stats_body(&shared, req.format);
                    let resp = StatsFrame {
                        id: req.id,
                        format: req.format,
                        body,
                    };
                    conn.lock().unwrap().push(&resp.into_frame());
                }
                Err(_) => break,
            }
            continue;
        }
        if frame.kind != KIND_QUERY {
            // A peer speaking the wrong protocol gets disconnected
            // rather than interpreted.
            break;
        }
        match QueryFrame::from_frame(&frame) {
            Ok(query) => {
                let received = Instant::now();
                let mut out = conn.lock().unwrap();
                // A cache hit is answered where it arrived, unless the
                // server is paused (everything stages) or an earlier
                // query of this connection is still at the worker (its
                // answer must go out first).
                let entry = valid_root(&query, shared.num_vertices)
                    .filter(|_| out.in_flight == 0 && !shared.paused.load(Ordering::SeqCst))
                    .and_then(|root| shared.cache.lock().unwrap().get(root));
                if let Some(entry) = entry {
                    let t0 = ins::span_begin(tr);
                    let res = answer(&query, Some(&entry), Placement::CacheHit, 0, received);
                    shared.record(&mut tally, &query, &res, Placement::CacheHit, 0, 0);
                    out.push(&res.into_frame());
                    ins::span_end(tr, 0, c::SPAN_QUERY, c::CAT_SERVE, NO_LEVEL, t0, res.micros);
                    continue;
                }
                // Replies gathered so far leave, tallied, before the
                // worker can write this query's: its write carries the
                // whole buffer, and bytes must not overtake their counters.
                if shared.end_burst(&mut tally, &mut out).is_err() {
                    break;
                }
                out.in_flight += 1;
                drop(out);
                let job = Job {
                    query,
                    received,
                    conn: Arc::clone(&conn),
                };
                match tx.try_send(job) {
                    Ok(()) => {
                        shared.depth.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(TrySendError::Full(job)) => {
                        shared.metrics.lock().unwrap().add(c::SHED, 1);
                        shared.live.window("serve.shed").record_now(1);
                        let busy = BusyFrame {
                            id: job.query.id,
                            queue_depth: shared.depth.load(Ordering::SeqCst) as u32,
                            queue_limit: shared.max_queue as u32,
                        };
                        let mut out = conn.lock().unwrap();
                        out.in_flight -= 1;
                        out.push(&busy.into_frame());
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) => {
                // Structurally broken QUERY payload: answer BadQuery on
                // a best-effort id (the first 8 payload bytes) so the
                // client's correlation does not silently leak.
                shared.metrics.lock().unwrap().add(c::BAD_QUERIES, 1);
                let id = PayloadReader::new(&frame.payload, "").u64().unwrap_or(0);
                let res = ResultFrame {
                    id,
                    status: QueryStatus::BadQuery,
                    value: 0,
                    batch_roots: 0,
                    micros: 0,
                };
                conn.lock().unwrap().push(&res.into_frame());
            }
        }
    }
    // Whatever ended the loop, replies already computed still go out.
    let _ = shared.end_burst(&mut tally, &mut conn.lock().unwrap());
}

/// Renders the stats endpoint's body: point-in-time gauges are
/// refreshed first, then the live plane and a snapshot of the
/// deterministic `serve.*` counters are concatenated into one view.
/// Reading the deterministic counters is the only contact between the
/// planes — strictly a read, under the same lock `Server::metrics`
/// takes.
fn stats_body(shared: &Shared, format: StatsFormat) -> Vec<u8> {
    // Refresh exported gauges.
    shared
        .live
        .gauge("serve.inflight")
        .store(shared.depth.load(Ordering::SeqCst) as u64, Ordering::Relaxed);
    let open = shared.conns.lock().unwrap().iter().filter(|h| !h.is_finished()).count();
    shared.live.gauge("serve.connections").store(open as u64, Ordering::Relaxed);
    shared.live.gauge("serve.slow_queries").store(
        shared.slow.lock().unwrap().len() as u64,
        Ordering::Relaxed,
    );
    if let Some(tr) = &shared.tracer {
        // Per-lane EventRing overflow drops: silent trace loss becomes
        // a live, per-rank visible number.
        for lane in 0..tr.num_lanes() {
            let name = tr.lane_name(lane).to_string();
            shared
                .live
                .gauge(&format!("trace.{name}.dropped"))
                .store(tr.lane_dropped(lane), Ordering::Relaxed);
            shared
                .live
                .gauge(&format!("trace.{name}.events"))
                .store(tr.lane_recorded(lane) as u64, Ordering::Relaxed);
        }
    }
    match format {
        StatsFormat::Json => {
            let mut cs = shared.live.to_counters();
            cs.merge(&shared.metrics.lock().unwrap());
            cs.to_json().into_bytes()
        }
        StatsFormat::Prometheus => {
            let mut text = shared.live.to_prometheus();
            // The deterministic counters ride along as plain counter
            // families so one scrape sees both planes.
            for (name, v) in shared.metrics.lock().unwrap().iter() {
                let m: String = name
                    .chars()
                    .map(|ch| if ch.is_ascii_alphanumeric() || ch == '_' { ch } else { '_' })
                    .collect();
                text.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
            }
            text.into_bytes()
        }
    }
}

/// Is the query answerable, and from which root's level map?
fn valid_root(q: &QueryFrame, n: Vid) -> Option<Vid> {
    if q.root >= n {
        return None;
    }
    match q.op {
        QueryOp::Distance | QueryOp::Reachable if q.target >= n => None,
        _ => Some(q.root),
    }
}

/// Answers one admitted query — the status, deadline and value rules of
/// the service, for whichever thread holds the query. `entry` is the
/// root's level map (`None` only for [`Placement::NoSweep`]) and
/// `sweep_roots` the width of the sweep that produced it this cycle.
fn answer(
    q: &QueryFrame,
    entry: Option<&RootLevels>,
    placement: Placement,
    sweep_roots: u32,
    received: Instant,
) -> ResultFrame {
    let elapsed = received.elapsed();
    let deadline = Duration::from_millis(u64::from(q.deadline_ms));
    let (status, value) = if placement == Placement::NoSweep {
        (QueryStatus::BadQuery, 0)
    } else if q.deadline_ms > 0 && elapsed > deadline {
        (QueryStatus::Timeout, 0)
    } else {
        let entry = entry.expect("accepted root resident after sweep");
        let value = match q.op {
            QueryOp::Distance => match entry.level(q.target) {
                UNREACHED => u64::MAX,
                l => u64::from(l),
            },
            QueryOp::Reachable => u64::from(entry.level(q.target) != UNREACHED),
            QueryOp::KHop if placement == Placement::CacheHit => entry.within(q.hops),
            QueryOp::KHop => entry.count_within(q.hops),
        };
        (QueryStatus::Ok, value)
    };
    ResultFrame {
        id: q.id,
        status,
        value,
        batch_roots: match placement {
            Placement::CacheHit | Placement::NoSweep => 0,
            Placement::FreshRoot | Placement::Coalesced => sweep_roots,
        },
        micros: elapsed.as_micros() as u64,
    }
}

impl Tally {
    /// Moves the tallies into `cs` and onto the live windows. A key
    /// appears in `cs` only once its event has happened, as when every
    /// query added its own.
    fn drain(&mut self, cs: &mut CounterSet, shared: &Shared) {
        for (key, v) in [
            (c::QUERIES, self.queries),
            (c::CACHE_HITS, self.cache_hits),
            (c::COALESCED, self.coalesced),
            (c::RESULTS_OK, self.ok),
            (c::TIMEOUTS, self.timeouts),
            (c::BAD_QUERIES, self.bad),
        ] {
            if v > 0 {
                cs.add(key, v);
            }
        }
        shared.answers_w.record_now(self.queries);
        shared.lookups_w.record_now(self.queries);
        shared.hits_w.record_now(self.cache_hits);
        *self = Tally::default();
    }
}

impl Shared {
    /// Accounts one answer: the burst's tally, the latency histogram
    /// and the slow-query log (`sweep_micros`/`sweep_rounds` describe
    /// the sweep that served it, zero without one).
    fn record(
        &self,
        tally: &mut Tally,
        q: &QueryFrame,
        res: &ResultFrame,
        placement: Placement,
        sweep_micros: u64,
        sweep_rounds: u32,
    ) {
        tally.queries += 1;
        match placement {
            Placement::CacheHit => tally.cache_hits += 1,
            Placement::Coalesced => tally.coalesced += 1,
            Placement::FreshRoot | Placement::NoSweep => {}
        }
        match res.status {
            QueryStatus::Ok => tally.ok += 1,
            QueryStatus::Timeout => tally.timeouts += 1,
            QueryStatus::BadQuery => tally.bad += 1,
        }
        self.lat_hist.record(res.micros);
        if self.slow_threshold > 0 && res.micros >= self.slow_threshold {
            let class = match placement {
                Placement::NoSweep => "bad",
                Placement::CacheHit => "cache",
                // The sweep is charged when it accounts for most of
                // the latency; otherwise the query spent its time
                // waiting for its cycle.
                _ if sweep_micros * 2 >= res.micros => "sweep",
                _ => "queue",
            };
            let mut slow = self.slow.lock().unwrap();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(SlowQuery {
                id: q.id,
                root: q.root,
                op: q.op,
                micros: res.micros,
                rounds: if res.batch_roots == 0 { 0 } else { sweep_rounds },
                batch_roots: res.batch_roots,
                class,
            });
        }
    }

    /// Ends a reader's burst: its tallies merge first, so a client that
    /// reads `Server::metrics` right after an answer arrives sees it
    /// counted, then its replies go out in one write.
    fn end_burst(&self, tally: &mut Tally, conn: &mut Conn) -> io::Result<()> {
        if tally.queries > 0 {
            tally.drain(&mut self.metrics.lock().unwrap(), self);
        }
        conn.flush()
    }
}

/// The worker: one service cycle per iteration — collect, sweep once,
/// answer everything collected.
fn worker_loop(
    mut cluster: AlgoCluster,
    rx: Receiver<Job>,
    shared: Arc<Shared>,
    max_batch: usize,
    delay: Duration,
) {
    let n = shared.num_vertices;
    let mut evictions_seen = 0u64;
    let mut carry: Option<Job> = None;
    let mut cycle = 0u32;
    let tr = shared.tracer.as_ref();
    let sweep_lane = tr.map_or(0, |t| 1 % t.num_lanes().max(1));
    // A wall-clock measurement beside the deterministic `local`
    // counters below, never mixed into them.
    let sweep_hist = shared.live.histogram("serve.sweep_micros");

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if shared.paused.load(Ordering::SeqCst) {
            shared.parked.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        shared.parked.store(false, Ordering::SeqCst);

        // Collect the cycle: the carried query (if any) goes first,
        // then everything already queued, FIFO, until a root doesn't
        // fit the sweep.
        let first = match carry.take() {
            Some(job) => job,
            None => match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(job) => {
                    shared.depth.fetch_sub(1, Ordering::SeqCst);
                    job
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };

        let mut local = CounterSet::new();
        let mut plan = CyclePlan::new(max_batch);
        let mut resident: HashMap<Vid, Arc<RootLevels>> = HashMap::new();
        let mut jobs: Vec<Job> = Vec::new();
        let mut pending = Some(first);
        loop {
            let job = match pending.take() {
                Some(j) => j,
                None => match rx.try_recv() {
                    Ok(j) => {
                        shared.depth.fetch_sub(1, Ordering::SeqCst);
                        j
                    }
                    Err(_) => break,
                },
            };
            let root = valid_root(&job.query, n);
            let hit = match root {
                Some(r) if resident.contains_key(&r) => true,
                Some(r) => {
                    if let Some(entry) = shared.cache.lock().unwrap().get(r) {
                        resident.insert(r, entry);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            match plan.offer(root, hit) {
                Some(_) => jobs.push(job),
                None => {
                    local.add(c::CARRIED, 1);
                    carry = Some(job);
                    break;
                }
            }
        }

        // Test hook: make the service measurably slow so deadline and
        // overload paths are exercisable without a huge graph.
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }

        // One sweep answers every uncached root of the cycle.
        let mut sweep_micros = 0u64;
        let mut sweep_rounds = 0u32;
        if !plan.roots.is_empty() {
            let t0 = ins::span_begin(tr);
            let wall0 = Instant::now();
            let mut out = msbfs_distributed(&mut cluster, &plan.roots);
            sweep_micros = wall0.elapsed().as_micros() as u64;
            sweep_rounds = out.rounds;
            sweep_hist.record(sweep_micros);
            let mut cache = shared.cache.lock().unwrap();
            for (&root, levels) in out.sources.iter().zip(out.levels.drain(..)) {
                let entry = Arc::new(RootLevels::new(levels));
                cache.put(root, Arc::clone(&entry));
                resident.insert(root, entry);
            }
            drop(cache);
            local.add(c::BATCHES, 1);
            local.add(c::SWEPT_ROOTS, plan.roots.len() as u64);
            local.add(c::CACHE_MISSES, plan.roots.len() as u64);
            local.record(c::MAX_ROOTS_PER_BATCH, plan.roots.len() as u64);
            local.add(c::SWEEP_ROUNDS, u64::from(out.rounds));
            ins::span_end(
                tr,
                sweep_lane,
                c::SPAN_SWEEP,
                c::CAT_SERVE,
                cycle,
                t0,
                plan.roots.len() as u64,
            );
        }

        // Answer phase: compute every accepted query's result first, in
        // admission order.
        let mut tally = Tally::default();
        let mut answers: Vec<(ResultFrame, u64)> = Vec::with_capacity(jobs.len());
        for (job, &placement) in jobs.iter().zip(&plan.placements) {
            let q = &job.query;
            let t0 = ins::span_begin(tr);
            let entry = resident.get(&q.root).map(Arc::as_ref);
            let res = answer(q, entry, placement, plan.roots.len() as u32, job.received);
            shared.record(&mut tally, q, &res, placement, sweep_micros, sweep_rounds);
            answers.push((res, t0));
        }

        // Flush counters *before* the replies go out, so a client that
        // reads `Server::metrics` right after its answer arrives always
        // sees the cycle that produced it.
        tally.drain(&mut local, &shared);
        let evictions = shared.cache.lock().unwrap().evictions();
        local.add(c::CACHE_EVICTIONS, evictions - evictions_seen);
        evictions_seen = evictions;
        shared.metrics.lock().unwrap().merge(&local);

        // One write per run of a connection's answers; a vanished peer
        // fails its own write and nobody else's. The run leaves
        // `in_flight` under the lock that writes it, so no client sees
        // an answer its reader still counts.
        let mut rest = answers.as_slice();
        for run in jobs.chunk_by(|a, b| Arc::ptr_eq(&a.conn, &b.conn)) {
            let (mine, later) = rest.split_at(run.len());
            rest = later;
            let mut out = run[0].conn.lock().unwrap();
            mine.iter().for_each(|(res, _)| out.push(&res.into_frame()));
            out.in_flight -= run.len();
            let _ = out.flush();
            drop(out);
            for (res, t0) in mine {
                ins::span_end(tr, 0, c::SPAN_QUERY, c::CAT_SERVE, cycle, *t0, res.micros);
            }
        }
        cycle = cycle.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests;
