//! `serve_sat`, `serve_hit`: the query service under one closed loop on
//! one pipelined connection from one load thread.
//!
//! The two differ only in what the loop makes the server do:
//! * `Sat` — W = 192 outstanding distinct roots: the admission queue
//!   always holds at least 64, so every sweep is a full FIFO batch of 64
//!   whatever the timing (README, lesson 1: with W <= 64 the batch split
//!   a start-up race picked persists, and throughput with it).
//! * `Hit` — 24 hot roots inside the 32-entry cache, W = 64: no sweeps.
//!
//! The loop is never drained between trials — a trial is each
//! consecutive `ops` answers — so no partial batch appears at a
//! boundary.

use crate::catalogue::Metrics;
use crate::g500::sample_roots;
use crate::reference::{answer, Reference};
use crate::run::{Opts, Trial, Workload, GRAPH_SEED};
use crate::spans::Harness;
use crate::stats::{median, SplitMix};
use crate::window::{Step, Window};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sw_graph::{generate_kronecker, KroneckerConfig, StorageBackend, Vid};
use sw_net::framing::{QueryOp, QueryStatus};
use sw_serve::{Client, Response, ServeConfig, Server};
use sw_trace::CounterSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Sat,
    Hit,
}

/// Hot roots of `serve_hit`: fewer than `cache_capacity` (32), so none
/// is ever evicted.
const HOT_ROOTS: usize = 24;

#[derive(Clone, Copy)]
struct Query {
    op: QueryOp,
    root: Vid,
    target: Vid,
    hops: u32,
    expected: u64,
}

struct Live {
    server: Server,
    client: Client,
    window: Window,
    /// Send time of operation `j`, at `j % w`.
    sent_at: Vec<Instant>,
    /// Correlation id of operation 0 on this connection.
    base_id: u64,
    /// End of the previous trial: the next one starts there.
    boundary: Option<Instant>,
    /// `serve.*` counters at the end of the first (warm-up) trial.
    after_warmup: Option<CounterSet>,
}

pub struct Serve {
    mode: Mode,
    scale: u32,
    reps: usize,
    w: u64,
    queries: Vec<Query>,
    /// Root of the set-up's first query; in no trial.
    probe_root: Vid,
    hot: Vec<Vid>,
    store_dir: Option<PathBuf>,
    live: Option<Live>,
    generate_s: f64,
    start_s: f64,
    warm_s: f64,
    /// Last trial: `ResultFrame.micros`, and client latency minus it.
    server_us: Vec<f64>,
    overhead_us: Vec<f64>,
    /// FNV of the answers of the last trial, in operation order.
    digest: u64,
}

fn serve_config(h: &Harness, start_paused: bool) -> ServeConfig {
    ServeConfig {
        ranks: 8,
        tracer: h.tracer(),
        start_paused,
        ..ServeConfig::default()
    }
}

impl Serve {
    pub fn new(o: &Opts, mode: Mode) -> Result<Self, String> {
        // A trial is one pass over the `nq` queries.
        let (scale, w, nq, reps) = match mode {
            Mode::Sat => (15, 192, 1024, 9),
            Mode::Hit => (16, 64, 10_000, 15),
        };
        let (scale, reps) = if o.quick { (12, 3) } else { (scale, reps) };
        let el = generate_kronecker(&KroneckerConfig::graph500(scale, GRAPH_SEED));
        let reference = Reference::new(&el);
        let n = el.num_vertices;
        let mut rng = SplitMix(o.seed ^ 0x5e72_7665);
        let distinct = if mode == Mode::Hit { HOT_ROOTS } else { nq };
        let mut roots = sample_roots(&reference, distinct + 1, o.seed);
        let probe_root = roots.pop().expect("one root more than the trial needs");

        // Distance : Reachable : KHop(2) = 2 : 1 : 1.
        let mut queries: Vec<Query> = (0..nq)
            .map(|i| {
                let root = match mode {
                    Mode::Hit => roots[rng.below(HOT_ROOTS as u64) as usize],
                    _ => roots[i],
                };
                let (op, hops) = match i % 4 {
                    0 | 1 => (QueryOp::Distance, 0),
                    2 => (QueryOp::Reachable, 0),
                    _ => (QueryOp::KHop, 2),
                };
                Query {
                    op,
                    root,
                    target: rng.below(n),
                    hops,
                    expected: 0,
                }
            })
            .collect();
        for chunk in roots.chunks(64) {
            let levels = reference.levels(chunk);
            for q in queries.iter_mut() {
                if let Some(k) = chunk.iter().position(|&r| r == q.root) {
                    q.expected = answer(q.op, &levels[k], q.target, q.hops);
                }
            }
        }

        let store_dir = if mode == Mode::Hit {
            // Persisted once, untimed: serve_hit measures the restart.
            let dir = std::env::temp_dir().join(format!("swperf-store-{}", std::process::id()));
            Server::build_store(&el, 8, &dir).map_err(|e| format!("build_store: {e}"))?;
            Some(dir)
        } else {
            None
        };
        Ok(Self {
            mode,
            scale,
            reps,
            w,
            queries,
            probe_root,
            hot: if mode == Mode::Hit { roots } else { Vec::new() },
            store_dir,
            live: None,
            generate_s: 0.0,
            start_s: 0.0,
            warm_s: 0.0,
            server_us: Vec::new(),
            overhead_us: Vec::new(),
            digest: 0,
        })
    }

    /// Sends `roots` as one pipelined burst of KHop queries and waits
    /// for every answer. The server was started paused and is released
    /// once the whole burst is admitted, so the burst is one sweep
    /// whatever the timing (not one sweep of however many queries the
    /// worker found queued when it woke, and another of the rest).
    fn burst(server: &Server, client: &mut Client, roots: &[Vid]) -> Result<(), String> {
        for &r in roots {
            client
                .send(QueryOp::KHop, r, 0, 1, 0)
                .map_err(|e| format!("send: {e}"))?;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.queue_depth() < roots.len() {
            if Instant::now() > deadline {
                return Err("set-up burst never fully admitted".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.resume();
        for _ in roots {
            match client.recv().map_err(|e| format!("recv: {e}"))? {
                Response::Answer(a) if a.status == QueryStatus::Ok => {}
                other => return Err(format!("set-up query refused: {other:?}")),
            }
        }
        Ok(())
    }
}

impl Workload for Serve {
    fn setup_reps(&self) -> usize {
        self.reps
    }

    fn lanes(&self) -> Vec<String> {
        vec!["query".into(), "sweep".into()]
    }

    fn ring_capacity(&self) -> usize {
        // Four trials of query spans on one lane, send + recv spans on
        // the harness lane.
        (self.queries.len() * 8 + 1024).next_power_of_two()
    }

    fn set_up(&mut self, h: &Harness) -> Result<(), String> {
        let cfg = serve_config(h, true);
        let (server, start_s) = match &self.store_dir {
            Some(dir) => h.span("restart", 0, || {
                Server::start_from_store(dir, StorageBackend::Mapped, cfg)
            }),
            None => {
                let kron = KroneckerConfig::graph500(self.scale, GRAPH_SEED);
                let (el, gen_s) =
                    h.span("generate", kron.num_edges(), || generate_kronecker(&kron));
                self.generate_s = gen_s;
                h.span("start", 0, || Server::start(&el, cfg))
            }
        };
        let server = server.map_err(|e| format!("server start: {e}"))?;
        self.start_s = start_s;
        let warm_roots = if self.mode == Mode::Hit {
            self.hot.clone()
        } else {
            vec![self.probe_root]
        };
        let (client, warm_s) = h.span("warm", warm_roots.len() as u64, || {
            let mut client =
                Client::connect(&server.addr()).map_err(|e| format!("connect: {e}"))?;
            Self::burst(&server, &mut client, &warm_roots)?;
            Ok::<_, String>(client)
        });
        self.warm_s = warm_s;
        let base_id = warm_roots.len() as u64 + 1;
        self.live = Some(Live {
            server,
            client: client?,
            window: Window::new(self.w),
            sent_at: vec![Instant::now(); self.w as usize],
            base_id,
            boundary: None,
            after_warmup: None,
        });
        Ok(())
    }

    fn tear_down(&mut self) {
        if let Some(mut live) = self.live.take() {
            while let Some(Step::Recv) = live.window.next(false) {
                if live.client.recv().is_err() {
                    break;
                }
            }
            drop(live.client);
            live.server.shutdown();
        }
    }

    fn trial(&mut self, h: &Harness) -> Result<Trial, String> {
        let live = self.live.as_mut().ok_or("trial without set-up")?;
        let (w, ops) = (self.w, self.queries.len());
        let nq = ops as u64;
        let mut lat_ms = vec![f64::INFINITY; ops];
        // Every quarter of the trial is timed too (4 sweeps of serve_sat,
        // 2500 answers of serve_hit): throughput comes from the least
        // time of each of these windows over the trials.
        let window = (ops / 4).max(1);
        let (mut window_start, mut window_ok) = (None::<Instant>, 0u64);
        let mut windows = Vec::new();
        self.server_us.clear();
        self.overhead_us.clear();
        let mut digest = crate::stats::Fnv::default();
        let (mut ok, mut failed) = (0u64, 0u64);
        let span0 = h.begin();
        let start = live.boundary.unwrap_or_else(Instant::now);
        let mut got = 0;
        while got < ops {
            match live
                .window
                .next(true)
                .expect("a filling window always has a step")
            {
                Step::Send(j) => {
                    let q = self.queries[(j % nq) as usize];
                    live.sent_at[(j % w) as usize] = Instant::now();
                    let (id, _) = h.span("send", j, || {
                        live.client.send(q.op, q.root, q.target, q.hops, 0)
                    });
                    let id = id.map_err(|e| format!("send: {e}"))?;
                    if id != live.base_id + j {
                        return Err(format!(
                            "operation {j} got id {id}, not {}",
                            live.base_id + j
                        ));
                    }
                }
                Step::Recv => {
                    let (resp, _) = h.span("recv", got as u64, || live.client.recv());
                    let now = Instant::now();
                    got += 1;
                    match resp.map_err(|e| format!("recv: {e}"))? {
                        Response::Answer(a) => {
                            let j = a.id.wrapping_sub(live.base_id);
                            let q = self.queries[(j % nq) as usize];
                            let lat = now.duration_since(live.sent_at[(j % w) as usize]);
                            lat_ms[(j % nq) as usize] = lat.as_secs_f64() * 1e3;
                            self.server_us.push(a.micros as f64);
                            self.overhead_us
                                .push(lat.as_secs_f64() * 1e6 - a.micros as f64);
                            digest.words(&[q.op as u64, q.root, q.target, a.value]);
                            if a.status == QueryStatus::Ok {
                                ok += 1;
                                window_ok += 1;
                            }
                            if a.status != QueryStatus::Ok || a.value != q.expected {
                                eprintln!(
                                    "swperf: {:?} root {} target {}: {:?} {} (expected {})",
                                    q.op, q.root, q.target, a.status, a.value, q.expected
                                );
                                failed += 1;
                            }
                        }
                        Response::Busy(b) => {
                            eprintln!("swperf: query {} shed at depth {}", b.id, b.queue_depth);
                            failed += 1;
                        }
                    }
                    if got % window == 0 {
                        let from = window_start.unwrap_or(start);
                        let secs = now.duration_since(from).as_secs_f64();
                        windows.push((window_ok as f64, secs));
                        (window_start, window_ok) = (Some(now), 0);
                    }
                }
            }
        }
        let end = Instant::now();
        live.boundary = Some(end);
        h.end("trial", got as u64, span0);
        if live.after_warmup.is_none() {
            live.after_warmup = Some(live.server.metrics());
        }
        self.digest = digest.finish();
        if ok == 0 {
            return Err("no query of the trial was answered".into());
        }
        Ok(Trial {
            throughput: ok as f64 / end.duration_since(start).as_secs_f64(),
            windows,
            lat_ms,
            attempted: nq,
            failed,
        })
    }

    /// `Sat` sweeps full FIFO batches of 64: query `i` waits behind the
    /// same queries in every trial. `Hit` answers from the cache in
    /// whatever interleaving of reader and worker the moment gives.
    fn fixed_queueing(&self) -> bool {
        self.mode == Mode::Sat
    }

    /// Every answer was compared with the reference's as it arrived.
    fn verify(&mut self, _h: &Harness) -> Result<(u64, u64), String> {
        Ok((0, 0))
    }

    fn layer_metrics(&mut self, h: &Harness, m: &mut Metrics) -> Vec<String> {
        let sums = h.sums();
        let mean_us = |name: &str| {
            sums.get(name)
                .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
        };
        let total_ms = |name: &str| sums.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
        let sweeps: Vec<f64> = h
            .durations("sweep")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let sweep_share = total_ms("sweep") / total_ms("trial").max(f64::MIN_POSITIVE);
        if self.store_dir.is_some() {
            m.insert("serve.restart_ms", self.start_s * 1e3);
        } else {
            m.insert("graph.generate_s", self.generate_s);
            m.insert("serve.start_s", self.start_s);
        }
        m.insert("serve.warm_ms", self.warm_s * 1e3);
        m.insert(
            "serve.sweep_p50_ms",
            if sweeps.is_empty() {
                0.0
            } else {
                median(&sweeps)
            },
        );
        m.insert("serve.sweep_share", sweep_share);
        m.insert("serve.server_latency_p50_ms", median(&self.server_us) / 1e3);
        m.insert("serve.client_overhead_p50_us", median(&self.overhead_us));
        m.insert("serve.send_us", mean_us("send"));
        m.insert("serve.recv_us", mean_us("recv"));

        let live = self
            .live
            .as_ref()
            .expect("layer metrics need the live server");
        let now = live.server.metrics();
        let warm = live.after_warmup.clone().unwrap_or_default();
        let delta = |k: &str| now.get(k) - warm.get(k);
        let (batches, swept, queries) = (
            delta("serve.batches"),
            delta("serve.swept_roots"),
            delta("serve.queries"),
        );
        let roots_per_batch = swept as f64 / batches.max(1) as f64;
        let hit_ratio = delta("serve.cache_hits") as f64 / queries.max(1) as f64;
        m.insert("serve.batches", batches as f64);
        m.insert("serve.roots_per_batch", roots_per_batch);
        m.insert("serve.cache_hit_ratio", hit_ratio);
        m.insert("serve.coalesced", delta("serve.coalesced") as f64);
        m.insert("serve.carried", delta("serve.carried") as f64);
        m.insert("serve.shed", now.get("serve.shed") as f64);
        m.insert("serve.timeouts", now.get("serve.timeouts") as f64);
        m.insert("serve.bad_queries", now.get("serve.bad_queries") as f64);
        m.insert("store.bytes_mapped", now.get("store.bytes_mapped") as f64);
        m.insert("store.bytes_copied", now.get("store.bytes_copied") as f64);
        m.insert(
            "store.sections_verified",
            now.get("store.sections_verified") as f64,
        );

        let mut broken = Vec::new();
        if now.get("serve.shed") != 0 {
            broken.push(format!("serve.shed = {}", now.get("serve.shed")));
        }
        match self.mode {
            Mode::Sat => {
                if roots_per_batch < 60.0 {
                    broken.push(format!(
                        "serve.roots_per_batch {roots_per_batch:.1} < 60: sweeps are not full"
                    ));
                }
                if sweep_share < 0.9 {
                    broken.push(format!(
                        "serve.sweep_share {sweep_share:.3} < 0.9: the worker is not saturated"
                    ));
                }
            }
            Mode::Hit => {
                let swept_ever = now.get("serve.swept_roots");
                if swept_ever != HOT_ROOTS as u64 {
                    broken.push(format!(
                        "{swept_ever} roots swept, not the {HOT_ROOTS} of the warm burst"
                    ));
                }
                if hit_ratio <= 0.999 {
                    broken.push(format!("serve.cache_hit_ratio {hit_ratio:.4} <= 0.999"));
                }
            }
        }
        broken
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.tear_down();
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
