//! Probes: one public function of one layer, timed in isolation.
//!
//! A probe repeats a fixed piece of work a few times and reports the
//! best repetition, like everything else here. Probes do not depend on
//! the workload, so every traced run executes all of them (about five
//! seconds) and prints the same catalogue; which end-to-end metric a
//! probe's layer moves on which workload is the table in
//! `perf/README.md`.

use crate::catalogue::Metrics;
use crate::run::{Opts, GRAPH_SEED};
use crate::spans::Harness;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use sw_algos::msbfs::msbfs_distributed;
use sw_algos::runtime::AlgoCluster;
use sw_graph::hub::HubSet;
use sw_graph::store::partition_path;
use sw_graph::{
    generate_kronecker, Csr, GraphStore, KroneckerConfig, Partition1D, StorageBackend, Vid,
};
use sw_graph500::select_roots;
use sw_net::framing::{Frame, FrameDecoder, QueryFrame, QueryOp, QueryStatus, ResultFrame};
use sw_net::GroupLayout;
use sw_serve::batcher::CyclePlan;
use sw_serve::cache::LevelCache;
use sw_serve::Server;
use sw_trace::{ClockDomain, LatencyHistogram, Tracer, NO_LEVEL};
use swbfs_core::arena::ExchangeArena;
use swbfs_core::compress::{encode_compressed, try_decode_compressed};
use swbfs_core::config::Messaging;
use swbfs_core::engine::{SocketTransport, Transport};
use swbfs_core::exchange::Codec;
use swbfs_core::hubs::HubState;
use swbfs_core::messages::{encode_batch, try_decode_batch, EdgeRec};
use swbfs_core::modules::{backward_generator, forward_generator, forward_handler, Outboxes};
use swbfs_core::rank::RankState;

/// Repetitions of a cheap probe; the best one is reported.
const REPS: usize = 5;
/// Repetitions of a probe that takes a tenth of a second or more.
const HEAVY_REPS: usize = 3;
const RANKS: usize = 8;

/// Least seconds of `reps` calls.
fn best_of_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn best_secs(f: impl FnMut()) -> f64 {
    best_of_reps(REPS, f)
}

/// Least nanoseconds per call over [`REPS`] loops of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    best_secs(|| (0..iters).for_each(&mut f)) * 1e9 / iters as f64
}

/// Runs every probe.
pub fn run_all(o: &Opts, m: &mut Metrics) -> Result<(), String> {
    let t = Instant::now();
    graph(o, m);
    store(o, m)?;
    kernel(o, m);
    exchange_arena(m);
    exchange_wire(m)?;
    socket(o, m)?;
    net_frames(m)?;
    net_xmit(m)?;
    msbfs(o, m);
    serve_units(m);
    graph500(o, m);
    trace(m);
    eprintln!("swperf probes: {:.2} s", t.elapsed().as_secs_f64());
    Ok(())
}

fn probe_scale(o: &Opts, full: u32) -> u32 {
    if o.quick {
        full.min(12)
    } else {
        full
    }
}

fn graph(o: &Opts, m: &mut Metrics) {
    let cfg = KroneckerConfig::graph500(probe_scale(o, 14), GRAPH_SEED);
    let mut el = None;
    let gen_s = best_secs(|| el = Some(generate_kronecker(&cfg)));
    let el = el.expect("generated");
    m.insert("graph.generate_medges_per_s", el.len() as f64 / gen_s / 1e6);
    let mut entries = 0;
    let csr_s = best_secs(|| entries = black_box(Csr::from_edge_list(&el)).num_entries());
    m.insert("graph.csr_build_medges_per_s", entries as f64 / csr_s / 1e6);
}

fn store(o: &Opts, m: &mut Metrics) -> Result<(), String> {
    let el = generate_kronecker(&KroneckerConfig::graph500(probe_scale(o, 16), GRAPH_SEED));
    let dir = std::env::temp_dir().join(format!("swperf-probe-store-{}", std::process::id()));
    let io = |e: std::io::Error| format!("store probe: {e}");
    let mut res = Ok(());
    let persist_s = best_of_reps(HEAVY_REPS, || {
        res = Server::build_store(&el, RANKS as u32, &dir)
    });
    res.map_err(io)?;
    let bytes: u64 = (0..RANKS)
        .map(|r| std::fs::metadata(partition_path(&dir, r)).map_or(0, |md| md.len()))
        .sum();
    m.insert("store.persist_s", persist_s);
    m.insert("store.persist_mb_per_s", bytes as f64 / 1e6 / persist_s);
    for (name, backend) in [
        ("store.open_mapped_ms", StorageBackend::Mapped),
        ("store.open_heap_ms", StorageBackend::Heap),
    ] {
        let mut res = Ok(());
        let secs = best_secs(|| {
            for r in 0..RANKS {
                match GraphStore::open(&partition_path(&dir, r), backend) {
                    Ok(s) => drop(black_box(s)),
                    Err(e) => res = Err(e),
                }
            }
        });
        res.map_err(io)?;
        m.insert(name, secs * 1e3);
    }
    std::fs::remove_dir_all(&dir).map_err(io)
}

/// The mutable slice of a `RankState` the generators touch, restored
/// before every repetition (as `benches/kernels.rs` does).
struct Snapshot(RankState);

impl Snapshot {
    fn restore(&self, s: &mut RankState) {
        s.parent.copy_from_slice(&self.0.parent);
        s.visited_bits
            .words_mut()
            .copy_from_slice(self.0.visited_bits.words());
        s.curr = self.0.curr.clone();
        s.next = self.0.next.clone();
    }
}

fn kernel(o: &Opts, m: &mut Metrics) {
    let el = generate_kronecker(&KroneckerConfig::graph500(probe_scale(o, 15), GRAPH_SEED));
    let fresh = RankState::build(0, Partition1D::new(el.num_vertices, 1), &el);
    let hubs = HubState::new(HubSet::from_degrees(vec![], 4));
    // `keep` settles vertices and promotes them into the frontier.
    let seeded = |keep: &dyn Fn(usize) -> bool| {
        let mut s = fresh.clone();
        for i in (0..s.owned()).filter(|&i| keep(i)) {
            s.claim(i, i as Vid);
        }
        s.advance_level();
        s
    };
    let mut sweep = |name: &'static str, keep: &dyn Fn(usize) -> bool, top_down: bool| {
        let mut state = seeded(keep);
        let snap = Snapshot(state.clone());
        let mut edges = 0;
        let secs = best_secs(|| {
            snap.restore(&mut state);
            let mut out = Outboxes::new(1);
            let st = if top_down {
                forward_generator(&mut state, &hubs, &mut out)
            } else {
                backward_generator(&mut state, &hubs, &mut out)
            };
            edges = st.edges_scanned;
        });
        m.insert(name, edges as f64 / secs / 1e6);
    };
    sweep("kernel.td_gen_medges_per_s", &|i| i % 16 == 0, true);
    sweep("kernel.bu_sweep_medges_per_s", &|i| i % 2 == 0, false);
    sweep("kernel.bu_tail_medges_per_s", &|i| i % 64 != 0, false);

    // Forward handler: every adjacency entry of every 16th vertex as a
    // claim record (u = claimed parent, v = owned target).
    let inbox: Vec<EdgeRec> = (0..fresh.owned())
        .step_by(16)
        .flat_map(|i| {
            fresh
                .csr
                .neighbors_local(i)
                .iter()
                .map(move |&v| EdgeRec { u: i as Vid, v })
        })
        .collect();
    let mut state = fresh.clone();
    let snap = Snapshot(fresh.clone());
    let secs = best_secs(|| {
        snap.restore(&mut state);
        black_box(forward_handler(&mut state, &inbox));
    });
    m.insert(
        "kernel.fwd_handle_mrec_per_s",
        inbox.len() as f64 / secs / 1e6,
    );
}

/// BFS-shaped traffic: ascending scan order in `u`, destination-owned
/// block in `v` (the clustering the varint codec exploits).
fn rec(s: usize, d: usize, i: usize) -> EdgeRec {
    EdgeRec {
        u: ((s << 22) + i) as u64,
        v: ((d << 22) + (i * 17) % (1 << 14)) as u64,
    }
}

fn fill(out: &mut [Outboxes], per_pair: usize) {
    for (s, o) in out.iter_mut().enumerate() {
        for d in (0..RANKS).filter(|&d| d != s) {
            for i in 0..per_pair {
                o.push(d as u32, rec(s, d, i));
            }
        }
    }
}

fn exchange_arena(m: &mut Metrics) {
    // A peak level of a scale-15 search: ~half the directed entries
    // leave their rank.
    let per_pair = (16usize << 15) / 2 / (RANKS * (RANKS - 1));
    let records = (RANKS * (RANKS - 1) * per_pair) as f64;
    let layout = GroupLayout::new(RANKS as u32, 2);
    for (name, mode) in [
        ("exchange.arena_direct_mrec_per_s", Messaging::Direct),
        ("exchange.arena_relay_mrec_per_s", Messaging::Relay),
    ] {
        let mut arena = ExchangeArena::new(RANKS);
        let mut cycle = || {
            let mut out = arena.lend_outboxes();
            fill(&mut out, per_pair);
            let (inboxes, stats) = arena.exchange(mode, out, &layout, Codec::Fixed(16));
            arena.recycle_inboxes(inboxes);
            black_box(stats);
        };
        cycle(); // warm the pool: the steady state is what the engine runs
        m.insert(name, records / best_secs(&mut cycle) / 1e6);
    }
}

fn exchange_wire(m: &mut Metrics) -> Result<(), String> {
    let batch: Vec<EdgeRec> = (0..1 << 16).map(|i| rec(1, 2, i)).collect();
    let plain_mb = (batch.len() * EdgeRec::WIRE_BYTES) as f64 / 1e6;
    let coded = encode_compressed(&batch);
    let fixed = encode_batch(&batch);
    if try_decode_compressed(&coded)? != batch || try_decode_batch(&fixed)? != batch {
        return Err("record codecs do not round-trip".into());
    }
    let enc = best_secs(|| drop(black_box(encode_compressed(&batch))));
    let dec = best_secs(|| drop(black_box(try_decode_compressed(&coded))));
    m.insert("exchange.compress_encode_mb_per_s", plain_mb / enc);
    m.insert("exchange.compress_decode_mb_per_s", plain_mb / dec);
    m.insert(
        "exchange.compress_ratio",
        plain_mb * 1e6 / coded.len() as f64,
    );
    let enc = best_secs(|| drop(black_box(encode_batch(&batch))));
    let dec = best_secs(|| drop(black_box(try_decode_batch(&fixed))));
    m.insert("exchange.batch_encode_mb_per_s", plain_mb / enc);
    m.insert("exchange.batch_decode_mb_per_s", plain_mb / dec);
    Ok(())
}

fn socket(o: &Opts, m: &mut Metrics) -> Result<(), String> {
    let per_pair = if o.quick { 256 } else { 2048 };
    let layout = GroupLayout::new(RANKS as u32, 2);
    let mut t = SocketTransport::unix().with_rankd(&o.rankd);
    t.setup(RANKS);
    let mut res = Ok(());
    let mut cycle = |t: &mut SocketTransport| {
        let mut out = t.lend_outboxes();
        fill(&mut out, per_pair);
        match t.exchange(Messaging::Direct, out, &layout, Codec::Compressed) {
            Ok((inboxes, _)) => t.recycle_inboxes(inboxes),
            Err(e) => res = Err(format!("socket probe: {e}")),
        }
    };
    cycle(&mut t); // spawns the fabric
    let secs = best_secs(|| cycle(&mut t));
    t.teardown();
    res?;
    let records = (RANKS * (RANKS - 1) * per_pair) as f64;
    m.insert("socket.exchange_mrec_per_s", records / secs / 1e6);
    Ok(())
}

fn decode_one(dec: &mut FrameDecoder, bytes: &[u8]) -> Result<Frame, String> {
    dec.extend(bytes);
    dec.next_frame()
        .map_err(|e| format!("frame probe: {e:?}"))?
        .ok_or_else(|| "frame probe: decoder wants more bytes".to_string())
}

fn net_frames(m: &mut Metrics) -> Result<(), String> {
    const ITERS: usize = 20_000;
    let query = |i: usize| QueryFrame {
        id: i as u64,
        op: QueryOp::Distance,
        root: 17,
        target: 4242,
        hops: 0,
        deadline_ms: 0,
    };
    let result = |i: usize| ResultFrame {
        id: i as u64,
        status: QueryStatus::Ok,
        value: 3,
        batch_roots: 64,
        micros: 1234,
    };
    let frame = query(1).into_frame();
    let bytes = frame.encode();
    let mut dec = FrameDecoder::new();
    if decode_one(&mut dec, &bytes)? != frame {
        return Err("QUERY frame does not round-trip".into());
    }
    let mut buf = Vec::with_capacity(64);
    let enc = ns_per_call(ITERS, |_| {
        buf.clear();
        frame.encode_into(&mut buf);
        black_box(&buf);
    });
    m.insert("net.frame_encode_ns", enc);
    let mut bad = false;
    let decode = ns_per_call(ITERS, |_| bad |= decode_one(&mut dec, &bytes).is_err());
    m.insert("net.frame_decode_ns", decode);
    let q = ns_per_call(ITERS, |i| {
        buf.clear();
        query(i).into_frame().encode_into(&mut buf);
        let back = decode_one(&mut dec, &buf)
            .and_then(|f| QueryFrame::from_frame(&f).map_err(str::to_string));
        bad |= back != Ok(query(i));
    });
    m.insert("net.query_roundtrip_ns", q);
    let r = ns_per_call(ITERS, |i| {
        buf.clear();
        result(i).into_frame().encode_into(&mut buf);
        let back = decode_one(&mut dec, &buf)
            .and_then(|f| ResultFrame::from_frame(&f).map_err(str::to_string));
        bad |= back != Ok(result(i));
    });
    m.insert("net.result_roundtrip_ns", r);
    if bad {
        return Err("a service frame did not round-trip".into());
    }
    Ok(())
}

fn net_xmit(m: &mut Metrics) -> Result<(), String> {
    let mut frame = Frame::control(5, 1, 0, 1);
    frame.payload = (0..64 * 1024).map(|i| (i * 31) as u8).collect();
    let mb = frame.payload.len() as f64 / 1e6;
    let mut buf = Vec::with_capacity(frame.wire_len());
    let enc = ns_per_call(200, |_| {
        buf.clear();
        frame.encode_into(&mut buf);
        black_box(&buf);
    });
    let mut dec = FrameDecoder::new();
    let mut bad = false;
    let decode = ns_per_call(200, |_| bad |= decode_one(&mut dec, &buf).is_err());
    if bad || decode_one(&mut dec, &buf)? != frame {
        return Err("XMIT-sized frame does not round-trip".into());
    }
    m.insert("net.xmit_encode_mb_per_s", mb / (enc / 1e9));
    m.insert("net.xmit_decode_mb_per_s", mb / (decode / 1e9));
    Ok(())
}

fn msbfs(o: &Opts, m: &mut Metrics) {
    let el = generate_kronecker(&KroneckerConfig::graph500(probe_scale(o, 16), GRAPH_SEED));
    let reference = crate::reference::Reference::new(&el);
    let roots = crate::g500::sample_roots(&reference, 64, o.seed ^ 0x6d73);
    let mut cluster = AlgoCluster::new(&el, RANKS as u32, 2, Messaging::Direct);
    for (name, width) in [
        ("msbfs.b1_roots_per_s", 1),
        ("msbfs.b16_roots_per_s", 16),
        ("msbfs.b64_roots_per_s", 64),
    ] {
        let sweep = || drop(black_box(msbfs_distributed(&mut cluster, &roots[..width])));
        let secs = best_of_reps(HEAVY_REPS, sweep);
        m.insert(name, width as f64 / secs);
    }
    // One traced width-64 sweep: where inside the kernel the time goes.
    let lanes: Vec<String> = (0..RANKS).map(|r| format!("rank{r}")).collect();
    let h = Harness::traced(&lanes, 1 << 12);
    cluster.set_tracer(h.tracer());
    let (out, secs) = h.span("sweep", 64, || msbfs_distributed(&mut cluster, &roots));
    let sums = h.sums();
    let share = |names: &[&str]| {
        names
            .iter()
            .map(|n| sums.get(n).map_or(0, |&(ns, _)| ns))
            .sum::<u64>() as f64
            / 1e9
            / secs
    };
    m.insert("msbfs.b64_sweep_ms", secs * 1e3);
    m.insert("msbfs.b64_gen_share", share(&["gen"]));
    m.insert("msbfs.b64_handle_share", share(&["handle"]));
    m.insert("msbfs.b64_exchange_share", share(&["bucket", "deliver"]));
    m.insert("msbfs.b64_rounds", f64::from(out.rounds));
}

fn serve_units(m: &mut Metrics) {
    const ITERS: usize = 20_000;
    let levels = Arc::new(vec![0u32; 16]);
    let mut cache = LevelCache::new(32);
    for r in 0..32 {
        cache.insert(r, Arc::clone(&levels));
    }
    let get = ns_per_call(ITERS, |i| drop(black_box(cache.get((i % 32) as Vid))));
    m.insert("serve.cache_get_ns", get);
    let insert = ns_per_call(ITERS, |i| {
        cache.insert(1000 + i as Vid, Arc::clone(&levels))
    });
    m.insert("serve.cache_insert_ns", insert);
    // One cycle as serve_sat shapes it: 64 fresh roots, then repeats
    // that coalesce, then cache hits.
    let offers = 64 + 64 + 64;
    let cycle_s = best_secs(|| {
        for _ in 0..100 {
            let mut plan = CyclePlan::new(64);
            for r in 0..64 {
                black_box(plan.offer(Some(r), false));
            }
            for r in 0..64 {
                black_box(plan.offer(Some(r), false));
            }
            for r in 64..128 {
                black_box(plan.offer(Some(r), true));
            }
        }
    });
    m.insert(
        "serve.batcher_offer_ns",
        cycle_s * 1e9 / (100 * offers) as f64,
    );
}

fn graph500(o: &Opts, m: &mut Metrics) {
    let el = generate_kronecker(&KroneckerConfig::graph500(probe_scale(o, 14), GRAPH_SEED));
    let secs = best_secs(|| drop(black_box(select_roots(&el, 64, o.seed))));
    m.insert("graph500.select_roots_s", secs);
}

fn trace(m: &mut Metrics) {
    const ITERS: usize = 20_000;
    let t = Tracer::new(ClockDomain::Wall, &["probe"], ITERS);
    let span = ns_per_call(ITERS, |i| {
        if i == 0 {
            t.reset();
        }
        let t0 = t.begin();
        t.end(0, "probe", "probe", NO_LEVEL, t0, i as u64);
    });
    m.insert("trace.span_ns", span);
    let hist = LatencyHistogram::new();
    let record = ns_per_call(ITERS, |i| hist.record(i as u64));
    m.insert("trace.hist_record_ns", record);
}
