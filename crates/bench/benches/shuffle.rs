//! Host-side performance of the data-movement layers: the CPE shuffle
//! engine (functional simulation), the Direct/Relay exchange, and message
//! batch framing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sw_arch::{ChipConfig, ShuffleEngine, ShuffleLayout};
use sw_net::GroupLayout;
use swbfs_core::arena::ExchangeArena;
use swbfs_core::config::Messaging;
use swbfs_core::exchange::Codec;
use swbfs_core::messages::{encode_batch, try_decode_batch, EdgeRec};
use swbfs_core::modules::Outboxes;

fn bench_shuffle_engine(c: &mut Criterion) {
    let engine = ShuffleEngine::new(ChipConfig::sw26010(), ShuffleLayout::paper_default()).unwrap();
    let mut g = c.benchmark_group("shuffle_engine_functional");
    g.sample_size(20);
    for items in [10_000u64, 100_000] {
        let inputs: Vec<u64> = (0..items).collect();
        g.throughput(Throughput::Elements(items));
        g.bench_with_input(BenchmarkId::from_parameter(items), &inputs, |b, inputs| {
            b.iter(|| engine.run(inputs, 1024, 8, |x| (*x as usize) % 1024).unwrap());
        });
    }
    g.finish();
}

fn all_to_all(ranks: usize, per_pair: usize) -> Vec<Outboxes> {
    (0..ranks)
        .map(|s| {
            let mut o = Outboxes::new(ranks);
            for d in (0..ranks).filter(|&d| d != s) {
                for i in 0..per_pair {
                    o.push(d as u32, EdgeRec { u: i as u64, v: d as u64 });
                }
            }
            o
        })
        .collect()
}

/// One exchange through a fresh (cold) arena per iteration.
fn bench_exchange(c: &mut Criterion) {
    let ranks = 32;
    let layout = GroupLayout::new(ranks as u32, 8);
    let out = all_to_all(ranks, 64);
    let records: u64 = (ranks * (ranks - 1) * 64) as u64;
    let mut g = c.benchmark_group("exchange");
    g.throughput(Throughput::Elements(records));
    for (name, mode) in [("direct_32ranks", Messaging::Direct), ("relay_32ranks", Messaging::Relay)] {
        g.bench_function(name, |b| {
            b.iter(|| ExchangeArena::new(ranks).exchange(mode, out.clone(), &layout, Codec::Fixed(8)));
        });
    }
    g.finish();
}

fn bench_framing(c: &mut Criterion) {
    let recs: Vec<EdgeRec> = (0..10_000)
        .map(|i| EdgeRec { u: i, v: i * 3 })
        .collect();
    let mut g = c.benchmark_group("wire_framing");
    g.throughput(Throughput::Elements(recs.len() as u64));
    g.bench_function("encode_10k", |b| b.iter(|| encode_batch(&recs)));
    let frame = encode_batch(&recs);
    g.bench_function("decode_10k", |b| b.iter(|| try_decode_batch(&frame)));
    g.finish();
}

criterion_group!(benches, bench_shuffle_engine, bench_exchange, bench_framing);
criterion_main!(benches);
