//! Host-side performance of the data-movement layers: the CPE shuffle
//! engine (functional simulation), the Direct/Relay exchange, and message
//! batch framing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sw_arch::{ChipConfig, ShuffleEngine, ShuffleLayout};
use sw_net::GroupLayout;
use swbfs_core::exchange::{exchange_direct, exchange_relay, Codec};
use swbfs_core::messages::{encode_batch, try_decode_batch, EdgeRec};

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

fn all_to_all(ranks: usize, per_pair: usize) -> Vec<Vec<Vec<EdgeRec>>> {
    (0..ranks)
        .map(|s| {
            (0..ranks)
                .map(|d| {
                    if s == d {
                        vec![]
                    } else {
                        (0..per_pair)
                            .map(|i| EdgeRec {
                                u: i as u64,
                                v: d as u64,
                            })
                            .collect()
                    }
                })
                .collect()
        })
        .collect()
}

fn bench_exchange(c: &mut Criterion) {
    let ranks = 32;
    let layout = GroupLayout::new(ranks as u32, 8);
    let out = all_to_all(ranks, 64);
    let records: u64 = (ranks * (ranks - 1) * 64) as u64;
    let mut g = c.benchmark_group("exchange");
    g.throughput(Throughput::Elements(records));
    g.bench_function("direct_32ranks", |b| {
        b.iter(|| exchange_direct(out.clone(), &layout, Codec::Fixed(8)));
    });
    g.bench_function("relay_32ranks", |b| {
        b.iter(|| exchange_relay(out.clone(), &layout, Codec::Fixed(8)));
    });
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
