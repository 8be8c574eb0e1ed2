//! Overhead of the fault layer on the pooled exchange hot path, under
//! BFS-shaped traffic at Graph500 scales 14 and 16.
//!
//! Three configurations per transport:
//! * `unarmed`  — the plain `exchange` path (the production hot loop);
//! * `quiet`    — `exchange_faulty` armed with a plan that injects
//!   nothing, measuring the pure cost of the armed fault layer;
//! * `lossy`    — `exchange_faulty` under the stock lossy schedule,
//!   measuring what retries + simulated backoff add.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sw_net::GroupLayout;
use swbfs_core::arena::ExchangeArena;
use swbfs_core::config::Messaging;
use swbfs_core::exchange::Codec;
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;
use swbfs_core::{FaultPlan, FaultSession, RetryPolicy};

const RANKS: usize = 32;
const GROUP: u32 = 8;

fn per_pair(scale: u32) -> usize {
    let records = (16u64 << scale) / 2;
    (records as usize) / (RANKS * (RANKS - 1))
}

fn rec(s: usize, d: usize, i: usize) -> EdgeRec {
    EdgeRec {
        u: ((s << 22) + i) as u64,
        v: ((d << 22) + (i * 17) % (1 << 14)) as u64,
    }
}

fn fill_flat(out: &mut [Outboxes], per_pair: usize) {
    for (s, o) in out.iter_mut().enumerate() {
        for d in 0..RANKS {
            if d == s {
                continue;
            }
            for i in 0..per_pair {
                o.push(d as u32, rec(s, d, i));
            }
        }
    }
}

fn bench_fault_overhead(c: &mut Criterion) {
    let layout = GroupLayout::new(RANKS as u32, GROUP);
    let policy = RetryPolicy::default();
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(10);
    for scale in [14u32, 16] {
        let pp = per_pair(scale);
        let records = (RANKS * (RANKS - 1) * pp) as u64;
        g.throughput(Throughput::Elements(records));

        for (mode_name, mode) in [("direct", Messaging::Direct), ("relay", Messaging::Relay)] {
            let mut arena = ExchangeArena::new(RANKS);
            // Warm the pool so every variant measures the steady state.
            let mut out = arena.lend_outboxes();
            fill_flat(&mut out, pp);
            let (inboxes, _) = arena.exchange(mode, out, &layout, Codec::Fixed(16));
            arena.recycle_inboxes(inboxes);

            g.bench_function(BenchmarkId::new(format!("{mode_name}_unarmed"), scale), |b| {
                b.iter(|| {
                    let mut out = arena.lend_outboxes();
                    fill_flat(&mut out, pp);
                    let (inboxes, stats) = arena.exchange(mode, out, &layout, Codec::Fixed(16));
                    arena.recycle_inboxes(inboxes);
                    stats
                });
            });

            for (plan_name, plan) in [
                ("quiet", FaultPlan::quiet(0xBE_EF)),
                ("lossy", FaultPlan::lossy(0xBE_EF)),
            ] {
                let mut session = FaultSession::new(plan, policy, Codec::Fixed(16));
                g.bench_function(
                    BenchmarkId::new(format!("{mode_name}_{plan_name}"), scale),
                    |b| {
                        b.iter(|| {
                            let mut out = arena.lend_outboxes();
                            fill_flat(&mut out, pp);
                            let (result, stats) = arena.exchange_faulty(
                                mode,
                                out,
                                &layout,
                                Codec::Fixed(16),
                                &mut session,
                            );
                            arena.recycle_inboxes(result.expect("survivable by construction"));
                            stats
                        });
                    },
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_fault_overhead);
criterion_main!(benches);
