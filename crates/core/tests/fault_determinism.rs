//! Property tests for the fault subsystem's central promise: the same
//! plan seed over the same traffic produces the same injection trace,
//! the same `ExchangeStats`, and the same delivered records — on both
//! transports, with and without compression. Determinism is what turns
//! a chaos run from an anecdote into a reproducible test case.

use proptest::prelude::*;
use sw_net::GroupLayout;
use swbfs_core::arena::ExchangeArena;
use swbfs_core::config::Messaging;
use swbfs_core::exchange::{Codec, ExchangeStats};
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;
use swbfs_core::{ExchangeError, FaultPlan, FaultSession, InjectionEvent, RetryPolicy};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn traffic(ranks: usize, seed: u64) -> Vec<Outboxes> {
    let mut st = seed;
    let mut flat: Vec<Outboxes> = (0..ranks).map(|_| Outboxes::new(ranks)).collect();
    for (s, outboxes) in flat.iter_mut().enumerate() {
        let n = (splitmix(&mut st) % 48) as usize;
        for _ in 0..n {
            let d = (splitmix(&mut st) as usize) % ranks;
            if d == s {
                continue;
            }
            outboxes.push(
                d as u32,
                EdgeRec {
                    u: splitmix(&mut st) % (1 << 20),
                    v: splitmix(&mut st) % (1 << 20),
                },
            );
        }
    }
    flat
}

type FaultyRun = (
    Result<Vec<Vec<EdgeRec>>, ExchangeError>,
    ExchangeStats,
    Vec<InjectionEvent>,
);

/// One full faulty exchange from a cold arena and a fresh session.
fn run_faulty(
    mode: Messaging,
    ranks: usize,
    layout: &GroupLayout,
    codec: Codec,
    traffic_seed: u64,
    plan: &FaultPlan,
) -> FaultyRun {
    let out = traffic(ranks, traffic_seed);
    let mut arena = ExchangeArena::new(ranks);
    let mut session = FaultSession::new(plan.clone(), RetryPolicy::default(), Codec::Fixed(16));
    let (result, stats) = arena.exchange_faulty(mode, out, layout, codec, &mut session);
    (result, stats, session.trace().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed + same traffic ⇒ identical injection trace, identical
    /// stats (including retry/fault counters), identical deliveries —
    /// across Direct and Relay, plain and compressed.
    #[test]
    fn same_seed_same_traffic_is_bit_identical(
        ranks in 1usize..12,
        group in 1u32..12,
        traffic_seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        relay in any::<bool>(),
        compressed in any::<bool>(),
    ) {
        let layout = GroupLayout::new(ranks as u32, group.min(ranks as u32));
        let mode = if relay { Messaging::Relay } else { Messaging::Direct };
        let codec = if compressed { Codec::Compressed } else { Codec::Fixed(16) };
        let plan = FaultPlan::lossy(fault_seed);

        let (res_a, stats_a, trace_a) =
            run_faulty(mode, ranks, &layout, codec, traffic_seed, &plan);
        let (res_b, stats_b, trace_b) =
            run_faulty(mode, ranks, &layout, codec, traffic_seed, &plan);

        prop_assert_eq!(&trace_a, &trace_b);
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(res_a.as_ref().unwrap(), res_b.as_ref().unwrap());
    }

    /// A survivable plan must deliver exactly what the fault-free path
    /// delivers, and the *wire* statistics must agree too: retries live
    /// in their own counters, never in the traffic totals.
    #[test]
    fn survivable_faults_deliver_the_fault_free_records(
        ranks in 1usize..12,
        group in 1u32..12,
        traffic_seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        relay in any::<bool>(),
    ) {
        let layout = GroupLayout::new(ranks as u32, group.min(ranks as u32));
        let mode = if relay { Messaging::Relay } else { Messaging::Direct };
        let plan = FaultPlan::lossy(fault_seed);

        let mut clean_arena = ExchangeArena::new(ranks);
        let (clean_in, clean_stats) = clean_arena.exchange(
            mode,
            traffic(ranks, traffic_seed),
            &layout,
            Codec::Fixed(16),
        );
        let (res, stats, _) =
            run_faulty(mode, ranks, &layout, Codec::Fixed(16), traffic_seed, &plan);
        let faulty_in = res.unwrap();

        prop_assert_eq!(&faulty_in, &clean_in);
        prop_assert_eq!(stats.wire(), clean_stats.wire());
    }

    /// The quiet plan is a true no-op: zero injections, zero retries,
    /// and the armed path's stats equal the unarmed path's.
    #[test]
    fn quiet_plan_counts_nothing(
        ranks in 1usize..10,
        group in 1u32..10,
        traffic_seed in 0u64..u64::MAX,
        relay in any::<bool>(),
    ) {
        let layout = GroupLayout::new(ranks as u32, group.min(ranks as u32));
        let mode = if relay { Messaging::Relay } else { Messaging::Direct };
        let (res, stats, trace) = run_faulty(
            mode,
            ranks,
            &layout,
            Codec::Fixed(16),
            traffic_seed,
            &FaultPlan::quiet(traffic_seed),
        );
        prop_assert!(res.is_ok());
        prop_assert!(trace.is_empty());
        prop_assert_eq!(stats.retries, 0);
        prop_assert_eq!(stats.faults_injected, 0);
    }
}
