//! Order-freedom, proven rather than assumed: since PR 25 no fabric
//! sorts its inboxes and the engine does not either — every contested
//! parent goes to the smallest frontier id (`RankState::claim_min`) and
//! the Backward Handler sorts its replies where the codec reads their
//! order. So handing the handlers their inboxes in *any* order must
//! leave everything observable unchanged.
//!
//! `Reordering` (`support/reordering.rs`) wraps a real fabric and
//! permutes every inbox it returns — by a seeded shuffle, or by
//! reversal — before the engine sees it. On SharedMem and Socket-Unix, Direct and Relay, scales 10–14, several roots: parents,
//! every `LevelStats` field and the canonical counter set must equal the
//! unwrapped run's. Parents must also agree between Direct and Relay on
//! each fabric.
//!
//! Each fabric runs two arms. Under the varint codec reply order would
//! show up in the byte counts, so that arm is what keeps the Backward
//! Handler's hit sort honest. Under the fixed codec the handler pushes
//! its replies unsorted, in whatever order the permuted query inbox
//! gives — and everything observable must still be equal.

#[path = "support/reordering.rs"]
mod reordering;

use reordering::{Permute, Reordering};
use sw_graph::{generate_kronecker, KroneckerConfig, Vid};
use sw_trace::CounterSet;
use swbfs_core::config::Messaging;
use swbfs_core::engine::{ClusterBuilder, SharedMem, SocketTransport, Transport};
use swbfs_core::policy::Direction;
use swbfs_core::{BfsConfig, BfsOutput};

/// Every root's output and counter set on one engine over `transport`.
fn runs<T: Transport>(
    el: &sw_graph::EdgeList,
    cfg: BfsConfig,
    transport: T,
    roots: &[Vid],
) -> Vec<(BfsOutput, CounterSet)> {
    let mut engine = ClusterBuilder::new(el, 6, cfg)
        .transport(transport)
        .build()
        .expect("build");
    roots
        .iter()
        .map(|&root| {
            let out = engine.run(root).unwrap();
            (out, engine.metrics().clone())
        })
        .collect()
}

fn check<T: Transport>(make: impl Fn() -> T, varint: bool) {
    for scale in 10..=14u32 {
        let el = generate_kronecker(&KroneckerConfig::graph500(scale, 40 + scale as u64));
        let mut touched = vec![false; el.num_vertices as usize];
        for &(a, b) in &el.edges {
            touched[a as usize] = true;
            touched[b as usize] = true;
        }
        let roots: Vec<Vid> = (0..el.num_vertices)
            .filter(|&v| touched[v as usize])
            .step_by(el.num_vertices as usize / 4)
            .take(3)
            .collect();
        let mut by_messaging = Vec::new();
        // The third arm keeps the paper-style 2^10 Bottom-Up hubs, whose
        // Bottom-Up levels exchange queries and replies the permutation
        // then reorders; below scale 12 those hubs are every vertex, so
        // it starts there. Its tree may differ from the other two (fewer
        // hubs, other parents), so it stays out of their comparison.
        let paper_hubs = (scale >= 12).then_some((Messaging::Relay, Some(1 << 10)));
        let arms = [(Messaging::Direct, None), (Messaging::Relay, None)];
        for (messaging, bottom_up_hubs) in arms.into_iter().chain(paper_hubs) {
            let mut cfg = BfsConfig::threaded_small(3).with_messaging(messaging);
            if let Some(bottom_up_hubs) = bottom_up_hubs {
                cfg.bottom_up_hubs = bottom_up_hubs;
            }
            let cfg = if varint { cfg.with_compression() } else { cfg };
            let unwrapped = make();
            let name = unwrapped.name();
            let plain = runs(&el, cfg, unwrapped, &roots);
            for permute in [Permute::Shuffle(0x5eed ^ scale as u64), Permute::Reverse] {
                let wrapped = Reordering {
                    inner: make(),
                    permute,
                };
                let got = runs(&el, cfg, wrapped, &roots);
                for (k, ((a, ca), (b, cb))) in plain.iter().zip(&got).enumerate() {
                    let at = format!(
                        "{name} varint={varint} scale {scale} {messaging:?} hubs {bottom_up_hubs:?} \
                         {permute:?} root {}",
                        roots[k]
                    );
                    assert_eq!(a.parents, b.parents, "{at}: parents");
                    assert_eq!(a.levels, b.levels, "{at}: LevelStats");
                    assert_eq!(ca, cb, "{at}: counter set");
                }
            }
            if bottom_up_hubs.is_some() {
                let queries: u64 = plain
                    .iter()
                    .flat_map(|(out, _)| &out.levels)
                    .filter(|l| l.direction == Direction::BottomUp)
                    .map(|l| l.records_generated)
                    .sum();
                assert!(
                    queries > 0,
                    "{name} scale {scale}: no Bottom-Up query to reorder"
                );
            } else {
                by_messaging.push(plain);
            }
        }
        for (d, r) in by_messaging[0].iter().zip(&by_messaging[1]) {
            assert_eq!(
                d.0.parents, r.0.parents,
                "scale {scale}: Direct vs Relay parents"
            );
        }
    }
}

fn rankd() -> SocketTransport {
    SocketTransport::unix().with_rankd(env!("CARGO_BIN_EXE_swbfs-rankd"))
}

#[test]
fn shared_mem_levels_are_order_free() {
    check(SharedMem::new, true);
}

#[test]
fn socket_unix_levels_are_order_free() {
    check(rankd, true);
}

#[test]
fn shared_mem_fixed_codec_levels_are_order_free() {
    check(SharedMem::new, false);
}

#[test]
fn socket_unix_fixed_codec_levels_are_order_free() {
    check(rankd, false);
}
