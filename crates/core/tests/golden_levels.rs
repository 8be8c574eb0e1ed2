//! Golden digests of whole BFS runs, captured at PR 25 and held fixed
//! from then on.
//!
//! The differential suites (`kernel_parity`, `engine_conformance`,
//! `chaos`, `order_free`) compare two things built from the same tree,
//! so a change that moves both sides together passes them. These
//! constants do not move with the tree: the FNV-1a digest folds the full
//! parent map and every field of every [`LevelStats`] — direction,
//! `m_f`, `m_u`, edges scanned, records, messages, **bytes** (so varint
//! wire order counts), claims, hub skips, gather bytes, settled, word
//! counters — for eight roots per configuration on SharedMem × {Direct,
//! Relay} × {fixed, varint}.
//!
//! PR 25 moved them on purpose, twice over: rows are degree-ordered by
//! default (the Bottom-Up sweep meets hubs first, so it scans fewer
//! edges and may settle on another frontier neighbour), and every
//! contested claim now goes to the smallest frontier parent instead of
//! the first in a sorted inbox (the Top-Down tree changes, the level of
//! every vertex does not). Because parent identity is what moved, each
//! golden root is held to what a BFS tree owes whatever its shape —
//! Graph500's five validation rules and the sequential oracle's level
//! map — before its digest is folded.

use sw_graph500::validate_bfs;
use swbfs_core::baseline::sequential_bfs_levels;
use swbfs_core::engine::ClusterBuilder;
use swbfs_core::result::LevelStats;
use swbfs_core::{BfsConfig, BfsOutput, Messaging};
use sw_graph::{generate_kronecker, KroneckerConfig, Vid};

const SCALE: u32 = 12;
const RANKS: u32 = 8;
const ROOTS: usize = 8;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_level(h: &mut u64, ls: &LevelStats) {
    // Destructured so a new `LevelStats` field fails to compile here
    // instead of silently staying out of the digest.
    let LevelStats {
        level,
        direction,
        frontier_vertices,
        frontier_edges,
        unvisited_edges,
        edges_scanned,
        records_generated,
        records_sent,
        messages_sent,
        bytes_sent,
        local_claims,
        hub_skips,
        hub_gather_bytes,
        settled,
        words_scanned,
        words_skipped,
    } = *ls;
    for x in [
        level as u64,
        direction as u64,
        frontier_vertices,
        frontier_edges,
        unvisited_edges,
        edges_scanned,
        records_generated,
        records_sent,
        messages_sent,
        bytes_sent,
        local_claims,
        hub_skips,
        hub_gather_bytes,
        settled,
        words_scanned,
        words_skipped,
        0, // retired `bytes_decoded` slot, 0 in every pinned run
    ] {
        fnv(h, x);
    }
}

fn fold_run(h: &mut u64, out: &BfsOutput) {
    fnv(h, out.root);
    for &p in &out.parents {
        fnv(h, p);
    }
    fnv(h, out.levels.len() as u64);
    for ls in &out.levels {
        fold_level(h, ls);
    }
}

/// Digest of `ROOTS` runs of one configuration on one engine (reused
/// across roots, as the Graph500 driver reuses it).
fn digest(messaging: Messaging, varint: bool) -> u64 {
    let el = generate_kronecker(&KroneckerConfig::graph500(SCALE, 19));
    let mut cfg = BfsConfig::threaded_small(2).with_messaging(messaging);
    if varint {
        cfg = cfg.with_compression();
    }
    let mut engine = ClusterBuilder::new(&el, RANKS, cfg).build().unwrap();
    // Every 97th vertex with an edge: spread over all ranks, hubs and
    // leaves alike, all in the giant component or a small one.
    let roots: Vec<Vid> = (0..engine.num_vertices())
        .filter(|&v| engine.degree_of(v) > 0)
        .step_by(97)
        .take(ROOTS)
        .collect();
    assert_eq!(roots.len(), ROOTS);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut bottom_up_levels = 0;
    for &root in &roots {
        let out = engine.run(root).unwrap();
        validate_bfs(&el, &out).unwrap_or_else(|e| panic!("root {root}: {e}"));
        assert_eq!(
            out.levels_from_parents(),
            sequential_bfs_levels(&el, root),
            "root {root}: level map diverges from the sequential oracle"
        );
        bottom_up_levels += out
            .levels
            .iter()
            .filter(|ls| ls.direction == swbfs_core::policy::Direction::BottomUp)
            .count();
        fold_run(&mut h, &out);
    }
    assert!(bottom_up_levels > 0, "the digest must cover Bottom-Up levels");
    h
}

#[test]
fn shared_mem_runs_match_the_digests_pinned_at_pr25() {
    // (messaging, varint codec, digest captured at PR 25)
    let golden = [
        (Messaging::Direct, false, 0x385b_f9c5_89b1_0ac5_u64),
        (Messaging::Direct, true, 0x7638_ce70_e46a_4508),
        (Messaging::Relay, false, 0xd196_8c61_d030_4ea2),
        (Messaging::Relay, true, 0x0fb9_e643_c792_03ae),
    ];
    let got: Vec<u64> = golden.iter().map(|&(m, varint, _)| digest(m, varint)).collect();
    for (&(messaging, varint, want), &got_one) in golden.iter().zip(&got) {
        assert_eq!(
            got_one, want,
            "{messaging:?}/varint={varint}: digest {got_one:#018x} differs from the pinned \
             {want:#018x} — parents or a LevelStats field moved (all four: {got:x?})"
        );
    }
}
