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
use swbfs_core::policy::Direction;
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
///
/// Also returns the records its Bottom-Up levels generated. `hubs`
/// overrides `threaded_small`'s `(top_down_hubs, bottom_up_hubs)`.
fn digest(messaging: Messaging, varint: bool, hubs: Option<(usize, usize)>) -> (u64, u64) {
    let el = generate_kronecker(&KroneckerConfig::graph500(SCALE, 19));
    let mut cfg = BfsConfig::threaded_small(2).with_messaging(messaging);
    if let Some((top_down_hubs, bottom_up_hubs)) = hubs {
        cfg = BfsConfig { top_down_hubs, bottom_up_hubs, ..cfg };
    }
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
    let (mut bottom_up_levels, mut bottom_up_records) = (0, 0);
    for &root in &roots {
        let out = engine.run(root).unwrap();
        validate_bfs(&el, &out).unwrap_or_else(|e| panic!("root {root}: {e}"));
        assert_eq!(
            out.levels_from_parents(),
            sequential_bfs_levels(&el, root),
            "root {root}: level map diverges from the sequential oracle"
        );
        for ls in out.levels.iter().filter(|ls| ls.direction == Direction::BottomUp) {
            bottom_up_levels += 1;
            bottom_up_records += ls.records_generated;
        }
        fold_run(&mut h, &out);
    }
    assert!(bottom_up_levels > 0, "the digest must cover Bottom-Up levels");
    (h, bottom_up_records)
}

#[test]
fn shared_mem_runs_match_the_digests_pinned_at_pr25() {
    // The paper-style 2^10 Bottom-Up hubs, which leave most Bottom-Up
    // neighbours to a query.
    let records = check(&[
        (Messaging::Direct, false, Some((TD, 1 << 10)), 0x385b_f9c5_89b1_0ac5_u64),
        (Messaging::Direct, true, Some((TD, 1 << 10)), 0x7638_ce70_e46a_4508),
        (Messaging::Relay, false, Some((TD, 1 << 10)), 0xd196_8c61_d030_4ea2),
        (Messaging::Relay, true, Some((TD, 1 << 10)), 0x0fb9_e643_c792_03ae),
    ]);
    assert!(records.iter().all(|&r| r > 0), "Bottom-Up records {records:?}");
}

#[test]
fn every_vertex_a_hub_matches_its_pinned_digests() {
    // Plain `threaded_small`: 2^17 Bottom-Up hubs, every vertex with an
    // edge at scale 12, so no Bottom-Up neighbour is ever queried.
    // Captured with `bottom_up_hubs: 1 << 17` set explicitly while the
    // default was 2^10 and the hub views were built by a per-hub loop.
    assert_eq!(BfsConfig::threaded_small(2).bottom_up_hubs, 1 << 17);
    let records = check(&[
        (Messaging::Direct, false, None, 0x01a7_3db8_e957_ed27_u64),
        (Messaging::Direct, true, None, 0xf668_0f00_57e0_7bed),
        (Messaging::Relay, false, None, 0xa4f9_8e59_d6ee_9265),
        (Messaging::Relay, true, None, 0x7f51_46b8_88f4_1c66),
    ]);
    assert!(records.iter().all(|&r| r == 0), "Bottom-Up records {records:?}");
}

#[test]
fn one_hub_matches_its_pinned_digest() {
    // A single hub in both directions: the smallest non-empty view.
    check(&[(Messaging::Relay, false, Some((1, 1)), 0x7ad3_5369_a4df_fb62_u64)]);
}

/// One pinned configuration: messaging, varint codec, hub counts
/// overriding `threaded_small`'s, and the digest.
type Arm = (Messaging, bool, Option<(usize, usize)>, u64);

/// Runs every arm and fails naming each digest that moved; returns the
/// arms' Bottom-Up record counts.
fn check(golden: &[Arm]) -> Vec<u64> {
    let (got, records): (Vec<u64>, Vec<u64>) =
        golden.iter().map(|&(m, varint, hubs, _)| digest(m, varint, hubs)).unzip();
    for (&(messaging, varint, hubs, want), &got_one) in golden.iter().zip(&got) {
        assert_eq!(
            got_one, want,
            "{messaging:?}/varint={varint}/hubs={hubs:?}: digest {got_one:#018x} differs from \
             the pinned {want:#018x} — parents or a LevelStats field moved (all: {got:x?})"
        );
    }
    records
}

/// 2^8 Top-Down hubs, as in `threaded_small`.
const TD: usize = 1 << 8;
