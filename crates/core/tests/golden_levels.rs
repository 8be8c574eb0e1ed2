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
//!
//! The every-vertex-a-hub arms also pin a *shape* digest: the same fold
//! less the wire counts of their Bottom-Up levels, which send no record
//! either way. It was captured while those levels still ran two empty
//! exchanges, and holds the level that runs none to the same parents and
//! the same scans, claims, skips and gathers.
//!
//! Every arm also pins a *combine-invariant* digest: the fold less the
//! wire counts of its Top-Down levels (`records_generated`,
//! `records_sent`, `messages_sent`, `bytes_sent`; the every-vertex arms
//! leave out their Bottom-Up wire counts too, as their shape digest
//! does). It holds parents, directions, frontiers, scans, claims, skips,
//! gathers and settled counts to their values whatever number of
//! records a Top-Down level sends. It was captured before each rank began
//! to send one record per target per Top-Down level, and held through
//! that change; the full and shape digests, which fold the Top-Down
//! wire counts, were re-pinned by it.

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

/// The wire counts a fold leaves out (folds as 0).
#[derive(Clone, Copy)]
struct Omit {
    /// What a Top-Down level generates and its exchange reports
    /// (`records_generated`, `records_sent`, `messages_sent`,
    /// `bytes_sent`).
    top_down_wire: bool,
    /// What a Bottom-Up level's exchanges report (`records_sent`,
    /// `messages_sent`, `bytes_sent`), so the fold holds whether those
    /// levels run their query phases or not.
    bottom_up_wire: bool,
}

/// Folds one level, less the wire counts `omit` names.
fn fold_level(h: &mut u64, ls: &LevelStats, omit: Omit) {
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
    let top_down = omit.top_down_wire && direction == Direction::TopDown;
    let bottom_up = omit.bottom_up_wire && direction == Direction::BottomUp;
    let records_generated = if top_down { 0 } else { records_generated };
    let wire = if top_down || bottom_up {
        [0; 3]
    } else {
        [records_sent, messages_sent, bytes_sent]
    };
    let [records_sent, messages_sent, bytes_sent] = wire;
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

fn fold_run(h: &mut u64, out: &BfsOutput, omit: Omit) {
    fnv(h, out.root);
    for &p in &out.parents {
        fnv(h, p);
    }
    fnv(h, out.levels.len() as u64);
    for ls in &out.levels {
        fold_level(h, ls, omit);
    }
}

/// What one configuration's runs fold to.
struct Digests {
    /// Parents and every `LevelStats` field.
    full: u64,
    /// Parents and every field but Bottom-Up levels' wire counts.
    shape: u64,
    /// Parents and every field but Top-Down levels' wire counts (and
    /// Bottom-Up levels' on the every-vertex arms).
    combine: u64,
    /// Records the Bottom-Up levels generated.
    bottom_up_records: u64,
    /// Messages the Bottom-Up levels' exchanges sent.
    bottom_up_messages: u64,
}

/// Digest of `ROOTS` runs of one configuration on one engine (reused
/// across roots, as the Graph500 driver reuses it).
///
/// `hubs` overrides `threaded_small`'s `(top_down_hubs,
/// bottom_up_hubs)`.
fn digest(messaging: Messaging, varint: bool, hubs: Option<(usize, usize)>) -> Digests {
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
    let basis = 0xcbf2_9ce4_8422_2325u64;
    let (mut full, mut shape, mut combine) = (basis, basis, basis);
    let every_vertex = hubs.is_none();
    let (mut bottom_up_levels, mut bottom_up_records, mut bottom_up_messages) = (0, 0, 0);
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
            bottom_up_messages += ls.messages_sent;
        }
        fold_run(&mut full, &out, Omit { top_down_wire: false, bottom_up_wire: false });
        fold_run(&mut shape, &out, Omit { top_down_wire: false, bottom_up_wire: true });
        fold_run(&mut combine, &out, Omit { top_down_wire: true, bottom_up_wire: every_vertex });
    }
    assert!(bottom_up_levels > 0, "the digest must cover Bottom-Up levels");
    Digests { full, shape, combine, bottom_up_records, bottom_up_messages }
}

#[test]
fn shared_mem_runs_match_the_digests_pinned_at_pr25() {
    // The paper-style 2^10 Bottom-Up hubs, which leave most Bottom-Up
    // neighbours to a query.
    let digests = check(&[
        (Messaging::Direct, false, Some((TD, 1 << 10)), 0x31f3_b165_7f8c_896d_u64, 0x7012_f2cd_0551_8266),
        (Messaging::Direct, true, Some((TD, 1 << 10)), 0xa631_dcca_c95a_e3e3, 0xae59_7e2f_0187_c759),
        (Messaging::Relay, false, Some((TD, 1 << 10)), 0x3c2d_78c7_154f_0259, 0x3e60_a34b_3eb1_ecf0),
        (Messaging::Relay, true, Some((TD, 1 << 10)), 0xa9ac_7c44_9895_5b19, 0x0040_c6a9_93fc_090b),
    ]);
    let records: Vec<u64> = digests.iter().map(|d| d.bottom_up_records).collect();
    assert!(records.iter().all(|&r| r > 0), "Bottom-Up records {records:?}");
}

#[test]
fn every_vertex_a_hub_matches_its_pinned_digests() {
    // Plain `threaded_small`: 2^17 Bottom-Up hubs, every vertex with an
    // edge at scale 12, so no Bottom-Up neighbour is ever queried and a
    // Bottom-Up level runs no exchange. Re-pinned when those levels
    // stopped running their two empty exchanges: every Bottom-Up wire
    // count is now 0, so each digest equals its shape digest below.
    assert_eq!(BfsConfig::threaded_small(2).bottom_up_hubs, 1 << 17);
    let digests = check(&[
        (Messaging::Direct, false, None, SHAPE_DIRECT_FIXED, COMBINE_EVERY_VERTEX),
        (Messaging::Direct, true, None, SHAPE_DIRECT_VARINT, COMBINE_EVERY_VERTEX),
        (Messaging::Relay, false, None, SHAPE_RELAY_FIXED, COMBINE_EVERY_VERTEX),
        (Messaging::Relay, true, None, SHAPE_RELAY_VARINT, COMBINE_EVERY_VERTEX),
    ]);
    let wire: Vec<(u64, u64)> =
        digests.iter().map(|d| (d.bottom_up_records, d.bottom_up_messages)).collect();
    assert!(wire.iter().all(|&w| w == (0, 0)), "Bottom-Up (records, messages) {wire:?}");
}

#[test]
fn every_vertex_a_hub_keeps_its_pinned_shape() {
    // The same four runs, less what their Bottom-Up levels' exchanges
    // report: parents, directions, frontiers, scans, claims, skips and
    // gathers. Captured from the engine that still ran the query and
    // reply phases of those levels on empty inboxes (full digests then:
    // 0x01a7_3db8_e957_ed27, 0xf668_0f00_57e0_7bed,
    // 0xa4f9_8e59_d6ee_9265, 0x7f51_46b8_88f4_1c66); re-pinned when
    // Top-Down records were combined at the sender, since this fold
    // keeps the Top-Down wire counts.
    let arms = [
        (Messaging::Direct, false, SHAPE_DIRECT_FIXED),
        (Messaging::Direct, true, SHAPE_DIRECT_VARINT),
        (Messaging::Relay, false, SHAPE_RELAY_FIXED),
        (Messaging::Relay, true, SHAPE_RELAY_VARINT),
    ];
    let got: Vec<u64> = arms.iter().map(|&(m, varint, _)| digest(m, varint, None).shape).collect();
    for (&(messaging, varint, want), &got_one) in arms.iter().zip(&got) {
        assert_eq!(
            got_one, want,
            "{messaging:?}/varint={varint}: shape digest {got_one:#018x} differs from the \
             pinned {want:#018x} (all: {got:x?})"
        );
    }
}

const SHAPE_DIRECT_FIXED: u64 = 0x694b_4cf9_ca41_1482;
const SHAPE_DIRECT_VARINT: u64 = 0x345e_5004_d399_79d3;
const SHAPE_RELAY_FIXED: u64 = 0xbbc4_d7da_481b_1680;
const SHAPE_RELAY_VARINT: u64 = 0x3585_cc42_0827_bc83;
/// The every-vertex arms' combine-invariant digest: their four runs
/// differ only in wire counts, and it folds none of them.
const COMBINE_EVERY_VERTEX: u64 = 0x8b04_7397_39c9_0545;

#[test]
fn one_hub_matches_its_pinned_digest() {
    // A single hub in both directions: the smallest non-empty view.
    check(&[(Messaging::Relay, false, Some((1, 1)), 0x8afc_7345_c7b5_747a_u64, 0x2caf_8b5e_f51b_df62)]);
}

/// One pinned configuration: messaging, varint codec, hub counts
/// overriding `threaded_small`'s, the full digest and the
/// combine-invariant digest.
type Arm = (Messaging, bool, Option<(usize, usize)>, u64, u64);

/// Runs every arm and fails naming each digest that moved, the
/// combine-invariant ones first; returns the arms' digests.
fn check(golden: &[Arm]) -> Vec<Digests> {
    let digests: Vec<Digests> =
        golden.iter().map(|&(m, varint, hubs, _, _)| digest(m, varint, hubs)).collect();
    let combine: Vec<u64> = digests.iter().map(|d| d.combine).collect();
    for (&(messaging, varint, hubs, _, want), &got_one) in golden.iter().zip(&combine) {
        assert_eq!(
            got_one, want,
            "{messaging:?}/varint={varint}/hubs={hubs:?}: combine-invariant digest \
             {got_one:#018x} differs from the pinned {want:#018x} — parents or a LevelStats \
             field other than a Top-Down wire count moved (all: {combine:x?})"
        );
    }
    let full: Vec<u64> = digests.iter().map(|d| d.full).collect();
    for (&(messaging, varint, hubs, want, _), &got_one) in golden.iter().zip(&full) {
        assert_eq!(
            got_one, want,
            "{messaging:?}/varint={varint}/hubs={hubs:?}: digest {got_one:#018x} differs from \
             the pinned {want:#018x} — parents or a LevelStats field moved (all: {full:x?})"
        );
    }
    digests
}

/// 2^8 Top-Down hubs, as in `threaded_small`.
const TD: usize = 1 << 8;
