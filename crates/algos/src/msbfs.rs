//! MS-BFS: up to 64 concurrent BFS traversals in one bit-parallel sweep.
//!
//! The query-service kernel (ROADMAP item 2, after Then et al.'s
//! multi-source BFS and the GBBS observation that one cache-resident
//! edge pass can serve many logical traversals): instead of running K
//! single-source BFS sweeps, pack K ≤ 64 sources into the bits of a
//! `u64` and carry a *mask* per vertex. A vertex's frontier word holds
//! one bit per source whose wave reached it this round; one pass over
//! the adjacency then advances all K traversals at once, and the wire
//! carries `(vertex, mask)` records — at most one per (source rank,
//! target vertex) per round thanks to sender-side mask aggregation —
//! instead of K separate record streams.
//!
//! The kernel rides the same [`AlgoCluster`] scaffolding as the other
//! shuffle-shaped kernels: 1-D partitioning, the pooled record
//! exchange over any [`Transport`], gen/handle spans per round, and
//! the canonical `exchange.*` counter path. `tests/msbfs_differential.rs`
//! proves the batch bit-identical to K independent single-source runs
//! on the shared-memory and the socket fabric.
//!
//! State is three words per vertex — `seen` (waves that ever arrived),
//! `curr` (waves arriving this round), `next` (waves found for the
//! coming round) — each one `n`-word array of which rank `r` touches
//! only the slice of its own id range, plus the sender-side scratch:
//! an `n`-word `agg` and an `n/64`-word `touched` bitmap that the ranks
//! use one after another and leave zeroed. A round is four streamed
//! passes (DESIGN.md §9): **gen** ORs each frontier mask into `next`
//! (neighbour in range) or `agg` (remote), **emit** walks `touched` in
//! ascending order, **handle** ORs the unsorted inbox into `next`, and
//! **settle** scans `next` once, writing `round + 1` straight into the
//! output level arrays. Nothing is sorted, divided or transposed.

use crate::runtime::AlgoCluster;
use sw_graph::{Csr, EdgeList, Vid};
use swbfs_core::engine::Transport;
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;

/// Most sources one sweep can carry: the bit width of the mask word.
pub const MAX_BATCH: usize = 64;

/// Level value for vertices a source never reaches.
pub const UNREACHED: u32 = u32::MAX;

/// The result of one batched sweep.
#[derive(Clone, Debug)]
pub struct MsBfsOutput {
    /// The batch, in bit order: `levels[k]` answers `sources[k]`.
    pub sources: Vec<Vid>,
    /// `levels[k][v]` = BFS distance from `sources[k]` to vertex `v`
    /// ([`UNREACHED`] when no path exists).
    pub levels: Vec<Vec<u32>>,
    /// Synchronous rounds the sweep ran: the deepest settled level plus
    /// the final round that finds the frontier empty (an isolated source
    /// reports 1).
    pub rounds: u32,
}

/// Runs one bit-parallel multi-source sweep over the cluster.
///
/// Duplicate sources are legal (each bit advances independently); every
/// source must lie inside the vertex id space.
///
/// # Panics
/// Panics if `sources` is empty, longer than [`MAX_BATCH`], or names a
/// vertex outside the graph.
pub fn msbfs_distributed<T: Transport>(
    cluster: &mut AlgoCluster<T>,
    sources: &[Vid],
) -> MsBfsOutput {
    let kq = sources.len();
    assert!(
        (1..=MAX_BATCH).contains(&kq),
        "batch of {kq} sources (1..={MAX_BATCH} supported)"
    );
    let n = cluster.num_vertices();
    for &s in sources {
        assert!(s < n, "source {s} outside the {n}-vertex id space");
    }
    let n = n as usize;
    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();
    let ranges: Vec<(usize, usize)> = (0..cluster.num_ranks())
        .map(|r| {
            let (lo, hi) = cluster.part.range(r);
            (lo as usize, hi as usize)
        })
        .collect();

    let mut seen = vec![0u64; n];
    let mut curr = vec![0u64; n];
    let mut next = vec![0u64; n];
    // Per sweep, not per rank: ranks generate one after another and
    // emission hands both back zeroed. (Per thread, should ranks ever
    // generate in parallel.)
    let mut agg = vec![0u64; n];
    let mut touched = vec![0u64; n.div_ceil(64)];
    let mut levels: Vec<Vec<u32>> = (0..kq).map(|_| vec![UNREACHED; n]).collect();

    // Seed: each source claims its bit at distance 0.
    for (b, &s) in sources.iter().enumerate() {
        curr[s as usize] |= 1u64 << b;
        seen[s as usize] |= 1u64 << b;
        levels[b][s as usize] = 0;
    }

    let mut round = 0u32;
    let mut frontier_left = true;
    while frontier_left {
        cluster.set_round(round);

        // Generate: every frontier vertex offers its mask to all
        // neighbours. A neighbour is local iff `v - lo < len` (one
        // compare, no division); remote masks aggregate per target so
        // each (rank, target) sends one record however many frontier
        // vertices feed it.
        let mut out = cluster.lend_outboxes();
        for (r, &(lo, hi)) in ranges.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            let csr = &cluster.csrs[r];
            let (seen_r, next_r) = (&mut seen[lo..hi], &mut next[lo..hi]);
            for (i, &mask) in curr[lo..hi].iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                for &v in csr.neighbors_local(i) {
                    let v = v as usize;
                    if let Some(s) = seen_r.get_mut(v.wrapping_sub(lo)) {
                        apply_mask(mask, s, &mut next_r[v - lo]);
                    } else {
                        agg[v] |= mask;
                        touched[v / 64] |= 1 << (v % 64);
                    }
                }
            }
            // Emit: the bitmap walk yields targets in ascending order —
            // the order the wire has always carried — and the range the
            // walk is inside names the destination.
            let mut produced = 0u64;
            let mut dest = 0;
            for (w, word) in touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    while v >= ranges[dest].1 {
                        dest += 1;
                    }
                    let mask = std::mem::take(&mut agg[v]);
                    let rec = EdgeRec {
                        u: v as Vid,
                        v: mask,
                    };
                    out[r].push(dest as u32, rec);
                    produced += 1;
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, produced);
        }

        // Exchange, unsorted: the handler below commutes. Then per rank
        // apply the remote waves and settle what the round found —
        // `next` now holds exactly the (vertex, source) pairs first
        // reached this round, so one scan writes their level and tells
        // whether any frontier is left.
        let inboxes = cluster.exchange(out);
        frontier_left = false;
        for (r, inbox) in inboxes.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            let (lo, hi) = ranges[r];
            let (seen_r, next_r) = (&mut seen[lo..hi], &mut next[lo..hi]);
            for rec in inbox {
                let i = rec.u as usize - lo;
                apply_mask(rec.v, &mut seen_r[i], &mut next_r[i]);
            }
            for (i, &word) in next_r.iter().enumerate() {
                let mut new = word;
                frontier_left |= new != 0;
                while new != 0 {
                    levels[new.trailing_zeros() as usize][lo + i] = round + 1;
                    new &= new - 1;
                }
            }
            ins::span_end(
                tr,
                r,
                ins::SPAN_HANDLE,
                ins::CAT_COMPUTE,
                round,
                t0,
                inbox.len() as u64,
            );
        }
        cluster.recycle_inboxes(inboxes);

        std::mem::swap(&mut curr, &mut next);
        next.fill(0);
        round += 1;
    }

    MsBfsOutput {
        sources: sources.to_vec(),
        levels,
        rounds: round,
    }
}

/// Applies an arriving mask to one owned vertex: bits not yet seen join
/// the next frontier. Arrivals of one round commute — `seen` makes the
/// first claim idempotent and OR has no order — so neither local-versus-
/// remote nor inbox order can change the outcome.
#[inline]
fn apply_mask(mask: u64, seen: &mut u64, next: &mut u64) {
    let new = mask & !*seen;
    *seen |= new;
    *next |= new;
}

/// Single-node reference: one sequential BFS, the differential oracle
/// for every bit of a batched sweep.
pub fn bfs_levels_oracle(el: &EdgeList, root: Vid) -> Vec<u32> {
    let csr = Csr::from_edge_list(el);
    let mut levels = vec![UNREACHED; el.num_vertices as usize];
    levels[root as usize] = 0;
    let mut frontier = vec![root];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut nf = Vec::new();
        for &u in &frontier {
            for &v in csr.neighbors(u) {
                if levels[v as usize] == UNREACHED {
                    levels[v as usize] = depth;
                    nf.push(v);
                }
            }
        }
        frontier = nf;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::{generate_kronecker, KroneckerConfig};
    use swbfs_core::config::Messaging;

    #[test]
    fn single_source_matches_oracle() {
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 3));
        let oracle = bfs_levels_oracle(&el, 1);
        for ranks in [1u32, 4, 7] {
            let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Relay);
            let out = msbfs_distributed(&mut c, &[1]);
            assert_eq!(out.levels[0], oracle, "ranks = {ranks}");
        }
    }

    #[test]
    fn batch_bits_are_independent() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 5));
        let sources = [0u64, 7, 31, 101, 255];
        let mut c = AlgoCluster::new(&el, 4, 2, Messaging::Direct);
        let out = msbfs_distributed(&mut c, &sources);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(out.levels[k], bfs_levels_oracle(&el, s), "source {s}");
        }
    }

    #[test]
    fn duplicate_sources_answer_identically() {
        let el = generate_kronecker(&KroneckerConfig::graph500(8, 1));
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        let out = msbfs_distributed(&mut c, &[5, 5, 9]);
        assert_eq!(out.levels[0], out.levels[1]);
        assert_eq!(out.levels[0], bfs_levels_oracle(&el, 5));
    }

    #[test]
    fn isolated_source_reaches_only_itself() {
        let el = EdgeList::new(6, vec![(0, 1), (1, 2)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        let out = msbfs_distributed(&mut c, &[4]);
        let mut expect = vec![UNREACHED; 6];
        expect[4] = 0;
        assert_eq!(out.levels[0], expect);
        assert_eq!(out.rounds, 1, "one round discovers the empty frontier");
    }

    #[test]
    fn aggregation_collapses_duplicate_targets() {
        // A star: every leaf reaches the hub in one hop. With all
        // leaves as sources, sender-side aggregation must emit one
        // record per (rank, target), not one per frontier edge.
        let el = EdgeList::new(9, (1..9).map(|v| (0u64, v)).collect());
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Direct);
        let sources: Vec<Vid> = (1..9).collect();
        let out = msbfs_distributed(&mut c, &sources);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(out.levels[k][s as usize], 0);
            assert_eq!(out.levels[k][0], 1);
        }
        // Round 0: each rank sends at most one record to vertex 0's
        // owner (aggregated), plus round-1 fan-out back to the leaves.
        assert!(
            c.stats.record_hops < 8 + 8,
            "aggregation failed: {} record hops",
            c.stats.record_hops
        );
    }

    #[test]
    fn full_width_batch_runs() {
        let el = generate_kronecker(&KroneckerConfig::graph500(8, 9));
        let sources: Vec<Vid> = (0..MAX_BATCH as u64).collect();
        let mut c = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
        let out = msbfs_distributed(&mut c, &sources);
        assert_eq!(out.levels.len(), MAX_BATCH);
        assert_eq!(out.levels[63], bfs_levels_oracle(&el, 63));
    }

    #[test]
    #[should_panic(expected = "sources")]
    fn oversize_batch_is_rejected() {
        let el = EdgeList::new(70, vec![(0, 1)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        let sources: Vec<Vid> = (0..65).collect();
        msbfs_distributed(&mut c, &sources);
    }
}
