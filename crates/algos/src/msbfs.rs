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
//! coming round) — each one `n`-word array of which rank `r` writes
//! only the slice of its own id range, plus the sender-side scratch:
//! an `n`-word `agg` and an `n/64`-word `touched` bitmap that the ranks
//! use one after another and leave zeroed (DESIGN.md §9). Beside them
//! the levels found so far are kept bit-sliced: bit `j` of every level
//! in plane `j`, one plane per bit of the deepest level so far, each a
//! word per vertex with bit `k` for source `k` — a byte when the batch
//! fits one, else a `u64` — into which a round ORs each found mask.
//!
//! The output is one [`LevelMap`] per source: a `reached` bitmap and
//! the source's own planes, `(1 + L)·⌈n/64⌉` words in one allocation
//! for a deepest level of `L` bits (16 KB at scale 15 and `L = 3`,
//! against 128 KB for a `u32` per vertex), cut out of the planes once,
//! after the last round: eight vertices per multiply from byte planes,
//! 64 per 64×64 bit-matrix transpose from `u64` planes.
//!
//! Each round runs in one of two directions, chosen by the engine's
//! own [`TraversalPolicy`] with [`BfsConfig::paper`]'s α = 14 and
//! β = 24, on popcount-weighted inputs: *n_f* = Σ popcount(`curr`),
//! *m_f* = Σ popcount(`curr[v]`)·deg(v), *m_u* = K·M minus every
//! round's *m_f* so far (carried, not swept), and *n*·K for β.
//!
//! * **Top-Down** is four streamed passes: **gen** ORs each frontier
//!   mask into `next` (neighbour in range) or `agg` (remote), **emit**
//!   walks `touched` in ascending order, **handle** ORs the unsorted
//!   inbox into `next`, and **settle** scans `next` once, recording
//!   `round + 1` in the level planes and counting the coming frontier.
//! * **Bottom-Up** is one pass and a count. `live`, the OR of every
//!   `curr` word, names the sources whose wave still moves; each owned
//!   vertex with `unseen = live & !seen` non-zero ORs its neighbours'
//!   `curr` masks, read by vertex id from the one array every rank
//!   sees, and stops once every unseen bit is found, writing `seen`,
//!   `next` and the level planes as it goes. No outbox, no exchange;
//!   what a real cluster would gather for that view is charged to
//!   [`MsBfsOutput::view_bytes`] instead.
//!
//! No round sorts, divides or transposes, and levels are BFS distances,
//! so the direction changes what a round reads and sends, never what it
//! finds.

mod level_map;

pub use level_map::LevelMap;
use level_map::LevelPlanes;

use crate::runtime::AlgoCluster;
use sw_graph::{Csr, EdgeList, Vid};
use sw_trace::Tracer;
use swbfs_core::engine::Transport;
use swbfs_core::instrument as ins;
use swbfs_core::messages::EdgeRec;
use swbfs_core::policy::{Direction, PolicyInputs, TraversalPolicy};
use swbfs_core::BfsConfig;

/// Most sources one sweep can carry: the bit width of the mask word.
pub const MAX_BATCH: usize = 64;

/// Level value for vertices a source never reaches.
pub const UNREACHED: u32 = u32::MAX;

/// The result of one batched sweep.
#[derive(Clone, Debug)]
pub struct MsBfsOutput {
    /// The batch, in bit order: `levels[k]` answers `sources[k]`.
    pub sources: Vec<Vid>,
    /// `levels[k].level(v)` = BFS distance from `sources[k]` to vertex
    /// `v` ([`UNREACHED`] when no path exists).
    pub levels: Vec<LevelMap>,
    /// Synchronous rounds the sweep ran: the deepest settled level plus
    /// the final round that finds the frontier empty (an isolated source
    /// reports 1).
    pub rounds: u32,
    /// Each round's direction, in round order (`rounds` entries).
    pub directions: Vec<Direction>,
    /// Bytes the Bottom-Up rounds charge for reading the other ranks'
    /// frontier masks: per round, an all-gather of every rank's owned
    /// `curr` slice, sparse or dense, whichever is smaller. No fabric
    /// moves them, so they are not in `exchange.*`.
    pub view_bytes: u64,
}

/// Runs one bit-parallel multi-source sweep over the cluster.
///
/// Duplicate sources are legal (each bit advances independently); every
/// source must lie inside the vertex id space. Each round runs Top-Down
/// or Bottom-Up as the engine's [`TraversalPolicy`] decides, with
/// [`BfsConfig::paper`]'s α and β; the levels do not depend on it.
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
    let tracer = cluster.tracer().cloned();
    let tr = tracer.as_ref();
    let mut sweep = Sweep::new(cluster, sources);
    let mut front = sweep.count_curr(&cluster.csrs);

    let paper = BfsConfig::paper();
    let mut policy = TraversalPolicy::new(paper.alpha, paper.beta);
    // `m_u` needs no sweep: a (source, vertex) pair is in the frontier
    // exactly once, the round after it is seen, so the unvisited
    // popcount-weighted degree sum is K·M minus every round's `m_f`.
    let batch = u64::MAX >> (MAX_BATCH - kq);
    let mut m_u = kq as u64 * cluster.csrs.iter().map(Csr::num_entries).sum::<u64>();
    let mut directions = Vec::new();
    let mut view_bytes = 0;
    let mut round = 0u32;
    while front.n_f != 0 {
        m_u -= front.m_f;
        debug_assert_eq!(
            m_u,
            sweep.unvisited_edges(&cluster.csrs, batch),
            "round {round}: carried m_u disagrees with the seen-word sweep"
        );
        let dir = policy.decide(&PolicyInputs {
            frontier_vertices: front.n_f,
            frontier_edges: front.m_f,
            unvisited_edges: m_u,
            total_vertices: n * kq as u64,
        });
        cluster.set_round(round);
        front = match dir {
            Direction::TopDown => sweep.top_down(cluster, tr, round),
            Direction::BottomUp => {
                view_bytes += view_charge(&sweep.ranges, &front.words);
                sweep.bottom_up(cluster, tr, front.live, round)
            }
        };
        sweep.levels.settled(round + 1, front.live);
        directions.push(dir);
        sweep.advance();
        round += 1;
    }

    MsBfsOutput {
        sources: sources.to_vec(),
        levels: sweep.levels.into_maps(sources),
        rounds: round,
        directions,
        view_bytes,
    }
}

/// What a Bottom-Up round charges for its view of the other ranks'
/// `curr` words: an all-gather in which rank `r` sends its owned slice
/// to each of the other `P − 1` ranks, as (id, mask) pairs — 16 bytes
/// per non-zero word — or dense — 8 bytes per owned word — whichever is
/// smaller. `words[r]` is rank `r`'s non-zero word count.
fn view_charge(ranges: &[(usize, usize)], words: &[u64]) -> u64 {
    let slices: u64 = ranges
        .iter()
        .zip(words)
        .map(|(&(lo, hi), &nnz)| (16 * nnz).min(8 * (hi - lo) as u64))
        .sum();
    (ranges.len() as u64 - 1) * slices
}

/// A frontier, counted while it settles: the policy's inputs, the live
/// mask and the view charge's word counts.
#[derive(Debug, PartialEq, Eq)]
struct Frontier {
    /// Σ popcount(word): the (source, vertex) pairs in it (`n_f`).
    n_f: u64,
    /// Σ popcount(word)·deg(v) (`m_f`).
    m_f: u64,
    /// OR of every word: the sources whose wave is still moving.
    live: u64,
    /// Non-zero words per rank.
    words: Vec<u64>,
}

impl Frontier {
    fn new(ranks: usize) -> Self {
        Self {
            n_f: 0,
            m_f: 0,
            live: 0,
            words: vec![0; ranks],
        }
    }

    /// Counts rank `r`'s non-zero word `word` of a vertex of degree `degree`.
    #[inline]
    fn add(&mut self, r: usize, word: u64, degree: u64) {
        let k = u64::from(word.count_ones());
        self.n_f += k;
        self.m_f += k * degree;
        self.live |= word;
        self.words[r] += 1;
    }
}

/// One sweep's per-vertex words, its sender-side scratch and its level
/// planes, each one array over the whole id space of which rank `r`
/// touches only its own range (`agg`/`touched` excepted: the ranks use
/// them one after another and leave them zeroed).
#[derive(Clone)]
struct Sweep {
    /// Each rank's owned id range.
    ranges: Vec<(usize, usize)>,
    /// Waves that ever arrived.
    seen: Vec<u64>,
    /// Waves arriving this round.
    curr: Vec<u64>,
    /// Waves found for the coming round.
    next: Vec<u64>,
    // Per sweep, not per rank: ranks generate one after another and
    // emission hands both back zeroed. (Per thread, should ranks ever
    // generate in parallel.)
    agg: Vec<u64>,
    touched: Vec<u64>,
    /// The levels found so far, bit-sliced.
    levels: LevelPlanes,
}

impl Sweep {
    /// Each source claims its bit at distance 0.
    fn new<T: Transport>(cluster: &AlgoCluster<T>, sources: &[Vid]) -> Self {
        let n = cluster.num_vertices() as usize;
        let ranges = (0..cluster.num_ranks())
            .map(|r| {
                let (lo, hi) = cluster.part.range(r);
                (lo as usize, hi as usize)
            })
            .collect();
        let mut sweep = Self {
            ranges,
            seen: vec![0; n],
            curr: vec![0; n],
            next: vec![0; n],
            agg: vec![0; n],
            touched: vec![0; n.div_ceil(64)],
            levels: LevelPlanes::new(n, sources.len()),
        };
        for (b, &s) in sources.iter().enumerate() {
            sweep.curr[s as usize] |= 1u64 << b;
            sweep.seen[s as usize] |= 1u64 << b;
        }
        sweep
    }

    /// The sources' frontier, counted.
    fn count_curr(&self, csrs: &[Csr]) -> Frontier {
        let mut front = Frontier::new(self.ranges.len());
        for (r, &(lo, hi)) in self.ranges.iter().enumerate() {
            count_words(&self.curr[lo..hi], &csrs[r], r, &mut front);
        }
        front
    }

    /// A Top-Down round: gen + emit, exchange, handle + settle.
    fn top_down<T: Transport>(
        &mut self,
        cluster: &mut AlgoCluster<T>,
        tr: Option<&Tracer>,
        round: u32,
    ) -> Frontier {
        self.levels.grow(round + 1);
        // Generate: every frontier vertex offers its mask to all
        // neighbours. A neighbour is local iff `v - lo < len` (one
        // compare, no division); remote masks aggregate per target so
        // each (rank, target) sends one record however many frontier
        // vertices feed it.
        let mut out = cluster.lend_outboxes();
        for (r, &(lo, hi)) in self.ranges.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            let csr = &cluster.csrs[r];
            let (seen_r, next_r) = (&mut self.seen[lo..hi], &mut self.next[lo..hi]);
            for (i, &mask) in self.curr[lo..hi].iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                for &v in csr.neighbors_local(i) {
                    let v = v as usize;
                    if let Some(s) = seen_r.get_mut(v.wrapping_sub(lo)) {
                        apply_mask(mask, s, &mut next_r[v - lo]);
                    } else {
                        self.agg[v] |= mask;
                        self.touched[v / 64] |= 1 << (v % 64);
                    }
                }
            }
            // Emit: the bitmap walk yields targets in ascending order —
            // the order the wire has always carried — and the range the
            // walk is inside names the destination.
            let mut produced = 0u64;
            let mut dest = 0;
            for (w, word) in self.touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    while v >= self.ranges[dest].1 {
                        dest += 1;
                    }
                    let mask = std::mem::take(&mut self.agg[v]);
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
        // reached this round, so one scan ORs them into the level's
        // planes and counts the coming frontier.
        let inboxes = cluster.exchange(out);
        let mut front = Frontier::new(self.ranges.len());
        for (r, inbox) in inboxes.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            let (lo, hi) = self.ranges[r];
            let csr = &cluster.csrs[r];
            let (seen_r, next_r) = (&mut self.seen[lo..hi], &mut self.next[lo..hi]);
            for rec in inbox {
                let i = rec.u as usize - lo;
                apply_mask(rec.v, &mut seen_r[i], &mut next_r[i]);
            }
            for (i, &word) in next_r.iter().enumerate() {
                if word != 0 {
                    self.levels.mark(lo + i, word, round + 1);
                    front.add(r, word, csr.degree_local(i));
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
        front
    }

    /// A Bottom-Up round: every owned vertex a live source has not
    /// reached ORs its neighbours' `curr` masks, read by vertex id from
    /// the one array every rank sees, until every such source is found.
    /// No outbox, no exchange. Sources outside `live` (the OR of every
    /// `curr` word) have stopped moving and are never looked for — else
    /// a batch holding an isolated source would scan every row in full.
    fn bottom_up<T: Transport>(
        &mut self,
        cluster: &AlgoCluster<T>,
        tr: Option<&Tracer>,
        live: u64,
        round: u32,
    ) -> Frontier {
        self.levels.grow(round + 1);
        let mut front = Frontier::new(self.ranges.len());
        for (r, &(lo, hi)) in self.ranges.iter().enumerate() {
            let t0 = ins::span_begin(tr);
            let csr = &cluster.csrs[r];
            let next_r = &mut self.next[lo..hi];
            for (i, seen) in self.seen[lo..hi].iter_mut().enumerate() {
                let unseen = live & !*seen;
                if unseen == 0 {
                    continue;
                }
                let mut found = 0;
                for &u in csr.neighbors_local(i) {
                    found |= self.curr[u as usize];
                    if found & unseen == unseen {
                        break;
                    }
                }
                let new = found & unseen;
                if new != 0 {
                    *seen |= new;
                    next_r[i] = new;
                    self.levels.mark(lo + i, new, round + 1);
                }
            }
            ins::span_end(tr, r, ins::SPAN_GEN, ins::CAT_COMPUTE, round, t0, 0);
            let t0 = ins::span_begin(tr);
            count_words(next_r, csr, r, &mut front);
            ins::span_end(tr, r, ins::SPAN_HANDLE, ins::CAT_COMPUTE, round, t0, 0);
        }
        front
    }

    /// The found waves become the frontier.
    fn advance(&mut self) {
        std::mem::swap(&mut self.curr, &mut self.next);
        self.next.fill(0);
    }

    /// `m_u` by a direct sweep: Σ popcount(`batch` & !seen[v])·deg(v).
    fn unvisited_edges(&self, csrs: &[Csr], batch: u64) -> u64 {
        let mut m_u = 0;
        for (&(lo, hi), csr) in self.ranges.iter().zip(csrs) {
            for (i, &seen) in self.seen[lo..hi].iter().enumerate() {
                m_u += u64::from((batch & !seen).count_ones()) * csr.degree_local(i);
            }
        }
        m_u
    }
}

/// Counts rank `r`'s slice `words` of a frontier into `front`.
fn count_words(words: &[u64], csr: &Csr, r: usize, front: &mut Frontier) {
    for (i, &word) in words.iter().enumerate() {
        if word != 0 {
            front.add(r, word, csr.degree_local(i));
        }
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

/// Single-node reference: the engine's sequential BFS
/// ([`swbfs_core::baseline::sequential_bfs_levels`]) with unreached
/// vertices at [`UNREACHED`], the differential oracle for every bit of a
/// batched sweep.
pub fn bfs_levels_oracle(el: &EdgeList, root: Vid) -> Vec<u32> {
    swbfs_core::baseline::sequential_bfs_levels(el, root)
        .into_iter()
        .map(|l| l.unwrap_or(UNREACHED))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sw_graph::{generate_kronecker, KroneckerConfig};
    use swbfs_core::config::Messaging;

    #[test]
    fn single_source_matches_oracle() {
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 3));
        let oracle = bfs_levels_oracle(&el, 1);
        for ranks in [1u32, 4, 7] {
            let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Relay);
            let out = msbfs_distributed(&mut c, &[1]);
            assert_eq!(out.levels[0].to_vec(), oracle, "ranks = {ranks}");
        }
    }

    #[test]
    fn batch_bits_are_independent() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 5));
        let sources = [0u64, 7, 31, 101, 255];
        let mut c = AlgoCluster::new(&el, 4, 2, Messaging::Direct);
        let out = msbfs_distributed(&mut c, &sources);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(
                out.levels[k].to_vec(),
                bfs_levels_oracle(&el, s),
                "source {s}"
            );
        }
    }

    #[test]
    fn duplicate_sources_answer_identically() {
        let el = generate_kronecker(&KroneckerConfig::graph500(8, 1));
        let mut c = AlgoCluster::new(&el, 3, 2, Messaging::Relay);
        let out = msbfs_distributed(&mut c, &[5, 5, 9]);
        assert_eq!(out.levels[0], out.levels[1]);
        assert_eq!(out.levels[0].to_vec(), bfs_levels_oracle(&el, 5));
    }

    #[test]
    fn isolated_source_reaches_only_itself() {
        let el = EdgeList::new(6, vec![(0, 1), (1, 2)]);
        let mut c = AlgoCluster::new(&el, 2, 2, Messaging::Direct);
        let out = msbfs_distributed(&mut c, &[4]);
        let mut expect = vec![UNREACHED; 6];
        expect[4] = 0;
        assert_eq!(out.levels[0].to_vec(), expect);
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
            assert_eq!(out.levels[k].level(s), 0);
            assert_eq!(out.levels[k].level(0), 1);
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
        assert_eq!(out.levels[63].to_vec(), bfs_levels_oracle(&el, 63));
    }

    /// The state after up to `warm` Top-Down rounds of the kernel's own
    /// loop, stopping early so the frontier is never empty: the sweep,
    /// its counted frontier and the index of the round it is ready for.
    fn state_after<T: Transport>(
        c: &mut AlgoCluster<T>,
        sources: &[Vid],
        warm: u32,
    ) -> (Sweep, Frontier, u32) {
        let mut sweep = Sweep::new(c, sources);
        let mut front = sweep.count_curr(&c.csrs);
        for round in 0..warm {
            let mut after = sweep.clone();
            let found = after.top_down(c, None, round);
            if found.n_f == 0 {
                return (sweep, front, round);
            }
            after.advance();
            (sweep, front) = (after, found);
        }
        (sweep, front, warm)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// From one (`seen`, `curr`) state, a Bottom-Up round and a
        /// Top-Down round (gen, exchange, handle) find the same waves:
        /// equal `seen`, `next`, levels and counted frontier. Vertex `n`
        /// is isolated and `n + 1`–`n + 2` is a two-vertex component;
        /// `special` puts a source on either, so some waves stop moving
        /// after the first round or two (the live mask's case).
        #[test]
        fn bottom_up_round_equals_top_down_round(
            n in 1u64..160,
            raw_edges in proptest::collection::vec((0u64..160, 0u64..160), 0..400),
            ranks in 1u32..=8,
            raw_sources in proptest::collection::vec(0u64..163, 1..65),
            special in 0u8..4,
            warm in 0u32..4,
        ) {
            let mut edges: Vec<(Vid, Vid)> =
                raw_edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            edges.push((n + 1, n + 2));
            let el = EdgeList::new(n + 3, edges);
            let mut sources: Vec<Vid> = raw_sources.into_iter().map(|s| s % (n + 3)).collect();
            if special & 1 != 0 {
                sources[0] = n;
            }
            if special & 2 != 0 {
                let last = sources.len() - 1;
                sources[last] = n + 1;
            }
            let mut c = AlgoCluster::new(&el, ranks.min(n as u32 + 3), 2, Messaging::Direct);
            let (sweep, front, round) = state_after(&mut c, &sources, warm);
            let (mut td, mut bu) = (sweep.clone(), sweep);
            let found_td = td.top_down(&mut c, None, round);
            let found_bu = bu.bottom_up(&c, None, front.live, round);
            prop_assert_eq!(&bu.seen, &td.seen);
            prop_assert_eq!(&bu.next, &td.next);
            prop_assert_eq!(&bu.levels, &td.levels);
            prop_assert_eq!(found_bu, found_td);
        }
    }

    #[test]
    fn a_bottom_up_round_moves_nothing_on_the_wire() {
        let el = generate_kronecker(&KroneckerConfig::graph500(9, 7));
        let sources: Vec<Vid> = (0..MAX_BATCH as u64).map(|k| k * 7).collect();
        let mut c = AlgoCluster::new(&el, 4, 2, Messaging::Relay);
        let (mut sweep, front, round) = state_after(&mut c, &sources, 1);
        assert_eq!(round, 1);
        let before = c.stats;
        let found = sweep.bottom_up(&c, None, front.live, round);
        assert!(found.n_f > 0, "the round found nothing to compare");
        assert_eq!(c.stats, before, "a Bottom-Up round touched the exchange");
    }

    #[test]
    fn middle_rounds_go_bottom_up_with_the_same_levels() {
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 3));
        let sources: Vec<Vid> = (0..MAX_BATCH as u64).map(|k| k * 13 + 1).collect();
        for ranks in [1u32, 4] {
            let mut c = AlgoCluster::new(&el, ranks, 2, Messaging::Direct);
            let out = msbfs_distributed(&mut c, &sources);
            assert_eq!(out.directions.len(), out.rounds as usize);
            assert_eq!(out.directions[0], Direction::TopDown);
            assert!(
                out.directions.contains(&Direction::BottomUp),
                "{:?}",
                out.directions
            );
            // One rank reads only its own masks: nothing to charge.
            assert_eq!(out.view_bytes == 0, ranks == 1, "ranks = {ranks}");
            for k in [0, 31, 63] {
                assert_eq!(out.levels[k].to_vec(), bfs_levels_oracle(&el, sources[k]));
            }
        }
    }

    #[test]
    fn the_view_charge_takes_the_smaller_encoding_per_rank() {
        // Rank 0: 1 non-zero word of 10 (16 B sparse < 80 B dense);
        // rank 1: 4 of 4 (32 B dense < 64 B sparse); 2 ranks, 1 peer each.
        assert_eq!(view_charge(&[(0, 10), (10, 14)], &[1, 4]), 48);
        assert_eq!(view_charge(&[(0, 10)], &[7]), 0);
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
