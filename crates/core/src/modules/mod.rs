//! The Figure 1 processing modules.
//!
//! The BFS body is six modules — Forward Generator / Relay / Handler and
//! Backward Generator / Relay / Handler. Generators and handlers live here
//! as pure functions over [`RankState`](crate::rank::RankState) plus
//! outboxes; the relay modules are transport-level and live in
//! [`crate::exchange`]. Handlers are *dispose* modules (no output data);
//! everything else is a *reaction* module (produces records to send),
//! which on the real machine runs on the contention-free shuffle engine.

mod backward_generator;
mod backward_handler;
mod forward_generator;
mod forward_handler;
#[cfg(test)]
pub(crate) mod reference;

pub use backward_generator::backward_generator;
pub use backward_handler::backward_handler;
pub use forward_generator::forward_generator;
pub use forward_handler::forward_handler;

use crate::messages::EdgeRec;

/// Record buffer a reaction module fills, tagged per destination rank.
///
/// Storage is **flat**: two parallel vectors in push order (records and
/// destination tags) instead of one `Vec` per destination. A push is a
/// single append with no per-destination growth, the buffers recycle
/// through [`ExchangeArena`](crate::arena::ExchangeArena) with their
/// capacity intact, and the exchange turns the flat stream into
/// per-destination batches with one counting-sort pass.
#[derive(Clone, Debug, Default)]
pub struct Outboxes {
    ranks: usize,
    recs: Vec<EdgeRec>,
    dests: Vec<u32>,
    /// Record capacity at checkout time; the arena compares against it
    /// on return to detect growth (= heap work) during generation.
    lent_cap: usize,
}

impl Outboxes {
    /// Empty outboxes for `ranks` destinations.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            recs: Vec::new(),
            dests: Vec::new(),
            lent_cap: 0,
        }
    }

    /// Rebuilds outboxes on top of recycled buffers (cleared, capacity
    /// kept). Used by the exchange arena's buffer pool.
    pub(crate) fn from_pooled(ranks: usize, mut recs: Vec<EdgeRec>, mut dests: Vec<u32>) -> Self {
        recs.clear();
        dests.clear();
        let lent_cap = recs.capacity();
        Self {
            ranks,
            recs,
            dests,
            lent_cap,
        }
    }

    /// Capacity the buffers had when checked out of the arena pool.
    pub(crate) fn lent_capacity(&self) -> usize {
        self.lent_cap
    }

    /// Queues a record for `dest`.
    #[inline]
    pub fn push(&mut self, dest: u32, rec: EdgeRec) {
        debug_assert!((dest as usize) < self.ranks, "destination out of range");
        self.recs.push(rec);
        self.dests.push(dest);
    }

    /// Number of destination slots.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Records queued for `dest`, in push order. O(total records) — a
    /// diagnostic/test accessor, not a hot-path API.
    pub fn for_rank(&self, dest: u32) -> Vec<EdgeRec> {
        self.recs
            .iter()
            .zip(&self.dests)
            .filter(|&(_, &d)| d == dest)
            .map(|(&r, _)| r)
            .collect()
    }

    /// Total queued records.
    pub fn total_records(&self) -> u64 {
        self.recs.len() as u64
    }

    /// Forgets all queued records, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.recs.clear();
        self.dests.clear();
    }

    /// The flat (records, destination tags) streams, in push order.
    pub fn parts(&self) -> (&[EdgeRec], &[u32]) {
        (&self.recs, &self.dests)
    }

    /// Consumes into the flat (records, destination tags) buffers.
    pub(crate) fn into_parts(self) -> (Vec<EdgeRec>, Vec<u32>) {
        (self.recs, self.dests)
    }

    /// Buckets the flat stream into per-destination vectors and clears
    /// the flat buffers, keeping their capacity for the next level. The
    /// per-destination allocation is inherent for callers that hand each
    /// box to a different owner, e.g. the socket transport.
    pub fn drain_into_boxes(&mut self) -> Vec<Vec<EdgeRec>> {
        let mut counts = vec![0usize; self.ranks];
        for &d in &self.dests {
            counts[d as usize] += 1;
        }
        let mut boxes: Vec<Vec<EdgeRec>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (&r, &d) in self.recs.iter().zip(&self.dests) {
            boxes[d as usize].push(r);
        }
        self.clear();
        boxes
    }

    /// Consumes into per-destination vectors (buckets the flat stream;
    /// allocates).
    pub fn into_inner(mut self) -> Vec<Vec<EdgeRec>> {
        self.drain_into_boxes()
    }
}

/// What a module did — the per-module slice of
/// [`LevelStats`](crate::result::LevelStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Adjacency entries scanned.
    pub edges_scanned: u64,
    /// Claims applied without leaving the rank.
    pub local_claims: u64,
    /// Records suppressed by the replicated hub bitmaps.
    pub hub_skips: u64,
    /// Records queued for other ranks.
    pub records_out: u64,
    /// Frontier/visited words examined by word-parallel sweeps.
    pub words_scanned: u64,
    /// Of those, words dismissed with a single all-zero compare.
    pub words_skipped: u64,
}

impl ModuleStats {
    /// Accumulates another module's counters.
    pub fn absorb(&mut self, other: ModuleStats) {
        self.edges_scanned += other.edges_scanned;
        self.local_claims += other.local_claims;
        self.hub_skips += other.hub_skips;
        self.records_out += other.records_out;
        self.words_scanned += other.words_scanned;
        self.words_skipped += other.words_skipped;
    }
}
