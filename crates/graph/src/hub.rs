//! Degree-aware hub vertex selection (paper §5, "Degree aware prefetch").
//!
//! Power-law graphs concentrate most edges on a few high-degree "hub"
//! vertices. The paper replicates the frontier state of a fixed number of
//! hubs on every node (2^12 for Top-Down, 2^14 for Bottom-Up), compressed
//! as a bitmap, so edge look-ups that hit a hub need no network message.
//!
//! This module picks the global top-k vertices by degree and assigns each a
//! dense *hub index* used to address the replicated bitmap.

use crate::{Csr, Vid};

/// Number of hub vertices the paper replicates during Top-Down levels.
pub const TOP_DOWN_HUBS: usize = 1 << 12;
/// Number of hub vertices the paper replicates during Bottom-Up levels.
pub const BOTTOM_UP_HUBS: usize = 1 << 14;

/// Key of an unoccupied reverse-map slot. Never a vertex id: it is the
/// `NO_PARENT` sentinel of the traversal, and [`HubSet::from_ranked`]
/// asserts it.
const EMPTY: Vid = Vid::MAX;

/// 2^64 / φ: the multiplier of Fibonacci hashing, which spreads the
/// generator's scrambled-but-clustered ids over the high bits.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The global hub set: the `k` highest-degree vertices, each with a dense
/// index into the replicated hub bitmap.
///
/// The reverse map (global id → hub index) is probed once per scanned
/// edge by both generators, so it is a flat open-addressed table — keys
/// and indices in parallel arrays of power-of-two length at load ≤ ½,
/// multiplicative hash, linear probing — rather than a `HashMap`: no
/// SipHash, and a miss (the common case) touches one or two key words.
#[derive(Clone, Debug)]
pub struct HubSet {
    /// Hub global ids, ordered by descending degree (ties by ascending id).
    hubs: Vec<Vid>,
    /// Reverse-map keys; [`EMPTY`] marks a free slot.
    keys: Vec<Vid>,
    /// Hub index of the key in the same slot.
    vals: Vec<u32>,
    /// `64 − log2(keys.len())`: the hash keeps the top bits.
    shift: u32,
}

impl Default for HubSet {
    fn default() -> Self {
        Self::from_ranked(Vec::new())
    }
}

impl HubSet {
    /// Selects the top-`k` vertices by degree from a whole-graph CSR.
    ///
    /// Deterministic: ties broken by ascending vertex id. If the graph has
    /// fewer than `k` vertices with nonzero degree, only those are hubs.
    pub fn top_k(csr: &Csr, k: usize) -> Self {
        let mut by_degree: Vec<(u64, Vid)> = csr
            .rows()
            .enumerate()
            .filter(|(_, (_, nbrs))| !nbrs.is_empty())
            .map(|(i, (v, _))| (csr.degree_local(i), v))
            .collect();
        by_degree.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        by_degree.truncate(k);
        Self::from_ranked(by_degree.into_iter().map(|(_, v)| v).collect())
    }

    /// Builds a hub set from per-rank degree observations: each entry is
    /// `(vertex, degree)`. Used by the distributed build where no single
    /// rank holds the whole CSR.
    pub fn from_degrees(mut degrees: Vec<(Vid, u64)>, k: usize) -> Self {
        degrees.retain(|&(_, d)| d > 0);
        degrees.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        degrees.truncate(k);
        Self::from_ranked(degrees.into_iter().map(|(v, _)| v).collect())
    }

    /// Builds the reverse map over hubs already in rank order. Ids must
    /// be distinct.
    fn from_ranked(hubs: Vec<Vid>) -> Self {
        // At least two slots (so `shift < 64`) and at least twice the
        // hubs (so every probe sequence ends at a free slot).
        let cap = (hubs.len() * 2).next_power_of_two().max(2);
        let mut set = Self {
            hubs,
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            shift: 64 - cap.trailing_zeros(),
        };
        for i in 0..set.hubs.len() {
            let v = set.hubs[i];
            debug_assert!(v != EMPTY, "the empty-slot sentinel is not a vertex id");
            let mut slot = set.slot_of(v);
            while set.keys[slot] != EMPTY {
                debug_assert!(set.keys[slot] != v, "hub {v} listed twice");
                slot = (slot + 1) & (cap - 1);
            }
            set.keys[slot] = v;
            set.vals[slot] = i as u32;
        }
        set
    }

    /// Home slot of `v`.
    #[inline]
    fn slot_of(&self, v: Vid) -> usize {
        (v.wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    /// Number of hubs actually selected.
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    /// True if no hubs were selected.
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// Dense hub index of a vertex, if it is a hub.
    #[inline]
    pub fn hub_index(&self, v: Vid) -> Option<u32> {
        // Both arrays are one power-of-two length, never zero: indexing
        // with `slot & mask` lets the compiler drop the bounds checks.
        let keys = &self.keys[..];
        let vals = &self.vals[..keys.len()];
        let mask = keys.len() - 1;
        let mut slot = self.slot_of(v);
        loop {
            // Free slot first: a probe for the sentinel itself then ends
            // as a miss instead of matching an unoccupied slot.
            let key = keys[slot & mask];
            if key == EMPTY {
                return None;
            }
            if key == v {
                return Some(vals[slot & mask]);
            }
            slot += 1;
        }
    }

    /// Global id of hub `i`.
    pub fn hub_vertex(&self, i: u32) -> Vid {
        self.hubs[i as usize]
    }

    /// All hub ids, descending by degree.
    pub fn hubs(&self) -> &[Vid] {
        &self.hubs
    }

    /// Bytes of the replicated frontier bitmap for this hub set.
    pub fn bitmap_bytes(&self) -> usize {
        self.hubs.len().div_ceil(64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_kronecker, EdgeList, KroneckerConfig};

    fn star_plus_path() -> Csr {
        // 0 is a hub (degree 4), 5-6-7 a path.
        let el = EdgeList::new(
            8,
            vec![(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7)],
        );
        Csr::from_edge_list(&el)
    }

    #[test]
    fn picks_highest_degree_first() {
        let hs = HubSet::top_k(&star_plus_path(), 2);
        assert_eq!(hs.len(), 2);
        assert_eq!(hs.hub_vertex(0), 0); // degree 4
        assert_eq!(hs.hub_vertex(1), 6); // degree 2
        assert_eq!(hs.hub_index(0), Some(0));
        assert_eq!(hs.hub_index(6), Some(1));
        assert_eq!(hs.hub_index(5), None);
    }

    #[test]
    fn skips_isolated_vertices() {
        let el = EdgeList::new(10, vec![(0, 1)]);
        let hs = HubSet::top_k(&Csr::from_edge_list(&el), 5);
        assert_eq!(hs.len(), 2);
        assert!(!hs.is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        // All degree-1 pairs: hubs must be ascending ids.
        let el = EdgeList::new(8, vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        let hs = HubSet::top_k(&Csr::from_edge_list(&el), 3);
        assert_eq!(hs.hubs(), &[0, 1, 2]);
    }

    #[test]
    fn from_degrees_matches_top_k() {
        let csr = Csr::from_edge_list(&generate_kronecker(&KroneckerConfig::graph500(10, 3)));
        let degrees: Vec<(Vid, u64)> = csr.rows().map(|(v, n)| (v, n.len() as u64)).collect();
        let a = HubSet::top_k(&csr, 64);
        let b = HubSet::from_degrees(degrees, 64);
        assert_eq!(a.hubs(), b.hubs());
    }

    #[test]
    fn hubs_cover_disproportionate_edges() {
        // Power-law check: top 1% of vertices should own far more than 1%
        // of edge endpoints on a Kronecker graph.
        let csr = Csr::from_edge_list(&generate_kronecker(&KroneckerConfig::graph500(12, 5)));
        let k = (csr.num_vertices() / 100) as usize;
        let hs = HubSet::top_k(&csr, k);
        let hub_entries: u64 = hs.hubs().iter().map(|&v| csr.degree(v)).sum();
        let frac = hub_entries as f64 / csr.num_entries() as f64;
        assert!(frac > 0.10, "top 1% hubs only cover {frac:.3} of entries");
    }

    /// The oracle the table replaced a `HashMap` against: a linear
    /// search of the rank-ordered hub list.
    fn naive_index(hs: &HubSet, v: Vid) -> Option<u32> {
        hs.hubs().iter().position(|&h| h == v).map(|i| i as u32)
    }

    #[test]
    fn empty_set_answers_none() {
        for hs in [HubSet::default(), HubSet::from_degrees(vec![(3, 0)], 8)] {
            assert!(hs.is_empty());
            for v in [0, 1, 3, 1 << 40, Vid::MAX] {
                assert_eq!(hs.hub_index(v), None);
            }
        }
    }

    #[test]
    fn colliding_keys_probe_past_each_other_and_wrap() {
        // Four hubs → eight slots. Draw all four (and two non-members)
        // from the ids whose home slot is the *last* one, so every
        // insert after the first collides and the probe wraps to slot 0.
        let probe = HubSet::from_degrees((0..4).map(|v| (v, 1)).collect(), 4);
        assert_eq!(probe.keys.len(), 8);
        let same_home: Vec<Vid> = (0..10_000u64).filter(|&v| probe.slot_of(v) == 7).take(6).collect();
        assert_eq!(same_home.len(), 6);
        let degrees = same_home[..4].iter().enumerate().map(|(i, &v)| (v, 100 - i as u64)).collect();
        let hs = HubSet::from_degrees(degrees, 4);
        assert_eq!(hs.hubs(), &same_home[..4]);
        for (i, &v) in same_home.iter().enumerate() {
            assert_eq!(hs.hub_index(v), (i < 4).then_some(i as u32), "id {v}");
        }
        assert_eq!(hs.hub_index(Vid::MAX), None, "the sentinel is never a member");
    }

    proptest::proptest! {
        #[test]
        fn table_matches_linear_search(
            ids in proptest::collection::vec(0u64..512, 0..96),
            far in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
            k in 0usize..80,
        ) {
            // Distinct ids (dense small ones plus a few anywhere in the
            // id space), degrees descending in draw order; `k` cuts the
            // set anywhere from empty through k = 1 to everything.
            let mut seen = std::collections::HashSet::new();
            let degrees: Vec<(Vid, u64)> = ids
                .iter()
                .chain(&far)
                .filter(|&&v| v != Vid::MAX && seen.insert(v))
                .enumerate()
                .map(|(i, &v)| (v, 1_000 - i as u64))
                .collect();
            let hs = HubSet::from_degrees(degrees.clone(), k);
            proptest::prop_assert_eq!(hs.len(), k.min(degrees.len()));
            // Every drawn id (member or cut off by k), every small id,
            // and the sentinel.
            for v in degrees.iter().map(|&(v, _)| v).chain(0..512).chain([Vid::MAX]) {
                proptest::prop_assert_eq!((v, hs.hub_index(v)), (v, naive_index(&hs, v)));
            }
        }
    }

    #[test]
    fn bitmap_bytes_rounds_to_words() {
        let el = EdgeList::new(4, vec![(0, 1), (2, 3)]);
        let hs = HubSet::top_k(&Csr::from_edge_list(&el), 3);
        assert_eq!(hs.bitmap_bytes(), 8);
    }
}
