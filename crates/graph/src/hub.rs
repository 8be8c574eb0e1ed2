//! Degree-aware hub vertex selection (paper §5, "Degree aware prefetch").
//!
//! Power-law graphs concentrate most edges on a few high-degree "hub"
//! vertices. The paper replicates the frontier state of a fixed number of
//! hubs on every node (2^12 for Top-Down, 2^14 for Bottom-Up), compressed
//! as a bitmap, so edge look-ups that hit a hub need no network message.
//!
//! This module picks the global top-k vertices by degree and assigns each a
//! dense *hub index* used to address the replicated bitmap.

use crate::{Bitmap, Csr, Vid};
use std::collections::HashMap;

/// The global hub set: the `k` highest-degree vertices, each with a dense
/// index into the replicated hub bitmap.
///
/// Membership is one bit test in a bitmap over ids `0..=max hub id`
/// ([`HubSet::contains`]; ids past it read false) — what the Bottom-Up
/// sweep asks per remote neighbour. Hub ids must therefore be graph
/// vertex ids: the bitmap — like any id-indexed view built over the same
/// hubs — takes one bit per id up to the largest hub, at most `n / 8`
/// bytes for a graph of `n` vertices. The reverse map (global id → hub
/// index) is asked only by the reference kernels, so it is a plain
/// `HashMap`.
#[derive(Clone, Debug)]
pub struct HubSet {
    /// Hub global ids, ordered by descending degree (ties by ascending id).
    hubs: Vec<Vid>,
    /// Bit `v` ⟺ `v` is a hub; one bit per id up to the largest hub.
    members: Bitmap,
    /// Global id → hub index.
    index: HashMap<Vid, u32>,
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
    /// Hubs are the CSR's own row ids, so the membership bitmap takes at
    /// most one bit per vertex.
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
    ///
    /// The vertices must be graph vertex ids: the membership bitmap
    /// spans every id up to the largest hub selected, so its memory
    /// grows with that id (one bit each), not with `k`.
    pub fn from_degrees(mut degrees: Vec<(Vid, u64)>, k: usize) -> Self {
        degrees.retain(|&(_, d)| d > 0);
        degrees.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        degrees.truncate(k);
        Self::from_ranked(degrees.into_iter().map(|(v, _)| v).collect())
    }

    /// Builds the lookups over hubs already in rank order. Ids must be
    /// distinct.
    fn from_ranked(hubs: Vec<Vid>) -> Self {
        let mut members = Bitmap::new(hubs.iter().max().map_or(0, |&m| m as usize + 1));
        let mut index = HashMap::with_capacity(hubs.len());
        for (i, &v) in hubs.iter().enumerate() {
            members.set(v as usize);
            let dup = index.insert(v, i as u32);
            debug_assert!(dup.is_none(), "hub {v} listed twice");
        }
        Self { hubs, members, index }
    }

    /// Number of hubs actually selected.
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    /// True if no hubs were selected.
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// True if `v` is a hub: one bit test, false for any id past the
    /// largest hub ([`Vid::MAX`] included).
    #[inline]
    pub fn contains(&self, v: Vid) -> bool {
        self.members.test(v as usize)
    }

    /// Dense hub index of a vertex, if it is a hub.
    #[inline]
    pub fn hub_index(&self, v: Vid) -> Option<u32> {
        self.index.get(&v).copied()
    }

    /// Global id of hub `i`.
    pub fn hub_vertex(&self, i: u32) -> Vid {
        self.hubs[i as usize]
    }

    /// The membership bitmap: bit `v` ⟺ `v` is a hub, one bit per id up
    /// to the largest hub. Id-indexed views over the same hubs AND
    /// against its words.
    pub fn members(&self) -> &Bitmap {
        &self.members
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
        // Graph500 EF16, symmetrized: ~32 entries per vertex on average,
        // and the heaviest row far above that mean.
        let mean = csr.num_entries() as f64 / csr.num_vertices() as f64;
        assert!((mean - 32.0).abs() < 2.0, "mean = {mean}");
        let max = (0..csr.num_rows() as usize).map(|i| csr.degree_local(i)).max().unwrap();
        assert!(max as f64 > 20.0 * mean, "max {max}, mean {mean}");
    }

    /// The oracle: a linear search of the rank-ordered hub list.
    fn naive_index(hs: &HubSet, v: Vid) -> Option<u32> {
        hs.hubs().iter().position(|&h| h == v).map(|i| i as u32)
    }

    #[test]
    fn empty_set_answers_none() {
        for hs in [HubSet::default(), HubSet::from_degrees(vec![(3, 0)], 8)] {
            assert!(hs.is_empty());
            for v in [0, 1, 3, 1 << 40, Vid::MAX] {
                assert_eq!(hs.hub_index(v), None);
                assert!(!hs.contains(v));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn lookups_match_linear_search(
            ids in proptest::collection::vec(0u64..512, 0..96),
            far in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
            k in 0usize..80,
        ) {
            // Distinct graph-sized ids, degrees descending in draw order;
            // `k` cuts the set anywhere from empty through k = 1 to
            // everything. Ids from the whole `u64` range are only asked
            // about: a hub is a vertex id, and the membership bitmap
            // spans up to the largest.
            let mut seen = std::collections::HashSet::new();
            let degrees: Vec<(Vid, u64)> = ids
                .iter()
                .filter(|&&v| seen.insert(v))
                .enumerate()
                .map(|(i, &v)| (v, 1_000 - i as u64))
                .collect();
            let hs = HubSet::from_degrees(degrees.clone(), k);
            proptest::prop_assert_eq!(hs.len(), k.min(degrees.len()));
            // Every drawn id (member or cut off by k), every small id,
            // ids just past the largest hub, anywhere in the id space,
            // and `Vid::MAX`.
            let past = hs.hubs().iter().max().map_or(0, |&m| m + 1);
            let probes = degrees.iter().map(|&(v, _)| v).chain(0..512).chain(far).chain([past, past + 64, Vid::MAX]);
            for v in probes {
                proptest::prop_assert_eq!((v, hs.hub_index(v)), (v, naive_index(&hs, v)));
                proptest::prop_assert_eq!((v, hs.contains(v)), (v, naive_index(&hs, v).is_some()));
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
