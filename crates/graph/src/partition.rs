//! 1-D block partitioning of the vertex set over ranks.
//!
//! The paper partitions the CSR adjacency matrix by rows so every vertex has
//! exactly one owner. Because the generator scrambles vertex labels first,
//! equal-size contiguous blocks are balanced in expectation (the paper's
//! "balance the graph partitioning"). Blocks also make `owner(v)` a divide —
//! the address algebra the Forward/Backward generators evaluate per edge.

use crate::{LocalVid, Vid};

/// A 1-D block partition of `num_vertices` ids over `num_ranks` owners.
///
/// Every rank owns a contiguous block of `ceil(n / p)` ids except possibly
/// the last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition1D {
    num_vertices: Vid,
    num_ranks: u32,
    block: Vid,
}

impl Partition1D {
    /// Creates a partition of `num_vertices` over `num_ranks`.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(num_vertices: Vid, num_ranks: u32) -> Self {
        assert!(num_vertices > 0, "empty vertex set");
        assert!(num_ranks > 0, "zero ranks");
        Self {
            num_vertices,
            num_ranks,
            block: num_vertices.div_ceil(num_ranks as Vid),
        }
    }

    /// Size of the global id space.
    pub fn num_vertices(&self) -> Vid {
        self.num_vertices
    }

    /// Number of owners.
    pub fn num_ranks(&self) -> u32 {
        self.num_ranks
    }

    /// The owning rank of global vertex `v`.
    #[inline]
    pub fn owner(&self, v: Vid) -> u32 {
        debug_assert!(v < self.num_vertices);
        (v / self.block) as u32
    }

    /// `[start, end)` global-id range owned by `rank`.
    pub fn range(&self, rank: u32) -> (Vid, Vid) {
        assert!(rank < self.num_ranks, "rank out of range");
        let start = (rank as Vid * self.block).min(self.num_vertices);
        let end = (start + self.block).min(self.num_vertices);
        (start, end)
    }

    /// Number of vertices owned by `rank`.
    pub fn owned_count(&self, rank: u32) -> Vid {
        let (s, e) = self.range(rank);
        e - s
    }

    /// Translates a global id to its owner-local index.
    #[inline]
    pub fn to_local(&self, v: Vid) -> LocalVid {
        (v % self.block) as LocalVid
    }

    /// Translates `(rank, local)` back to the global id.
    #[inline]
    pub fn to_global(&self, rank: u32, local: LocalVid) -> Vid {
        rank as Vid * self.block + local as Vid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_vertices_exactly_once() {
        for (n, p) in [(100u64, 7u32), (64, 64), (1, 1), (1000, 3), (5, 8)] {
            let part = Partition1D::new(n, p);
            let mut covered = 0;
            for r in 0..p {
                let (s, e) = part.range(r);
                covered += e - s;
                for v in s..e {
                    assert_eq!(part.owner(v), r, "n={n} p={p} v={v}");
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn local_global_round_trip() {
        let part = Partition1D::new(1000, 7);
        for v in [0u64, 1, 142, 143, 999] {
            let r = part.owner(v);
            let l = part.to_local(v);
            assert_eq!(part.to_global(r, l), v);
        }
    }

    #[test]
    fn blocks_are_balanced() {
        let part = Partition1D::new(1 << 20, 40);
        let sizes: Vec<_> = (0..40).map(|r| part.owned_count(r)).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= part.num_vertices().div_ceil(40) );
        assert_eq!(sizes.iter().sum::<u64>(), 1 << 20);
    }

    #[test]
    fn more_ranks_than_vertices_leaves_empty_tails() {
        let part = Partition1D::new(5, 8);
        assert_eq!(part.owned_count(0), 1);
        assert_eq!(part.owned_count(4), 1);
        assert_eq!(part.owned_count(5), 0);
        assert_eq!(part.owned_count(7), 0);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn range_rejects_bad_rank() {
        Partition1D::new(10, 2).range(2);
    }
}
