//! Compressed Sparse Row adjacency.
//!
//! The paper stores the (symmetrized) adjacency matrix in CSR and partitions
//! it by rows. This module builds a CSR from an edge list — either the whole
//! graph or every partition's rows at once — the way GAP's `BuilderBase`
//! does: count, prefix-sum, scatter, then sort each neighbourhood once,
//! straight into its final [`RowOrder`]. Sorted rows make the Bottom-Up
//! traversal's early exit (first parent found) deterministic.

use crate::store::view::U64s;
use crate::{EdgeList, Partition1D, Vid};
use rayon::prelude::*;
use std::cmp::Reverse;

/// The order a build lays every neighbour list out in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrder {
    /// Ascending neighbour id.
    ById,
    /// Descending neighbour degree, ties by ascending id — the
    /// Yasui-style Bottom-Up refinement (paper §7, ref \[25\]): scanning
    /// likely parents (hubs) first lets the Bottom-Up early exit fire
    /// sooner.
    ByDegree,
}

/// CSR adjacency for a contiguous row range `[row_base, row_base + rows)`.
///
/// Column ids are always *global* vertex ids; rows are addressed by local
/// index (`0..num_rows`). A whole-graph CSR is simply one with
/// `row_base == 0` and `rows == num_vertices`.
///
/// Storage is a pair of [`U64s`] views: builders produce owned vectors,
/// while [`GraphStore`](crate::store::GraphStore) opens hand out
/// zero-copy views over the store's backing bytes — same type, same
/// kernels, no copies. Equality is by content either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    /// Global id of row 0.
    row_base: Vid,
    /// Global vertex count (id space size).
    num_vertices: Vid,
    /// `offsets[i]..offsets[i+1]` indexes `targets` for local row `i`.
    offsets: U64s,
    /// Concatenated neighbour lists (global ids), sorted within each row.
    targets: U64s,
}

impl Csr {
    /// Builds the CSR over all vertices from an undirected edge list.
    ///
    /// Every non-loop edge contributes entries in both directions; self
    /// loops contribute one. Duplicate edges are kept (Graph500 permits
    /// multigraph inputs; BFS is insensitive to multiplicity).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::from_edge_list_rows(el, 0, el.num_vertices)
    }

    /// Builds only the rows `[row_base, row_base + rows)` from an edge list,
    /// in ascending-id order.
    pub fn from_edge_list_rows(el: &EdgeList, row_base: Vid, rows: Vid) -> Self {
        assert!(row_base + rows <= el.num_vertices, "row range out of bounds");
        let rows = usize::try_from(rows).expect("row count exceeds address space");
        let degrees = count_rows(row_base, rows, el.edges.iter().copied());
        Self::fill_rows(row_base, el.num_vertices, &degrees, el.edges.iter().copied(), None)
    }

    /// Builds every rank's rows under `part` in `order`, one rank per
    /// task. `edges_of(r)` yields the edges rank `r` builds from — the
    /// whole list or only the edges routed to it; an edge adds an entry
    /// to each endpoint row in the rank's range.
    ///
    /// Two passes over each rank's input: a count (the row degrees,
    /// prefix-summed into the final offsets) and a scatter straight into
    /// the final targets; each row is then sorted once. Every rank is counted before any row is ordered, because a
    /// neighbour's degree is its owner's row length. Sort keys are total
    /// (equal keys are equal ids), so the bytes depend neither on scatter
    /// order nor on the pool size.
    pub fn build_partitioned<I>(
        part: &Partition1D,
        order: RowOrder,
        edges_of: impl Fn(u32) -> I + Sync,
    ) -> Vec<Csr>
    where
        I: Iterator<Item = (Vid, Vid)>,
    {
        let degrees: Vec<Vec<u64>> = (0..part.num_ranks())
            .into_par_iter()
            .map(|r| {
                let (lo, hi) = part.range(r);
                count_rows(lo, (hi - lo) as usize, edges_of(r))
            })
            .collect();
        let positions = (order == RowOrder::ByDegree).then(|| degree_positions(&degrees));
        (0..part.num_ranks())
            .into_par_iter()
            .map(|r| {
                let (lo, n) = (part.range(r).0, part.num_vertices());
                Self::fill_rows(lo, n, &degrees[r as usize], edges_of(r), positions.as_ref())
            })
            .collect()
    }

    /// Prefix sum of the counted `degrees`, scatter pass and row sort.
    /// Rows sort by id, or, given `(pos, by_pos)` from
    /// [`degree_positions`], by each neighbour's position: the scatter
    /// writes `pos[v]` (one key gathered per entry), and `by_pos` maps
    /// the sorted keys back.
    fn fill_rows(
        row_base: Vid,
        num_vertices: Vid,
        degrees: &[u64],
        edges: impl Iterator<Item = (Vid, Vid)>,
        positions: Option<&(Vec<Vid>, Vec<Vid>)>,
    ) -> Self {
        let rows = degrees.len();
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        offsets.extend(degrees.iter().scan(0, |end, &d| {
            *end += d;
            Some(*end)
        }));
        let mut targets = vec![0; offsets[rows] as usize];
        let key = |v: Vid| positions.map_or(v, |(pos, _)| pos[v as usize]);
        // `offsets[i]` is row i's write cursor; once the row is full it
        // holds the row's end, so shifting the ends up one slot restores
        // the offsets.
        for_each_entry(row_base, rows, edges, |i, nbr| {
            targets[offsets[i] as usize] = key(nbr);
            offsets[i] += 1;
        });
        offsets.copy_within(0..rows, 1);
        offsets[0] = 0;
        for w in offsets.windows(2) {
            targets[w[0] as usize..w[1] as usize].sort_unstable();
        }
        if let Some((_, by_pos)) = positions {
            for t in &mut targets {
                *t = by_pos[*t as usize];
            }
        }
        Self { row_base, num_vertices, offsets: offsets.into(), targets: targets.into() }
    }

    /// Assembles a CSR from raw storage views — the store-open seam.
    ///
    /// The caller (the store module, after checksum verification) is
    /// responsible for offsets coherence; cheap shape invariants are
    /// asserted here.
    pub(crate) fn from_parts(row_base: Vid, num_vertices: Vid, offsets: U64s, targets: U64s) -> Self {
        assert!(!offsets.is_empty(), "offsets must hold rows + 1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "offsets must end at the target count"
        );
        Self { row_base, num_vertices, offsets, targets }
    }

    /// Global id of the first owned row.
    pub fn row_base(&self) -> Vid {
        self.row_base
    }

    /// Number of owned rows.
    pub fn num_rows(&self) -> Vid {
        (self.offsets.len() - 1) as Vid
    }

    /// Size of the global vertex id space.
    pub fn num_vertices(&self) -> Vid {
        self.num_vertices
    }

    /// Total stored directed adjacency entries.
    pub fn num_entries(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// True if the global vertex is an owned row.
    pub fn owns(&self, v: Vid) -> bool {
        v >= self.row_base && v - self.row_base < self.num_rows()
    }

    /// Neighbours (global ids, sorted) of an owned global vertex.
    ///
    /// # Panics
    /// Panics if `v` is not owned.
    pub fn neighbors(&self, v: Vid) -> &[Vid] {
        assert!(self.owns(v), "vertex {v} not in rows {}..", self.row_base);
        self.neighbors_local((v - self.row_base) as usize)
    }

    /// Neighbours of local row `i`.
    pub fn neighbors_local(&self, i: usize) -> &[Vid] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree (with multiplicity) of an owned global vertex.
    pub fn degree(&self, v: Vid) -> u64 {
        self.neighbors(v).len() as u64
    }

    /// Degree of local row `i`.
    pub fn degree_local(&self, i: usize) -> u64 {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Iterates `(global_id, neighbors)` over owned rows.
    pub fn rows(&self) -> impl Iterator<Item = (Vid, &[Vid])> + '_ {
        (0..self.num_rows() as usize).map(move |i| (self.row_base + i as Vid, self.neighbors_local(i)))
    }

    /// Raw offsets slice (for traffic models and tests).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw concatenated targets slice (for store persistence).
    pub(crate) fn targets_raw(&self) -> &[Vid] {
        &self.targets
    }

    /// True when both storage sections are zero-copy views into a
    /// mapped store region (no owned adjacency bytes).
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() && self.targets.is_mapped()
    }
}

/// Calls `f(row, neighbour)` for every adjacency entry `edges` give the
/// rows `[lo, lo + rows)`: both directions of an edge, one for a self
/// loop, multi-edges with their multiplicity.
fn for_each_entry(
    lo: Vid,
    rows: usize,
    edges: impl Iterator<Item = (Vid, Vid)>,
    mut f: impl FnMut(usize, Vid),
) {
    // Ids below `lo` wrap to huge offsets, so one compare tests the range.
    edges.for_each(|(u, v)| {
        let (ru, rv) = (u.wrapping_sub(lo), v.wrapping_sub(lo));
        if ru < rows as Vid {
            f(ru as usize, v);
        }
        if rv < rows as Vid && u != v {
            f(rv as usize, u);
        }
    });
}

/// `(pos, by_pos)` over every vertex, from every rank's counted
/// `degrees` in rank order (ranks own consecutive id blocks, so together
/// they index by id): `by_pos` lists the ids in [`RowOrder::ByDegree`]
/// order — degree descending, id ascending — and `pos[v]` is `v`'s index
/// in it.
fn degree_positions(degrees: &[Vec<u64>]) -> (Vec<Vid>, Vec<Vid>) {
    let degrees = degrees.concat();
    let mut by_pos: Vec<Vid> = (0..degrees.len() as Vid).collect();
    // Stable, so equal degrees keep ascending ids.
    by_pos.sort_by_key(|&v| Reverse(degrees[v as usize]));
    let mut pos = vec![0; degrees.len()];
    for (i, &v) in by_pos.iter().enumerate() {
        pos[v as usize] = i as Vid;
    }
    (pos, by_pos)
}

/// Count pass: the degree of every row in `[lo, lo + rows)`.
fn count_rows(lo: Vid, rows: usize, edges: impl Iterator<Item = (Vid, Vid)>) -> Vec<u64> {
    let mut degrees = vec![0u64; rows];
    for_each_entry(lo, rows, edges, |i, _| degrees[i] += 1);
    degrees
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn tiny() -> EdgeList {
        // 0-1, 0-2, 1-2, 3-3 (loop), duplicate 0-1
        EdgeList::new(5, vec![(0, 1), (0, 2), (1, 2), (3, 3), (1, 0)])
    }

    #[test]
    fn whole_graph_shape() {
        let csr = Csr::from_edge_list(&tiny());
        assert_eq!(csr.num_rows(), 5);
        // 0: {1,2,1} 1: {0,2,0} 2: {0,1} 3: {3} 4: {}
        assert_eq!(csr.num_entries(), 3 + 3 + 2 + 1);
        assert_eq!(csr.neighbors(0), &[1, 1, 2]);
        assert_eq!(csr.neighbors(1), &[0, 0, 2]);
        assert_eq!(csr.neighbors(2), &[0, 1]);
        assert_eq!(csr.neighbors(3), &[3]);
        assert_eq!(csr.neighbors(4), &[] as &[Vid]);
    }

    #[test]
    fn partitioned_rows_match_whole() {
        let el = tiny();
        let whole = Csr::from_edge_list(&el);
        let part = Csr::from_edge_list_rows(&el, 1, 3);
        assert_eq!(part.row_base(), 1);
        assert_eq!(part.num_rows(), 3);
        for v in 1..4 {
            assert_eq!(part.neighbors(v), whole.neighbors(v));
        }
        assert!(!part.owns(0));
        assert!(!part.owns(4));
    }

    #[test]
    fn self_loop_counted_once() {
        let el = EdgeList::new(2, vec![(1, 1)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(0), 0);
    }

    #[test]
    fn symmetric_degree_sum() {
        let el = crate::generate_kronecker(&crate::KroneckerConfig::graph500(10, 4));
        let csr = Csr::from_edge_list(&el);
        let loops = el.self_loops() as u64;
        assert_eq!(csr.num_entries(), 2 * el.len() as u64 - loops);
    }

    #[test]
    fn rows_sorted() {
        let el = crate::generate_kronecker(&crate::KroneckerConfig::graph500(8, 4));
        let csr = Csr::from_edge_list(&el);
        for (_, nbrs) in csr.rows() {
            assert!(nbrs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "not in rows")]
    fn neighbors_panics_on_unowned() {
        let csr = Csr::from_edge_list_rows(&tiny(), 1, 2);
        csr.neighbors(0);
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        // 0 is the hub (degree 3); 1-2 edge makes 1 and 2 degree 2. Ranks
        // own {0, 1} and {2, 3}: 1's row needs 2's degree from rank 1.
        let el = EdgeList::new(4, vec![(2, 1), (0, 3), (0, 2), (1, 0)]);
        let edges = |_| el.edges.iter().copied();
        let csrs = Csr::build_partitioned(&Partition1D::new(4, 2), RowOrder::ByDegree, edges);
        assert_eq!(csrs[0].neighbors(1), &[0, 2]);
        assert_eq!(csrs[1].neighbors(2), &[0, 1]);
        // Ascending id among equal degrees.
        assert_eq!(csrs[0].neighbors(0), &[1, 2, 3]);
        let by_id = Csr::build_partitioned(&Partition1D::new(4, 2), RowOrder::ById, edges);
        assert_eq!(by_id[0], Csr::from_edge_list_rows(&el, 0, 2));
        assert_eq!(by_id[1], Csr::from_edge_list_rows(&el, 2, 2));
    }

    #[test]
    fn deterministic_build() {
        let el = crate::generate_kronecker(&crate::KroneckerConfig::graph500(9, 17));
        let a = Csr::from_edge_list(&el);
        let b = Csr::from_edge_list(&el);
        assert_eq!(a, b);
    }
}
