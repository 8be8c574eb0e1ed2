//! The partitioned CSR builder against a naive oracle.
//!
//! The oracle collects each vertex's neighbours by one linear scan of the
//! edge list (both directions of an edge, one entry for a self loop,
//! duplicates kept), then sorts them by id or by (degree descending, id
//! ascending). Inputs carry self loops, duplicate edges and isolated
//! vertices, include the empty list, and split `n` ids over rank counts
//! that need not divide it, one rank included. The builder must produce
//! the oracle's rows whichever edges each rank is handed — the whole
//! list, or only the edges with an endpoint it owns, in any order.

use proptest::collection::vec;
use proptest::prelude::*;
use sw_graph::{Csr, EdgeList, Partition1D, RowOrder, Vid};

/// `(n, ranks, edges)`: edges over `0..n`, a quarter of them self loops,
/// followed by `dups` repeats of earlier edges.
fn graphs() -> impl Strategy<Value = (Vid, u32, Vec<(Vid, Vid)>)> {
    (1u64..48, 1u32..10).prop_flat_map(|(n, ranks)| {
        (vec((0..n, 0..n, 0u8..4), 0..96), 0usize..12).prop_map(move |(raw, dups)| {
            let mut edges: Vec<(Vid, Vid)> =
                raw.into_iter().map(|(u, v, f)| if f == 0 { (u, u) } else { (u, v) }).collect();
            for i in 0..dups.min(edges.len()) {
                edges.push(edges[i * 7 % edges.len()]);
            }
            (n, ranks, edges)
        })
    })
}

/// Every vertex's row, by a linear scan per vertex, in `order`.
fn oracle(n: Vid, edges: &[(Vid, Vid)], order: RowOrder) -> Vec<Vec<Vid>> {
    let mut rows: Vec<Vec<Vid>> = (0..n)
        .map(|x| {
            let mut row = Vec::new();
            for &(u, v) in edges {
                if u == x {
                    row.push(v);
                }
                if v == x && u != v {
                    row.push(u);
                }
            }
            row
        })
        .collect();
    let degree: Vec<usize> = rows.iter().map(Vec::len).collect();
    for row in &mut rows {
        match order {
            RowOrder::ById => row.sort(),
            RowOrder::ByDegree => {
                row.sort_by(|&a, &b| degree[b as usize].cmp(&degree[a as usize]).then(a.cmp(&b)))
            }
        }
    }
    rows
}

fn check_rows(csrs: &[Csr], part: &Partition1D, want: &[Vec<Vid>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(csrs.len(), part.num_ranks() as usize);
    for (r, csr) in csrs.iter().enumerate() {
        let (lo, hi) = part.range(r as u32);
        prop_assert_eq!((csr.row_base(), csr.num_rows()), (lo, hi - lo));
        prop_assert_eq!(csr.num_vertices(), part.num_vertices());
        for v in lo..hi {
            let (got, want) = (csr.neighbors(v), &want[v as usize][..]);
            prop_assert!(got == want, "rank {r} row {v}: {got:?}, oracle {want:?}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_matches_the_oracle(graph in graphs()) {
        let (n, ranks, edges) = graph;
        let part = Partition1D::new(n, ranks);
        for order in [RowOrder::ById, RowOrder::ByDegree] {
            let want = oracle(n, &edges, order);
            // The shortcut: every rank scans the whole list.
            let whole = Csr::build_partitioned(&part, order, |_| edges.iter().copied());
            check_rows(&whole, &part, &want)?;
            // The shuffle's shape: each rank sees only the edges it owns
            // an endpoint of, in reverse arrival order.
            let routed = Csr::build_partitioned(&part, order, |r| {
                let (lo, hi) = part.range(r);
                let owned = move |x: Vid| (lo..hi).contains(&x);
                edges.iter().rev().copied().filter(move |&(u, v)| owned(u) || owned(v))
            });
            prop_assert_eq!(&routed, &whole);
        }
        let el = EdgeList::new(n, edges.clone());
        let by_id = oracle(n, &edges, RowOrder::ById);
        let single = Partition1D::new(n, 1);
        check_rows(&[Csr::from_edge_list(&el)], &single, &by_id)?;
    }
}
