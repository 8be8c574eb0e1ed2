//! Kernel 2 — SSSP, as added to the benchmark in Graph500 spec v3.
//!
//! The paper ran the BFS-only benchmark of 2016, but §8 argues the same
//! framework carries SSSP; this module makes the claim concrete by
//! running `sw-algos`' Δ-stepping SSSP under the benchmark's procedure —
//! a second thin strategy wrapper over the shared [`crate::harness`]
//! loop: same Kronecker graph, independently drawn roots, per-root
//! timing, validation against a sequential Dijkstra oracle, and
//! harmonic-mean TEPS statistics.
//!
//! Weights follow the repo's deterministic synthetic scheme (the official
//! generator attaches uniform random weights; ours are uniform in
//! `1..=max_weight` and recomputable from the endpoints — same
//! distribution class, no side file needed).
//!
//! The bucket width is derived, not configured: Δ = `max_weight · n /
//! directed_edges` (at least 1), the average weight divided by the
//! average degree, so a bucket holds about one weight's worth of
//! frontier. Any Δ ≥ 1 gives exact distances; Dijkstra checks them all.

use crate::harness::{build_instance, drive_roots, RootAssessment};
use crate::spec::Graph500Spec;
use crate::teps::TepsStats;
use sw_algos::sssp::{sssp_oracle, INF};
use sw_algos::{sssp_delta_stepping, AlgoCluster};
use sw_graph::Vid;
use swbfs_core::config::Messaging;

/// One SSSP root's run.
#[derive(Clone, Copy, Debug)]
pub struct SsspRun {
    /// The source vertex.
    pub root: Vid,
    /// Kernel wall time, seconds.
    pub time_s: f64,
    /// Vertices reached.
    pub reached: u64,
    /// Input edges with a reached endpoint (the TEPS numerator).
    pub traversed_edges: u64,
    /// TEPS.
    pub teps: f64,
}

/// Results of a kernel-2 benchmark run.
#[derive(Clone, Debug)]
pub struct Kernel2Result {
    /// Instance parameters.
    pub spec: Graph500Spec,
    /// Simulated ranks.
    pub ranks: u32,
    /// Maximum edge weight used.
    pub max_weight: u64,
    /// Per-root runs.
    pub runs: Vec<SsspRun>,
    /// TEPS statistics.
    pub stats: TepsStats,
}

/// Errors of the kernel-2 driver.
#[derive(Debug)]
pub enum Kernel2Error {
    /// A distance map disagreed with the Dijkstra oracle.
    Invalid {
        /// The offending root.
        root: Vid,
        /// First vertex whose distance differs.
        vertex: Vid,
    },
    /// No roots / degenerate TEPS.
    Degenerate(String),
    /// A driver argument out of range; names the argument.
    BadArgument {
        /// The argument's name.
        name: &'static str,
        /// Why it was refused.
        reason: String,
    },
}

impl std::fmt::Display for Kernel2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kernel2Error::Invalid { root, vertex } => {
                write!(f, "SSSP from {root} wrong at vertex {vertex}")
            }
            Kernel2Error::Degenerate(m) => write!(f, "degenerate kernel-2 run: {m}"),
            Kernel2Error::BadArgument { name, reason } => {
                write!(f, "bad kernel-2 argument: {name} {reason}")
            }
        }
    }
}

impl std::error::Error for Kernel2Error {}

/// Runs kernel 2 for every benchmark root, validating each distance map
/// against Dijkstra. Roots are drawn with a mixed seed so kernel 2
/// searches a different root set than kernel 1 on the same instance.
/// Refuses zero ranks, more ranks than vertices, an empty relay group
/// and a zero weight range before generating anything.
pub fn run_kernel2(
    spec: &Graph500Spec,
    ranks: u32,
    group_size: u32,
    max_weight: u64,
) -> Result<Kernel2Result, Kernel2Error> {
    let bad = |name, reason: String| Err(Kernel2Error::BadArgument { name, reason });
    let n = spec.num_vertices();
    if ranks == 0 || u64::from(ranks) > n {
        return bad(
            "ranks",
            format!("is {ranks}; need 1..={n} (one vertex per rank at least)"),
        );
    }
    if group_size == 0 {
        return bad(
            "group_size",
            "is 0; relay groups need at least one rank".into(),
        );
    }
    if max_weight == 0 {
        return bad(
            "max_weight",
            "is 0; weights are drawn from 1..=max_weight".into(),
        );
    }
    let (el, roots) = build_instance(spec, 0x55AA);
    if roots.is_empty() {
        return Err(Kernel2Error::Degenerate("no eligible roots".into()));
    }
    let mut cluster = AlgoCluster::new(&el, ranks, group_size, Messaging::Relay);
    let directed_edges: u64 = cluster.csrs.iter().map(|c| c.num_entries()).sum();
    let delta = (max_weight * n / directed_edges.max(1)).max(1);

    let (runs, stats) = drive_roots(
        &roots,
        |_, root| Ok::<_, Kernel2Error>(sssp_delta_stepping(&mut cluster, root, max_weight, delta)),
        |_, root, dist| {
            let oracle = sssp_oracle(&el, root, max_weight);
            if let Some((vertex, _)) = dist
                .iter()
                .zip(&oracle)
                .enumerate()
                .find(|(_, (a, b))| a != b)
            {
                return Err(Kernel2Error::Invalid {
                    root,
                    vertex: vertex as Vid,
                });
            }
            Ok(RootAssessment {
                traversed_edges: el
                    .edges
                    .iter()
                    .filter(|&&(u, v)| dist[u as usize] != INF || dist[v as usize] != INF)
                    .count() as u64,
                reached: dist.iter().filter(|&&d| d != INF).count() as u64,
                // A distance map has no BFS level structure.
                depth: 0,
            })
        },
        Kernel2Error::Degenerate,
    )?;
    let runs = runs
        .into_iter()
        .map(|r| SsspRun {
            root: r.root,
            time_s: r.time_s,
            reached: r.reached,
            traversed_edges: r.traversed_edges,
            teps: r.teps,
        })
        .collect();
    Ok(Kernel2Result {
        spec: *spec,
        ranks,
        max_weight,
        runs,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::generate_kronecker;

    #[test]
    fn kernel2_completes_and_validates() {
        let spec = Graph500Spec::quick(9, 5, 3);
        let res = run_kernel2(&spec, 4, 2, 50).unwrap();
        assert_eq!(res.runs.len(), 3);
        for r in &res.runs {
            assert!(r.reached > 1);
            assert!(r.traversed_edges > 0);
        }
        assert!(res.stats.harmonic_mean > 0.0);
    }

    fn refused(ranks: u32, group_size: u32, max_weight: u64) -> &'static str {
        match run_kernel2(&Graph500Spec::quick(6, 1, 2), ranks, group_size, max_weight) {
            Err(Kernel2Error::BadArgument { name, .. }) => name,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn zero_ranks_is_refused() {
        assert_eq!(refused(0, 1, 10), "ranks");
    }

    #[test]
    fn more_ranks_than_vertices_is_refused() {
        // Scale 6 has 64 vertices.
        assert_eq!(refused(65, 1, 10), "ranks");
    }

    #[test]
    fn zero_group_size_is_refused() {
        assert_eq!(refused(4, 0, 10), "group_size");
    }

    #[test]
    fn zero_max_weight_is_refused() {
        assert_eq!(refused(4, 2, 0), "max_weight");
    }

    #[test]
    fn unit_weight_kernel2_reaches_like_bfs() {
        let spec = Graph500Spec::quick(8, 2, 2);
        let res = run_kernel2(&spec, 3, 2, 1).unwrap();
        // Same reachability as BFS: the component structure does not
        // depend on weights.
        let el = generate_kronecker(&spec.kronecker());
        for r in &res.runs {
            let bfs = swbfs_core::baseline::sequential_bfs_levels(&el, r.root);
            let bfs_reached = bfs.iter().flatten().count() as u64;
            assert_eq!(r.reached, bfs_reached);
        }
    }
}
