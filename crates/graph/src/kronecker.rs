//! Graph500 Kronecker (R-MAT) edge-list generator.
//!
//! Implements step (1) of the benchmark with the spec's fixed initiator
//! matrix (A = 0.57, B = 0.19, C = 0.19, D = 0.05) and default edge factor
//! 16, following the reference Octave kernel: each of the `scale` bit levels
//! of the two endpoints is drawn independently per edge, then vertex labels
//! are scrambled by a random permutation so that vertex id carries no degree
//! information (this is what makes 1-D *block* partitioning balanced in
//! expectation, the paper's "balance the graph partitioning").
//!
//! Generation is deterministic for a given seed independent of the number of
//! rayon worker threads: edges are produced in fixed-size chunks, each chunk
//! seeded from `(seed, chunk_index)`.

use crate::{EdgeList, Vid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Configuration for the Kronecker generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KroneckerConfig {
    /// log2 of the number of vertices ("SCALE" in Graph500).
    pub scale: u32,
    /// Edges per vertex; the benchmark fixes this to 16.
    pub edge_factor: u64,
    /// Initiator matrix upper-left probability.
    pub a: f64,
    /// Initiator matrix upper-right probability.
    pub b: f64,
    /// Initiator matrix lower-left probability.
    pub c: f64,
    /// RNG seed for edge sampling and the vertex permutation.
    pub seed: u64,
    /// If true, scramble vertex labels with a random permutation (the
    /// benchmark requires this; tests sometimes disable it to inspect the
    /// raw R-MAT structure).
    pub permute_vertices: bool,
}

impl KroneckerConfig {
    /// Graph500-conformant parameters for a given scale and seed.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            permute_vertices: true,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn num_vertices(&self) -> Vid {
        1u64 << self.scale
    }

    /// Number of generated edge tuples, `edge_factor * 2^scale`.
    pub fn num_edges(&self) -> u64 {
        self.edge_factor << self.scale
    }
}

/// Edges generated per independently-seeded chunk. Fixed so that results do
/// not depend on thread count.
const CHUNK_EDGES: u64 = 1 << 15;

/// Generates a Graph500 Kronecker edge list.
///
/// ```
/// use sw_graph::{generate_kronecker, KroneckerConfig};
///
/// let el = generate_kronecker(&KroneckerConfig::graph500(8, 1));
/// assert_eq!(el.num_vertices, 256);
/// assert_eq!(el.len(), 16 * 256); // edge factor 16
/// ```
///
/// # Panics
/// Panics if `scale == 0` or `scale > 40`, or if the initiator probabilities
/// are not a sub-distribution.
pub fn generate_kronecker(cfg: &KroneckerConfig) -> EdgeList {
    assert!(cfg.scale >= 1 && cfg.scale <= 40, "scale out of range");
    assert!(
        cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && cfg.a + cfg.b + cfg.c < 1.0,
        "initiator probabilities must leave room for D"
    );

    let m = cfg.num_edges();
    let n = cfg.num_vertices();
    let num_chunks = m.div_ceil(CHUNK_EDGES);

    // Spec constants derived from the initiator matrix.
    let ab = cfg.a + cfg.b;
    let c_norm = cfg.c / (1.0 - ab);
    let a_norm = cfg.a / ab;

    let mut edges: Vec<(Vid, Vid)> = (0..num_chunks)
        .into_par_iter()
        .flat_map_iter(|chunk| {
            let lo = chunk * CHUNK_EDGES;
            let hi = (lo + CHUNK_EDGES).min(m);
            let mut rng = chunk_rng(cfg.seed, chunk);
            (lo..hi).map(move |_| {
                let mut u: Vid = 0;
                let mut v: Vid = 0;
                for bit in 0..cfg.scale {
                    let ii: bool = rng.gen::<f64>() > ab;
                    let threshold = if ii { c_norm } else { a_norm };
                    let jj: bool = rng.gen::<f64>() > threshold;
                    u |= (ii as Vid) << bit;
                    v |= (jj as Vid) << bit;
                }
                (u, v)
            })
        })
        .collect();

    if cfg.permute_vertices {
        let perm = random_permutation(n, cfg.seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        edges
            .par_iter_mut()
            .for_each(|e| *e = (perm[e.0 as usize], perm[e.1 as usize]));
    }

    EdgeList::new(n, edges)
}

/// A seeded random permutation of `0..n` (Fisher–Yates).
pub fn random_permutation(n: Vid, seed: u64) -> Vec<Vid> {
    let n = usize::try_from(n).expect("permutation larger than address space");
    let mut perm: Vec<Vid> = (0..n as Vid).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

fn chunk_rng(seed: u64, chunk: u64) -> StdRng {
    // SplitMix64-style mixing so adjacent chunk seeds decorrelate.
    let mut z = seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sizes_match_spec() {
        let cfg = KroneckerConfig::graph500(10, 42);
        let el = generate_kronecker(&cfg);
        assert_eq!(el.num_vertices, 1024);
        assert_eq!(el.len(), 16 * 1024);
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = KroneckerConfig::graph500(8, 7);
        let a = generate_kronecker(&cfg);
        let b = generate_kronecker(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_kronecker(&KroneckerConfig::graph500(8, 1));
        let b = generate_kronecker(&KroneckerConfig::graph500(8, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn determinism_independent_of_thread_count() {
        let cfg = KroneckerConfig::graph500(9, 123);
        let baseline = generate_kronecker(&cfg);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let single = pool.install(|| generate_kronecker(&cfg));
        assert_eq!(baseline, single);
    }

    #[test]
    fn endpoints_in_range() {
        let cfg = KroneckerConfig::graph500(6, 3);
        let el = generate_kronecker(&cfg);
        assert!(el.edges.iter().all(|&(u, v)| u < 64 && v < 64));
    }

    #[test]
    fn unpermuted_rmat_is_skewed_toward_low_ids() {
        // With A=0.57 the zero bit is favoured at every level, so vertex 0's
        // quadrant accumulates far more endpoints than the top quadrant.
        let mut cfg = KroneckerConfig::graph500(10, 9);
        cfg.permute_vertices = false;
        let el = generate_kronecker(&cfg);
        let half = el.num_vertices / 2;
        let low = el
            .edges
            .iter()
            .filter(|&&(u, v)| u < half && v < half)
            .count();
        assert!(
            low * 2 > el.len(),
            "expected >half of edges in the low quadrant, got {low}/{}",
            el.len()
        );
    }

    #[test]
    fn permutation_is_bijective() {
        let p = random_permutation(1 << 12, 5);
        let set: HashSet<_> = p.iter().copied().collect();
        assert_eq!(set.len(), 1 << 12);
        assert_eq!(*p.iter().max().unwrap(), (1 << 12) - 1);
    }

    #[test]
    fn permutation_scrambles_degree_locality() {
        // After permutation the low half of the id space should hold roughly
        // half of the endpoints. The degree mass is heavy-tailed, so the
        // split fluctuates by several percent across RNG streams; without
        // permutation it sits far above 0.6 (see the quadrant test above).
        let cfg = KroneckerConfig::graph500(12, 11);
        let el = generate_kronecker(&cfg);
        let half = el.num_vertices / 2;
        let low_endpoints = el
            .edges
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .filter(|&x| x < half)
            .count();
        let total = el.len() * 2;
        let frac = low_endpoints as f64 / total as f64;
        assert!(
            (0.42..0.58).contains(&frac),
            "permuted endpoint split should be ~50%, got {frac}"
        );
    }
}
