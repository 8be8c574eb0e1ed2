//! Benchmark specification constants.

use sw_graph::KroneckerConfig;

/// Number of search roots the benchmark requires.
pub const NUM_ROOTS: usize = 64;

/// A Graph500 problem instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Graph500Spec {
    /// Problem scale: `2^scale` vertices.
    pub scale: u32,
    /// Edge factor; the spec fixes 16.
    pub edge_factor: u64,
    /// Generator / root-selection seed.
    pub seed: u64,
    /// Roots per run (64 in the official benchmark; tests shrink it).
    pub num_roots: usize,
}

impl Graph500Spec {
    /// The official configuration at a given scale.
    pub fn official(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor: 16,
            seed,
            num_roots: NUM_ROOTS,
        }
    }

    /// A shrunken configuration for quick runs.
    pub fn quick(scale: u32, seed: u64, num_roots: usize) -> Self {
        Self {
            num_roots,
            ..Self::official(scale, seed)
        }
    }

    /// The generator configuration for this instance.
    pub fn kronecker(&self) -> KroneckerConfig {
        let mut k = KroneckerConfig::graph500(self.scale, self.seed);
        k.edge_factor = self.edge_factor;
        k
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        1 << self.scale
    }

    /// Number of input edge tuples — the TEPS numerator.
    pub fn num_edges(&self) -> u64 {
        self.edge_factor << self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn official_spec_matches_benchmark() {
        let s = Graph500Spec::official(26, 1);
        assert_eq!(s.edge_factor, 16);
        assert_eq!(s.num_roots, 64);
        assert_eq!(s.num_vertices(), 1 << 26);
        assert_eq!(s.num_edges(), 16 << 26);
        let k = s.kronecker();
        assert_eq!(k.a, 0.57);
        assert!(k.permute_vertices);
    }

    #[test]
    fn quick_spec_shrinks_roots_only() {
        let s = Graph500Spec::quick(10, 2, 4);
        assert_eq!(s.num_roots, 4);
        assert_eq!(s.edge_factor, 16);
    }
}
