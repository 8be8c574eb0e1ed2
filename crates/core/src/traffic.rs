//! Per-level traffic profiles: the bridge from measured threaded runs to
//! machine-scale modeling.
//!
//! Kronecker graphs are statistically self-similar: the *fractions* of
//! vertices settled, edges scanned and records emitted per BFS level are
//! approximately invariant across scales (the level structure shifts by
//! O(log) as the graph grows). The modeled backend therefore takes a
//! profile measured by the threaded backend at a feasible scale and
//! replays it at target scale, with two adjustments:
//!
//! * extra near-empty **tail levels** are appended to account for the
//!   slowly growing BFS depth;
//! * the hub-skip and remote-record fractions are carried over unchanged —
//!   an approximation we document rather than hide (the measurement keeps
//!   the hub-to-vertex ratio comparable to the paper's).

use crate::config::BfsConfig;
use crate::error::ExecError;
use crate::policy::Direction;
use crate::result::BfsOutput;
use crate::engine::ClusterBuilder;
use sw_graph::{generate_kronecker, KroneckerConfig, Vid};

/// Scale-free description of one BFS level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelProfile {
    /// Traversal direction the policy chose.
    pub direction: Direction,
    /// Frontier vertices / total vertices.
    pub frontier_frac: f64,
    /// Vertices settled this level / total vertices.
    pub settled_frac: f64,
    /// Adjacency entries scanned / total directed entries.
    pub edges_scanned_frac: f64,
    /// Remote records generated / total directed entries.
    pub records_frac: f64,
    /// Whether the hub gather moved bitmaps (vs the empty flag).
    pub hub_gather_active: bool,
}

/// Derives a profile from a measured run.
pub fn profile_from_output(out: &BfsOutput, total_vertices: Vid, directed_edges: u64, ranks: u32) -> Vec<LevelProfile> {
    let n = total_vertices as f64;
    let m = directed_edges as f64;
    out.levels
        .iter()
        .map(|l| LevelProfile {
            direction: l.direction,
            frontier_frac: l.frontier_vertices as f64 / n,
            settled_frac: l.settled as f64 / n,
            edges_scanned_frac: l.edges_scanned as f64 / m,
            records_frac: l.records_generated as f64 / m,
            // More than a couple of bytes per rank means bitmaps moved.
            hub_gather_active: l.hub_gather_bytes > 4 * ranks as u64,
        })
        .collect()
}

/// Generates a Kronecker graph at `scale`, runs the threaded backend on
/// `ranks` ranks, and returns the measured profile. This is how the
/// Figure 11/12 harnesses obtain their inputs at run time — nothing is
/// hard-coded.
pub fn measure_profile(
    scale: u32,
    seed: u64,
    ranks: u32,
    cfg: BfsConfig,
    root: Vid,
) -> Result<Vec<LevelProfile>, ExecError> {
    let el = generate_kronecker(&KroneckerConfig::graph500(scale, seed));
    let mut tc = ClusterBuilder::new(&el, ranks, cfg).build()?;
    // Pick a root firmly inside the giant component: the highest-degree
    // vertex among a window of candidates after the requested id.
    let n = el.num_vertices;
    let r = (0..512u64.min(n))
        .map(|i| (root + i) % n)
        .max_by_key(|&v| tc.degree_of(v))
        .expect("nonempty graph");
    let out = tc.run(r)?;
    Ok(profile_from_output(
        &out,
        tc.num_vertices(),
        tc.total_directed_edges(),
        ranks,
    ))
}

/// A representative Kronecker BFS profile — the canonical shape measured
/// by [`measure_profile`] on scale-20 Graph500 graphs (tiny root level,
/// one expanding Top-Down level, two heavy Bottom-Up levels, a dwindling
/// Top-Down tail). Benches measure their own profile at run time; this
/// fixture keeps unit tests fast and deterministic.
pub fn typical_kronecker_profile() -> Vec<LevelProfile> {
    let lv = |direction, frontier_frac, settled_frac, scanned, records, active| LevelProfile {
        direction,
        frontier_frac,
        settled_frac,
        edges_scanned_frac: scanned,
        records_frac: records,
        hub_gather_active: active,
    };
    vec![
        lv(Direction::TopDown, 1e-9, 2e-7, 1e-7, 5e-8, true),
        lv(Direction::TopDown, 2e-7, 3e-4, 4e-4, 2e-4, true),
        lv(Direction::BottomUp, 3e-4, 0.22, 0.24, 0.035, true),
        lv(Direction::BottomUp, 0.22, 0.20, 0.10, 0.012, true),
        lv(Direction::TopDown, 0.20, 0.02, 0.05, 0.008, true),
        lv(Direction::TopDown, 0.02, 1e-3, 2e-3, 4e-4, false),
        lv(Direction::TopDown, 1e-3, 4e-5, 1e-4, 2e-5, false),
        lv(Direction::TopDown, 4e-5, 1e-6, 3e-6, 5e-7, false),
    ]
}

/// Adjusts a measured profile for a target graph `growth_factor` times
/// larger (in vertices) than the measured one: appends
/// `ceil(log2(growth)/4)` near-empty Top-Down tail levels (BFS depth on
/// Kronecker graphs grows roughly with log n, and tail levels are the
/// slowly-appearing ones).
pub fn extrapolate_depth(profile: &[LevelProfile], growth_factor: f64) -> Vec<LevelProfile> {
    let mut p = profile.to_vec();
    if growth_factor <= 1.0 || p.is_empty() {
        return p;
    }
    let extra = (growth_factor.log2() / 4.0).ceil() as usize;
    let tail = LevelProfile {
        direction: Direction::TopDown,
        frontier_frac: 0.0,
        settled_frac: 0.0,
        edges_scanned_frac: 0.0,
        records_frac: 0.0,
        hub_gather_active: false,
    };
    p.extend(std::iter::repeat_n(tail, extra));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `threaded_small` with the paper-style 2^10 Bottom-Up hubs: the
    /// profiles feed the model, which charges Bottom-Up QUERY/REPLY
    /// traffic, so the measured Bottom-Up levels must carry some.
    fn paper_style(group_size: u32) -> BfsConfig {
        BfsConfig {
            bottom_up_hubs: 1 << 10,
            ..BfsConfig::threaded_small(group_size)
        }
    }

    fn has_bottom_up_queries(prof: &[LevelProfile]) -> bool {
        prof.iter().any(|l| l.direction == Direction::BottomUp && l.records_frac > 0.0)
    }

    #[test]
    fn measured_profile_is_sane() {
        let prof = measure_profile(11, 3, 4, paper_style(2), 0).unwrap();
        assert!(has_bottom_up_queries(&prof));
        assert!(prof.len() >= 4, "BFS depth {} too shallow", prof.len());
        let settled: f64 = prof.iter().map(|l| l.settled_frac).sum();
        // RMAT giant component: most non-isolated vertices reached. Scale 11
        // EF16 has ~50% isolated-ish? No — mean degree 32, few isolated.
        assert!(settled > 0.4, "settled frac {settled}");
        // Direction optimization + hub short-circuiting keep the scanned
        // fraction far below 1 (at this tiny scale half the vertices are
        // hubs, so Bottom-Up resolves most vertices after ~1 edge).
        let scanned: f64 = prof.iter().map(|l| l.edges_scanned_frac).sum();
        assert!(scanned > 0.01 && scanned < 3.0, "scanned frac {scanned}");
        // Direction optimization: some level is bottom-up.
        assert!(prof.iter().any(|l| l.direction == Direction::BottomUp));
        // Fractions all within [0, 1].
        for l in &prof {
            assert!((0.0..=1.0).contains(&l.frontier_frac));
            assert!((0.0..=1.5).contains(&l.records_frac));
        }
    }

    #[test]
    fn profiles_are_roughly_scale_invariant() {
        // The settled-fraction trajectory at scale 10 and 12 should agree
        // in shape: same direction sequence modulo one level of shift, and
        // total settled within 20%.
        let a = measure_profile(10, 5, 4, paper_style(2), 1).unwrap();
        let b = measure_profile(12, 5, 4, paper_style(2), 1).unwrap();
        // At scale 10, 2^10 hubs are every vertex: only scale 12 queries.
        assert!(has_bottom_up_queries(&b));
        let sa: f64 = a.iter().map(|l| l.settled_frac).sum();
        let sb: f64 = b.iter().map(|l| l.settled_frac).sum();
        assert!((sa - sb).abs() / sb < 0.25, "settled {sa} vs {sb}");
        let da = a.len() as i64;
        let db = b.len() as i64;
        assert!((da - db).abs() <= 2, "depth {da} vs {db}");
    }

    #[test]
    fn extrapolate_appends_tail_levels() {
        let prof = vec![LevelProfile {
            direction: Direction::TopDown,
            frontier_frac: 0.5,
            settled_frac: 0.5,
            edges_scanned_frac: 0.5,
            records_frac: 0.1,
            hub_gather_active: true,
        }];
        let p = extrapolate_depth(&prof, 2f64.powi(20));
        assert_eq!(p.len(), 1 + 5);
        assert_eq!(p[0], prof[0]);
        assert_eq!(p[5].edges_scanned_frac, 0.0);
        // No growth, no change.
        assert_eq!(extrapolate_depth(&prof, 1.0), prof);
    }
}
