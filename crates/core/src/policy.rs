//! The traversal policy: Beamer's direction-optimizing heuristic
//! (Algorithm 1's `TRAVERSAL_POLICY`, following reference \[7\] of the
//! paper).
//!
//! Top-Down work is proportional to the frontier's out-edges (`m_f`);
//! Bottom-Up work is proportional to the unvisited vertices' in-edges
//! (`m_u`) but short-circuits as soon as a parent is found, which is a big
//! win exactly when the frontier covers a large fraction of all edges. The
//! heuristic switches down when `m_f > m_u / α` and back up when the
//! frontier shrinks below `n / β`.

/// Traversal direction of one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Direction {
    /// Scan frontier vertices' edges, claim unvisited targets.
    #[default]
    TopDown,
    /// Scan unvisited vertices' edges, look for frontier parents.
    BottomUp,
}

/// Runtime statistics the policy consumes at each level boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PolicyInputs {
    /// Global frontier vertex count (`n_f`).
    pub frontier_vertices: u64,
    /// Global sum of frontier vertices' degrees (`m_f`).
    pub frontier_edges: u64,
    /// Global sum of unvisited vertices' degrees (`m_u`).
    pub unvisited_edges: u64,
    /// Total vertices (`n`).
    pub total_vertices: u64,
}

/// The direction-optimizing policy with Beamer's α/β thresholds.
#[derive(Clone, Copy, Debug)]
pub struct TraversalPolicy {
    alpha: u64,
    beta: u64,
    state: Direction,
}

impl TraversalPolicy {
    /// A policy starting in Top-Down with the given thresholds.
    pub fn new(alpha: u64, beta: u64) -> Self {
        assert!(alpha > 0 && beta > 0, "zero thresholds");
        Self {
            alpha,
            beta,
            state: Direction::TopDown,
        }
    }

    /// Current direction without advancing.
    pub fn current(&self) -> Direction {
        self.state
    }

    /// Decides the direction for the next level and records it.
    pub fn decide(&mut self, inp: &PolicyInputs) -> Direction {
        self.state = match self.state {
            Direction::TopDown => {
                if inp.frontier_edges > inp.unvisited_edges / self.alpha {
                    Direction::BottomUp
                } else {
                    Direction::TopDown
                }
            }
            Direction::BottomUp => {
                if inp.frontier_vertices < inp.total_vertices / self.beta {
                    Direction::TopDown
                } else {
                    Direction::BottomUp
                }
            }
        };
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> TraversalPolicy {
        TraversalPolicy::new(14, 24)
    }

    #[test]
    fn starts_top_down() {
        assert_eq!(policy().current(), Direction::TopDown);
    }

    #[test]
    fn small_frontier_stays_top_down() {
        let mut p = policy();
        let d = p.decide(&PolicyInputs {
            frontier_vertices: 1,
            frontier_edges: 10,
            unvisited_edges: 1_000_000,
            total_vertices: 100_000,
        });
        assert_eq!(d, Direction::TopDown);
    }

    #[test]
    fn heavy_frontier_switches_bottom_up() {
        let mut p = policy();
        let d = p.decide(&PolicyInputs {
            frontier_vertices: 50_000,
            frontier_edges: 500_000,
            unvisited_edges: 1_000_000,
            total_vertices: 100_000,
        });
        assert_eq!(d, Direction::BottomUp);
    }

    #[test]
    fn shrunken_frontier_switches_back() {
        let mut p = policy();
        p.decide(&PolicyInputs {
            frontier_vertices: 50_000,
            frontier_edges: 500_000,
            unvisited_edges: 1_000_000,
            total_vertices: 100_000,
        });
        assert_eq!(p.current(), Direction::BottomUp);
        let d = p.decide(&PolicyInputs {
            frontier_vertices: 100,
            frontier_edges: 300,
            unvisited_edges: 100,
            total_vertices: 100_000,
        });
        assert_eq!(d, Direction::TopDown);
    }

    #[test]
    fn bottom_up_is_sticky_while_frontier_large() {
        let mut p = policy();
        p.decide(&PolicyInputs {
            frontier_vertices: 50_000,
            frontier_edges: 500_000,
            unvisited_edges: 1_000_000,
            total_vertices: 100_000,
        });
        let d = p.decide(&PolicyInputs {
            frontier_vertices: 30_000,
            frontier_edges: 1,
            unvisited_edges: 1_000_000_000,
            total_vertices: 100_000,
        });
        assert_eq!(d, Direction::BottomUp);
    }

    #[test]
    fn typical_rmat_trace_is_td_bu_td() {
        // A stylized Kronecker trace: tiny frontier, explosive middle,
        // dwindling tail — the classic TopDown, BottomUp×2, TopDown shape.
        let mut p = policy();
        let n = 1_000_000u64;
        let m = 32_000_000u64;
        let trace = [
            (1u64, 40u64, m),                 // root level
            (40, 40_000, m - 100),            // small expansion
            (60_000, 20_000_000, m / 2),      // explosion -> bottom-up
            (500_000, 9_000_000, m / 50),     // still wide -> bottom-up
            (10_000, 100_000, m / 400),       // shrinks -> top-down
        ];
        let dirs: Vec<Direction> = trace
            .iter()
            .map(|&(nf, mf, mu)| {
                p.decide(&PolicyInputs {
                    frontier_vertices: nf,
                    frontier_edges: mf,
                    unvisited_edges: mu,
                    total_vertices: n,
                })
            })
            .collect();
        assert_eq!(
            dirs,
            vec![
                Direction::TopDown,
                Direction::TopDown,
                Direction::BottomUp,
                Direction::BottomUp,
                Direction::TopDown,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "zero thresholds")]
    fn zero_alpha_rejected() {
        TraversalPolicy::new(0, 24);
    }
}
