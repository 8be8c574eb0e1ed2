//! The pure batching discipline: which queued queries one service
//! cycle takes, and which roots the cycle's single MS-BFS sweep must
//! carry.
//!
//! Kept free of I/O and clocks so the policy is unit-testable: the
//! worker feeds admitted queries in FIFO order and the planner decides,
//! per query, whether it rides this cycle (answered from cache, from a
//! root already scheduled, or from a fresh root while sweep slots
//! remain) or is carried to the next cycle. The first query whose root
//! does not fit stops the cycle — admission order is never reordered,
//! so a carried query can starve only if the service is genuinely
//! saturated with distinct roots, which is exactly when batching is
//! already paying 64× per sweep.

use sw_graph::Vid;

/// Why a query can be answered in the cycle being planned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The root's level map is already cached — no sweep needed.
    CacheHit,
    /// The root was already scheduled by an earlier query this cycle.
    Coalesced,
    /// The query claimed a fresh sweep slot for its root.
    FreshRoot,
    /// The query needs no levels at all (malformed — answered with a
    /// structured error without touching the kernel).
    NoSweep,
}

/// An incremental plan for one service cycle.
#[derive(Debug)]
pub struct CyclePlan {
    max_batch: usize,
    /// Distinct roots the sweep must carry, claim order.
    pub roots: Vec<Vid>,
    /// Per-accepted-query placements, acceptance order.
    pub placements: Vec<Placement>,
}

impl CyclePlan {
    /// An empty plan for a sweep of at most `max_batch` roots.
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch >= 1, "a cycle must fit at least one root");
        Self {
            max_batch,
            roots: Vec::with_capacity(max_batch),
            placements: Vec::new(),
        }
    }

    /// Offers the next query (FIFO) to the cycle. `root` is `None`
    /// when the query cannot use a sweep (malformed). `cached` says
    /// whether the root's levels are already resident. Returns the
    /// placement, or `None` when the cycle is full for this root — the
    /// caller must carry the query and stop offering.
    pub fn offer(&mut self, root: Option<Vid>, cached: bool) -> Option<Placement> {
        let placement = match root {
            None => Placement::NoSweep,
            Some(_) if cached => Placement::CacheHit,
            Some(r) if self.roots.contains(&r) => Placement::Coalesced,
            Some(r) => {
                if self.roots.len() == self.max_batch {
                    return None;
                }
                self.roots.push(r);
                Placement::FreshRoot
            }
        };
        self.placements.push(placement);
        Some(placement)
    }

    /// Queries accepted so far.
    pub fn accepted(&self) -> usize {
        self.placements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_roots_then_carries() {
        let mut p = CyclePlan::new(2);
        assert_eq!(p.offer(Some(5), false), Some(Placement::FreshRoot));
        assert_eq!(p.offer(Some(5), false), Some(Placement::Coalesced));
        assert_eq!(p.offer(Some(9), false), Some(Placement::FreshRoot));
        assert_eq!(p.offer(Some(11), false), None, "third root must carry");
        // Cache hits and malformed queries still ride a full cycle.
        assert_eq!(p.offer(Some(30), true), Some(Placement::CacheHit));
        assert_eq!(p.offer(None, false), Some(Placement::NoSweep));
        assert_eq!(p.roots, vec![5, 9]);
        assert_eq!(p.accepted(), 5);
    }

    #[test]
    fn cached_roots_use_no_slots() {
        let mut p = CyclePlan::new(1);
        assert_eq!(p.offer(Some(1), true), Some(Placement::CacheHit));
        assert_eq!(p.offer(Some(2), true), Some(Placement::CacheHit));
        assert_eq!(p.offer(Some(3), false), Some(Placement::FreshRoot));
        assert_eq!(p.roots, vec![3]);
    }
}
