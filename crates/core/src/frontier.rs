//! Hybrid frontier representation.
//!
//! A BFS frontier is consulted two ways: membership tests (the Bottom-Up
//! handler's "is u in Curr?") and full iteration (the generators). A
//! bitmap answers membership in O(1) but iterating it costs O(n/64) words
//! even when three vertices are set — and power-law BFS spends most of
//! its *levels* (not its time) on tiny frontiers. The hybrid keeps the
//! bitmap always (membership, and the §5 bitmap-compressed hub gathers
//! read it directly) plus a queue — sorted when the level's discoveries
//! become the frontier — while the population is small, abandoning the
//! queue once the frontier grows past a density threshold — Beamer's
//! queue/bitmap switch, applied per rank.

use sw_graph::bitmap::Ones;
use sw_graph::Bitmap;

/// Queue kept while `population * DENSITY_DIVISOR <= capacity`.
const DENSITY_DIVISOR: usize = 32;

/// A frontier over local vertex indices `0..len`.
#[derive(Clone, Debug)]
pub struct Frontier {
    bits: Bitmap,
    /// Members (ascending after [`Frontier::sort`]), meaningful only while
    /// `sparse`. Its allocation outlives [`Frontier::clear`] and the
    /// dense phase.
    queue: Vec<u32>,
    /// False once the frontier went dense.
    sparse: bool,
    population: usize,
}

/// Iterator over a [`Frontier`]'s members ([`Frontier::iter`]).
#[derive(Clone, Debug)]
pub enum FrontierIter<'a> {
    /// Queue order.
    Sparse(std::slice::Iter<'a, u32>),
    /// Ascending bitmap order.
    Dense(Ones<'a>),
}

impl Iterator for FrontierIter<'_> {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            FrontierIter::Sparse(q) => q.next().map(|&i| i as usize),
            FrontierIter::Dense(ones) => ones.next(),
        }
    }
}

impl Frontier {
    /// An empty frontier of `len` slots.
    pub fn new(len: usize) -> Self {
        Self {
            bits: Bitmap::new(len),
            queue: Vec::new(),
            sparse: true,
            population: 0,
        }
    }

    /// Capacity in slots.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if no member is set.
    pub fn is_empty(&self) -> bool {
        self.population == 0
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.population
    }

    /// True while the queue representation is live.
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Membership test (always O(1)).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Inserts `i`; returns whether it was already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let was = self.bits.set(i);
        if !was {
            self.population += 1;
            if self.sparse {
                if self.population * DENSITY_DIVISOR > self.bits.len() {
                    self.sparse = false; // went dense
                } else {
                    self.queue.push(i as u32);
                }
            }
        }
        was
    }

    /// Inserts the members of `mask` in word `wi`, none of them present:
    /// the state [`Self::insert`] leaves after inserting them one by one.
    #[inline]
    pub(crate) fn insert_word(&mut self, wi: usize, mask: u64) {
        if mask == 0 {
            return;
        }
        let w = &mut self.bits.words_mut()[wi];
        debug_assert_eq!(*w & mask, 0);
        *w |= mask;
        self.population += mask.count_ones() as usize;
        if self.sparse {
            if self.population * DENSITY_DIVISOR > self.bits.len() {
                self.sparse = false; // went dense
            } else {
                let mut m = mask;
                while m != 0 {
                    self.queue.push((wi * 64) as u32 + m.trailing_zeros());
                    m &= m - 1;
                }
            }
        }
    }

    /// Iterates members: queue order while sparse — ascending once
    /// [`Frontier::sort`] ran — and ascending index once dense.
    pub fn iter(&self) -> FrontierIter<'_> {
        if self.sparse {
            FrontierIter::Sparse(self.queue.iter())
        } else {
            FrontierIter::Dense(self.bits.iter_ones())
        }
    }

    /// Puts a sparse frontier's queue in ascending order, so iteration
    /// no longer depends on the order members were inserted in.
    pub fn sort(&mut self) {
        if self.sparse {
            self.queue.sort_unstable();
        }
    }

    /// Empties the frontier, keeping capacity and re-arming the queue.
    pub fn clear(&mut self) {
        self.bits.clear_all();
        self.queue.clear();
        self.sparse = true;
        self.population = 0;
    }

    /// Read-only view of the underlying bitmap (hub gathers use it).
    pub fn as_bitmap(&self) -> &Bitmap {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_sparse_goes_dense() {
        let mut f = Frontier::new(1000);
        assert!(f.is_sparse());
        for i in 0..31 {
            assert!(!f.insert(i));
        }
        assert!(f.is_sparse(), "31/1000 is still sparse at divisor 32");
        f.insert(100);
        assert!(!f.is_sparse(), "32*32 > 1000 — dense now");
        assert_eq!(f.count(), 32);
    }

    #[test]
    fn duplicate_inserts_do_not_grow() {
        let mut f = Frontier::new(100);
        assert!(!f.insert(5));
        assert!(f.insert(5));
        assert_eq!(f.count(), 1);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn iteration_matches_membership_in_both_modes() {
        let mut f = Frontier::new(64); // divisor 32 -> dense at 3
        f.insert(9);
        f.insert(3);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![9, 3]); // insertion order
        f.insert(50);
        f.insert(20);
        assert!(!f.is_sparse());
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![3, 9, 20, 50]); // ascending
        for i in 0..64 {
            assert_eq!(f.contains(i), [3, 9, 20, 50].contains(&i));
        }
    }

    #[test]
    fn clear_rearms_the_queue() {
        let mut f = Frontier::new(64);
        for i in 0..10 {
            f.insert(i);
        }
        assert!(!f.is_sparse());
        f.clear();
        assert!(f.is_empty());
        assert!(f.is_sparse());
        f.insert(7);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn switch_fires_exactly_at_the_density_boundary() {
        // capacity 32·k: population k satisfies k·32 == len (sparse),
        // population k+1 crosses it. Probe several capacities, including
        // one that is not a multiple of the divisor.
        for len in [32, 64, 320, 1000] {
            let mut f = Frontier::new(len);
            let boundary = len / DENSITY_DIVISOR; // last sparse population
            for i in 0..boundary {
                f.insert(i * 2); // spread members out
                assert!(
                    f.is_sparse(),
                    "len {len}: population {} must still be sparse",
                    i + 1
                );
            }
            f.insert(len - 1);
            assert!(
                !f.is_sparse(),
                "len {len}: population {} must have gone dense",
                boundary + 1
            );
            assert_eq!(f.count(), boundary + 1);
        }
    }

    #[test]
    fn insert_word_leaves_what_inserting_one_by_one_leaves() {
        // Words that keep the frontier sparse, cross the density switch
        // in the middle of a word, and arrive after it went dense.
        let words: [(usize, u64); 5] = [(0, 0b1011), (3, 0), (2, 1 << 63 | 1), (1, !0), (4, 0b110)];
        for len in [300, 1000, 64 * 40] {
            let (mut by_word, mut by_bit) = (Frontier::new(len), Frontier::new(len));
            for &(wi, mask) in &words {
                by_word.insert_word(wi, mask);
                for b in (0..64).filter(|b| mask >> b & 1 == 1) {
                    by_bit.insert(wi * 64 + b);
                }
                assert_eq!(
                    (by_word.count(), by_word.is_sparse(), by_word.as_bitmap()),
                    (by_bit.count(), by_bit.is_sparse(), by_bit.as_bitmap()),
                    "len {len}, word {wi}"
                );
                assert!(by_word.iter().eq(by_bit.iter()), "len {len}, word {wi}");
            }
        }
    }

    #[test]
    fn duplicate_insert_at_the_boundary_does_not_switch() {
        // A duplicate does not raise the population, so it must not
        // trigger the density switch either.
        let mut f = Frontier::new(64);
        f.insert(0);
        f.insert(1); // population 2 = boundary for len 64
        assert!(f.is_sparse());
        assert!(f.insert(1), "duplicate");
        assert!(f.is_sparse(), "population unchanged, still sparse");
        f.insert(2);
        assert!(!f.is_sparse());
    }

    #[test]
    fn membership_agrees_across_the_switch() {
        // Same inserts into a frontier and a plain bitmap: membership,
        // population, and sorted members agree before and after the
        // representation flips.
        let members = [9usize, 3, 50, 20, 33, 63, 0, 17];
        let mut f = Frontier::new(64);
        let mut reference = [false; 64];
        for (k, &i) in members.iter().enumerate() {
            f.insert(i);
            reference[i] = true;
            let expect: Vec<usize> = (0..64).filter(|&j| reference[j]).collect();
            let mut sorted = f.clone();
            sorted.sort();
            assert_eq!(sorted.iter().collect::<Vec<_>>(), expect, "after {} inserts", k + 1);
            for (j, &is_member) in reference.iter().enumerate() {
                assert_eq!(f.contains(j), is_member);
            }
            assert_eq!(f.as_bitmap().count_ones(), f.count());
            let mut iterated: Vec<usize> = f.iter().collect();
            iterated.sort_unstable();
            assert_eq!(iterated, expect, "iter covers the same set");
        }
        assert!(!f.is_sparse(), "8/64 ended dense");
    }

    #[test]
    fn dense_clear_sparse_cycle_preserves_insertion_order() {
        let mut f = Frontier::new(64);
        for i in 0..10 {
            f.insert(i);
        }
        assert!(!f.is_sparse());
        f.clear();
        assert!(f.is_sparse() && f.is_empty());
        // Re-armed queue reports insertion order again, not index order.
        f.insert(40);
        f.insert(2);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![40, 2]);
        assert_eq!(f.as_bitmap().count_ones(), 2);
    }

    #[test]
    fn sparse_iteration_is_ascending_whatever_the_insertion_order() {
        let members: Vec<usize> = (0..30).map(|i| i * 33 % 1000).collect();
        let mut expect = members.clone();
        expect.sort_unstable();
        let mut reversed = members.clone();
        reversed.reverse();
        let mut shuffled = members.clone();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..shuffled.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (x >> 33) as usize % (i + 1));
        }
        for order in [members, reversed, shuffled] {
            let mut f = Frontier::new(1000);
            for &i in &order {
                f.insert(i);
            }
            assert!(f.is_sparse(), "30/1000 stays sparse");
            f.sort();
            assert_eq!(f.iter().collect::<Vec<_>>(), expect, "inserted as {order:?}");
        }
    }

    #[test]
    fn bitmap_view_tracks_members() {
        let mut f = Frontier::new(128);
        f.insert(127);
        assert!(f.as_bitmap().get(127));
        assert_eq!(f.as_bitmap().count_ones(), 1);
    }
}
