//! Dense bitsets for frontiers, visited maps, and hub-frontier broadcast.
//!
//! The paper compresses hub frontiers with bitmaps (§5, "a bitmap is used
//! for compressing the frontiers") and frontier/visited state is naturally a
//! bitset per rank. Two flavours are provided: a plain [`Bitmap`] for
//! single-owner state and an [`AtomicBitmap`] for rayon-parallel set phases.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

/// A fixed-size dense bitset (`Default`: zero bits).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zeros bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits of capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Reads bit `i`, `false` for any `i` past the end: the one-load
    /// membership test of an id-indexed view whose length is a bound the
    /// caller need not know. (Bits past `len` in the last word are zero.)
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        self.words
            .get(i / WORD_BITS)
            .is_some_and(|w| w & (1u64 << (i % WORD_BITS)) != 0)
    }

    /// Sets bit `i`; returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let prev = *w & mask != 0;
        *w |= mask;
        prev
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Zeroes the whole bitmap, keeping capacity.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with another bitmap of the same length.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            next_word: 0,
            word: 0,
        }
    }

    /// The packed `u64` words, low bit of word 0 = bit 0.
    ///
    /// Word-parallel kernels scan this surface directly: skip zero
    /// words, enumerate set bits with `trailing_zeros`, AND against a
    /// companion mask word. Bits at index `>= len` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the packed words.
    ///
    /// Callers must keep the tail invariant: bits at index `>= len`
    /// (the unused high bits of the last word) must stay zero, or
    /// [`Bitmap::count_ones`] and word-parallel sweeps over-count.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of set bits in the half-open bit range `lo..hi`.
    ///
    /// Runs over whole words with popcount; the partial words at the
    /// edges are masked, not iterated bit-by-bit.
    pub fn count_ones_range(&self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of {}", self.len);
        if lo == hi {
            return 0;
        }
        let (lw, lb) = (lo / WORD_BITS, lo % WORD_BITS);
        // Inclusive last bit keeps `hw` a valid word index even when
        // `hi` is a multiple of 64 (including `hi == len`).
        let (hw, hb) = ((hi - 1) / WORD_BITS, (hi - 1) % WORD_BITS + 1);
        let head_mask = !0u64 << lb;
        let tail_mask = if hb == WORD_BITS { !0u64 } else { (1u64 << hb) - 1 };
        if lw == hw {
            return (self.words[lw] & head_mask & tail_mask).count_ones() as usize;
        }
        let mut total = (self.words[lw] & head_mask).count_ones() as usize;
        for &w in &self.words[lw + 1..hw] {
            total += w.count_ones() as usize;
        }
        total + (self.words[hw] & tail_mask).count_ones() as usize
    }

    /// Index of the first set bit at position `>= from`, if any.
    ///
    /// Masks the word containing `from`, then skips zero words — the
    /// find-first-set shape sparse sweeps use to jump over empty space.
    pub fn first_set_from(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let start = from / WORD_BITS;
        let first = self.words[start] & (!0u64 << (from % WORD_BITS));
        if first != 0 {
            return Some(start * WORD_BITS + first.trailing_zeros() as usize);
        }
        self.words[start + 1..]
            .iter()
            .position(|&w| w != 0)
            .map(|off| {
                let wi = start + 1 + off;
                wi * WORD_BITS + self.words[wi].trailing_zeros() as usize
            })
    }

    /// Size in bytes of the packed representation.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// Ascending iterator over a [`Bitmap`]'s set bits
/// ([`Bitmap::iter_ones`]): zero words cost one compare each.
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next_word: usize,
    /// Unreported bits of word `next_word - 1`.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.next_word - 1) * WORD_BITS + b)
    }
}

/// A bitset whose bits can be set concurrently from many threads.
#[derive(Debug)]
pub struct AtomicBitmap {
    len: usize,
    words: Vec<AtomicU64>,
}

impl AtomicBitmap {
    /// An all-zeros atomic bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: (0..len.div_ceil(WORD_BITS)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits of capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i` (Relaxed — callers synchronize phases externally).
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS].load(Ordering::Relaxed) & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Atomically sets bit `i`; returns the previous value. The fetch_or is
    /// Relaxed: winners are established per-bit, and cross-thread visibility
    /// of *other* data is provided by the phase barrier (thread join /
    /// channel) between set and read phases.
    pub fn set(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        self.words[i / WORD_BITS].fetch_or(mask, Ordering::Relaxed) & mask != 0
    }

    /// Snapshots into a plain [`Bitmap`].
    pub fn to_bitmap(&self) -> Bitmap {
        Bitmap {
            len: self.len,
            words: self.words.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        assert!(!b.set(0));
        assert!(b.set(0));
        assert!(!b.set(129));
        assert!(b.get(129));
        b.clear(129);
        assert!(!b.get(129));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new(64).get(64);
    }

    #[test]
    fn test_agrees_with_get_and_reads_false_past_the_end() {
        let mut b = Bitmap::new(70);
        b.set(0);
        b.set(69);
        for i in 0..70 {
            assert_eq!(b.test(i), b.get(i));
        }
        for i in [70, 127, 128, 1 << 40, usize::MAX] {
            assert!(!b.test(i), "{i}");
        }
        assert!(!Bitmap::new(0).test(0));
    }

    #[test]
    fn iter_ones_matches_set() {
        let mut b = Bitmap::new(300);
        let idxs = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &i in &idxs {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn union_and_clear_all() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set(3);
        b.set(97);
        a.union_with(&b);
        assert!(a.get(3) && a.get(97));
        a.clear_all();
        assert!(a.all_zero());
    }

    #[test]
    fn byte_size_counts_whole_words() {
        let mut a = Bitmap::new(70);
        a.set(69);
        assert_eq!(a.byte_size(), 16);
        assert_eq!(Bitmap::new(64).byte_size(), 8);
    }

    #[test]
    fn word_surface_round_trips() {
        let mut b = Bitmap::new(130);
        b.set(1);
        b.set(64);
        assert_eq!(b.words().len(), 3);
        assert_eq!(b.words()[0], 0b10);
        b.words_mut()[2] |= 1; // bit 128
        assert!(b.get(128));
    }

    #[test]
    fn count_ones_range_matches_scalar() {
        let mut b = Bitmap::new(400);
        for i in (0..400).step_by(7) {
            b.set(i);
        }
        let scalar = |lo: usize, hi: usize| (lo..hi).filter(|&i| b.get(i)).count();
        for &(lo, hi) in &[
            (0, 400),
            (0, 0),
            (64, 64),
            (3, 61),   // within one word
            (3, 64),   // ends on a word boundary
            (64, 128), // exactly one aligned word
            (61, 195), // straddles several words
            (399, 400),
            (128, 320),
        ] {
            assert_eq!(b.count_ones_range(lo, hi), scalar(lo, hi), "range {lo}..{hi}");
        }
    }

    #[test]
    fn first_set_from_skips_zero_words() {
        let mut b = Bitmap::new(1000);
        b.set(5);
        b.set(700);
        assert_eq!(b.first_set_from(0), Some(5));
        assert_eq!(b.first_set_from(5), Some(5));
        assert_eq!(b.first_set_from(6), Some(700));
        assert_eq!(b.first_set_from(700), Some(700));
        assert_eq!(b.first_set_from(701), None);
        assert_eq!(b.first_set_from(1000), None);
        assert_eq!(Bitmap::new(0).first_set_from(0), None);
    }

    #[test]
    fn atomic_concurrent_set_loses_nothing() {
        let b = AtomicBitmap::new(4096);
        std::thread::scope(|s| {
            for t in 0..8 {
                let b = &b;
                s.spawn(move || {
                    for i in (t..4096).step_by(8) {
                        b.set(i);
                    }
                });
            }
        });
        assert_eq!(b.to_bitmap().count_ones(), 4096);
    }

    #[test]
    fn atomic_set_reports_previous() {
        let b = AtomicBitmap::new(10);
        assert!(!b.set(5));
        assert!(b.set(5));
        assert!(b.get(5));
        let ones: HashSet<usize> = b.to_bitmap().iter_ones().collect();
        assert_eq!(ones, HashSet::from([5]));
    }
}
