//! Zero-copy section views.
//!
//! A [`SectionBuf`] is a byte range inside an `Arc<StoreBytes>` region;
//! [`U64s`] presents a section as a `u64` slice **in place** — no
//! deserialization, no copy. It also has an `Owned` variant holding a
//! plain `Vec`, so `Csr` keeps its owned-value ergonomics: a builder
//! produces `Owned`, a store open produces `Mapped`, and every consumer
//! just derefs to a slice.
//!
//! Cloning a `Mapped` view bumps the `Arc` — O(1) — which is what makes
//! store-backed graphs cheap to hand to worker threads. Equality is by
//! content in both variants, so conformance assertions like
//! `heap_csr == mapped_csr` mean what they say.

use super::bytes::StoreBytes;
use std::ops::Deref;
use std::sync::Arc;

/// A byte range within a shared backing region.
///
/// Construction asserts bounds and element alignment, so the unsafe
/// slice casts in the typed views are sound by invariant.
#[derive(Clone)]
pub struct SectionBuf {
    bytes: Arc<StoreBytes>,
    off: usize,
    len: usize,
}

impl SectionBuf {
    /// A view of `bytes[off..off + len]`, which must be in range and
    /// aligned for `u64` (the offset and the region base together).
    pub fn new(bytes: Arc<StoreBytes>, off: usize, len: usize) -> SectionBuf {
        assert!(off.checked_add(len).is_some_and(|end| end <= bytes.len()), "section out of range");
        assert_eq!(
            (bytes.as_bytes().as_ptr() as usize + off) % std::mem::align_of::<u64>(),
            0,
            "section misaligned for element type"
        );
        SectionBuf { bytes, off, len }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes.as_bytes()[self.off..self.off + self.len]
    }

    /// True when the backing region is an `mmap` (vs an aligned heap
    /// buffer) — the distinction the `store.*` counters report.
    fn region_is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// In-place cast to a `u64` slice. `new` checked alignment; the
    /// length must be an exact multiple of 8.
    fn as_words(&self) -> &[u64] {
        let bytes = self.as_bytes();
        debug_assert_eq!(bytes.len() % 8, 0);
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<u64>(), 0);
        // SAFETY: the range is in bounds for the lifetime of `self`
        // (the Arc keeps the region alive), properly aligned (checked
        // at construction), and every bit pattern is a valid `u64`.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
    }
}

impl std::fmt::Debug for SectionBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SectionBuf({} bytes @ {})", self.len, self.off)
    }
}

/// A `u64` section view (row offsets, adjacency targets).
#[derive(Clone, Debug)]
pub enum U64s {
    /// Builder-produced owned storage.
    Owned(Vec<u64>),
    /// Zero-copy view into a store section.
    Mapped(SectionBuf),
}

impl U64s {
    /// Wraps a section as a `u64` view (alignment re-checked).
    pub fn mapped(bytes: Arc<StoreBytes>, off: usize, len: usize) -> U64s {
        U64s::Mapped(SectionBuf::new(bytes, off, len))
    }

    /// True only for a section view whose backing region is an
    /// `mmap(2)` — the genuinely zero-copy restart path.
    pub fn is_mapped(&self) -> bool {
        matches!(self, U64s::Mapped(s) if s.region_is_mapped())
    }
}

impl Deref for U64s {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            U64s::Owned(v) => v,
            U64s::Mapped(s) => s.as_words(),
        }
    }
}

impl From<Vec<u64>> for U64s {
    fn from(v: Vec<u64>) -> U64s {
        U64s::Owned(v)
    }
}

impl PartialEq for U64s {
    fn eq(&self, other: &U64s) -> bool {
        self[..] == other[..]
    }
}

impl Eq for U64s {}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(words: &[u64]) -> Arc<StoreBytes> {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        Arc::new(StoreBytes::from_vec(bytes))
    }

    #[test]
    fn mapped_view_reads_in_place() {
        let r = region(&[1, 2, 3, 4]);
        let v = U64s::mapped(r.clone(), 8, 16);
        assert_eq!(&v[..], &[2, 3]);
        assert!(matches!(v, U64s::Mapped(_)));
        // The region is a heap buffer, so this is not the mmap path.
        assert!(!v.is_mapped());
        let c = v.clone();
        assert_eq!(c, v);
    }

    #[test]
    fn owned_and_mapped_compare_by_content() {
        let r = region(&[7, 9]);
        let m = U64s::mapped(r, 0, 16);
        let o = U64s::from(vec![7u64, 9]);
        assert_eq!(m, o);
        assert!(matches!(o, U64s::Owned(_)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_section_panics() {
        let r = region(&[0]);
        let _ = U64s::mapped(r, 0, 16);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_section_panics() {
        let r = region(&[0, 0]);
        let _ = U64s::mapped(r, 4, 8);
    }
}
