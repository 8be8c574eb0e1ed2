//! Zero-copy section views.
//!
//! A [`SectionBuf`] is a byte range inside an `Arc<StoreBytes>` region;
//! the typed wrappers [`U64s`], [`U32s`], and [`ByteSec`] present a
//! section as a slice of its element type **in place** — no
//! deserialization, no copy. Each wrapper also has an `Owned` variant
//! holding a plain `Vec`, so `Csr` and `CompressedCsr` keep their
//! owned-value ergonomics: a builder produces `Owned`, a store open
//! produces `Mapped`, and every consumer just derefs to a slice.
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
    /// `align`-aligned (both the offset and the region base).
    pub fn new(bytes: Arc<StoreBytes>, off: usize, len: usize, align: usize) -> SectionBuf {
        assert!(off.checked_add(len).is_some_and(|end| end <= bytes.len()), "section out of range");
        assert_eq!(
            (bytes.as_bytes().as_ptr() as usize + off) % align,
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

    /// In-place cast to a slice of `T`. `new` checked alignment; the
    /// length must be an exact multiple of `size_of::<T>()`.
    fn as_slice<T>(&self) -> &[T] {
        let bytes = self.as_bytes();
        debug_assert_eq!(bytes.len() % std::mem::size_of::<T>(), 0);
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: the range is in bounds for the lifetime of `self`
        // (the Arc keeps the region alive), properly aligned (checked
        // at construction), and T is a plain integer type for every
        // instantiation in this module.
        unsafe {
            std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / std::mem::size_of::<T>())
        }
    }
}

impl std::fmt::Debug for SectionBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SectionBuf({} bytes @ {})", self.len, self.off)
    }
}

macro_rules! typed_view {
    ($name:ident, $elem:ty, $doc:literal) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub enum $name {
            /// Builder-produced owned storage.
            Owned(Vec<$elem>),
            /// Zero-copy view into a store section.
            Mapped(SectionBuf),
        }

        impl $name {
            /// Wraps a section as a typed view (alignment re-checked).
            pub fn mapped(bytes: Arc<StoreBytes>, off: usize, len: usize) -> $name {
                $name::Mapped(SectionBuf::new(bytes, off, len, std::mem::align_of::<$elem>()))
            }

            /// True for a section view (either store backing), as
            /// opposed to builder-owned storage.
            #[allow(dead_code)] // not every instantiation uses every accessor
            pub fn is_store_backed(&self) -> bool {
                matches!(self, $name::Mapped(_))
            }

            /// True only for a section view whose backing region is an
            /// `mmap(2)` — the genuinely zero-copy restart path.
            pub fn is_mapped(&self) -> bool {
                matches!(self, $name::Mapped(s) if s.region_is_mapped())
            }
        }

        impl Deref for $name {
            type Target = [$elem];
            fn deref(&self) -> &[$elem] {
                match self {
                    $name::Owned(v) => v,
                    $name::Mapped(s) => s.as_slice::<$elem>(),
                }
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> $name {
                $name::Owned(v)
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &$name) -> bool {
                self[..] == other[..]
            }
        }

        impl Eq for $name {}
    };
}

typed_view!(U64s, u64, "A `u64` section view (row offsets, adjacency targets, chunk firsts).");
typed_view!(U32s, u32, "A `u32` section view (compressed-row indexes and chunk offsets).");
typed_view!(ByteSec, u8, "A raw byte section view (varint streams).");

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
        assert!(v.is_store_backed());
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
        assert!(!o.is_store_backed());
    }

    #[test]
    fn u32_view_halves_words() {
        let r = region(&[(5u64 << 32) | 4]);
        let v = U32s::mapped(r, 0, 8);
        assert_eq!(&v[..], &[4u32, 5]);
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
