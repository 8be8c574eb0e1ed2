//! Scratch-pad memory (SPM) capacity accounting.
//!
//! Each CPE owns 64 KB of software-managed SPM and nothing else — there is
//! no data cache. Every buffer an algorithm keeps on-core (input staging,
//! destination batches, double buffers) must fit, and the paper's
//! contention-free shuffle is sized precisely by this constraint: with 16
//! consumers × 64 KB and 256 B batches "we can handle up to 1024
//! destinations in practice" (§4.3). [`Spm`] is a bump allocator with
//! overflow errors so that infeasible configurations fail loudly, the way
//! the real Direct-CPE implementation "crashes when the scale increases
//! because of the limitation of SPM size" (§6.1).

use crate::error::ArchError;
use crate::mesh::CpeId;

/// One CPE's scratch-pad: named bump allocations against a fixed capacity.
#[derive(Clone, Debug)]
pub struct Spm {
    owner: CpeId,
    capacity: usize,
    in_use: usize,
    allocations: Vec<(String, usize)>,
}

impl Spm {
    /// A fresh SPM of `capacity` bytes owned by `owner`.
    pub fn new(owner: CpeId, capacity: usize) -> Self {
        Self {
            owner,
            capacity,
            in_use: 0,
            allocations: Vec::new(),
        }
    }

    /// Capacity in bytes (64 KB on SW26010).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Bytes still free.
    pub fn free(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Allocates `bytes` under a descriptive label.
    pub fn alloc(&mut self, label: &str, bytes: usize) -> Result<(), ArchError> {
        if self.in_use + bytes > self.capacity {
            return Err(ArchError::SpmOverflow {
                cpe: self.owner,
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.allocations.push((label.to_string(), bytes));
        Ok(())
    }

    /// Releases every allocation.
    pub fn reset(&mut self) {
        self.in_use = 0;
        self.allocations.clear();
    }

    /// Labelled allocations, in allocation order.
    pub fn allocations(&self) -> &[(String, usize)] {
        &self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_full() {
        let mut spm = Spm::new(CpeId::new(0, 6), 64 * 1024);
        spm.alloc("input stage", 16 * 1024).unwrap();
        spm.alloc("buckets", 48 * 1024).unwrap();
        assert_eq!(spm.free(), 0);
        let err = spm.alloc("one more byte", 1).unwrap_err();
        assert!(matches!(err, ArchError::SpmOverflow { requested: 1, .. }));
    }

    #[test]
    fn reset_restores_capacity() {
        let mut spm = Spm::new(CpeId::new(1, 1), 1024);
        spm.alloc("x", 1000).unwrap();
        spm.reset();
        assert_eq!(spm.in_use(), 0);
        spm.alloc("y", 1024).unwrap();
    }

    #[test]
    fn allocations_are_recorded() {
        let mut spm = Spm::new(CpeId::new(2, 3), 4096);
        spm.alloc("a", 100).unwrap();
        spm.alloc("b", 200).unwrap();
        assert_eq!(
            spm.allocations(),
            &[("a".to_string(), 100), ("b".to_string(), 200)]
        );
        assert_eq!(spm.in_use(), 300);
    }

    #[test]
    fn exact_fit_is_accepted() {
        let mut spm = Spm::new(CpeId::new(0, 0), 256);
        spm.alloc("exact", 256).unwrap();
        assert_eq!(spm.free(), 0);
        // One byte past capacity on an empty scratch-pad is refused.
        let mut fresh = Spm::new(CpeId::new(0, 1), 256);
        let err = fresh.alloc("over", 257).unwrap_err();
        assert!(matches!(err, ArchError::SpmOverflow { requested: 257, in_use: 0, .. }));
    }
}
