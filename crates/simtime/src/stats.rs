//! Shared byte accounting for experiment instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared accounting of bytes in use, with a fixed capacity.
///
/// Used to model host-memory pressure: pinned DMA buffers allocated by the
/// GPU runtime register here, and the host page cache sizes itself against
/// what remains (the mechanism behind the disk-bound regime of Figure 8,
/// where large pinned staging buffers crowd out the CPU buffer cache).
#[derive(Debug)]
pub struct ByteLedger {
    capacity: u64,
    used: AtomicU64,
}

impl ByteLedger {
    /// A ledger with `capacity` total bytes and nothing charged.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: AtomicU64::new(0),
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently charged.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Bytes not charged. Saturates at zero if over-committed.
    #[must_use]
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }

    /// Charge `bytes` to the ledger. Over-commit is allowed (the real OS
    /// would start thrashing, which callers model from [`Self::available`]).
    pub fn charge(&self, bytes: u64) {
        self.used.fetch_add(bytes, Ordering::AcqRel);
    }

    /// Release `bytes` previously charged.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more is released than was charged.
    pub fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(
            prev >= bytes,
            "ByteLedger::release of {bytes} exceeds used {prev}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_usage() {
        let l = ByteLedger::new(1000);
        l.charge(300);
        assert_eq!(l.used(), 300);
        assert_eq!(l.available(), 700);
        l.release(100);
        assert_eq!(l.available(), 800);
    }

    #[test]
    fn ledger_overcommit_saturates_available() {
        let l = ByteLedger::new(100);
        l.charge(250);
        assert_eq!(l.available(), 0);
        assert_eq!(l.used(), 250);
    }
}
