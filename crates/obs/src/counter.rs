//! The registry's counter cell: a shared leaf, or a read-only sum view.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A relaxed atomic event counter. It is a cheap *handle* (clonable,
/// `Arc`-backed), and an aggregate sheet can be built as a
/// [`Counter::sum`] view over leaf cells instead of a separately-written
/// copy.
///
/// That single property is the registry's anti-drift guarantee: the
/// daemon's per-`(gpu, tenant)` leaf sheet is the only thing ever
/// written, and the aggregate / per-GPU / per-tenant / per-host sheets
/// all *read through* to the same cells. A counter bumped on a leaf is
/// visible in every view by construction — there is no second write to
/// forget.
#[derive(Clone, Debug, Default)]
pub struct Counter(Inner);

#[derive(Clone, Debug)]
enum Inner {
    /// A writable cell.
    Leaf(Arc<AtomicU64>),
    /// A read-only view summing many cells.
    Sum(Arc<[Arc<AtomicU64>]>),
}

impl Default for Inner {
    fn default() -> Self {
        Inner::Leaf(Arc::new(AtomicU64::new(0)))
    }
}

impl Counter {
    /// A fresh leaf cell at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A read-only view reporting the sum of `parts` (leaves contribute
    /// their cell; sum views contribute every cell they cover).
    #[must_use]
    pub fn sum<'a>(parts: impl IntoIterator<Item = &'a Counter>) -> Self {
        let mut cells = Vec::new();
        for part in parts {
            match &part.0 {
                Inner::Leaf(cell) => cells.push(Arc::clone(cell)),
                Inner::Sum(inner) => cells.extend(inner.iter().cloned()),
            }
        }
        Counter(Inner::Sum(cells.into()))
    }

    /// Whether this counter is a writable leaf (false: a sum view).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.0, Inner::Leaf(_))
    }

    fn leaf(&self) -> &AtomicU64 {
        match &self.0 {
            Inner::Leaf(cell) => cell,
            // A write to an aggregate view would silently fork the books
            // the sum-view design exists to keep joined; fail loudly.
            Inner::Sum(_) => panic!("write to an aggregate counter view"),
        }
    }

    /// Increment by one. Panics on a sum view: aggregates are read-only.
    pub fn incr(&self) {
        self.leaf().fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`. Panics on a sum view: aggregates are read-only.
    pub fn add(&self, n: u64) {
        self.leaf().fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (a sum view reads every covered cell).
    #[must_use]
    pub fn get(&self) -> u64 {
        match &self.0 {
            Inner::Leaf(cell) => cell.load(Ordering::Relaxed),
            Inner::Sum(cells) => cells.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
        }
    }

    /// Reset to zero, returning the previous value (a sum view resets
    /// every covered cell).
    pub fn take(&self) -> u64 {
        match &self.0 {
            Inner::Leaf(cell) => cell.swap(0, Ordering::Relaxed),
            Inner::Sum(cells) => cells.iter().map(|c| c.swap(0, Ordering::Relaxed)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_and_views_share_cells() {
        let a = Counter::new();
        let b = Counter::new();
        let total = Counter::sum([&a, &b]);
        a.incr();
        b.add(4);
        assert_eq!(total.get(), 5);
        // A clone of a leaf is the same cell, and a sum over a sum
        // flattens to the covered cells.
        let a2 = a.clone();
        a2.add(10);
        assert_eq!(a.get(), 11);
        let nested = Counter::sum([&total, &a]);
        assert_eq!(nested.get(), 15 + 11);
        assert!(a.is_leaf() && !total.is_leaf());
    }

    #[test]
    fn take_drains_through_views() {
        let a = Counter::new();
        let b = Counter::new();
        let total = Counter::sum([&a, &b]);
        a.add(3);
        b.add(7);
        assert_eq!(total.take(), 10);
        assert_eq!(a.get() + b.get() + total.get(), 0);
    }

    #[test]
    fn counts_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    #[should_panic(expected = "aggregate counter view")]
    fn writes_to_views_panic() {
        let a = Counter::new();
        Counter::sum([&a]).incr();
    }
}
