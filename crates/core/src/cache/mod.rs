//! The GPU buffer cache: raw data array, pframes, per-file radix trees,
//! byte diffs, activity counters, and the mount-facing paging, reclaim,
//! and write-back layers (paper §3.3 and §4.2).

pub mod diff;
pub(crate) mod flusher;
pub mod frames;
pub(crate) mod paging;
pub mod radix;
pub(crate) mod reclaim;
pub(crate) mod writeback;

pub use diff::{diff_extents, extent_bytes, nonzero_extents, Extents};
pub use frames::{FrameArena, FrameIdx, PFrame, NO_FRAME};
pub use radix::{
    FPage, PageState, RadixTree, Snapshot, FANOUT, MAX_PAGES, REFERENCE_CAP, TREE_LEVELS,
};

use obs::{Counter, Labels, Registry};

/// Buffer-cache activity counters.
///
/// These are the instrumentation columns the paper reports: lock-free vs
/// locked radix accesses (Table 2, Figure 7) and pages reclaimed under
/// memory pressure (Table 2).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Page lookups satisfied by the lock-free seqlock protocol.
    pub lockfree_accesses: Counter,
    /// Page lookups that fell back to the fpage lock (includes the
    /// unlocked retries that preceded them, as in the paper's Table 2
    /// footnote).
    pub locked_accesses: Counter,
    /// Frames reclaimed by the paging path.
    pub pages_reclaimed: Counter,
    /// Lookups that found the page resident (cache hits).
    pub hits: Counter,
    /// Lookups that had to fetch or zero-fill a page. Pages brought in by
    /// readahead count here too (they are page initializations), which
    /// keeps this equal to "unique pages faulted" at any window.
    pub misses: Counter,
    /// Pages written back to the host (eviction or sync).
    pub writebacks: Counter,
    /// Pins that found their page already resident because readahead (not
    /// a demand miss) had fetched it: the first pin of a prefetched page.
    pub readahead_hits: Counter,
    /// `ReadPages` RPCs issued, of any width — the read-side round-trip
    /// count. Smaller than [`CacheCounters::misses`] when batching rides
    /// extra pages along, and also excludes misses that never touch the
    /// host (`O_GWRONCE` / beyond-EOF zero-fills).
    pub read_rpcs: Counter,
    /// `ReadPages` RPCs issued with more than one page — a readahead
    /// window, or a single multi-page `gread` batching its own span (a
    /// demand miss with no batching is a batch of one and not counted).
    pub batched_rpcs: Counter,
    /// Total pages carried by those multi-page RPCs. Divide by
    /// [`CacheCounters::batched_rpcs`] for the mean batch width.
    pub pages_per_rpc: Counter,
    /// `WritePages` RPCs issued, of any width — the write-side round-trip
    /// count. Were every batch a batch of one this would equal
    /// [`CacheCounters::writebacks`]; batching drives it down toward
    /// `writebacks / 32` (the batch cap).
    pub write_rpcs: Counter,
    /// Total pages carried by those write RPCs. Divide by
    /// [`CacheCounters::write_rpcs`] for the mean write-batch width.
    pub pages_per_write_rpc: Counter,
    /// Sweeps the dirty-page cap ran: a `gwrite` that found the cache at
    /// `dirty_high_pages` wrote back the syncable files on its own block
    /// until the ledger reached `dirty_low_pages`.
    pub flusher_passes: Counter,
    /// `gwrite` calls that stalled on the dirty-page high watermark.
    pub throttle_stalls: Counter,
    /// Fpage slots the reclaim hand examined. Divide by
    /// [`CacheCounters::pages_reclaimed`] for the scan work one freed
    /// frame cost — the "bounded work" in-line paging needs.
    pub reclaim_scanned: Counter,
    /// Resident, unpinned pages the hand passed over because they had
    /// been hit since its last visit (each pass spends one reference).
    pub second_chances: Counter,
}

impl CacheCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for (_, counter) in self.fields() {
            counter.take();
        }
    }

    /// A read-only sum view over `parts`: each field aggregates the
    /// matching field of every part. This is how the mount's aggregate
    /// sheet is built from its per-tenant leaves — one write path, no
    /// second copy to drift.
    #[must_use]
    pub fn sum_of(parts: &[&CacheCounters]) -> Self {
        let field = |f: fn(&CacheCounters) -> &Counter| Counter::sum(parts.iter().map(|p| f(p)));
        Self {
            lockfree_accesses: field(|c| &c.lockfree_accesses),
            locked_accesses: field(|c| &c.locked_accesses),
            pages_reclaimed: field(|c| &c.pages_reclaimed),
            hits: field(|c| &c.hits),
            misses: field(|c| &c.misses),
            writebacks: field(|c| &c.writebacks),
            readahead_hits: field(|c| &c.readahead_hits),
            read_rpcs: field(|c| &c.read_rpcs),
            batched_rpcs: field(|c| &c.batched_rpcs),
            pages_per_rpc: field(|c| &c.pages_per_rpc),
            write_rpcs: field(|c| &c.write_rpcs),
            pages_per_write_rpc: field(|c| &c.pages_per_write_rpc),
            flusher_passes: field(|c| &c.flusher_passes),
            throttle_stalls: field(|c| &c.throttle_stalls),
            reclaim_scanned: field(|c| &c.reclaim_scanned),
            second_chances: field(|c| &c.second_chances),
        }
    }

    /// Register every field with `registry` under `labels`, prefixed
    /// `cache_` (the same cells — the registry adds names, not copies).
    pub fn register(&self, registry: &Registry, labels: Labels) {
        for (name, counter) in self.fields() {
            registry.register(name, labels, counter);
        }
    }

    fn fields(&self) -> [(&'static str, &Counter); 16] {
        [
            ("cache_lockfree_accesses", &self.lockfree_accesses),
            ("cache_locked_accesses", &self.locked_accesses),
            ("cache_pages_reclaimed", &self.pages_reclaimed),
            ("cache_hits", &self.hits),
            ("cache_misses", &self.misses),
            ("cache_writebacks", &self.writebacks),
            ("cache_readahead_hits", &self.readahead_hits),
            ("cache_read_rpcs", &self.read_rpcs),
            ("cache_batched_rpcs", &self.batched_rpcs),
            ("cache_pages_per_rpc", &self.pages_per_rpc),
            ("cache_write_rpcs", &self.write_rpcs),
            ("cache_pages_per_write_rpc", &self.pages_per_write_rpc),
            ("cache_flusher_passes", &self.flusher_passes),
            ("cache_throttle_stalls", &self.throttle_stalls),
            ("cache_reclaim_scanned", &self.reclaim_scanned),
            ("cache_second_chances", &self.second_chances),
        ]
    }

    /// Every counter as a `(name, value)` row — the registry names
    /// without `cache_`, the one list tests and reporters iterate so a
    /// newly added counter cannot silently escape the per-tenant
    /// sum-to-aggregate invariant.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.fields()
            .iter()
            .map(|&(name, counter)| (&name["cache_".len()..], counter.get()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_reset() {
        let c = CacheCounters::new();
        c.lockfree_accesses.add(5);
        c.pages_reclaimed.incr();
        c.readahead_hits.add(3);
        c.read_rpcs.incr();
        c.batched_rpcs.incr();
        c.pages_per_rpc.add(8);
        c.write_rpcs.incr();
        c.pages_per_write_rpc.add(4);
        c.reclaim_scanned.add(40);
        c.second_chances.add(2);
        c.reset();
        assert_eq!(c.lockfree_accesses.get(), 0);
        assert_eq!(c.pages_reclaimed.get(), 0);
        assert_eq!(c.readahead_hits.get(), 0);
        assert_eq!(c.read_rpcs.get(), 0);
        assert_eq!(c.batched_rpcs.get(), 0);
        assert_eq!(c.pages_per_rpc.get(), 0);
        assert_eq!(c.write_rpcs.get(), 0);
        assert_eq!(c.pages_per_write_rpc.get(), 0);
        assert!(c.snapshot().iter().all(|&(_, v)| v == 0), "reset is total");
    }

    #[test]
    fn every_counter_is_registered_summed_and_listed() {
        // One row per field in each of the three views — a counter added
        // to the struct but not to a view would break the sum-to-aggregate
        // and registry-reconciliation invariants silently.
        let (a, b) = (CacheCounters::new(), CacheCounters::new());
        a.reclaim_scanned.add(5);
        b.reclaim_scanned.add(7);
        b.second_chances.add(3);
        let sum = CacheCounters::sum_of(&[&a, &b]);
        assert_eq!(sum.reclaim_scanned.get(), 12);
        assert_eq!(sum.second_chances.get(), 3);
        let listed: Vec<&str> = sum.snapshot().iter().map(|&(n, _)| n).collect();
        let registered: Vec<&str> = sum.fields().iter().map(|&(n, _)| n).collect();
        assert_eq!(listed.len(), registered.len());
        for (l, r) in listed.iter().zip(&registered) {
            assert_eq!(format!("cache_{l}"), *r);
        }
        assert!(listed.contains(&"reclaim_scanned") && listed.contains(&"second_chances"));
    }
}
