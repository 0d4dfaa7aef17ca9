//! The host page cache: residency and dirtiness tracking with lazy LRU.
//!
//! This models the Linux page cache's *behaviour* (hit/miss/eviction and
//! write-back volume) rather than storing data — file bytes live in the
//! inode bodies. Capacity is evaluated dynamically against a shared
//! [`ByteLedger`], so pinned GPU staging buffers shrink the cache exactly
//! as `cudaHostMalloc` does on the paper's testbed.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use simtime::ByteLedger;

use crate::Ino;

/// A page-cache key: file and page index.
type Key = (Ino, u64);

#[derive(Debug, Clone, Copy)]
struct Entry {
    dirty: bool,
    tick: u64,
}

/// Snapshot of page-cache activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page lookups that found the page resident.
    pub hits: u64,
    /// Page lookups that missed (required disk I/O).
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back during eviction.
    pub writebacks: u64,
}

/// LRU page cache with a dynamically computed byte budget.
pub struct PageCache {
    page_size: u64,
    entries: HashMap<Key, Entry>,
    // Lazy LRU queue: stale (tick-mismatched) fronts are skipped on pop.
    lru: VecDeque<(u64, Key)>,
    next_tick: u64,
    ledger: Arc<ByteLedger>,
    stats: CacheStats,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("page_size", &self.page_size)
            .field("resident_pages", &self.entries.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PageCache {
    /// A cache of `page_size`-byte pages budgeted against `ledger`.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn new(page_size: u64, ledger: Arc<ByteLedger>) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            entries: HashMap::new(),
            lru: VecDeque::new(),
            next_tick: 0,
            ledger,
            stats: CacheStats::default(),
        }
    }

    /// Cache page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Bytes currently resident.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.entries.len() as u64 * self.page_size
    }

    /// Activity counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn bump(&mut self, key: Key, dirty_or: bool) {
        let tick = self.next_tick;
        self.next_tick += 1;
        let e = self
            .entries
            .entry(key)
            .or_insert(Entry { dirty: false, tick });
        e.tick = tick;
        e.dirty |= dirty_or;
        // Every access queues its key and leaves the key's older entry
        // stale. A full queue that is at least half stale drops the stale
        // entries instead of growing: its capacity follows the resident
        // pages, and a steady access pattern allocates nothing.
        if self.lru.len() == self.lru.capacity() && self.lru.len() >= 2 * self.entries.len() {
            let entries = &self.entries;
            self.lru
                .retain(|(tick, key)| entries.get(key).is_some_and(|e| e.tick == *tick));
        }
        self.lru.push_back((tick, key));
    }

    /// Budget available to the cache right now: what the ledger has left
    /// plus what the cache itself already holds (the cache can always keep
    /// what it has unless someone else charged the ledger past capacity).
    fn budget(&self) -> u64 {
        self.ledger.capacity().saturating_sub(self.ledger.used())
    }

    /// Evict LRU pages until resident bytes fit the budget. Returns the
    /// keys of dirty pages that were written back.
    fn enforce_budget(&mut self) -> Vec<Key> {
        let mut writebacks = Vec::new();
        while self.resident_bytes() > self.budget() {
            let Some((tick, key)) = self.lru.pop_front() else {
                break;
            };
            match self.entries.get(&key) {
                Some(e) if e.tick == tick => {
                    if e.dirty {
                        self.stats.writebacks += 1;
                        writebacks.push(key);
                    }
                    self.entries.remove(&key);
                    self.stats.evictions += 1;
                }
                _ => {} // stale queue entry
            }
        }
        writebacks
    }

    /// Record a read of `page` of `ino`. Returns `(was_hit, dirty pages
    /// written back by any eviction this access triggered)`.
    pub fn touch_read(&mut self, ino: Ino, page: u64) -> (bool, Vec<Key>) {
        let hit = self.entries.contains_key(&(ino, page));
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.bump((ino, page), false);
        (hit, self.enforce_budget())
    }

    /// Record a write of `page` of `ino` (marks it dirty and resident).
    /// Returns dirty pages written back by any eviction this triggered.
    pub fn touch_write(&mut self, ino: Ino, page: u64) -> Vec<Key> {
        self.bump((ino, page), true);
        self.enforce_budget()
    }

    /// Whether `page` of `ino` is resident.
    #[must_use]
    pub fn is_resident(&self, ino: Ino, page: u64) -> bool {
        self.entries.contains_key(&(ino, page))
    }

    /// Insert `page` clean without touching hit/miss statistics — used by
    /// readahead, which is asynchronous prefetch rather than demand I/O.
    /// Returns dirty pages written back by any eviction this triggered.
    pub fn insert_readahead(&mut self, ino: Ino, page: u64) -> Vec<Key> {
        if self.entries.contains_key(&(ino, page)) {
            return Vec::new();
        }
        self.bump((ino, page), false);
        self.enforce_budget()
    }

    /// Clean all dirty pages of `ino` (fsync). Returns how many were dirty.
    pub fn clean(&mut self, ino: Ino) -> u64 {
        let mut cleaned = 0;
        for (key, e) in self.entries.iter_mut() {
            if key.0 == ino && e.dirty {
                e.dirty = false;
                cleaned += 1;
            }
        }
        cleaned
    }

    /// Drop all pages of `ino` (unlink/truncate), dirty or not.
    pub fn invalidate(&mut self, ino: Ino) {
        self.entries.retain(|key, _| key.0 != ino);
    }

    /// Drop pages of `ino` at page index >= `first_page` (truncate).
    pub fn invalidate_from(&mut self, ino: Ino, first_page: u64) {
        self.entries
            .retain(|key, _| key.0 != ino || key.1 < first_page);
    }

    /// Drop every clean page and forget dirtiness (models
    /// `echo 3 > /proc/sys/vm/drop_caches` before a cold-cache experiment;
    /// callers are expected to have synced beforehand).
    pub fn drop_caches(&mut self) {
        self.entries.clear();
        self.lru.clear();
    }

    /// Reset counters (between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: u64) -> PageCache {
        let ledger = Arc::new(ByteLedger::new(pages * 4096));
        PageCache::new(4096, ledger)
    }

    #[test]
    fn hit_after_miss() {
        let mut c = cache(16);
        let (hit, _) = c.touch_read(1, 0);
        assert!(!hit);
        let (hit, _) = c.touch_read(1, 0);
        assert!(hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache(2);
        c.touch_read(1, 0);
        c.touch_read(1, 1);
        c.touch_read(1, 0); // refresh page 0
        c.touch_read(1, 2); // evicts page 1 (LRU)
        assert!(c.is_resident(1, 0));
        assert!(!c.is_resident(1, 1));
        assert!(c.is_resident(1, 2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn rereads_under_budget_keep_the_lru_queue_small_and_ordered() {
        // Nothing is ever evicted here, so a queue that only shrank on
        // eviction would hold all 10 000 accesses.
        let mut c = cache(16);
        for i in 0..10_000u64 {
            c.touch_read(1, i % 4);
        }
        assert!(c.lru.capacity() <= 16, "queue of {}", c.lru.capacity());
        // Dropping stale entries keeps the recency order: page 0, touched
        // least recently, is the one a full cache gives up first.
        for page in 4..16 {
            c.touch_read(2, page);
        }
        c.touch_read(1, 3);
        c.touch_read(3, 0);
        assert!(!c.is_resident(1, 0));
        assert!((1..4).all(|p| c.is_resident(1, p)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn eviction_reports_dirty_writebacks() {
        let mut c = cache(1);
        let wb = c.touch_write(1, 0);
        assert!(wb.is_empty());
        let (_, wb) = c.touch_read(1, 1); // evicts dirty page 0
        assert_eq!(wb, vec![(1, 0)]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn shrinking_ledger_squeezes_cache() {
        let ledger = Arc::new(ByteLedger::new(8 * 4096));
        let mut c = PageCache::new(4096, Arc::clone(&ledger));
        for p in 0..8 {
            c.touch_read(1, p);
        }
        assert_eq!(c.resident_bytes(), 8 * 4096);
        // A pinned allocation takes half of host memory...
        ledger.charge(4 * 4096);
        // ...and the next access forces the cache down to the new budget.
        c.touch_read(1, 100);
        assert!(c.resident_bytes() <= 4 * 4096);
    }

    #[test]
    fn clean_and_invalidate() {
        let mut c = cache(16);
        c.touch_write(1, 0);
        c.touch_write(1, 1);
        c.touch_write(2, 0);
        assert_eq!(c.clean(1), 2);
        assert_eq!(c.clean(1), 0, "already clean");
        c.invalidate(1);
        assert!(!c.is_resident(1, 0));
        assert!(c.is_resident(2, 0), "other files unaffected");
    }

    #[test]
    fn invalidate_from_keeps_prefix() {
        let mut c = cache(16);
        for p in 0..6 {
            c.touch_read(3, p);
        }
        c.invalidate_from(3, 4);
        assert!(c.is_resident(3, 3));
        assert!(!c.is_resident(3, 4));
        assert!(!c.is_resident(3, 5));
    }

    #[test]
    fn drop_caches_empties_everything() {
        let mut c = cache(16);
        c.touch_read(1, 0);
        c.touch_write(1, 1);
        c.drop_caches();
        assert_eq!(c.resident_bytes(), 0);
        assert!(!c.is_resident(1, 0));
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_panics() {
        let _ = PageCache::new(0, Arc::new(ByteLedger::new(1)));
    }
}
