//! The host-local page cache of the cross-host storage tier.
//!
//! Once the file system lives behind a network link, every repeat fault
//! from any GPU on a host would cross that link — the cross-host
//! analogue of the paper's motivating observation that every GPU fault
//! crossing PCIe is what the GPU-side buffer cache exists to absorb. The
//! proxy therefore keeps a read-through page cache in host memory,
//! built from the same machinery idioms as the GPU-side cache in
//! [`crate::cache`]: a sharded map (the `table.rs` pattern — fixed-seed
//! SipHash, one mutex per shard so concurrent GPUs on one host don't
//! serialize on a single lock) with per-shard FIFO eviction under a
//! page-count budget.
//!
//! Consistency spans hosts through the same generation protocol the GPU
//! caches use: every entry is tagged with the consistency generation its
//! descriptor was opened (or last written) at, and a lookup against a
//! newer generation drops the entry *at that moment* — lazy
//! invalidation, exactly the paper's §4.4 contract. Nothing is
//! broadcast on writes; a host that never reopens keeps serving its
//! epoch's bytes, which close-to-open permits.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use hostfs::Ino;
use obs::Counter;
use parking_lot::Mutex;

/// Activity counters of one host's page cache. All exact — unit tests
/// assert them hit for hit.
#[derive(Debug, Default)]
pub struct HostCacheStats {
    /// Lookups served from host memory (no wire crossing).
    pub hits: Counter,
    /// Lookups that had to go to the storage server.
    pub misses: Counter,
    /// Entries dropped at lookup time because their generation lagged
    /// the descriptor's — the lazy cross-host invalidations of §4.4.
    pub lazy_invalidations: Counter,
    /// Pages inserted by read-through fills.
    pub insertions: Counter,
    /// Pages evicted by the FIFO budget.
    pub evictions: Counter,
}

impl HostCacheStats {
    /// Every counter as a `(name, value)` row, mirroring
    /// [`crate::DaemonStats::snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hits", self.hits.get()),
            ("misses", self.misses.get()),
            ("lazy_invalidations", self.lazy_invalidations.get()),
            ("insertions", self.insertions.get()),
            ("evictions", self.evictions.get()),
        ]
    }
}

#[derive(Debug)]
struct Entry {
    data: Vec<u8>,
    generation: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(Ino, u64), Entry>,
    fifo: VecDeque<(Ino, u64)>,
}

/// A sharded, generation-checked, FIFO-bounded page cache keyed by
/// `(ino, page offset)`. Capacity `0` disables the cache entirely: every
/// lookup misses silently and inserts are dropped, so a proxied host
/// without one serves every page from the storage server.
#[derive(Debug)]
pub struct HostPageCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard_cap: usize,
    stats: HostCacheStats,
}

impl HostPageCache {
    /// A cache holding at most `capacity_pages` entries spread over
    /// `shards` locks (both clamped to ≥ 1 internally; capacity `0`
    /// keeps its meaning as "disabled").
    #[must_use]
    pub fn new(capacity_pages: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_cap = if capacity_pages == 0 {
            0
        } else {
            capacity_pages.div_ceil(shards).max(1)
        };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap,
            stats: HostCacheStats::default(),
        }
    }

    /// Whether this cache stores anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.per_shard_cap > 0
    }

    /// Cache activity counters.
    #[must_use]
    pub fn stats(&self) -> &HostCacheStats {
        &self.stats
    }

    /// Entries currently cached (for tests and reporting).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache currently holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, ino: Ino, offset: u64) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        (ino, offset).hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look a page up for a descriptor opened at `generation`. An entry
    /// at the wrong generation is removed *here* — lazily, at the
    /// moment staleness is observed, never when the writer published —
    /// and the lookup reports a miss. An entry at the right generation
    /// but shorter than `min_len` also misses (it was filled by a
    /// smaller read and cannot prove the tail is EOF); it stays cached
    /// and the wire fill replaces it with the longer bytes.
    #[must_use]
    pub fn lookup(
        &self,
        ino: Ino,
        offset: u64,
        generation: u64,
        min_len: usize,
    ) -> Option<Vec<u8>> {
        self.find(ino, offset, generation, min_len, <[u8]>::to_vec)
    }

    /// [`HostPageCache::lookup`] of a `dst.len()`-byte page, copied
    /// straight into `dst` instead of returned. Returns whether it hit;
    /// on a miss `dst` is untouched.
    pub(crate) fn read_into(&self, ino: Ino, offset: u64, generation: u64, dst: &mut [u8]) -> bool {
        let n = dst.len();
        self.find(ino, offset, generation, n, |data| {
            dst.copy_from_slice(&data[..n]);
        })
        .is_some()
    }

    /// The lookup both [`HostPageCache::lookup`] and
    /// [`HostPageCache::read_into`] are: `take` sees a hit's bytes under
    /// the shard lock.
    fn find<R>(
        &self,
        ino: Ino,
        offset: u64,
        generation: u64,
        min_len: usize,
        take: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        if !self.enabled() {
            return None;
        }
        let mut shard = self.shard_of(ino, offset).lock();
        match shard.map.get(&(ino, offset)) {
            Some(e) if e.generation == generation && e.data.len() >= min_len => {
                let data = take(&e.data);
                drop(shard);
                self.stats.hits.incr();
                Some(data)
            }
            Some(e) if e.generation != generation => {
                shard.map.remove(&(ino, offset));
                shard.fifo.retain(|k| *k != (ino, offset));
                drop(shard);
                self.stats.lazy_invalidations.incr();
                self.stats.misses.incr();
                None
            }
            _ => {
                // Absent, or current-generation but too short to serve.
                drop(shard);
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Read-through fill: remember `data` for `(ino, offset)` at
    /// `generation`, evicting FIFO-oldest entries of the shard when the
    /// budget is exceeded. Empty pages (reads past EOF) are not worth a
    /// frame and are dropped.
    pub fn insert(&self, ino: Ino, offset: u64, generation: u64, data: Vec<u8>) {
        if !self.enabled() || data.is_empty() {
            return;
        }
        let mut shard = self.shard_of(ino, offset).lock();
        let key = (ino, offset);
        let fresh = shard.map.insert(key, Entry { data, generation }).is_none();
        if fresh {
            shard.fifo.push_back(key);
            self.stats.insertions.incr();
            while shard.fifo.len() > self.per_shard_cap {
                if let Some(old) = shard.fifo.pop_front() {
                    shard.map.remove(&old);
                    self.stats.evictions.incr();
                }
            }
        }
    }

    /// Drop every cached page of `ino` overlapping the byte range
    /// `[start, end)` — the proxy's own write-back path calls this so a
    /// host always reads its own writes, independent of generations.
    pub fn invalidate_overlapping(&self, ino: Ino, start: u64, end: u64) {
        if !self.enabled() {
            return;
        }
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            let doomed: Vec<(Ino, u64)> = shard
                .map
                .iter()
                .filter(|((i, off), e)| {
                    *i == ino && *off < end && off.saturating_add(e.data.len() as u64) > start
                })
                .map(|(k, _)| *k)
                .collect();
            for key in doomed {
                shard.map.remove(&key);
                shard.fifo.retain(|k| *k != key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_fill_are_counted_exactly() {
        let c = HostPageCache::new(8, 2);
        assert!(c.enabled());
        assert_eq!(c.lookup(1, 0, 0, 16), None);
        c.insert(1, 0, 0, vec![7; 16]);
        assert_eq!(c.lookup(1, 0, 0, 16), Some(vec![7; 16]));
        assert_eq!(c.lookup(1, 64, 0, 16), None);
        let s = c.stats();
        assert_eq!(s.hits.get(), 1);
        assert_eq!(s.misses.get(), 2);
        assert_eq!(s.insertions.get(), 1);
        assert_eq!(s.evictions.get(), 0);
        assert_eq!(s.lazy_invalidations.get(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn generation_mismatch_invalidates_lazily_at_lookup() {
        let c = HostPageCache::new(8, 1);
        c.insert(1, 0, 3, vec![1; 8]);
        // The writer published generation 4 — nothing happens to the
        // entry until someone looks with the new generation.
        assert_eq!(c.len(), 1, "no eager invalidation");
        assert_eq!(c.lookup(1, 0, 4, 8), None, "stale entry misses");
        assert_eq!(c.stats().lazy_invalidations.get(), 1);
        assert_eq!(c.len(), 0, "dropped at lookup time");
        // A descriptor still on the old generation keeps hitting its
        // epoch's bytes — close-to-open permits that.
        c.insert(2, 0, 3, vec![2; 8]);
        assert_eq!(c.lookup(2, 0, 3, 8), Some(vec![2; 8]));
    }

    #[test]
    fn fifo_budget_evicts_oldest_per_shard() {
        let c = HostPageCache::new(2, 1);
        c.insert(1, 0, 0, vec![1; 4]);
        c.insert(1, 64, 0, vec![2; 4]);
        c.insert(1, 128, 0, vec![3; 4]);
        assert_eq!(c.stats().evictions.get(), 1);
        assert_eq!(c.lookup(1, 0, 0, 4), None, "oldest page evicted");
        assert_eq!(c.lookup(1, 64, 0, 4), Some(vec![2; 4]));
        assert_eq!(c.lookup(1, 128, 0, 4), Some(vec![3; 4]));
    }

    #[test]
    fn reinsert_updates_in_place_without_double_billing() {
        let c = HostPageCache::new(2, 1);
        c.insert(1, 0, 0, vec![1; 4]);
        c.insert(1, 0, 1, vec![9; 4]);
        assert_eq!(c.stats().insertions.get(), 1, "update is not a new fill");
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(1, 0, 1, 4), Some(vec![9; 4]));
    }

    #[test]
    fn write_invalidation_hits_only_overlapping_pages() {
        let c = HostPageCache::new(16, 4);
        for i in 0..4u64 {
            c.insert(5, i * 64, 0, vec![i as u8; 64]);
        }
        c.insert(6, 0, 0, vec![9; 64]);
        // An extent covering bytes [100, 140) overlaps pages at 64 and
        // 128, not 0 or 192, and never another ino.
        c.invalidate_overlapping(5, 100, 140);
        assert_eq!(c.lookup(5, 0, 0, 64), Some(vec![0; 64]));
        assert_eq!(c.lookup(5, 64, 0, 64), None);
        assert_eq!(c.lookup(5, 128, 0, 64), None);
        assert_eq!(c.lookup(5, 192, 0, 64), Some(vec![3; 64]));
        assert_eq!(c.lookup(6, 0, 0, 64), Some(vec![9; 64]));
    }

    #[test]
    fn capacity_zero_disables_everything_silently() {
        let c = HostPageCache::new(0, 8);
        assert!(!c.enabled());
        c.insert(1, 0, 0, vec![1; 4]);
        assert_eq!(c.lookup(1, 0, 0, 4), None);
        assert!(c.is_empty());
        let s = c.stats();
        // Disabled caches count nothing: a host without a cache must
        // publish a spotless sheet.
        assert_eq!(s.hits.get() + s.misses.get() + s.insertions.get(), 0);
    }

    #[test]
    fn empty_pages_are_not_cached() {
        let c = HostPageCache::new(8, 1);
        c.insert(1, 0, 0, Vec::new());
        assert!(c.is_empty());
        assert_eq!(c.stats().insertions.get(), 0);
    }
}
