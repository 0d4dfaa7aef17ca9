//! Open and closed file tables (paper §4.1).
//!
//! GPUfs file descriptors name *files*, not opens: all threadblocks
//! opening the same path share one reference-counted [`GFile`]. When the
//! reference count drops to zero the file moves to the *closed-file
//! table* — indexed by host inode number — keeping its cached pages so
//! that a later `gopen` (common under the GPU's nondeterministic block
//! scheduling, which routinely drives counts to zero while blocks that
//! will reopen the file are still queued) revives the cache instead of
//! refetching it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hostfs::{HostFd, Ino};
use parking_lot::Mutex;

use crate::cache::RadixTree;
use crate::config::GOpenMode;

/// Concurrent sequential streams the readahead detector can track per
/// file; sized to the threadblock concurrency of the paper's GPUs.
const SEQ_STREAMS: usize = 32;

/// Stream-slot sentinel for "no stream tracked". Not a valid cursor (a
/// cursor is an end offset of a real access), so a vacant slot can never
/// spuriously classify an access — not even one at offset 0 — as
/// sequential.
const SEQ_VACANT: u64 = u64::MAX;

/// One GPU-side open file: shared by every threadblock that opened it.
#[derive(Debug)]
pub struct GFile {
    path: String,
    mode: GOpenMode,
    host_fd: HostFd,
    ino: Ino,
    /// Size at first `gopen` — what `gfstat` reports for the whole open
    /// (paper Table 1).
    open_size: u64,
    /// Current logical size including local `gwrite` extensions.
    size: AtomicU64,
    /// Host consistency generation this GPU's cache reflects: set at
    /// open, refreshed by every write-back (our own propagated writes must
    /// not look like foreign invalidations on reopen).
    generation: AtomicU64,
    /// Threadblocks currently holding the file open.
    refs: AtomicI64,
    /// High-water mark of bytes this GPU has written back to the host.
    /// Pages of `O_NOSYNC` temporaries evicted under memory pressure land
    /// on the host and must be refetchable below this mark, even though
    /// the file logically lives only on the GPU (paper §3.2).
    host_valid: AtomicU64,
    /// Sequential-stream table for readahead: each slot holds the byte
    /// offset where one recent `gread`/`gmmap` stream ended. GPUfs
    /// descriptors name files, not opens (§3.2), so many threadblocks
    /// stream *disjoint* ranges of one shared file concurrently — one
    /// cursor would see their interleaving as random. A small table of
    /// relaxed words recognizes each stream independently (Linux keeps
    /// per-open readahead state for the same reason); collisions only
    /// narrow the readahead window, never corrupt data.
    seq_streams: [AtomicU64; SEQ_STREAMS],
    /// Round-robin victim pointer for claiming a stream slot.
    seq_victim: AtomicU64,
    /// Write-back batches currently in flight for this file (gathered —
    /// dirty bits already cleared — but not yet confirmed by the host).
    /// `gfsync`'s drain loop waits this out: a page can look clean while
    /// its bytes are still travelling.
    wb_inflight: AtomicUsize,
    /// Virtual time of the latest confirmed write-back shipment; the
    /// clock floor a draining `gfsync` synchronizes its caller to.
    flush_horizon: AtomicU64,
    /// Set once the file has left both file tables and its cache was
    /// discarded: a page a live map pinned through that discard is this
    /// file's last, and the map's release returns its frames.
    retired: AtomicBool,
    /// The file's page cache.
    tree: RadixTree,
}

impl GFile {
    /// A freshly opened file with one reference.
    #[must_use]
    pub fn new(
        path: String,
        mode: GOpenMode,
        host_fd: HostFd,
        ino: Ino,
        size: u64,
        generation: u64,
    ) -> Self {
        Self {
            path,
            mode,
            host_fd,
            ino,
            open_size: size,
            size: AtomicU64::new(size),
            generation: AtomicU64::new(generation),
            refs: AtomicI64::new(1),
            host_valid: AtomicU64::new(0),
            seq_streams: std::array::from_fn(|_| AtomicU64::new(SEQ_VACANT)),
            seq_victim: AtomicU64::new(0),
            wb_inflight: AtomicUsize::new(0),
            flush_horizon: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            tree: RadixTree::new(),
        }
    }

    /// Host path.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Open mode.
    #[must_use]
    pub fn mode(&self) -> GOpenMode {
        self.mode
    }

    /// Host descriptor used by the daemon for data requests.
    #[must_use]
    pub fn host_fd(&self) -> HostFd {
        self.host_fd
    }

    /// Host inode number.
    #[must_use]
    pub fn ino(&self) -> Ino {
        self.ino
    }

    /// Size at first open.
    #[must_use]
    pub fn open_size(&self) -> u64 {
        self.open_size
    }

    /// Current logical size (open size plus local extensions).
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Acquire)
    }

    /// Extend the logical size to at least `end`.
    pub fn grow_to(&self, end: u64) {
        self.size.fetch_max(end, Ordering::AcqRel);
    }

    /// Shrink the logical size (gftruncate).
    pub fn set_size(&self, size: u64) {
        self.size.store(size, Ordering::Release);
    }

    /// Host generation this cache reflects.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advance the reflected generation (after propagating local writes).
    pub fn observe_generation(&self, gen: u64) {
        self.generation.fetch_max(gen, Ordering::AcqRel);
    }

    /// Bytes known to be present on the host (open size or written back).
    #[must_use]
    pub fn host_valid(&self) -> u64 {
        self.host_valid.load(Ordering::Acquire).max(self.open_size)
    }

    /// Record that bytes up to `end` now exist on the host.
    pub fn mark_host_valid(&self, end: u64) {
        self.host_valid.fetch_max(end, Ordering::AcqRel);
    }

    /// The file's radix tree.
    #[must_use]
    pub fn tree(&self) -> &RadixTree {
        &self.tree
    }

    /// Record an access of `[offset, end)` and report whether it continues
    /// one of the file's tracked sequential streams (picks up exactly
    /// where that stream stopped). The *first* access of any stream —
    /// including a scan from byte 0 — reads as random and claims a slot,
    /// so its successors are recognized; this deliberately costs each
    /// stream one unwidened miss rather than ever misclassifying a random
    /// access as sequential.
    pub fn note_sequential(&self, offset: u64, end: u64) -> bool {
        for slot in &self.seq_streams {
            if slot
                .compare_exchange(offset, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
        // New stream: take a vacant slot if there is one, otherwise evict
        // a victim round-robin.
        for slot in &self.seq_streams {
            if slot
                .compare_exchange(SEQ_VACANT, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return false;
            }
        }
        let victim = self.seq_victim.fetch_add(1, Ordering::Relaxed) as usize % SEQ_STREAMS;
        self.seq_streams[victim].store(end, Ordering::Relaxed);
        false
    }

    /// Current open count.
    #[must_use]
    pub fn refcount(&self) -> i64 {
        self.refs.load(Ordering::Acquire)
    }

    /// Add an open reference (coalesced `gopen`).
    pub fn add_ref(&self) {
        self.refs.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop an open reference; returns `true` if this was the last.
    pub fn drop_ref(&self) -> bool {
        self.refs.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Mark the file retired (see [`crate::GMap`]'s release).
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
    }

    /// Whether the file has been retired.
    pub(crate) fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Re-arm a revived closed file with a single reference.
    pub fn revive(&self) {
        self.refs.store(1, Ordering::Release);
    }

    /// Enter a write-back batch (see `wb_inflight`).
    pub(crate) fn wb_begin(&self) {
        self.wb_inflight.fetch_add(1, Ordering::AcqRel);
    }

    /// Leave a write-back batch; `true` when it was the last in flight.
    pub(crate) fn wb_end(&self) -> bool {
        self.wb_inflight.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Write-back batches currently in flight for this file.
    #[must_use]
    pub(crate) fn wb_inflight(&self) -> usize {
        self.wb_inflight.load(Ordering::Acquire)
    }

    /// Record a confirmed shipment at virtual time `t`.
    pub(crate) fn note_flush_horizon(&self, t: u64) {
        self.flush_horizon.fetch_max(t, Ordering::AcqRel);
    }

    /// Virtual time of the latest confirmed shipment.
    #[must_use]
    pub(crate) fn flush_horizon(&self) -> u64 {
        self.flush_horizon.load(Ordering::Acquire)
    }
}

/// A hash-sharded `Mutex<HashMap>`: one lock per shard, keys spread by
/// the std `DefaultHasher` (fixed-key SipHash — deterministic across
/// runs, so shard assignment never perturbs reproducible measurements).
/// Every operation touches exactly one shard lock, so opens of unrelated
/// files no longer serialize on one table-wide mutex.
#[derive(Debug)]
struct ShardedMap<K, V> {
    shards: Box<[Mutex<HashMap<K, V>>]>,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn values(&self) -> Vec<V>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().values().cloned());
        }
        out
    }
}

/// The open-file table (by path) and closed-file table (by inode), each
/// hash-sharded (see `ShardedMap` above).
#[derive(Debug)]
pub struct Tables {
    open: ShardedMap<String, Arc<GFile>>,
    closed: ShardedMap<Ino, Arc<GFile>>,
    /// Path → inode hint so `gopen` can consult the closed-file table
    /// *before* any host interaction (paper §4.1: "gopen checks the
    /// closed file table first").
    closed_paths: ShardedMap<String, Ino>,
    /// Per-path serialization of open/close transitions, so concurrent
    /// `gopen`s of one file coalesce into a single host RPC (paper
    /// Table 1) without blocking opens of other files. Entries are
    /// garbage-collected by [`Tables::gc_path_lock`] once the last user
    /// drops its handle.
    path_locks: ShardedMap<String, Arc<Mutex<()>>>,
}

impl Default for Tables {
    fn default() -> Self {
        Self::with_shards(crate::config::CACHE_SHARDS)
    }
}

impl Tables {
    /// Empty tables with the default shard count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tables spread over `shards` locks per map.
    #[must_use]
    fn with_shards(shards: usize) -> Self {
        Self {
            open: ShardedMap::new(shards),
            closed: ShardedMap::new(shards),
            closed_paths: ShardedMap::new(shards),
            path_locks: ShardedMap::new(shards),
        }
    }

    /// The serialization lock for `path`.
    #[must_use]
    pub fn path_lock(&self, path: &str) -> Arc<Mutex<()>> {
        Arc::clone(
            self.path_locks
                .shard(path)
                .lock()
                .entry(path.to_owned())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }

    /// Drop `path`'s serialization lock if nobody holds a handle to it
    /// anymore. Open/close call this after releasing the lock; without
    /// it every path ever opened leaks a map entry for the mount's
    /// lifetime. A handle count of one means the map's own reference is
    /// the last: any concurrent `path_lock` needs the shard lock held
    /// here, so the check cannot race a new user in.
    pub fn gc_path_lock(&self, path: &str) {
        let mut locks = self.path_locks.shard(path).lock();
        if let Some(l) = locks.get(path) {
            if Arc::strong_count(l) == 1 {
                locks.remove(path);
            }
        }
    }

    /// Live `path_locks` entries (test hook for the gc above).
    #[cfg(test)]
    #[must_use]
    pub fn path_locks_len(&self) -> usize {
        self.path_locks.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Currently open file at `path`, if any.
    #[must_use]
    pub fn get_open(&self, path: &str) -> Option<Arc<GFile>> {
        self.open.shard(path).lock().get(path).cloned()
    }

    /// Install `file` in the open table.
    pub fn insert_open(&self, file: Arc<GFile>) {
        self.open
            .shard(file.path())
            .lock()
            .insert(file.path().to_owned(), file);
    }

    /// Remove `file` from the open table if it is still the installed
    /// entry. Returns whether it was removed.
    pub fn remove_open(&self, file: &Arc<GFile>) -> bool {
        let mut open = self.open.shard(file.path()).lock();
        match open.get(file.path()) {
            Some(cur) if Arc::ptr_eq(cur, file) => {
                open.remove(file.path());
                true
            }
            _ => false,
        }
    }

    /// Take the closed-table entry for `ino`, if present.
    #[must_use]
    pub fn take_closed(&self, ino: Ino) -> Option<Arc<GFile>> {
        let taken = self.closed.shard(&ino).lock().remove(&ino);
        if let Some(f) = &taken {
            let mut paths = self.closed_paths.shard(f.path()).lock();
            if paths.get(f.path()) == Some(&ino) {
                paths.remove(f.path());
            }
        }
        taken
    }

    /// Inode hint for a parked path, if any.
    #[must_use]
    pub fn closed_ino_for_path(&self, path: &str) -> Option<Ino> {
        self.closed_paths.shard(path).lock().get(path).copied()
    }

    /// Park `file` in the closed table; returns any displaced entry
    /// (whose cache the caller must release).
    #[must_use]
    pub fn park_closed(&self, file: Arc<GFile>) -> Option<Arc<GFile>> {
        self.closed_paths
            .shard(file.path())
            .lock()
            .insert(file.path().to_owned(), file.ino());
        let ino = file.ino();
        self.closed.shard(&ino).lock().insert(ino, file)
    }

    /// Snapshot of closed files (eviction victims of first resort:
    /// "GPUfs first looks at closed files, which are not in use", §4.2).
    #[must_use]
    pub fn closed_files(&self) -> Vec<Arc<GFile>> {
        self.closed.values()
    }

    /// Snapshot of open files, read-only ones first (the eviction order
    /// after closed files).
    #[must_use]
    pub fn open_files_by_eviction_priority(&self) -> Vec<Arc<GFile>> {
        let mut files: Vec<Arc<GFile>> = self.open.values();
        files.sort_by_key(|f| f.mode().writable());
        files
    }

    /// Snapshot of every file — open or parked — whose mode syncs to the
    /// host: the dirty-page cap's sweep list. `O_NOSYNC` temporaries
    /// are excluded on purpose; only eviction pressure spills those.
    #[must_use]
    pub fn syncable_files(&self) -> Vec<Arc<GFile>> {
        let mut files: Vec<Arc<GFile>> = self
            .open
            .values()
            .into_iter()
            .chain(self.closed.values())
            .filter(|f| f.mode().syncs_to_host())
            .collect();
        // A file can sit in both tables mid-transition; ship each once.
        files.sort_by_key(|f| Arc::as_ptr(f) as usize);
        files.dedup_by(|a, b| Arc::ptr_eq(a, b));
        files
    }

    /// Remove `file` from the closed table if it is still parked there.
    pub fn remove_closed(&self, file: &Arc<GFile>) -> bool {
        let ino = file.ino();
        let mut closed = self.closed.shard(&ino).lock();
        match closed.get(&ino) {
            Some(cur) if Arc::ptr_eq(cur, file) => {
                closed.remove(&ino);
                drop(closed);
                let mut paths = self.closed_paths.shard(file.path()).lock();
                if paths.get(file.path()) == Some(&ino) {
                    paths.remove(file.path());
                }
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, ino: Ino, mode: GOpenMode) -> Arc<GFile> {
        Arc::new(GFile::new(path.to_owned(), mode, 10, ino, 100, 1))
    }

    #[test]
    fn refcounting_lifecycle() {
        let f = file("/a", 1, GOpenMode::ReadOnly);
        assert_eq!(f.refcount(), 1);
        f.add_ref();
        assert!(!f.drop_ref());
        assert!(f.drop_ref(), "last reference");
        f.revive();
        assert_eq!(f.refcount(), 1);
    }

    #[test]
    fn open_table_insert_lookup_remove() {
        let t = Tables::new();
        let f = file("/a", 1, GOpenMode::ReadOnly);
        t.insert_open(Arc::clone(&f));
        assert!(t.get_open("/a").is_some());
        assert!(t.get_open("/b").is_none());
        assert!(t.remove_open(&f));
        assert!(!t.remove_open(&f), "second removal is a no-op");
    }

    #[test]
    fn remove_open_ignores_replaced_entry() {
        let t = Tables::new();
        let f1 = file("/a", 1, GOpenMode::ReadOnly);
        let f2 = file("/a", 1, GOpenMode::ReadOnly);
        t.insert_open(Arc::clone(&f1));
        t.insert_open(Arc::clone(&f2)); // replaces f1
        assert!(!t.remove_open(&f1), "f1 is no longer installed");
        assert!(t.get_open("/a").is_some());
        assert!(t.remove_open(&f2));
    }

    #[test]
    fn closed_table_park_take_displace() {
        let t = Tables::new();
        let f1 = file("/a", 7, GOpenMode::ReadOnly);
        assert!(t.park_closed(Arc::clone(&f1)).is_none());
        let f2 = file("/a", 7, GOpenMode::ReadOnly);
        let displaced = t.park_closed(Arc::clone(&f2)).expect("f1 displaced");
        assert!(Arc::ptr_eq(&displaced, &f1));
        let got = t.take_closed(7).expect("f2 parked");
        assert!(Arc::ptr_eq(&got, &f2));
        assert!(t.take_closed(7).is_none());
    }

    #[test]
    fn eviction_priority_lists_read_only_first() {
        let t = Tables::new();
        t.insert_open(file("/w", 1, GOpenMode::ReadWrite));
        t.insert_open(file("/r", 2, GOpenMode::ReadOnly));
        t.insert_open(file("/o", 3, GOpenMode::WriteOnce));
        let order = t.open_files_by_eviction_priority();
        assert_eq!(order[0].path(), "/r");
        assert!(order[1].mode().writable() && order[2].mode().writable());
    }

    #[test]
    fn path_lock_is_shared_per_path() {
        let t = Tables::new();
        let a = t.path_lock("/x");
        let b = t.path_lock("/x");
        let c = t.path_lock("/y");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn path_lock_gc_reclaims_unused_entries() {
        let t = Tables::new();
        let a = t.path_lock("/x");
        let _b = t.path_lock("/y");
        assert_eq!(t.path_locks_len(), 2);
        t.gc_path_lock("/x");
        assert_eq!(t.path_locks_len(), 2, "a live handle pins the entry");
        drop(a);
        t.gc_path_lock("/x");
        assert_eq!(
            t.path_locks_len(),
            1,
            "last handle dropped: entry reclaimed"
        );
        // A fresh request after gc mints a new lock rather than erroring.
        let _again = t.path_lock("/x");
        assert_eq!(t.path_locks_len(), 2);
    }

    #[test]
    fn sharded_tables_keep_every_entry_reachable() {
        let t = Tables::with_shards(4);
        for i in 0..64u64 {
            t.insert_open(file(&format!("/f{i}"), i, GOpenMode::ReadOnly));
        }
        for i in 0..64u64 {
            assert!(t.get_open(&format!("/f{i}")).is_some(), "/f{i} lost");
        }
        assert_eq!(t.open_files_by_eviction_priority().len(), 64);
        for i in 0..64u64 {
            let f = t.get_open(&format!("/f{i}")).unwrap();
            assert!(t.park_closed(Arc::clone(&f)).is_none());
            assert!(t.remove_open(&f));
        }
        assert_eq!(t.closed_files().len(), 64);
        for i in 0..64u64 {
            assert_eq!(t.closed_ino_for_path(&format!("/f{i}")), Some(i));
            assert!(t.take_closed(i).is_some());
        }
        assert!(t.closed_files().is_empty());
    }

    #[test]
    fn syncable_files_skips_nosync_and_dedups_tables() {
        let t = Tables::new();
        let rw = file("/rw", 1, GOpenMode::ReadWrite);
        t.insert_open(Arc::clone(&rw));
        t.insert_open(file("/tmp", 2, GOpenMode::Temp));
        t.insert_open(file("/ro", 3, GOpenMode::ReadOnly));
        // Mid-transition: the same Arc in both tables must ship once.
        assert!(t.park_closed(Arc::clone(&rw)).is_none());
        let files = t.syncable_files();
        let mut paths: Vec<&str> = files.iter().map(|f| f.path()).collect();
        paths.sort_unstable();
        assert_eq!(
            paths,
            ["/rw"],
            "temps and read-only files are not flushable"
        );
    }

    #[test]
    fn sequential_detector_follows_one_stream() {
        let f = file("/s", 1, GOpenMode::ReadOnly);
        assert!(
            !f.note_sequential(0, 100),
            "the first access — even at byte 0 — claims a stream, never widens"
        );
        assert!(f.note_sequential(100, 250), "continuation");
        assert!(
            !f.note_sequential(5000, 5100),
            "far jump starts a new stream"
        );
        assert!(f.note_sequential(250, 300), "the original stream survives");
        assert!(f.note_sequential(5100, 5200), "so does the new one");
    }

    #[test]
    fn sequential_detector_tracks_concurrent_disjoint_streams() {
        // Many threadblocks each stream their own region of one shared
        // file (the Figure 4 access pattern): after its first access,
        // every stream must be recognized as sequential.
        let f = file("/s", 1, GOpenMode::ReadOnly);
        let base = |b: u64| b * 1_000_000;
        for b in 0..16u64 {
            assert!(!f.note_sequential(base(b), base(b) + 4096));
        }
        for step in 1..4u64 {
            for b in 0..16u64 {
                assert!(
                    f.note_sequential(base(b) + step * 4096, base(b) + (step + 1) * 4096),
                    "stream {b} lost at step {step}"
                );
            }
        }
    }

    #[test]
    fn grow_and_truncate_size() {
        let f = file("/a", 1, GOpenMode::ReadWrite);
        f.grow_to(500);
        assert_eq!(f.size(), 500);
        f.grow_to(200);
        assert_eq!(f.size(), 500, "grow_to never shrinks");
        f.set_size(50);
        assert_eq!(f.size(), 50);
        assert_eq!(f.open_size(), 100, "open size is immutable");
    }
}
