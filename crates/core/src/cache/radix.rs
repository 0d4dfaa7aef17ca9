//! The per-file buffer-cache radix tree with lock-free lookup (paper §4.2).
//!
//! Each open file's cached pages are indexed by a radix tree whose
//! last-level nodes hold `fpage` structures **by value** — in-place data
//! structures that avoid pointer chasing and memory allocation on the hot
//! path. Readers traverse the tree without taking any lock, validating
//! each fpage with a seqlock-style version counter (inspired by Linux
//! seqlocks and RCU, §6); updates (page initialization, eviction) take the
//! fpage spinlock and bump the version around their critical section.
//!
//! A lookup retries the lock-free protocol a configurable number of times
//! (the paper retries once) and falls back to locking on the next attempt.
//! The caller counts which path succeeded — those counters are the
//! "lock-free vs locked accesses" columns of Table 2 and the two curves of
//! Figure 7.
//!
//! Deviation from the paper: interior and leaf nodes, once allocated, are
//! reused rather than freed when their pages are reclaimed (only *frames*
//! are recycled). This keeps traversal memory-safe without hazard
//! pointers; node memory is bounded by file size / page size and is
//! released when the file cache itself is dropped.
//!
//! # Replacement order
//!
//! The paper pages in-line on the faulting threadblock and therefore
//! rejects "variable-work" clock for a FIFO-like policy. The objection is
//! to the *unbounded* scan, not to the hand: this tree keeps a bounded
//! GCLOCK. The leaves, in allocation order, form a ring of
//! `leaves × FANOUT` slots and [`RadixTree::for_each_reclaim_candidate`]
//! is its hand — every slot it hands out is claimed from one counter, so
//! a sweep resumes exactly where the previous one (by any threadblock)
//! stopped and one revolution examines every slot once. Each fpage also
//! carries a small saturating reference count ([`REFERENCE_CAP`]) that a
//! hit raises and a passing sweep lowers; only a page found at zero is
//! evicted. The work is bounded three ways: a sweep never goes further
//! than one revolution, a page is passed over at most `REFERENCE_CAP`
//! times between two hits, and the caller stops the hand as soon as its
//! small batch is met (see `cache/reclaim.rs`).

use std::ptr;
use std::sync::atomic::{
    AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};

use parking_lot::Mutex;

use crate::cache::frames::{FrameIdx, NO_FRAME};

/// log2 of the tree fanout.
pub const FANOUT_BITS: u32 = 6;
/// Children per interior node / fpages per leaf.
pub const FANOUT: usize = 1 << FANOUT_BITS;
/// Tree depth: a fixed four levels cover `64^4 ≈ 16.7M` pages, enough for
/// the largest files the paper reads (11.2 GB) at any page size.
pub const TREE_LEVELS: u32 = 4;
/// Largest page index the tree can hold.
pub const MAX_PAGES: u64 = 1 << (FANOUT_BITS * TREE_LEVELS);
/// Saturation point of an fpage's reference count: the most sweeps a page
/// can sit out on the strength of past hits. A constant, not a knob — it
/// bounds how far the hand can travel for one frame.
pub const REFERENCE_CAP: u8 = 3;

/// Lockcheck id shared by every fpage lock: the checker needs to see that
/// one is held, not which.
static FPAGE_LOCKS: AtomicU64 = AtomicU64::new(0);

/// Lifecycle of one fpage slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageState {
    /// No frame attached.
    Empty = 0,
    /// A threadblock is fetching/zeroing the page; others must wait.
    Initializing = 1,
    /// Frame attached and content valid.
    Ready = 2,
}

impl PageState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => PageState::Empty,
            1 => PageState::Initializing,
            2 => PageState::Ready,
            _ => unreachable!("invalid page state"),
        }
    }
}

/// Result of one lock-free pin attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Snapshot {
    /// Page pinned: the frame cannot be evicted until unpinned.
    Pinned(FrameIdx),
    /// Slot has no frame; the caller may initialize it.
    Empty,
    /// Another threadblock is initializing; the caller should wait.
    Initializing,
}

/// An fpage: the in-place per-page concurrency record inside a leaf node.
///
/// Holds the page's read/write reference count and a spinlock, "together
/// preventing concurrent access by mutually exclusive operations such as
/// initialization, read/write access, and paging out" (paper §4.2).
#[derive(Debug)]
pub struct FPage {
    /// Seqlock version: odd while an update is in flight.
    version: AtomicU64,
    state: AtomicU32,
    frame: AtomicU32,
    /// Pages pinned by in-flight reads/writes/mappings.
    refs: AtomicU32,
    locked: AtomicBool,
    /// Hits since the reclaim hand last passed, saturating at
    /// [`REFERENCE_CAP`]. A replacement hint only: every access is a
    /// relaxed load or store, so racing updates may lose a count but can
    /// never corrupt the page.
    references: AtomicU8,
}

impl FPage {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            state: AtomicU32::new(PageState::Empty as u32),
            frame: AtomicU32::new(NO_FRAME),
            refs: AtomicU32::new(0),
            locked: AtomicBool::new(false),
            references: AtomicU8::new(0),
        }
    }

    /// Spin until the fpage lock is held. No holder ever waits, and
    /// lockcheck pins that: a `simtime` wait while it is held is a finding.
    pub fn lock(&self) {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
            // lint:allow wait -- a holder never waits (lockcheck pins it)
            std::thread::yield_now();
        }
        if parking_lot::lockcheck::enabled() {
            parking_lot::lockcheck::custom_acquired(&FPAGE_LOCKS, "fpage");
        }
    }

    /// Release the fpage lock.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the lock is not held.
    pub fn unlock(&self) {
        debug_assert!(
            self.locked.load(Ordering::Relaxed),
            "unlock of unlocked fpage"
        );
        if parking_lot::lockcheck::enabled() {
            parking_lot::lockcheck::custom_released(FPAGE_LOCKS.load(Ordering::Relaxed));
        }
        self.locked.store(false, Ordering::Release);
    }

    /// Enter an update critical section (must hold the lock): readers see
    /// an odd version and retry.
    pub fn begin_update(&self) {
        let v = self.version.fetch_add(1, Ordering::AcqRel);
        debug_assert!(v.is_multiple_of(2), "nested begin_update");
    }

    /// Leave the update critical section.
    pub fn end_update(&self) {
        let v = self.version.fetch_add(1, Ordering::AcqRel);
        debug_assert!(v % 2 == 1, "end_update without begin");
    }

    /// Enter an update section that will take the page's frame away
    /// (eviction, discard) — only if nobody holds a pin. Must hold the
    /// lock. Returns `false`, with the section already closed again, when
    /// the page is pinned.
    ///
    /// The version is bumped *before* the pin count is read. A lock-free
    /// pinner ([`FPage::try_pin_lockfree`]) does the mirror image — pin,
    /// then re-read the version — so the two sides form a Dekker pair:
    /// both stores are `SeqCst` and both loads are `SeqCst`, hence at
    /// least one side sees the other, and a frame is never recycled under
    /// a pin that validated. Checking the count first and bumping after
    /// (as eviction once did) leaves a window in which both succeed.
    #[must_use]
    pub fn begin_update_if_unpinned(&self) -> bool {
        let v = self.version.fetch_add(1, Ordering::SeqCst);
        debug_assert!(v.is_multiple_of(2), "nested begin_update");
        #[cfg(test)]
        race_hook::at(race_hook::Point::EvictBetweenBumpAndRefs);
        if self.refs.load(Ordering::SeqCst) > 0 {
            self.end_update();
            return false;
        }
        true
    }

    /// Current state (racy read; stable only under the lock or seqlock).
    #[must_use]
    pub fn state(&self) -> PageState {
        PageState::from_u8(self.state.load(Ordering::Acquire) as u8)
    }

    /// Set the state (must hold the lock, inside an update section).
    pub fn set_state(&self, s: PageState) {
        self.state.store(s as u32, Ordering::Release);
    }

    /// Attached frame, if any (racy read).
    #[must_use]
    pub fn frame(&self) -> Option<FrameIdx> {
        let f = self.frame.load(Ordering::Acquire);
        if f == NO_FRAME {
            None
        } else {
            Some(f)
        }
    }

    /// Attach or detach the frame (must hold the lock, inside an update).
    pub fn set_frame(&self, frame: Option<FrameIdx>) {
        self.frame
            .store(frame.unwrap_or(NO_FRAME), Ordering::Release);
    }

    /// Current pin count.
    #[must_use]
    pub fn refs(&self) -> u32 {
        self.refs.load(Ordering::Acquire)
    }

    /// Add a pin without the seqlock protocol (caller holds the lock and
    /// has verified the state).
    pub fn pin_direct(&self) {
        self.refs.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop a pin.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on underflow.
    pub fn unpin(&self) {
        let prev = self.refs.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin of unpinned fpage");
    }

    /// Hits recorded since the reclaim hand last passed this page.
    #[must_use]
    pub fn references(&self) -> u8 {
        self.references.load(Ordering::Relaxed)
    }

    /// Record a hit: raise the reference count unless it is saturated.
    /// Load-then-store rather than a read-modify-write — the caller has
    /// just pinned the page, so the line is already its own, and a hot
    /// page at the cap costs one load.
    pub fn touch(&self) {
        let n = self.references.load(Ordering::Relaxed);
        if n < REFERENCE_CAP {
            self.references.store(n + 1, Ordering::Relaxed);
        }
    }

    /// Forget past hits (a freshly faulted page starts cold: the fault's
    /// own access is not a second use).
    pub fn clear_references(&self) {
        self.references.store(0, Ordering::Relaxed);
    }

    /// The reclaim hand passes: spend one reference if the page has any.
    /// Returns `true` when it had — the page has bought a second chance.
    #[must_use]
    pub fn spend_reference(&self) -> bool {
        let n = self.references.load(Ordering::Relaxed);
        if n > 0 {
            self.references.store(n - 1, Ordering::Relaxed);
        }
        n > 0
    }

    /// One lock-free pin attempt using the seqlock protocol.
    ///
    /// Returns `Err(())` when a concurrent update forced a retry.
    // The unit error is deliberate: a seqlock retry carries no information
    // beyond "try again", and callers only pattern-match on Ok/Err.
    #[allow(clippy::result_unit_err)]
    pub fn try_pin_lockfree(&self) -> Result<Snapshot, ()> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 % 2 == 1 {
            return Err(()); // update in flight
        }
        let state = self.state();
        let frame = self.frame.load(Ordering::Acquire);
        if self.version.load(Ordering::Acquire) != v1 {
            return Err(());
        }
        match state {
            PageState::Ready => {
                // Optimistically pin, then revalidate: if an eviction
                // started between the reads and the pin, back out. These
                // two accesses pair with `begin_update_if_unpinned`.
                self.refs.fetch_add(1, Ordering::SeqCst);
                #[cfg(test)]
                race_hook::at(race_hook::Point::PinBetweenIncrAndRecheck);
                if self.version.load(Ordering::SeqCst) == v1 {
                    Ok(Snapshot::Pinned(frame))
                } else {
                    self.refs.fetch_sub(1, Ordering::AcqRel);
                    Err(())
                }
            }
            PageState::Empty => Ok(Snapshot::Empty),
            PageState::Initializing => Ok(Snapshot::Initializing),
        }
    }

    /// Pin attempt under the fpage lock (the fallback path). Never fails,
    /// but may report `Empty`/`Initializing` just like the fast path.
    #[must_use]
    pub fn pin_locked(&self) -> Snapshot {
        self.lock();
        let out = match self.state() {
            PageState::Ready => {
                self.refs.fetch_add(1, Ordering::AcqRel);
                Snapshot::Pinned(self.frame.load(Ordering::Acquire))
            }
            PageState::Empty => Snapshot::Empty,
            PageState::Initializing => Snapshot::Initializing,
        };
        self.unlock();
        out
    }
}

/// Test seam for the pin/evict race: a per-thread callback run at the
/// two points where the Dekker pair of [`FPage::try_pin_lockfree`] and
/// [`FPage::begin_update_if_unpinned`] can interleave, so a test can park
/// one side exactly there. Compiled only into this crate's unit tests.
#[cfg(test)]
pub(crate) mod race_hook {
    use std::cell::RefCell;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Point {
        /// The pinner has bumped `refs` and not yet re-read the version.
        PinBetweenIncrAndRecheck,
        /// The evictor has bumped the version and not yet read `refs`.
        EvictBetweenBumpAndRefs,
    }

    type Hook = Box<dyn FnMut(Point)>;

    thread_local! {
        static HOOK: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Install `hook` for the calling thread (replacing any previous one).
    pub(crate) fn set(hook: impl FnMut(Point) + 'static) {
        HOOK.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
    }

    pub(super) fn at(point: Point) {
        HOOK.with(|h| {
            if let Some(hook) = h.borrow_mut().as_mut() {
                hook(point);
            }
        });
    }
}

/// One radix-tree node. Interior nodes use `children`; leaves (height 0)
/// use `pages`.
pub(crate) struct Node {
    height: u8,
    children: [AtomicPtr<Node>; FANOUT],
    pages: Box<[FPage]>,
}

impl Node {
    fn new(height: u8) -> Self {
        let pages = if height == 0 {
            (0..FANOUT).map(|_| FPage::new()).collect()
        } else {
            Box::from([])
        };
        Self {
            height,
            children: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            pages,
        }
    }
}

/// A leaf node reference in the eviction list.
#[derive(Debug, Clone, Copy)]
struct LeafRef {
    node: *const Node,
    /// Page index of the leaf's first slot.
    base_page: u64,
}

// SAFETY: the raw pointers reference nodes owned by the tree's arena,
// which outlives every LeafRef; nodes are never freed before the tree.
unsafe impl Send for LeafRef {}
unsafe impl Sync for LeafRef {}

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Shards of the node arena and leaf registry. Node creation is rare
/// (once per 64 pages) but every creation under one tree-wide lock still
/// convoys concurrent first-touch faults of distant file regions; keying
/// the lock by the child slot being filled (`slot % RADIX_SHARDS`) lets
/// those proceed independently while keeping the double-checked publish
/// sound — racing inserts of the *same* child always pick the same shard.
const RADIX_SHARDS: usize = 8;

/// The per-file page index (see module docs).
pub struct RadixTree {
    uid: u64,
    root: Box<Node>,
    /// Owns every non-root node, sharded by the child slot being filled
    /// (see [`RADIX_SHARDS`]); lookups stay lock-free.
    // The Box is load-bearing: `children` and `LeafRef` hold raw pointers
    // to nodes, so node addresses must survive Vec reallocation.
    #[allow(clippy::vec_box)]
    arena: Box<[Mutex<Vec<Box<Node>>>]>,
    /// Leaves in per-shard allocation order — the ring the reclaim hand
    /// travels, `FANOUT` slots a leaf. Concatenating the shards loses
    /// total allocation order across shards, which the hand tolerates: it
    /// needs a stable ring, not an age order (the reference counts carry
    /// the recency). A leaf registered mid-revolution shifts the ring
    /// under the hand once; files stop growing leaves long before their
    /// cache is under pressure.
    leaves: Box<[Mutex<Vec<LeafRef>>]>,
    /// The reclaim hand: slots handed out so far, over all sweeps by all
    /// threadblocks. Its position on the ring is this modulo the ring
    /// size; it only ever moves forward, one slot per slot examined.
    evict_cursor: AtomicUsize,
}

// SAFETY: all interior mutability is through atomics and mutexes; raw
// node pointers never escape the tree's lifetime.
unsafe impl Send for RadixTree {}
unsafe impl Sync for RadixTree {}

impl std::fmt::Debug for RadixTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadixTree")
            .field("uid", &self.uid)
            .field("leaves", &self.num_leaves())
            .finish()
    }
}

impl Default for RadixTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RadixTree {
    /// An empty tree with a fresh unique id.
    ///
    /// The id is "assigned to each radix tree during initialization, then
    /// propagated to every page referenced by the tree" so that lock-free
    /// readers can verify they found the right page (paper §4.2).
    #[must_use]
    pub fn new() -> Self {
        Self {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            root: Box::new(Node::new((TREE_LEVELS - 1) as u8)),
            arena: (0..RADIX_SHARDS).map(|_| Mutex::default()).collect(),
            leaves: (0..RADIX_SHARDS).map(|_| Mutex::default()).collect(),
            evict_cursor: AtomicUsize::new(0),
        }
    }

    /// The tree's unique id.
    #[must_use]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    fn slot(page_idx: u64, height: u8) -> usize {
        ((page_idx >> (FANOUT_BITS * u32::from(height))) & (FANOUT as u64 - 1)) as usize
    }

    /// Lock-free lookup of the fpage slot for `page_idx`, if its leaf
    /// exists.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` exceeds the tree capacity.
    #[must_use]
    pub fn lookup(&self, page_idx: u64) -> Option<&FPage> {
        assert!(page_idx < MAX_PAGES, "page index beyond tree capacity");
        let mut node: &Node = &self.root;
        while node.height > 0 {
            let child = node.children[Self::slot(page_idx, node.height)].load(Ordering::Acquire);
            if child.is_null() {
                return None;
            }
            // SAFETY: non-null children point into the arena, which lives
            // as long as `self`; nodes are never freed before the tree.
            node = unsafe { &*child };
        }
        Some(&node.pages[Self::slot(page_idx, 0)])
    }

    /// Find the fpage slot for `page_idx`, creating missing nodes.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` exceeds the tree capacity.
    pub fn get_or_insert(&self, page_idx: u64) -> &FPage {
        assert!(page_idx < MAX_PAGES, "page index beyond tree capacity");
        let mut node: &Node = &self.root;
        while node.height > 0 {
            let slot = Self::slot(page_idx, node.height);
            let mut child = node.children[slot].load(Ordering::Acquire);
            if child.is_null() {
                let mut arena = self.arena[slot % RADIX_SHARDS].lock();
                // Re-check under the shard lock: racing creators of this
                // child picked the same shard, so one of them won.
                child = node.children[slot].load(Ordering::Acquire);
                if child.is_null() {
                    let mut fresh = Box::new(Node::new(node.height - 1));
                    let raw: *mut Node = &mut *fresh;
                    arena.push(fresh);
                    if node.height == 1 {
                        // New leaf: register at the tail of its shard's
                        // allocation-order list.
                        let base = page_idx & !(FANOUT as u64 - 1);
                        self.leaves[slot % RADIX_SHARDS].lock().push(LeafRef {
                            node: raw,
                            base_page: base,
                        });
                    }
                    node.children[slot].store(raw, Ordering::Release);
                    child = raw;
                }
            }
            // SAFETY: see `lookup`.
            node = unsafe { &*child };
        }
        &node.pages[Self::slot(page_idx, 0)]
    }

    /// Number of leaf nodes allocated so far.
    #[must_use]
    fn num_leaves(&self) -> usize {
        self.leaves.iter().map(|s| s.lock().len()).sum()
    }

    /// Concatenated snapshot of every shard's leaf list.
    fn leaf_snapshot(&self) -> Vec<LeafRef> {
        let mut out = Vec::new();
        for shard in self.leaves.iter() {
            out.extend(shard.lock().iter().copied());
        }
        out
    }

    /// Advance the reclaim hand: visit fpages in ring order (leaves in
    /// allocation order, slots in index order) from where the last sweep
    /// stopped. `f` examines one page — its index and slot — and returns
    /// `true` to be handed the next. Every slot is claimed from the
    /// shared hand before it is examined, so concurrent sweeps split the
    /// ring between them instead of re-examining each other's slots, and
    /// the hand advances by exactly the slots examined. A sweep ends
    /// after one revolution at the latest.
    pub fn for_each_reclaim_candidate(&self, mut f: impl FnMut(u64, &FPage) -> bool) {
        let snapshot: Vec<LeafRef> = self.leaf_snapshot();
        let ring = snapshot.len() * FANOUT;
        for _ in 0..ring {
            let at = self.evict_cursor.fetch_add(1, Ordering::Relaxed) % ring;
            let leaf = snapshot[at / FANOUT];
            // SAFETY: leaf nodes live in the arena for the tree's lifetime.
            let node = unsafe { &*leaf.node };
            let slot = at % FANOUT;
            if !f(leaf.base_page + slot as u64, &node.pages[slot]) {
                return;
            }
        }
    }

    /// Visit every allocated fpage in page-index order (used by `gfsync`
    /// to find dirty pages and by invalidation to drop all frames).
    pub fn for_each_page(&self, mut f: impl FnMut(u64, &FPage)) {
        let mut snapshot: Vec<LeafRef> = self.leaf_snapshot();
        snapshot.sort_by_key(|l| l.base_page);
        for leaf in snapshot {
            // SAFETY: see above.
            let node = unsafe { &*leaf.node };
            for (slot, page) in node.pages.iter().enumerate() {
                f(leaf.base_page + slot as u64, page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_fpage_lock_held_across_a_wait_is_a_lockcheck_finding() {
        use parking_lot::lockcheck;
        if !lockcheck::enabled() {
            return; // a `LOCKCHECK=0` run checks nothing
        }
        let fp = FPage::new();
        let board = simtime::ClockBoard::new(0);
        fp.lock();
        let waited = std::panic::catch_unwind(|| board.wait(0, || true));
        fp.unlock();
        assert!(waited.is_err(), "the checker stops the wait");
        let reports = lockcheck::take_reports();
        assert!(
            reports
                .iter()
                .any(|r| r.contains("lock held across blocking region")
                    && r.contains("simtime-wait")
                    && r.contains("fpage")),
            "{reports:#?}"
        );
        // Released, the lock no longer counts.
        assert!(board.wait(0, || true));
    }

    #[test]
    fn lookup_of_missing_page_is_none() {
        let t = RadixTree::new();
        assert!(t.lookup(0).is_none());
        assert!(t.lookup(12345).is_none());
    }

    #[test]
    fn insert_then_lookup_same_slot() {
        let t = RadixTree::new();
        let a = t.get_or_insert(77) as *const FPage;
        let b = t.lookup(77).unwrap() as *const FPage;
        assert_eq!(a, b);
        // Neighbouring page in the same leaf.
        let c = t.lookup(76);
        assert!(c.is_some(), "whole leaf becomes visible");
    }

    #[test]
    fn distant_pages_use_distinct_leaves() {
        let t = RadixTree::new();
        t.get_or_insert(0);
        t.get_or_insert(1 << 18); // different level-2 subtree
        assert_eq!(t.num_leaves(), 2);
    }

    #[test]
    fn uids_are_unique() {
        assert_ne!(RadixTree::new().uid(), RadixTree::new().uid());
    }

    #[test]
    #[should_panic(expected = "beyond tree capacity")]
    fn oversized_index_panics() {
        let t = RadixTree::new();
        let _ = t.lookup(MAX_PAGES);
    }

    #[test]
    fn fpage_lockfree_pin_of_ready_page() {
        let t = RadixTree::new();
        let p = t.get_or_insert(3);
        // Initialize: Empty -> Initializing -> Ready with frame 9.
        p.lock();
        p.begin_update();
        p.set_state(PageState::Initializing);
        p.set_frame(Some(9));
        p.set_state(PageState::Ready);
        p.end_update();
        p.unlock();

        match p.try_pin_lockfree() {
            Ok(Snapshot::Pinned(f)) => assert_eq!(f, 9),
            other => panic!("expected pinned, got {other:?}"),
        }
        assert_eq!(p.refs(), 1);
        p.unpin();
        assert_eq!(p.refs(), 0);
    }

    #[test]
    fn lockfree_pin_retries_during_update() {
        let t = RadixTree::new();
        let p = t.get_or_insert(0);
        p.lock();
        p.begin_update();
        assert_eq!(
            p.try_pin_lockfree(),
            Err(()),
            "odd version must force retry"
        );
        p.end_update();
        p.unlock();
        assert_eq!(p.try_pin_lockfree(), Ok(Snapshot::Empty));
    }

    #[test]
    fn locked_pin_reports_states() {
        let t = RadixTree::new();
        let p = t.get_or_insert(0);
        assert_eq!(p.pin_locked(), Snapshot::Empty);
        p.lock();
        p.begin_update();
        p.set_state(PageState::Initializing);
        p.end_update();
        p.unlock();
        assert_eq!(p.pin_locked(), Snapshot::Initializing);
    }

    #[test]
    fn reclaim_candidates_cover_all_leaves() {
        let t = RadixTree::new();
        t.get_or_insert(0);
        t.get_or_insert(100);
        t.get_or_insert(1000);
        let mut seen = std::collections::HashSet::new();
        t.for_each_reclaim_candidate(|idx, _| {
            seen.insert(idx);
            true
        });
        assert!(seen.contains(&0) && seen.contains(&100) && seen.contains(&1000));
        assert_eq!(seen.len(), 3 * FANOUT);
    }

    #[test]
    fn the_reclaim_hand_resumes_where_the_last_sweep_stopped() {
        let t = RadixTree::new();
        t.get_or_insert(0);
        t.get_or_insert(100);
        t.get_or_insert(1000);
        let ring = 3 * FANOUT;
        // Sweeps of 7 slots each (7 does not divide the ring), until they
        // have gone once round and a little further.
        let mut visited = Vec::new();
        while visited.len() < ring {
            let mut examined = 0;
            t.for_each_reclaim_candidate(|idx, _| {
                visited.push(idx);
                examined += 1;
                examined < 7
            });
        }
        let revolution: std::collections::HashSet<u64> = visited[..ring].iter().copied().collect();
        assert_eq!(revolution.len(), ring, "every slot once per revolution");
        let overshoot = visited.len() - ring;
        assert_eq!(visited[ring..], visited[..overshoot], "then round again");
        // An unbounded sweep picks up at the next slot and stops after
        // exactly one revolution.
        let mut full = Vec::new();
        t.for_each_reclaim_candidate(|idx, _| {
            full.push(idx);
            true
        });
        assert_eq!(full.len(), ring);
        assert_eq!(full[0], visited[overshoot]);
    }

    #[test]
    fn references_saturate_and_are_spent_one_per_pass() {
        let t = RadixTree::new();
        let p = t.get_or_insert(0);
        assert!(!p.spend_reference(), "a cold page has nothing to spend");
        for _ in 0..10 {
            p.touch();
        }
        assert_eq!(p.references(), REFERENCE_CAP);
        for left in (0..REFERENCE_CAP).rev() {
            assert!(p.spend_reference());
            assert_eq!(p.references(), left);
        }
        assert!(!p.spend_reference());
        p.touch();
        p.clear_references();
        assert_eq!(p.references(), 0);
    }

    #[test]
    fn fpage_stays_three_words() {
        // The reference count lives in padding next to `locked`: the hit
        // path touches no line it did not already own.
        assert_eq!(std::mem::size_of::<FPage>(), 24);
    }

    #[test]
    fn for_each_page_is_sorted_by_index() {
        let t = RadixTree::new();
        t.get_or_insert(5000);
        t.get_or_insert(2);
        let mut indices = Vec::new();
        t.for_each_page(|idx, _| indices.push(idx));
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn concurrent_get_or_insert_returns_one_slot() {
        let t = RadixTree::new();
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| t.get_or_insert(42) as *const FPage as usize))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(t.num_leaves(), 1);
    }

    #[test]
    fn sharded_arena_publishes_concurrent_distant_inserts() {
        // Eight threads populate distant subtrees (different arena
        // shards) at once; every leaf must come out registered and every
        // page resolvable.
        let t = RadixTree::new();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for j in 0..16u64 {
                        t.get_or_insert(i * (1 << 12) + j * FANOUT as u64);
                    }
                });
            }
        });
        assert_eq!(t.num_leaves(), 8 * 16);
        for i in 0..8u64 {
            for j in 0..16u64 {
                assert!(t.lookup(i * (1 << 12) + j * FANOUT as u64).is_some());
            }
        }
        let mut seen = 0usize;
        t.for_each_page(|_, _| seen += 1);
        assert_eq!(seen, 8 * 16 * FANOUT, "snapshot covers every shard");
    }

    #[test]
    fn concurrent_pin_unpin_is_balanced() {
        let t = RadixTree::new();
        let p = t.get_or_insert(7);
        p.lock();
        p.begin_update();
        p.set_state(PageState::Ready);
        p.set_frame(Some(1));
        p.end_update();
        p.unlock();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        loop {
                            match p.try_pin_lockfree() {
                                Ok(Snapshot::Pinned(_)) => break,
                                _ => std::thread::yield_now(),
                            }
                        }
                        p.unpin();
                    }
                });
            }
        });
        assert_eq!(p.refs(), 0);
    }
}
