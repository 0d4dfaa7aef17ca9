//! The raw data array and pframe metadata (paper §4.2).
//!
//! GPUfs pre-allocates all buffer-cache pages in one large contiguous
//! array in GPU global memory — the *raw data array* — and keeps per-page
//! metadata in a separate, index-aligned *pframe* array: the `i`th pframe
//! describes the `i`th page, so translating between a page pointer and its
//! metadata is pure arithmetic in both directions.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use gpusim::{DevPtr, GlobalMem, MemError};
use parking_lot::Mutex;
use simtime::Nanos;

/// Index of a page frame in the raw data array.
pub type FrameIdx = u32;

/// Sentinel for "no frame".
pub const NO_FRAME: FrameIdx = u32::MAX;

/// Metadata of one buffer-cache page (the paper's `pframe`).
///
/// Unlike Linux, pframes carry file identity — the owning radix tree's
/// unique id and the page's file offset — because GPUfs validates lock-free
/// lookups against them (§4.2), and every cached page is backed by a host
/// file.
#[derive(Debug)]
pub struct PFrame {
    /// Unique id of the radix tree (file cache) owning this frame.
    pub file_uid: AtomicU64,
    /// Page index within the file (`file_offset / page_size`).
    pub page_idx: AtomicU64,
    /// Valid bytes in the page (short at EOF or for freshly written
    /// write-once pages).
    pub data_size: AtomicUsize,
    /// Whether the page holds local writes not yet propagated to the host.
    pub dirty: AtomicBool,
    /// Virtual time at which the page content became valid (waiters on a
    /// concurrent initialization synchronize their clocks to this).
    pub ready_at: AtomicU64,
    /// Frame index of this page's pristine copy (`NO_FRAME` if none).
    /// Read-write files keep one so sync can diff working vs pristine
    /// (paper §3.1); write-once files diff against zeros instead.
    pub pristine: AtomicU64,
    /// Set when readahead (not a demand miss) brought this page in; the
    /// first pin consumes the flag so the mount can count readahead hits.
    pub prefetched: AtomicBool,
    /// Tenant the frame is charged to while allocated (0 when free or on
    /// single-tenant mounts). Reclaim reads it to evict an over-quota
    /// tenant's own pages first.
    pub tenant: AtomicUsize,
}

impl PFrame {
    fn new() -> Self {
        Self {
            file_uid: AtomicU64::new(0),
            page_idx: AtomicU64::new(0),
            data_size: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
            ready_at: AtomicU64::new(0),
            pristine: AtomicU64::new(u64::from(NO_FRAME)),
            prefetched: AtomicBool::new(false),
            tenant: AtomicUsize::new(0),
        }
    }

    /// Reset to a pristine, unowned state (frame freed).
    pub fn clear(&self) {
        self.file_uid.store(0, Ordering::Relaxed);
        self.page_idx.store(0, Ordering::Relaxed);
        self.data_size.store(0, Ordering::Relaxed);
        self.dirty.store(false, Ordering::Relaxed);
        self.ready_at.store(0, Ordering::Relaxed);
        self.pristine.store(u64::from(NO_FRAME), Ordering::Relaxed);
        self.prefetched.store(false, Ordering::Relaxed);
        self.tenant.store(0, Ordering::Relaxed);
    }

    /// The pristine frame index, if any.
    #[must_use]
    pub fn pristine_frame(&self) -> Option<FrameIdx> {
        let v = self.pristine.load(Ordering::Acquire);
        if v == u64::from(NO_FRAME) {
            None
        } else {
            Some(v as FrameIdx)
        }
    }

    /// Set or clear the pristine frame index.
    pub fn set_pristine(&self, frame: Option<FrameIdx>) {
        self.pristine
            .store(u64::from(frame.unwrap_or(NO_FRAME)), Ordering::Release);
    }

    /// Record when content becomes valid.
    pub fn set_ready_at(&self, t: Nanos) {
        self.ready_at.store(t, Ordering::Release);
    }
}

/// The raw data array plus its pframe array and sharded free list.
///
/// Frames are allocated from GPU global memory once at mount time; the
/// free list hands them out and takes them back on eviction. There is no
/// daemon thread: when the list runs dry, the *calling* threadblock
/// reclaims pages (paper §4.2, "GPUfs code hijacking the calling thread to
/// perform paging").
///
/// The free list is split into independently locked shards so that
/// threadblocks faulting concurrently on different shards never contend
/// on one `Mutex` (the control-plane half of the paper's Figure 7 hit
/// path scaling). Frames are striped round-robin across shards at init;
/// allocation pops the caller's shard first and *steals* from sibling
/// shards when it runs dry, so exhaustion semantics are independent of
/// the shard count: `alloc` fails only when every shard is empty.
/// Soft per-tenant quotas layer on top: every allocated frame is charged
/// to a tenant, quotas cap nothing at allocation time (steal-when-idle —
/// free frames always serve whoever faults), but reclaim consults
/// [`FrameArena::over_quota`] to make an over-quota tenant evict its own
/// pages first. A tenant id indexes the arena's per-tenant state
/// directly: every method taking one panics past [`FrameArena::num_tenants`].
#[derive(Debug)]
pub struct FrameArena {
    base: DevPtr,
    page_size: usize,
    pframes: Box<[PFrame]>,
    shards: Box<[Mutex<Vec<FrameIdx>>]>,
    /// Frames currently charged to each tenant. Invariant:
    /// `sum(holdings) + free_frames() == num_frames()`.
    holdings: Box<[AtomicUsize]>,
    /// Soft frame quota per tenant (`usize::MAX` = unlimited).
    quotas: Box<[usize]>,
}

impl FrameArena {
    /// Carve `num_frames` pages of `page_size` bytes out of `mem`, with
    /// the free list split into `shards` shards (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns the allocator error if GPU memory cannot hold the array.
    pub fn new(
        mem: &GlobalMem,
        page_size: usize,
        num_frames: usize,
        shards: usize,
    ) -> Result<Self, MemError> {
        Self::with_quotas(mem, page_size, num_frames, shards, 1, &[])
    }

    /// [`FrameArena::new`] plus tenant accounting: `tenants` holding
    /// counters (at least one) and soft per-tenant frame `quotas`
    /// (missing or zero entries mean unlimited).
    ///
    /// # Errors
    ///
    /// Returns the allocator error if GPU memory cannot hold the array.
    pub fn with_quotas(
        mem: &GlobalMem,
        page_size: usize,
        num_frames: usize,
        shards: usize,
        tenants: usize,
        quotas: &[usize],
    ) -> Result<Self, MemError> {
        let base = mem.alloc(page_size * num_frames)?;
        let pframes = (0..num_frames).map(|_| PFrame::new()).collect();
        let n = shards.max(1);
        // Stripe frames round-robin: frame i lands in shard i % n. Each
        // shard is a LIFO popped from the back, seeded in reverse so low
        // indices come out first — with one shard this is exactly the
        // original single free list.
        let mut lists: Vec<Vec<FrameIdx>> = vec![Vec::new(); n];
        for i in (0..num_frames as FrameIdx).rev() {
            lists[(i as usize) % n].push(i);
        }
        let shards = lists.into_iter().map(Mutex::new).collect();
        let holdings = (0..tenants).map(|_| AtomicUsize::new(0)).collect();
        let quotas = (0..tenants)
            .map(|t| match quotas.get(t) {
                Some(&q) if q > 0 => q,
                _ => usize::MAX,
            })
            .collect();
        Ok(Self {
            base,
            page_size,
            pframes,
            shards,
            holdings,
            quotas,
        })
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of frames.
    #[must_use]
    pub fn num_frames(&self) -> usize {
        self.pframes.len()
    }

    /// Number of freelist shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Map an arbitrary caller hint (a threadblock slot) to
    /// its home shard.
    #[must_use]
    pub fn shard_of(&self, hint: usize) -> usize {
        hint % self.shards.len()
    }

    /// Frames currently free, summed across shards.
    #[must_use]
    pub fn free_frames(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Frames currently free in `hint`'s home shard.
    #[cfg(test)]
    pub(crate) fn shard_free(&self, hint: usize) -> usize {
        self.shards[self.shard_of(hint)].lock().len()
    }

    /// Tenant classes the arena accounts for (≥ 1).
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.holdings.len()
    }

    /// Frames currently charged to `tenant`.
    #[must_use]
    pub fn tenant_held(&self, tenant: usize) -> usize {
        self.holdings[tenant].load(Ordering::Relaxed)
    }

    /// Soft frame quota of `tenant` (`usize::MAX` = unlimited).
    #[must_use]
    pub fn tenant_quota(&self, tenant: usize) -> usize {
        self.quotas[tenant]
    }

    /// Whether `tenant` currently holds more frames than its soft quota —
    /// the signal reclaim uses to steer eviction at its own pages first.
    #[must_use]
    pub fn over_quota(&self, tenant: usize) -> bool {
        self.holdings[tenant].load(Ordering::Relaxed) > self.quotas[tenant]
    }

    /// Whether any tenant carries a finite quota (false on default,
    /// unpartitioned mounts — lets reclaim skip tenant steering entirely).
    #[must_use]
    pub fn has_quotas(&self) -> bool {
        self.quotas.iter().any(|&q| q != usize::MAX)
    }

    /// Device address of frame `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn frame_ptr(&self, idx: FrameIdx) -> DevPtr {
        assert!(
            (idx as usize) < self.pframes.len(),
            "frame index out of range"
        );
        self.base + (idx as usize) * self.page_size
    }

    /// Metadata of frame `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn pframe(&self, idx: FrameIdx) -> &PFrame {
        &self.pframes[idx as usize]
    }

    /// Take a free frame, if any, preferring the caller's home shard and
    /// stealing round-robin from sibling shards when it is empty. Only
    /// one shard lock is held at a time, so the lock-order graph stays a
    /// set of leaves.
    pub fn alloc(&self, hint: usize) -> Option<FrameIdx> {
        self.alloc_owned(hint, 0)
    }

    /// [`FrameArena::alloc`] charged to `tenant`: the frame's
    /// pframe is stamped with the owner and the tenant's holding counter
    /// incremented. Quotas are soft — a free frame is never refused, even
    /// over quota (steal-when-idle); pressure is applied at reclaim time
    /// instead.
    pub fn alloc_owned(&self, hint: usize, tenant: usize) -> Option<FrameIdx> {
        let n = self.shards.len();
        let home = self.shard_of(hint);
        for step in 0..n {
            let popped = self.shards[(home + step) % n].lock().pop();
            if let Some(f) = popped {
                self.pframes[f as usize]
                    .tenant
                    .store(tenant, Ordering::Relaxed);
                self.holdings[tenant].fetch_add(1, Ordering::Relaxed);
                return Some(f);
            }
        }
        None
    }

    /// Return a frame to the caller's home shard, clearing its metadata.
    /// Stolen frames migrate to the stealer's shard — affinity follows
    /// use, and conservation holds regardless of where a frame retires.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on double free.
    pub fn release(&self, hint: usize, idx: FrameIdx) {
        let owner = self.pframe(idx).tenant.load(Ordering::Relaxed);
        self.holdings[owner].fetch_sub(1, Ordering::Relaxed);
        self.pframe(idx).clear();
        #[cfg(debug_assertions)]
        for s in self.shards.iter() {
            debug_assert!(!s.lock().contains(&idx), "double free of frame {idx}");
        }
        self.shards[self.shard_of(hint)].lock().push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GlobalMem;

    fn arena() -> (GlobalMem, FrameArena) {
        arena_sharded(1)
    }

    fn arena_sharded(shards: usize) -> (GlobalMem, FrameArena) {
        let mem = GlobalMem::new(1 << 20);
        let arena = FrameArena::new(&mem, 4096, 16, shards).unwrap();
        (mem, arena)
    }

    #[test]
    fn frames_are_disjoint_and_addressable() {
        let (_mem, a) = arena();
        assert_eq!(a.num_frames(), 16);
        assert_eq!(a.free_frames(), 16);
        let p0 = a.frame_ptr(0);
        let p1 = a.frame_ptr(1);
        assert_eq!(p1.offset() - p0.offset(), 4096);
    }

    #[test]
    fn alloc_until_exhaustion_then_release() {
        let (_mem, a) = arena();
        let mut got = Vec::new();
        while let Some(f) = a.alloc(0) {
            got.push(f);
        }
        assert_eq!(got.len(), 16);
        assert_eq!(a.free_frames(), 0);
        a.release(0, got.pop().unwrap());
        assert_eq!(a.free_frames(), 1);
        assert!(a.alloc(0).is_some());
    }

    #[test]
    fn sharded_alloc_prefers_home_and_steals_on_empty() {
        let (_mem, a) = arena_sharded(4);
        assert_eq!(a.num_shards(), 4);
        // Frames are striped i % 4, LIFO low-first: shard 1 holds
        // {1, 5, 9, 13} and hands out 1 first.
        assert_eq!(a.alloc(1), Some(1));
        assert_eq!(a.alloc(5), Some(5), "hint 5 maps to shard 1");
        // Drain shard 1 entirely, then one more alloc must steal from a
        // sibling rather than fail.
        assert_eq!(a.alloc(1), Some(9));
        assert_eq!(a.alloc(1), Some(13));
        let stolen = a.alloc(1).expect("steal-on-empty");
        assert_eq!(stolen % 4, 2, "round-robin steal starts at the next shard");
        // Exhaustion is shard-count independent: every frame comes out.
        let mut n = 5;
        while a.alloc(3).is_some() {
            n += 1;
        }
        assert_eq!(n, 16);
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn release_returns_to_the_callers_shard() {
        let (_mem, a) = arena_sharded(4);
        let f = a.alloc(2).unwrap();
        // Retire a shard-2 frame to shard 0; the very next shard-0 alloc
        // gets it back (LIFO), showing affinity follows use.
        a.release(0, f);
        assert_eq!(a.alloc(0), Some(f));
    }

    #[test]
    fn release_clears_metadata() {
        let (_mem, a) = arena();
        let f = a.alloc(0).unwrap();
        let pf = a.pframe(f);
        pf.file_uid.store(9, Ordering::Relaxed);
        pf.dirty.store(true, Ordering::Relaxed);
        pf.set_pristine(Some(3));
        pf.prefetched.store(true, Ordering::Relaxed);
        a.release(0, f);
        let pf = a.pframe(f);
        assert_eq!(pf.file_uid.load(Ordering::Relaxed), 0);
        assert!(!pf.dirty.load(Ordering::Relaxed));
        assert_eq!(pf.pristine_frame(), None);
        assert!(!pf.prefetched.load(Ordering::Relaxed));
    }

    #[test]
    fn pframe_index_alignment_is_bidirectional() {
        // The ith pframe describes the ith page: ptr -> index -> ptr.
        let (_mem, a) = arena();
        for idx in [0u32, 5, 15] {
            let ptr = a.frame_ptr(idx);
            let back = ((ptr.offset() - a.frame_ptr(0).offset()) / 4096) as u32;
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn arena_too_big_for_gpu_errors() {
        let mem = GlobalMem::new(1 << 12);
        assert!(FrameArena::new(&mem, 4096, 16, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_frame_index_panics() {
        let (_mem, a) = arena();
        let _ = a.frame_ptr(99);
    }

    #[test]
    fn tenant_holdings_track_alloc_and_release() {
        let mem = GlobalMem::new(1 << 20);
        let a = FrameArena::with_quotas(&mem, 4096, 16, 2, 2, &[3, 0]).unwrap();
        assert_eq!(a.num_tenants(), 2);
        assert_eq!(a.tenant_quota(0), 3);
        assert_eq!(a.tenant_quota(1), usize::MAX, "quota 0 means unlimited");
        assert!(a.has_quotas());
        let f0 = a.alloc_owned(0, 0).unwrap();
        let f1 = a.alloc_owned(0, 1).unwrap();
        assert_eq!(a.tenant_held(0), 1);
        assert_eq!(a.tenant_held(1), 1);
        assert_eq!(a.pframe(f1).tenant.load(Ordering::Relaxed), 1);
        assert_eq!(a.tenant_held(0) + a.tenant_held(1) + a.free_frames(), 16);
        a.release(0, f1);
        assert_eq!(a.tenant_held(1), 0);
        a.release(0, f0);
        assert_eq!(a.tenant_held(0), 0);
        assert_eq!(a.free_frames(), 16);
    }

    #[test]
    fn soft_quota_never_refuses_a_free_frame() {
        let mem = GlobalMem::new(1 << 20);
        let a = FrameArena::with_quotas(&mem, 4096, 8, 1, 2, &[2, 2]).unwrap();
        // Tenant 0 takes 5 of 8 frames: over its quota of 2, yet every
        // alloc succeeds because frames are free (steal-when-idle).
        let got: Vec<_> = (0..5).map(|_| a.alloc_owned(0, 0).unwrap()).collect();
        assert_eq!(got.len(), 5);
        assert!(a.over_quota(0));
        assert!(!a.over_quota(1));
    }

    #[test]
    fn default_arena_is_unpartitioned() {
        let (_mem, a) = arena();
        assert_eq!(a.num_tenants(), 1);
        assert!(!a.has_quotas());
        assert!(!a.over_quota(0));
        let f = a.alloc(7).unwrap();
        assert_eq!(a.tenant_held(0), 1);
        a.release(7, f);
        assert_eq!(a.tenant_held(0), 0);
    }
}
