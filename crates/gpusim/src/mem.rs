//! GPU global memory: a shared byte arena with a first-fit allocator.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::Add;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// log2 of the bytes one dirty bit covers: a 4 KiB host page, the unit a
/// first touch faults in.
const DIRTY_SHIFT: u32 = 12;

/// Arenas of dropped GPUs, zeroed where they were written, each waiting
/// for the next [`GlobalMem::new`] of its capacity.
static PARKED: Mutex<Vec<Arena>> = Mutex::new(Vec::new());

/// A device pointer: an offset into one GPU's global memory.
///
/// `DevPtr` is plain data — it can be stored in RPC messages and shipped to
/// the host daemon, which uses it as a DMA target, exactly as GPUfs passes
/// raw device pointers in its read/write RPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevPtr(pub u64);

impl DevPtr {
    /// The offset in bytes from the base of global memory.
    #[must_use]
    pub fn offset(self) -> u64 {
        self.0
    }
}

impl Add<usize> for DevPtr {
    type Output = DevPtr;

    fn add(self, rhs: usize) -> DevPtr {
        DevPtr(self.0 + rhs as u64)
    }
}

impl fmt::Display for DevPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:#x}", self.0)
    }
}

/// Errors from global-memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The allocator has no free region large enough.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Largest free region available.
        largest_free: usize,
    },
    /// An access fell outside the arena.
    OutOfBounds {
        /// Offset of the access.
        offset: u64,
        /// Length of the access.
        len: usize,
        /// Size of the arena.
        capacity: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { requested, largest_free } => write!(
                f,
                "out of device memory: requested {requested} bytes, largest free region {largest_free}"
            ),
            MemError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "device access out of bounds: [{offset}, {offset}+{len}) exceeds capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// The byte storage. `UnsafeCell` lets concurrently running threadblocks
/// access disjoint ranges through a shared reference; see the concurrency
/// contract on [`GlobalMem`].
#[derive(Default)]
struct Arena {
    bytes: Box<[UnsafeCell<u8>]>,
    /// One bit per 4 KiB page, set by every writer before it writes.
    dirty: Box<[AtomicU64]>,
}

impl Arena {
    /// An all-zero arena of `capacity` bytes: a parked one if there is
    /// one, else a fresh allocation.
    fn take(capacity: usize) -> Self {
        let parked = {
            let mut parked = PARKED.lock();
            let at = parked.iter().position(|a| a.bytes.len() == capacity);
            at.map(|i| parked.swap_remove(i))
        };
        parked.unwrap_or_else(|| {
            // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so a
            // zeroed `Box<[u8]>` can be reinterpreted as `Box<[UnsafeCell<u8>]>`.
            // This avoids a per-byte construction loop on multi-GB arenas.
            let bytes = unsafe {
                let raw = Box::into_raw(vec![0u8; capacity].into_boxed_slice());
                Box::from_raw(raw as *mut [UnsafeCell<u8>])
            };
            let pages = capacity.div_ceil(1 << DIRTY_SHIFT);
            let dirty = (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
            Self { bytes, dirty }
        })
    }

    /// Mark the pages of `[offset, offset+len)` dirty. Pages marked
    /// already cost one load per bitmap word.
    fn mark(&self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = offset >> DIRTY_SHIFT;
        let last = (offset + len - 1) >> DIRTY_SHIFT;
        for w in first / 64..=last / 64 {
            let lo = if w == first / 64 { first % 64 } else { 0 };
            let hi = if w == last / 64 { last % 64 } else { 63 };
            let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            // Relaxed is enough: the bits publish nothing and are read only
            // by `scrub` through `&mut self`, and whatever gave the dropping
            // thread sole ownership (the last `Arc` release, a thread join)
            // orders every mark before that read.
            let word = &self.dirty[w];
            if word.load(Ordering::Relaxed) & mask != mask {
                word.fetch_or(mask, Ordering::Relaxed);
            }
        }
    }

    /// Zero exactly the dirty pages and clear their bits, so the arena
    /// reads as zero again without touching a page nobody wrote.
    fn scrub(&mut self) {
        let capacity = self.bytes.len();
        let base = self.bytes.as_mut_ptr() as *mut u8;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word.get_mut());
            while bits != 0 {
                let lo = bits.trailing_zeros();
                let run = (bits >> lo).trailing_ones();
                bits &= !((u64::MAX >> (64 - run)) << lo);
                let page = w * 64 + lo as usize;
                let start = (page << DIRTY_SHIFT).min(capacity);
                let end = ((page + run as usize) << DIRTY_SHIFT).min(capacity);
                // SAFETY: `start <= end <= capacity`, and `&mut self` means
                // no GPU holds the arena any more.
                unsafe { std::ptr::write_bytes(base.add(start), 0, end - start) };
            }
        }
    }
}

// SAFETY: the arena is shared across threadblock worker threads. All
// mutation goes through `GlobalMem`'s bounds-checked copy routines, and the
// layer above (the GPUfs buffer cache and application allocations) is
// responsible for range exclusivity, as on real GPU hardware where global
// memory has no per-byte protection. The dirty bitmap is atomics.
unsafe impl Sync for Arena {}
unsafe impl Send for Arena {}

/// One GPU's global memory.
///
/// # Concurrency contract
///
/// Like real GPU DRAM, the arena performs no access checking between
/// concurrent writers: callers (the GPUfs buffer cache, application code)
/// must ensure that a range being written is not concurrently accessed.
/// Concurrent access to *disjoint* ranges is always fine. This mirrors the
/// paper's reliance on fpage reference counts and locks to protect pages
/// during memory transfers (§4.1).
///
/// # Contents
///
/// A new `GlobalMem` reads as zero everywhere. A range freed and
/// allocated again within one GPU keeps its bytes, as `cudaMalloc`
/// memory does.
///
/// Real device DRAM costs nothing to touch, but a fresh host allocation
/// costs a kernel page fault per 4 KiB page on first write. So a dropped
/// arena is not freed: it zeroes exactly the pages that were written
/// (every writer sets a bit per page) and is parked in a process-wide
/// pool, from which the next `GlobalMem` of the same capacity takes it.
/// The pool never grows the high-water mark: per capacity, parked plus
/// live arenas never exceed the most that were live at once.
pub struct GlobalMem {
    arena: Arena,
    free: Mutex<Vec<(u64, usize)>>, // sorted by offset, coalesced
    capacity: usize,
}

impl fmt::Debug for GlobalMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalMem")
            .field("capacity", &self.capacity)
            .field("free_bytes", &self.free_bytes())
            .finish()
    }
}

impl GlobalMem {
    /// An all-zero arena of `capacity` bytes, fully free.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            arena: Arena::take(capacity),
            free: Mutex::new(vec![(0, capacity)]),
            capacity,
        }
    }

    /// Total arena size in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sum of all free regions.
    #[must_use]
    fn free_bytes(&self) -> usize {
        self.free.lock().iter().map(|&(_, len)| len).sum()
    }

    /// Allocate `len` bytes, first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if no free region is large enough.
    pub fn alloc(&self, len: usize) -> Result<DevPtr, MemError> {
        let mut free = self.free.lock();
        let mut largest = 0;
        for i in 0..free.len() {
            let (off, region) = free[i];
            largest = largest.max(region);
            if region >= len {
                if region == len {
                    free.remove(i);
                } else {
                    free[i] = (off + len as u64, region - len);
                }
                return Ok(DevPtr(off));
            }
        }
        Err(MemError::OutOfMemory {
            requested: len,
            largest_free: largest,
        })
    }

    /// Return `[ptr, ptr+len)` to the allocator, coalescing neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of bounds or overlaps a free region
    /// (double free).
    pub fn dealloc(&self, ptr: DevPtr, len: usize) {
        assert!(
            (ptr.0 as usize).saturating_add(len) <= self.capacity,
            "dealloc out of bounds"
        );
        if len == 0 {
            return;
        }
        let mut free = self.free.lock();
        let idx = free.partition_point(|&(off, _)| off < ptr.0);
        // Check overlap with neighbours.
        if idx > 0 {
            let (poff, plen) = free[idx - 1];
            assert!(
                poff + plen as u64 <= ptr.0,
                "double free / overlap with previous region"
            );
        }
        if idx < free.len() {
            assert!(
                ptr.0 + len as u64 <= free[idx].0,
                "double free / overlap with next region"
            );
        }
        free.insert(idx, (ptr.0, len));
        // Coalesce with next, then previous.
        if idx + 1 < free.len() && free[idx].0 + free[idx].1 as u64 == free[idx + 1].0 {
            free[idx].1 += free[idx + 1].1;
            free.remove(idx + 1);
        }
        if idx > 0 && free[idx - 1].0 + free[idx - 1].1 as u64 == free[idx].0 {
            free[idx - 1].1 += free[idx].1;
            free.remove(idx);
        }
    }

    fn check(&self, ptr: DevPtr, len: usize) -> Result<(), MemError> {
        if (ptr.0 as usize).saturating_add(len) > self.capacity {
            return Err(MemError::OutOfBounds {
                offset: ptr.0,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Copy `src` into device memory at `ptr`.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn write(&self, ptr: DevPtr, src: &[u8]) {
        self.try_write(ptr, src)
            .expect("device write out of bounds");
    }

    /// Copy `src` into device memory at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range does not fit.
    pub fn try_write(&self, ptr: DevPtr, src: &[u8]) -> Result<(), MemError> {
        self.check(ptr, src.len())?;
        self.arena.mark(ptr.0 as usize, src.len());
        let base = self.arena.bytes.as_ptr() as *mut u8;
        // SAFETY: range checked above; exclusivity of the destination range
        // is the caller's contract (see type-level docs).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(ptr.0 as usize), src.len());
        }
        Ok(())
    }

    /// Copy device memory at `ptr` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn read(&self, ptr: DevPtr, dst: &mut [u8]) {
        self.try_read(ptr, dst).expect("device read out of bounds");
    }

    /// Copy device memory at `ptr` into `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range does not fit.
    pub fn try_read(&self, ptr: DevPtr, dst: &mut [u8]) -> Result<(), MemError> {
        self.check(ptr, dst.len())?;
        let base = self.arena.bytes.as_ptr() as *const u8;
        // SAFETY: range checked above; caller guarantees no concurrent
        // writer overlaps the source range.
        unsafe {
            std::ptr::copy_nonoverlapping(base.add(ptr.0 as usize), dst.as_mut_ptr(), dst.len());
        }
        Ok(())
    }

    /// Device-to-device copy within this GPU.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds or the ranges overlap.
    pub fn copy_within(&self, src: DevPtr, dst: DevPtr, len: usize) {
        self.check(src, len)
            .expect("device copy source out of bounds");
        self.check(dst, len)
            .expect("device copy destination out of bounds");
        let s = src.0 as usize;
        let d = dst.0 as usize;
        assert!(s + len <= d || d + len <= s, "overlapping device copy");
        self.arena.mark(d, len);
        let base = self.arena.bytes.as_ptr() as *mut u8;
        // SAFETY: both ranges checked in-bounds and disjoint above.
        unsafe {
            std::ptr::copy_nonoverlapping(base.add(s) as *const u8, base.add(d), len);
        }
    }

    /// Borrow `[ptr, ptr+len)` of device memory directly, without copying.
    ///
    /// This is how `gmmap` hands applications pointers straight into GPU
    /// buffer-cache pages (paper §3.2).
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no thread writes any byte of the
    /// range for the lifetime of the returned slice (GPUfs enforces this
    /// with fpage reference counts that pin pages against eviction and
    /// concurrent initialization).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub unsafe fn slice(&self, ptr: DevPtr, len: usize) -> &[u8] {
        self.check(ptr, len).expect("device slice out of bounds");
        let base = self.arena.bytes.as_ptr() as *const u8;
        std::slice::from_raw_parts(base.add(ptr.0 as usize), len)
    }

    /// Borrow `[ptr, ptr+len)` of device memory mutably, without copying.
    ///
    /// # Safety
    ///
    /// The caller must guarantee exclusive access to the range for the
    /// lifetime of the returned slice.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[allow(clippy::mut_from_ref)]
    #[must_use]
    pub unsafe fn slice_mut(&self, ptr: DevPtr, len: usize) -> &mut [u8] {
        self.check(ptr, len).expect("device slice out of bounds");
        self.arena.mark(ptr.0 as usize, len);
        let base = self.arena.bytes.as_ptr() as *mut u8;
        std::slice::from_raw_parts_mut(base.add(ptr.0 as usize), len)
    }

    /// Zero-fill `[ptr, ptr+len)`, used by O_GWRONCE page initialization.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn zero(&self, ptr: DevPtr, len: usize) {
        self.check(ptr, len).expect("device zero out of bounds");
        self.arena.mark(ptr.0 as usize, len);
        let base = self.arena.bytes.as_ptr() as *mut u8;
        // SAFETY: range checked above; exclusivity is the caller's contract.
        unsafe {
            std::ptr::write_bytes(base.add(ptr.0 as usize), 0, len);
        }
    }
}

impl Drop for GlobalMem {
    fn drop(&mut self) {
        let mut arena = std::mem::take(&mut self.arena);
        arena.scrub();
        PARKED.lock().push(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let mem = GlobalMem::new(4096);
        let p = mem.alloc(128).unwrap();
        mem.write(p, &[7u8; 128]);
        let mut out = [0u8; 128];
        mem.read(p, &mut out);
        assert_eq!(out, [7u8; 128]);
    }

    #[test]
    fn alloc_exhaustion_reports_largest_free() {
        let mem = GlobalMem::new(1024);
        let _a = mem.alloc(1000).unwrap();
        let err = mem.alloc(100).unwrap_err();
        assert_eq!(
            err,
            MemError::OutOfMemory {
                requested: 100,
                largest_free: 24
            }
        );
    }

    #[test]
    fn dealloc_coalesces_regions() {
        let mem = GlobalMem::new(1024);
        let a = mem.alloc(256).unwrap();
        let b = mem.alloc(256).unwrap();
        let c = mem.alloc(256).unwrap();
        mem.dealloc(a, 256);
        mem.dealloc(c, 256);
        // Fragmented: 256 + 256 + 256(tail) free, but not contiguous.
        assert_eq!(mem.free_bytes(), 768);
        assert!(
            mem.alloc(512).is_ok(),
            "c+tail should have coalesced into 512"
        );
        mem.dealloc(b, 256);
        // a+b now contiguous.
        assert!(mem.alloc(512).is_ok());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mem = GlobalMem::new(1024);
        let a = mem.alloc(100).unwrap();
        mem.dealloc(a, 100);
        mem.dealloc(a, 100);
    }

    #[test]
    fn out_of_bounds_write_is_error() {
        let mem = GlobalMem::new(64);
        let err = mem.try_write(DevPtr(60), &[0u8; 8]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn zero_fills_range() {
        let mem = GlobalMem::new(256);
        let p = mem.alloc(64).unwrap();
        mem.write(p, &[0xffu8; 64]);
        mem.zero(p, 64);
        let mut out = [1u8; 64];
        mem.read(p, &mut out);
        assert_eq!(out, [0u8; 64]);
    }

    #[test]
    fn copy_within_moves_bytes() {
        let mem = GlobalMem::new(256);
        let a = mem.alloc(64).unwrap();
        let b = mem.alloc(64).unwrap();
        mem.write(a, &[9u8; 64]);
        mem.copy_within(a, b, 64);
        let mut out = [0u8; 64];
        mem.read(b, &mut out);
        assert_eq!(out, [9u8; 64]);
    }

    #[test]
    fn devptr_arithmetic_and_display() {
        let p = DevPtr(0x100);
        assert_eq!((p + 0x20).offset(), 0x120);
        assert_eq!(p.to_string(), "dev:0x100");
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let mem = GlobalMem::new(64 * 1024);
        let base = mem.alloc(64 * 1024).unwrap();
        std::thread::scope(|s| {
            for i in 0..8usize {
                let mem = &mem;
                s.spawn(move || {
                    mem.write(base + i * 8192, &[i as u8; 8192]);
                });
            }
        });
        let mut out = vec![0u8; 8192];
        mem.read(base + 7 * 8192, &mut out);
        assert!(out.iter().all(|&b| b == 7));
    }

    // The arena pool is process-wide, so every test below that looks at it
    // uses a capacity no other test builds.

    /// Parked arenas of `capacity` bytes.
    fn parked(capacity: usize) -> usize {
        PARKED
            .lock()
            .iter()
            .filter(|a| a.bytes.len() == capacity)
            .count()
    }

    fn base(mem: &GlobalMem) -> *const u8 {
        mem.arena.bytes.as_ptr().cast()
    }

    fn all_zero(mem: &GlobalMem) -> bool {
        let mut out = vec![1u8; mem.capacity()];
        mem.read(DevPtr(0), &mut out);
        out.iter().all(|&b| b == 0)
    }

    #[test]
    fn a_dropped_arena_comes_back_zeroed_wherever_any_writer_wrote() {
        // 130 whole pages (three bitmap words) and a ragged last page.
        const CAP: usize = 130 * 4096 + 100;
        let page = |n: u64| DevPtr(n * 4096);
        let old = GlobalMem::new(CAP);
        let at = base(&old);
        old.write(DevPtr(4096 - 3), &[0xa1; 10]); // pages 0 and 1
        old.try_write(DevPtr(CAP as u64 - 50), &[0xa2; 50]).unwrap(); // the ragged page
        old.write(page(60) + 7, &[0xa3; 6 * 4096]); // pages 60..=66, across a word
        old.copy_within(page(60) + 7, page(100), 4096);
        old.zero(page(62), 100);
        // SAFETY: `old` is this thread's alone.
        unsafe { old.slice_mut(page(120) + 1, 2 * 4096) }.fill(0xa4);
        drop(old);

        let new = GlobalMem::new(CAP);
        assert_eq!(base(&new), at, "the parked arena is reused");
        assert!(all_zero(&new), "a reused arena must read as zero");
    }

    #[test]
    fn two_live_arenas_of_one_capacity_never_share_storage() {
        const CAP: usize = 3 * 4096 + 1;
        let a = GlobalMem::new(CAP);
        let b = GlobalMem::new(CAP);
        assert_ne!(base(&a), base(&b));
        a.write(DevPtr(0), &vec![5; CAP]);
        assert!(all_zero(&b));
        let a_at = base(&a);
        drop(a);
        let c = GlobalMem::new(CAP);
        assert_eq!(base(&c), a_at, "c takes a's parked arena, not b's");
        c.write(DevPtr(0), &vec![6; CAP]);
        assert!(all_zero(&b));
    }

    #[test]
    fn the_pool_holds_the_most_arenas_that_were_live_at_once() {
        const CAP: usize = 5 * 4096 + 2;
        const K: usize = 4;
        for _ in 0..K {
            GlobalMem::new(CAP).write(DevPtr(0), &[1; 64]);
        }
        assert_eq!(parked(CAP), 1, "sequential cycles reuse one arena");
        let live: Vec<_> = (0..K).map(|_| GlobalMem::new(CAP)).collect();
        assert_eq!(parked(CAP), 0);
        drop(live);
        assert_eq!(parked(CAP), K, "simultaneous GPUs park one arena each");
    }

    #[test]
    fn concurrent_same_capacity_gpus_always_start_zeroed() {
        // Four threads build, check, fill and drop GPUs of one capacity, so
        // arenas pass between threads; a GPU that starts dirty is counted.
        const CAP: usize = 16 * 4096 + 3;
        const ROUNDS: usize = 40;
        let spec = crate::GpuSpec {
            memory_bytes: CAP,
            ..crate::GpuSpec::small_test()
        };
        let dirty_starts: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (1..=4u8)
                .map(|pattern| {
                    let spec = &spec;
                    s.spawn(move || {
                        let fill = vec![pattern; CAP];
                        (0..ROUNDS)
                            .filter(|_| {
                                let gpu = crate::Gpu::new(0, spec.clone());
                                let zeroed = all_zero(gpu.global());
                                gpu.global().write(DevPtr(0), &fill);
                                !zeroed
                            })
                            .count()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(dirty_starts, 0, "a new GPU read another's bytes");
        assert!(parked(CAP) <= 4);
        let reports = parking_lot::lockcheck::take_reports();
        assert!(reports.is_empty(), "lock checker findings: {reports:#?}");
    }
}
