//! Heap allocations of the hit and miss paths, counted.
//!
//! A counting global allocator serves this whole unit-test binary, but it
//! counts only on a thread that asked it to, through a `const`-initialised
//! thread-local — so neither the harness's other threads nor the
//! allocator's own bookkeeping ever count. Release builds may elide
//! allocations a debug build makes, so the tests pin equalities and upper
//! bounds, not exact counts. Both counts below rest on the host page
//! cache's LRU queue reusing its memory once warm. The lock checker
//! (test builds only) keeps no per-lock state, so an acquisition on the
//! counting thread never allocates for locks other threads hold.
//!
//! Serving a `ReadPages` used to build a page list, a staging list and a
//! DMA part list per chunk, so its count grew with the batch. For batches
//! of 1, 2, 8 and 32 pages, debug and release alike, it made 7 / 7 / 19 /
//! 69 allocations under 2-page chunks and 7 / 7 / 8 / 10 on the one-shot
//! engine. The engine now `pread`s straight into the batch's frames and
//! allocates the batch's two lists once (destinations, byte counts):
//! 2 / 2 / 2 / 2 on either engine. A warm `gread` hit made
//! no allocation before and makes none now, and neither does a warm
//! `gmmap` hit, whose map takes a handle on its file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crate::config::{GOpenMode, GpufsConfig};
use crate::daemon::testutil::{call, host_chunked};
use crate::rpc::{MetaOk, MetaOp, PageRead, Request, RespOk};
use crate::testrig::{rig, run_block};

thread_local! {
    /// Allocations this thread has made since it started counting, or
    /// `None` while it is not counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn count() {
    // A thread past its thread-locals' teardown counts nothing.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

/// Run `f`, returning its result and the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let r = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting");
    (r, n)
}

#[test]
fn a_warm_gread_hit_allocates_nothing() {
    let r = rig(1);
    r.fs.create("/hit", &[5u8; 16 << 10]).unwrap();
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
    run_block(&r, |blk| {
        let fd = mount.open(blk, "/hit", GOpenMode::ReadOnly).unwrap();
        let mut buf = [0u8; 1024];
        // The miss that makes the page resident.
        mount.read(blk, &fd, 4096, &mut buf).unwrap();
        let (n, allocs) = allocations(|| mount.read(blk, &fd, 4096, &mut buf).unwrap());
        assert_eq!((n, allocs), (1024, 0));
        assert!(buf.iter().all(|&b| b == 5));
        mount.close(blk, fd).unwrap();
    });
}

#[test]
fn a_warm_gmmap_hit_allocates_nothing() {
    let r = rig(1);
    r.fs.create("/map", &[6u8; 16 << 10]).unwrap();
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
    run_block(&r, |blk| {
        let fd = mount.open(blk, "/map", GOpenMode::ReadOnly).unwrap();
        // The miss that makes the page resident.
        let map = mount.mmap(blk, &fd, 4096, 1024).unwrap();
        mount.munmap(blk, map);
        let (map, allocs) = allocations(|| mount.mmap(blk, &fd, 4096, 1024).unwrap());
        assert_eq!((map.len(), allocs), (1024, 0));
        assert!(map.bytes().iter().all(|&b| b == 6));
        mount.munmap(blk, map);
        mount.close(blk, fd).unwrap();
    });
}

#[test]
fn serving_a_read_batch_allocates_the_same_at_any_width() {
    const PAGE: usize = 4096;
    for io_chunk in [2, 0] {
        let h = host_chunked(io_chunk);
        h.fs()
            .create_synthetic("/batch", 64 * PAGE as u64, 7)
            .unwrap();
        let Ok((RespOk::Meta(MetaOk::Opened { fd, .. }), _)) = call(
            &h,
            Request::Meta(MetaOp::Open {
                path: "/batch".into(),
                write: false,
                create: false,
                truncate: false,
            }),
        ) else {
            panic!("open failed")
        };
        let dst = h.gpus()[0].global().alloc(32 * PAGE).unwrap();
        let counts: Vec<u64> = [1, 2, 8, 32]
            .iter()
            .map(|&n| {
                let req = || Request::ReadPages {
                    fd,
                    pages: (0..n)
                        .map(|i| PageRead {
                            offset: (i * PAGE) as u64,
                            len: PAGE,
                            dst: dst + i * PAGE,
                        })
                        .collect(),
                    gpu: 0,
                };
                // Warm once: first-use growth anywhere on the path is not
                // the path's cost.
                call(&h, req()).unwrap();
                let req = req();
                let (served, allocs) = allocations(|| call(&h, req));
                let (ok, _) = served.unwrap();
                assert!(matches!(ok, RespOk::Read { ref ns } if ns == &vec![PAGE; n]));
                allocs
            })
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "io_chunk {io_chunk}: allocations per batch of 1, 2, 8, 32 pages: {counts:?}"
        );
        assert!(counts[0] <= 2, "io_chunk {io_chunk}: {counts:?}");
    }
}
