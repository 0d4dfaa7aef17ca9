//! The paging layer: pinning pages and faulting them in (paper §4.2).
//!
//! Lookups follow the paper's lock-free protocol — seqlock-validated
//! radix traversal, a bounded number of retries, then the fpage-lock
//! fallback — and misses hijack the calling threadblock to perform the
//! fault. A miss during sequential access widens into a *batched* fault:
//! up to [`crate::GpufsConfig::readahead_pages`] consecutive pages are
//! claimed, given frames, and fetched in one `ReadPages` RPC, so the
//! round-trip, dispatch, and DMA-setup costs amortize over the whole
//! window instead of being paid per page.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpusim::BlockCtx;
use simtime::bw_time_ns;

use crate::cache::{FPage, FrameIdx, PageState, Snapshot};
use crate::config::{GOpenMode, LOCKFREE_RETRIES};
use crate::error::GpufsResult;
use crate::mount::GpuFsMount;
use crate::rpc::{PageRead, Request, RespOk};
use crate::table::GFile;

/// Upper bound on the bytes one readahead batch may carry under the
/// *serialized* daemon engine (`io_chunk_pages = 0`), whatever the
/// configured window. A serialized batch is one pread sequence followed
/// by one scatter DMA, so an over-large batch trades away the pread/DMA
/// pipelining that overlapping smaller requests get (measured: window 8
/// at 16 MB pages more than halves Figure-4 throughput without this cap,
/// because a single batch spans the whole file). 8 MB keeps the full
/// window at every page size up to 1 MB and degrades gracefully above.
/// The pipelined engine chunks a batch so host file I/O overlaps the
/// in-flight DMA — the serialization this cap works around — so there the
/// configured window is the only bound.
const READAHEAD_MAX_BATCH_BYTES: usize = 8 << 20;

/// A pinned page: holds a reference that keeps the frame from eviction.
/// It borrows the caller's file handle rather than owning one, so a pin
/// writes nothing but the fpage's own pin count: the borrow is what keeps
/// the file — and the fpage inside its radix tree — alive while pinned.
pub(crate) struct PagePin<'f> {
    fp: &'f FPage,
    frame: FrameIdx,
}

impl<'f> PagePin<'f> {
    /// The pinned frame.
    pub(crate) fn frame(&self) -> FrameIdx {
        self.frame
    }

    /// Hand the pin over without dropping it: the caller now owns the
    /// reference and must [`FPage::unpin`] the fpage itself, while
    /// keeping its file alive (see [`crate::GMap`]).
    pub(crate) fn into_fpage(self) -> &'f FPage {
        std::mem::ManuallyDrop::new(self).fp
    }
}

impl Drop for PagePin<'_> {
    fn drop(&mut self) {
        self.fp.unpin();
    }
}

/// One readahead page claimed for a batched fault: its fpage, borrowed
/// from the file's radix tree, is already `Initializing` and its frames
/// are allocated.
struct ClaimedPage<'f> {
    page_idx: u64,
    fp: &'f FPage,
    frame: FrameIdx,
    pristine: Option<FrameIdx>,
}

impl GpuFsMount {
    /// Pin `page_idx` of `file`, faulting it in if absent (no readahead).
    pub(crate) fn pin_page<'f>(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &'f Arc<GFile>,
        page_idx: u64,
    ) -> GpufsResult<PagePin<'f>> {
        self.pin_page_windowed(blk, file, page_idx, 1, page_idx)
    }

    /// Pin `page_idx` only if it is (or becomes) resident: waits out an
    /// in-flight initialization or eviction, but **never faults the page
    /// in** — an `Empty` page returns `None`.
    ///
    /// The write-back flush pins whole batches with this: a sync pass
    /// holding several pins must never allocate frames, or it would
    /// reintroduce the hold-and-wait interlock `alloc_frame_pair` exists
    /// to prevent (the flush holds most frames pinned, its re-fault needs
    /// frames, reclaim finds nothing evictable). A page that went `Empty`
    /// since the dirty scan was evicted — and eviction writes dirty data
    /// back before releasing the frame — so there is nothing left to
    /// flush and re-reading it from the host would be pure waste. An
    /// `Initializing` page resolves in bounded time: its owner either
    /// publishes it `Ready` or backs out to `Empty` (a frame-starved
    /// initializer gives up with `CacheExhausted` on its own call site).
    ///
    /// This is an internal sync-path pin, not an application page access:
    /// it deliberately leaves the hit/miss and lock-free/locked counters
    /// untouched on both sides of the accounting invariant. It does use
    /// the same lock-free-first pin protocol as the access path, though:
    /// a sync pass sweeps every dirty page of a file, and taking the
    /// fpage lock for each would serialize it against the very readers
    /// the sharded control plane keeps lock-free.
    pub(crate) fn pin_page_resident<'f>(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &'f Arc<GFile>,
        page_idx: u64,
    ) -> Option<PagePin<'f>> {
        let fp = file.tree().get_or_insert(page_idx);
        let mut failed_attempts = 0u32;
        loop {
            let snap = if !self.config.force_locked && failed_attempts <= LOCKFREE_RETRIES {
                match fp.try_pin_lockfree() {
                    Ok(s) => s,
                    Err(()) => {
                        failed_attempts += 1;
                        continue;
                    }
                }
            } else {
                fp.pin_locked()
            };
            match snap {
                Snapshot::Pinned(frame) => {
                    let pf = self.frames.pframe(frame);
                    blk.wait_until(pf.ready_at.load(Ordering::Acquire));
                    blk.advance(self.timings.gpufs_hit_ns);
                    return Some(PagePin { fp, frame });
                }
                Snapshot::Empty => return None,
                Snapshot::Initializing => {
                    // An in-flight init resolves in bounded time; retry
                    // from the fast path once it settles.
                    failed_attempts = 0;
                    self.waits
                        .wait(blk.now(), || fp.state() != PageState::Initializing);
                }
            }
        }
    }

    /// Pin `page_idx` of `file`, faulting in up to `window` consecutive
    /// pages in one batched RPC if it is absent. Batched pages up to and
    /// including `demand_through` are part of the caller's own request
    /// (it will pin them itself momentarily); only pages beyond it are
    /// true readahead, flagged `prefetched` for the hit accounting.
    ///
    /// The lock-free fast path follows the paper's protocol: try the
    /// seqlock-validated lookup, retry [`LOCKFREE_RETRIES`] times on
    /// contention, then fall back to the fpage lock.
    pub(crate) fn pin_page_windowed<'f>(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &'f Arc<GFile>,
        page_idx: u64,
        window: usize,
        demand_through: u64,
    ) -> GpufsResult<PagePin<'f>> {
        let fp = file.tree().get_or_insert(page_idx);
        let mut failed_attempts = 0u32;
        // An access that ever hit a concurrent update — a seqlock retry,
        // the lock fallback, or an in-flight initialization/eviction —
        // counts as contended; the paper's "locked accesses" column
        // "also includes unlocked retries" (Table 2).
        let mut contended = self.config.force_locked;
        loop {
            let mut via_lock = false;
            let snap = if !self.config.force_locked && failed_attempts <= LOCKFREE_RETRIES {
                match fp.try_pin_lockfree() {
                    Ok(s) => s,
                    Err(()) => {
                        failed_attempts += 1;
                        contended = true;
                        continue;
                    }
                }
            } else {
                via_lock = true;
                contended = true;
                fp.pin_locked()
            };
            match snap {
                Snapshot::Pinned(frame) => {
                    self.count_for(blk.block_id(), |c| {
                        if contended {
                            c.locked_accesses.incr();
                        } else {
                            c.lockfree_accesses.incr();
                        }
                        c.hits.incr();
                    });
                    // A hit buys the page a pass of the reclaim hand.
                    fp.touch();
                    let pf = self.frames.pframe(frame);
                    // Relaxed-load guard: with readahead off (or the page
                    // demand-fetched) this stays a read, keeping the
                    // lock-free hit path free of RMW contention.
                    if pf.prefetched.load(Ordering::Relaxed)
                        && pf.prefetched.swap(false, Ordering::AcqRel)
                    {
                        // First pin of a page readahead brought in: the
                        // round-trip this access would have paid was
                        // amortized into an earlier batch.
                        self.count_for(blk.block_id(), |c| c.readahead_hits.incr());
                    }
                    debug_assert_eq!(pf.file_uid.load(Ordering::Relaxed), file.tree().uid());
                    debug_assert_eq!(pf.page_idx.load(Ordering::Relaxed), page_idx);
                    blk.wait_until(pf.ready_at.load(Ordering::Acquire));
                    if via_lock {
                        // A locked traversal serializes on the tree lock.
                        // Under the saturation of a data-parallel kernel
                        // every acquisition waits out the convoy of all
                        // concurrently resident blocks; charge that
                        // analytically (the Figure 7 "locked" ablation).
                        let convoy = self.timings.radix_lock_hold_ns
                            * self.gpu.spec().concurrent_blocks() as u64;
                        blk.advance(convoy);
                    }
                    blk.advance(self.timings.gpufs_hit_ns);
                    return Ok(PagePin { fp, frame });
                }
                Snapshot::Empty => {
                    fp.lock();
                    if fp.state() == PageState::Empty {
                        fp.begin_update();
                        fp.set_state(PageState::Initializing);
                        fp.end_update();
                        fp.unlock();
                        return self.initialize_pages(
                            blk,
                            file,
                            page_idx,
                            fp,
                            window,
                            demand_through,
                        );
                    }
                    fp.unlock();
                }
                Snapshot::Initializing => {
                    self.waits
                        .wait(blk.now(), || fp.state() != PageState::Initializing);
                    contended = true;
                    failed_attempts = 0; // fresh page, start protocol over
                }
            }
        }
    }

    /// Whether `page_idx` of `file` holds host bytes a fault must fetch.
    ///
    /// The fetch limit is [`GFile::host_valid`] — the size at open, or
    /// the high-water mark of bytes this GPU has written back, whichever
    /// is larger — so pages of *any* mode that eviction spilled to the
    /// host (locally-extended read-write pages, O_NOSYNC temporaries)
    /// refetch instead of zero-filling, while O_GWRONCE never reads back
    /// (§3.2). Readahead shares this predicate, so it can never fetch
    /// into a write-once file, and the end-of-file clamp here is what
    /// keeps it from fetching past EOF.
    fn page_fetches(&self, file: &GFile, page_idx: u64) -> bool {
        let offset = page_idx * self.config.page_size as u64;
        file.mode() != GOpenMode::WriteOnce && offset < file.host_valid()
    }

    /// Claim up to `window - 1` pages after `page_idx` for readahead:
    /// each must still be fetchable (inside EOF, right mode), currently
    /// `Empty`, and backed by freshly allocated frames. Claiming stops at
    /// the first page that fails any test, keeping the batch contiguous.
    fn claim_readahead<'f>(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &'f Arc<GFile>,
        page_idx: u64,
        window: usize,
    ) -> Vec<ClaimedPage<'f>> {
        let mut claimed = Vec::new();
        let window = if self.config.io_chunk_pages == 0 {
            window.min((READAHEAD_MAX_BATCH_BYTES / self.config.page_size).max(1))
        } else {
            window
        };
        for idx in page_idx + 1..page_idx + window as u64 {
            if !self.page_fetches(file, idx) {
                break;
            }
            let fp = file.tree().get_or_insert(idx);
            fp.lock();
            if fp.state() != PageState::Empty {
                fp.unlock();
                break;
            }
            fp.begin_update();
            fp.set_state(PageState::Initializing);
            fp.end_update();
            fp.unlock();
            // Frames for readahead are opportunistic: one reclaim attempt,
            // then give up rather than stall the demand miss.
            let Some(frame) = self.alloc_frame_opportunistic(blk) else {
                self.abort_init(fp);
                break;
            };
            let pristine = if file.mode().needs_pristine() {
                match self.alloc_frame_opportunistic(blk) {
                    Some(p) => Some(p),
                    None => {
                        self.release_frame(blk.block_id(), frame);
                        self.abort_init(fp);
                        break;
                    }
                }
            } else {
                None
            };
            claimed.push(ClaimedPage {
                page_idx: idx,
                fp,
                frame,
                pristine,
            });
        }
        claimed
    }

    /// Fault in `page_idx` (whose fpage the caller has already moved to
    /// `Initializing`), batching up to `window - 1` readahead pages into
    /// the same `ReadPages` RPC. The target page is returned pinned;
    /// readahead pages are published `Ready`, unpinned, and flagged
    /// `prefetched` so later pins can count the readahead hit.
    fn initialize_pages<'f>(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &'f Arc<GFile>,
        page_idx: u64,
        fp: &'f FPage,
        window: usize,
        demand_through: u64,
    ) -> GpufsResult<PagePin<'f>> {
        self.count_for(blk.block_id(), |c| {
            c.misses.incr();
            // Initialization holds the fpage lock for its state
            // transitions: it is a locked access in the paper's
            // accounting.
            c.locked_accesses.incr();
        });
        // The fault-in span: frame allocation, the ReadPages round-trip
        // (or zero-fill), and page publication all nest under it.
        let sp = obs::span("pin_miss");
        let t_miss = blk.now();
        let fetch = self.page_fetches(file, page_idx);
        // A fetched read-write page needs its pristine frame too; the two
        // are allocated as an atomic pair (see `alloc_frame_pair` for the
        // deadlock this avoids).
        let allocated = if fetch && file.mode().needs_pristine() {
            self.alloc_frame_pair(blk).map(|(f, p)| (f, Some(p)))
        } else {
            self.alloc_frame(blk).map(|f| (f, None))
        };
        let (frame, pristine) = match allocated {
            Ok(pair) => pair,
            Err(e) => {
                self.abort_init(fp);
                return Err(e);
            }
        };
        let ps = self.config.page_size;
        let offset = page_idx * ps as u64;
        let ptr = self.frames.frame_ptr(frame);

        if fetch {
            let extras = if window > 1 {
                self.claim_readahead(blk, file, page_idx, window)
            } else {
                Vec::new()
            };
            let mut pages = Vec::with_capacity(1 + extras.len());
            pages.push(PageRead {
                offset,
                len: ps,
                dst: ptr,
            });
            for extra in &extras {
                pages.push(PageRead {
                    offset: extra.page_idx * ps as u64,
                    len: ps,
                    dst: self.frames.frame_ptr(extra.frame),
                });
            }
            self.count_for(blk.block_id(), |c| {
                c.read_rpcs.incr();
                if pages.len() > 1 {
                    c.batched_rpcs.incr();
                    c.pages_per_rpc.add(pages.len() as u64);
                }
            });
            let resp = self.rpc(
                blk,
                Request::ReadPages {
                    fd: file.host_fd(),
                    pages,
                    gpu: self.gpu.id(),
                },
            );
            let ns = match resp {
                Ok(RespOk::Read { ns }) => ns,
                Ok(_) => unreachable!("read answers Read"),
                Err(e) => {
                    self.abort_batch(blk.block_id(), &extras, frame, pristine, fp);
                    return Err(e);
                }
            };
            // Publish the demand page pinned, then the batched pages
            // unpinned. Pages inside the caller's own request span are
            // demand bytes (the same gread's loop pins them next); only
            // pages beyond `demand_through` are true readahead and get
            // the `prefetched` flag.
            self.publish_fetched_page(blk, file, page_idx, fp, frame, pristine, ns[0], true, false);
            for (extra, &xn) in extras.iter().zip(&ns[1..]) {
                // A batched initialization is a locked page operation
                // like any other fault; it is a miss in the "unique pages
                // faulted" sense.
                self.count_for(blk.block_id(), |c| {
                    c.misses.incr();
                    c.locked_accesses.incr();
                });
                self.publish_fetched_page(
                    blk,
                    file,
                    extra.page_idx,
                    extra.fp,
                    extra.frame,
                    extra.pristine,
                    xn,
                    false,
                    extra.page_idx > demand_through,
                );
            }
        } else {
            // O_GWRONCE / O_NOSYNC / beyond-EOF pages: "GPUfs never reads
            // pages of such files from the host ... the pristine copy of
            // any file block is all zeros" (§3.1). No readahead either —
            // there is nothing on the host to read ahead *from*.
            let pf = self.frames.pframe(frame);
            pf.file_uid.store(file.tree().uid(), Ordering::Release);
            pf.page_idx.store(page_idx, Ordering::Release);
            self.gpu.global().zero(ptr, ps);
            blk.advance(bw_time_ns(ps as u64, self.timings.gpu_mem_mb_s));
            pf.data_size.store(0, Ordering::Release);
            // Zero content carries no data dependency: concurrent blocks
            // sharing this page need not synchronize to the initializer's
            // (possibly far-ahead) clock, only to the real mutual
            // exclusion of the initialization itself.
            pf.set_ready_at(0);
            fp.lock();
            fp.begin_update();
            fp.set_frame(Some(frame));
            fp.set_state(PageState::Ready);
            fp.clear_references();
            fp.pin_direct();
            fp.end_update();
            fp.unlock();
            self.waits.notify_all();
            blk.advance(self.timings.gpufs_page_op_ns);
        }
        sp.finish_attrs(t_miss, blk.now(), &[("page", page_idx)]);
        Ok(PagePin { fp, frame })
    }

    /// Publish one fetched page: EOF tail zeroing, pframe bookkeeping,
    /// optional pristine copy (with its bandwidth charge), and the locked
    /// `Initializing -> Ready` transition. The demand page (`pin`) is
    /// pinned inside the same critical section; true readahead pages
    /// (`prefetched`) are flagged so a later pin can count the readahead
    /// hit.
    #[allow(clippy::too_many_arguments)]
    fn publish_fetched_page(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &Arc<GFile>,
        page_idx: u64,
        fp: &FPage,
        frame: FrameIdx,
        pristine: Option<FrameIdx>,
        n: usize,
        pin: bool,
        prefetched: bool,
    ) {
        let ps = self.config.page_size;
        let ptr = self.frames.frame_ptr(frame);
        let pf = self.frames.pframe(frame);
        pf.file_uid.store(file.tree().uid(), Ordering::Release);
        pf.page_idx.store(page_idx, Ordering::Release);
        if n < ps {
            self.gpu.global().zero(ptr + n, ps - n);
        }
        pf.data_size.store(n, Ordering::Release);
        if let Some(pristine) = pristine {
            self.gpu
                .global()
                .copy_within(ptr, self.frames.frame_ptr(pristine), ps);
            blk.advance(bw_time_ns(2 * ps as u64, self.timings.gpu_mem_mb_s));
            pf.set_pristine(Some(pristine));
        }
        // The daemon responds once every page's DMA has landed, so the
        // bytes are ready now.
        pf.set_ready_at(blk.now());
        if prefetched {
            pf.prefetched.store(true, Ordering::Release);
        }
        fp.lock();
        fp.begin_update();
        fp.set_frame(Some(frame));
        fp.set_state(PageState::Ready);
        fp.clear_references();
        if pin {
            fp.pin_direct();
        }
        fp.end_update();
        fp.unlock();
        self.waits.notify_all();
        blk.advance(self.timings.gpufs_page_op_ns);
    }

    /// Unwind a failed batched fault: free every claimed readahead page's
    /// frames and back their fpages (and the demand page's) out to
    /// `Empty`.
    fn abort_batch(
        &self,
        shard: usize,
        extras: &[ClaimedPage<'_>],
        frame: FrameIdx,
        pristine: Option<FrameIdx>,
        fp: &FPage,
    ) {
        for extra in extras {
            if let Some(p) = extra.pristine {
                self.release_frame(shard, p);
            }
            self.release_frame(shard, extra.frame);
            self.abort_init(extra.fp);
        }
        if let Some(p) = pristine {
            self.release_frame(shard, p);
        }
        self.release_frame(shard, frame);
        self.abort_init(fp);
    }

    fn abort_init(&self, fp: &FPage) {
        fp.lock();
        fp.begin_update();
        fp.set_state(PageState::Empty);
        fp.set_frame(None);
        fp.end_update();
        fp.unlock();
        self.waits.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpufsConfig;
    use crate::error::GpufsError;
    use crate::testrig::{rig, run_block};

    #[test]
    fn pinned_mapping_blocks_eviction() {
        let r = rig(1);
        r.fs.create("/pin", &[3u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::new(4096, 2 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/pin", GOpenMode::ReadOnly).unwrap();
            let map = mount.mmap(blk, &fd, 0, 4096).unwrap();
            // Burn through the other frame repeatedly with a second file;
            // the pinned page must survive.
            let fd2 = mount.open(blk, "/pin2", GOpenMode::Temp).unwrap();
            for page in 0..6u64 {
                mount.write(blk, &fd2, page * 4096, &[9u8; 4096]).unwrap();
            }
            assert!(map.bytes().iter().all(|&b| b == 3));
            mount.munmap(blk, map);
            mount.close(blk, fd2).unwrap();
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn cache_exhaustion_is_reported_not_hung() {
        let r = rig(1);
        r.fs.create("/ex", &[1u8; 16384]).unwrap();
        // Two frames only; pin both via mappings, then fault a third page.
        let mount = r.host.mount(0, GpufsConfig::new(4096, 2 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/ex", GOpenMode::ReadOnly).unwrap();
            let m1 = mount.mmap(blk, &fd, 0, 10).unwrap();
            let m2 = mount.mmap(blk, &fd, 4096, 10).unwrap();
            let err = mount.mmap(blk, &fd, 8192, 10);
            assert!(matches!(err, Err(GpufsError::CacheExhausted { .. })));
            mount.munmap(blk, m1);
            mount.munmap(blk, m2);
            // With the pins gone the same fault now succeeds.
            let m3 = mount.mmap(blk, &fd, 8192, 10).unwrap();
            assert_eq!(m3.bytes()[0], 1);
            mount.munmap(blk, m3);
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn readahead_never_fetches_past_eof() {
        let r = rig(1);
        // 3 full pages plus a 100-byte tail; window far larger than the file.
        r.fs.create("/eof", &[9u8; 3 * 4096 + 100]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_readahead(16);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/eof", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 4096];
            let mut off = 0u64;
            loop {
                let n = mount.read(blk, &fd, off, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                assert!(buf[..n].iter().all(|&b| b == 9));
                off += n as u64;
            }
            assert_eq!(off, 3 * 4096 + 100);
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(
            mount.counters().misses.get(),
            4,
            "only the file's four pages fault, despite window 16"
        );
        assert_eq!(
            r.host.stats().bytes_h2d.get(),
            3 * 4096 + 100,
            "not one byte fetched beyond EOF"
        );
    }

    #[test]
    fn readahead_never_fetches_into_write_once_files() {
        let r = rig(1);
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_readahead(8);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/wonce.out", GOpenMode::WriteOnce).unwrap();
            // A perfectly sequential write pattern: were readahead applied
            // to O_GWRONCE it would trigger here.
            for page in 0..8u64 {
                mount.write(blk, &fd, page * 4096, &[1u8; 4096]).unwrap();
            }
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(
            r.host.stats().bytes_h2d.get(),
            0,
            "write-once files never read from the host"
        );
        assert_eq!(mount.counters().batched_rpcs.get(), 0);
        assert_eq!(mount.counters().readahead_hits.get(), 0);
    }

    #[test]
    fn extended_read_write_pages_survive_eviction_spill() {
        // A ReadWrite file extended past its size-at-open under memory
        // pressure: eviction writes the dirty extensions to the host and
        // bumps host_valid, so a re-fault must fetch them back — not
        // zero-fill just because they lie beyond open_size.
        let r = rig(1);
        r.fs.create("/ext", &[1u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::new(4096, 4 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/ext", GOpenMode::ReadWrite).unwrap();
            for page in 1..9u64 {
                mount
                    .write(blk, &fd, page * 4096, &[page as u8; 4096])
                    .unwrap();
            }
            for page in 1..9u64 {
                let mut buf = [0u8; 4096];
                let n = mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
                assert_eq!(n, 4096);
                assert!(
                    buf.iter().all(|&b| b == page as u8),
                    "page {page} lost after spill"
                );
            }
            mount.close(blk, fd).unwrap();
        });
        assert!(
            mount.counters().pages_reclaimed.get() > 0,
            "pressure evicted"
        );
    }

    #[test]
    fn readahead_degrades_when_frames_run_out() {
        let r = rig(1);
        r.fs.create("/tight", &[4u8; 16 * 4096]).unwrap();
        // 4 frames, window 8: the batch cannot ever fully materialize, but
        // reads must still succeed page by page.
        let cfg = GpufsConfig::new(4096, 4 * 4096).with_readahead(8);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/tight", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 4096];
            for page in 0..16u64 {
                let n = mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
                assert_eq!(n, 4096);
                assert!(buf.iter().all(|&b| b == 4));
            }
            mount.close(blk, fd).unwrap();
        });
        assert!(
            mount.counters().pages_reclaimed.get() > 0,
            "pressure forced reclaim"
        );
    }

    #[test]
    fn a_reused_frame_takes_a_short_page_in_place_and_reads_zero_past_eof() {
        // A one-frame cache: `/b`'s short last page faults into the frame
        // `/a`'s full page of 0xab held. The daemon preads straight into
        // the frame, so until the page is published its tail still holds
        // `/a`'s bytes; the fault must leave `/b`'s bytes and then zeros.
        use std::sync::Arc;

        use gpusim::{Gpu, GpuSpec, Grid};
        use hostfs::{HostFs, HostFsConfig};

        use crate::daemon::GpufsHost;
        use crate::remote::{HostProxy, StorageServer};

        const PAGE: usize = 4096;
        let tail: Vec<u8> = (0..100u32).map(|i| (i * 7 + 1) as u8).collect();
        let one_frame = GpufsConfig::new(PAGE, PAGE);
        let local = |config: &GpufsConfig| {
            let fs = Arc::new(HostFs::new(HostFsConfig::default()));
            let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
            GpufsHost::with_config(fs, vec![gpu], config)
        };
        let proxied = |config: &GpufsConfig| {
            let fs = Arc::new(HostFs::new(HostFsConfig::default()));
            let proxy = Arc::new(HostProxy::new(Arc::new(StorageServer::new(fs)), 16));
            let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
            GpufsHost::with_proxy(proxy, vec![gpu], config)
        };
        let one_shot = one_frame.clone().with_io_chunk(0);
        let hosts = [
            ("local", local(&one_frame), &one_frame),
            ("proxied", proxied(&one_frame), &one_frame),
            ("one-shot", local(&one_shot), &one_shot),
        ];
        for (name, host, config) in hosts {
            host.fs().create("/a", &[0xab; PAGE]).unwrap();
            host.fs()
                .create("/b", &[&[5u8; PAGE][..], &tail].concat())
                .unwrap();
            let mount = host.mount(0, config.clone()).unwrap();
            let gpu = Arc::clone(&host.gpus()[0]);
            let frame = || {
                let mut bytes = vec![0u8; PAGE];
                gpu.global().read(mount.frames.frame_ptr(0), &mut bytes);
                bytes
            };
            gpu.launch(Grid::new(1, 32), 0, |blk| {
                let mut buf = vec![0u8; PAGE];
                let a = mount.open(blk, "/a", GOpenMode::ReadOnly).unwrap();
                assert_eq!(mount.read(blk, &a, 0, &mut buf).unwrap(), PAGE);
                mount.close(blk, a).unwrap();
                assert_eq!(frame(), vec![0xab; PAGE], "{name}: /a's page in the frame");

                let b = mount.open(blk, "/b", GOpenMode::ReadOnly).unwrap();
                assert_eq!(mount.read(blk, &b, PAGE as u64, &mut buf).unwrap(), 100);
                assert_eq!(buf[..100], tail[..], "{name}");
                let held = frame();
                assert_eq!(held[..100], tail[..], "{name}: /b's bytes in place");
                assert!(held[100..].iter().all(|&x| x == 0), "{name}: zero past EOF");
                let map = mount.mmap(blk, &b, PAGE as u64, PAGE).unwrap();
                assert_eq!(map.bytes(), &tail[..], "{name}");
                drop(map);
                mount.close(blk, b).unwrap();
            });
            assert_eq!(mount.counters().pages_reclaimed.get(), 1, "{name}");
            assert_eq!(host.stats().bytes_h2d.get(), PAGE as u64 + 100, "{name}");
        }
    }
}
