//! The GPU API layer: `g*` entry points and their handle types
//! (paper §3.2, Table 1).
//!
//! This is the topmost layer of the stack — the calls a kernel makes.
//! Each entry point validates the descriptor's mode, charges the
//! threadblock's virtual clock for the library work, and delegates to the
//! layers below: [`crate::ofile`] for open/close, [`crate::cache::paging`]
//! for faulting pages in (with readahead batching on sequential scans),
//! and [`crate::cache::writeback`] for propagating modifications.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpusim::BlockCtx;
use simtime::bw_time_ns;

use crate::cache::FPage;
use crate::config::GOpenMode;
use crate::error::{GpufsError, GpufsResult};
use crate::mount::GpuFsMount;
use crate::rpc::{Request, RespOk};
use crate::table::GFile;

/// A GPUfs file descriptor.
///
/// Descriptors "do not represent individual file opens but merely
/// correspond directly to files" (paper §3.2): every threadblock opening
/// the same path shares the same underlying file object, and `GFd` is a
/// cheap clonable handle to it.
#[derive(Debug, Clone)]
pub struct GFd {
    pub(crate) file: Arc<GFile>,
}

impl GFd {
    /// Path this descriptor names.
    #[must_use]
    pub fn path(&self) -> &str {
        self.file.path()
    }

    /// Open mode.
    #[must_use]
    pub fn mode(&self) -> GOpenMode {
        self.file.mode()
    }

    pub(crate) fn file(&self) -> &Arc<GFile> {
        &self.file
    }
}

/// Metadata returned by [`GpuFsMount::fstat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GStat {
    /// File size at the time of the first `gopen` (paper Table 1).
    pub size: u64,
    /// Host inode number.
    pub ino: u64,
}

/// A mapping produced by [`GpuFsMount::mmap`]: a window into one
/// buffer-cache page, pinned for the mapping's lifetime.
///
/// Like the paper's `gmmap`, the mapping may cover only a prefix of the
/// requested range (never more than one page), and it grants a direct
/// pointer into the GPU buffer cache with no per-byte protection. The
/// Rust port exposes the window read-only; writes go through
/// [`GpuFsMount::write`], which preserves the same consistency semantics.
///
/// **A `GMap` never spans a page boundary.** Buffer-cache pages are not
/// contiguous in the raw data array, so a wider window cannot exist; a
/// caller that wants a multi-page range must either loop `gmmap` over
/// consecutive windows (each call returns how far it got) or use
/// [`GpuFsMount::read`], whose readahead batches the underlying fetches
/// into one RPC. The constructor debug-asserts the single-page invariant
/// so a regression can never silently hand out a mapping that reads past
/// its pinned frame.
///
/// A mapping can outlive the descriptor it came from: it keeps its own
/// handle on the file, and the page stays pinned until the map drops.
/// If the file leaves both file tables meanwhile (a `gunlink`, an
/// `O_NOSYNC` close, a stale reopen, a close without the closed-file
/// table), the map's release discards the page and returns its frames.
pub struct GMap<'m> {
    /// Keeps the file's radix tree, and so `fp`, alive after a `gclose`.
    file: Arc<GFile>,
    /// The mapped page's fpage, pinned once by `gmmap`; `Drop` unpins it.
    fp: *const FPage,
    ptr: *const u8,
    len: usize,
    file_offset: u64,
    mount: &'m GpuFsMount,
}

// SAFETY: the data pointer targets GPU global memory owned by the mount's
// Arc<Gpu>, outliving 'm; the pin prevents the frame from being reused.
// The fpage pointer targets the radix tree of `file`, which the map owns;
// FPage itself is Sync.
unsafe impl Send for GMap<'_> {}
unsafe impl Sync for GMap<'_> {}

impl Drop for GMap<'_> {
    fn drop(&mut self) {
        // SAFETY: see the Send/Sync justification above.
        self.mount.release_map_pin(&self.file, unsafe { &*self.fp });
    }
}

impl std::fmt::Debug for GMap<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GMap")
            .field("file_offset", &self.file_offset)
            .field("len", &self.len)
            .finish()
    }
}

impl GMap<'_> {
    /// The mapped bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: the pin keeps the frame attached for the mapping's
        // lifetime and the mount (hence the GPU arena) outlives 'm.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the successfully mapped prefix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true: `gmmap` fails instead).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File offset of the first mapped byte.
    #[must_use]
    pub fn file_offset(&self) -> u64 {
        self.file_offset
    }
}

impl GpuFsMount {
    // ==================================================================
    // gread / gwrite
    // ==================================================================

    /// `gread`: read up to `dst.len()` bytes at the explicit `offset`
    /// (GPUfs descriptors have no seek pointer; this is `pread`).
    /// Returns the number of bytes read (short at end of file).
    ///
    /// When the access continues a sequential scan (or spans several
    /// pages itself), a page miss fetches up to
    /// [`crate::GpufsConfig::readahead_pages`] consecutive pages in one
    /// batched RPC instead of one round-trip per page.
    ///
    /// # Errors
    ///
    /// Fails for `O_GWRONCE` files (never readable) or on host errors
    /// while faulting pages in.
    pub fn read(
        &self,
        blk: &mut BlockCtx<'_>,
        fd: &GFd,
        offset: u64,
        dst: &mut [u8],
    ) -> GpufsResult<usize> {
        let file = fd.file();
        if !file.mode().readable() {
            return Err(GpufsError::WriteOnce(file.path().to_owned()));
        }
        let size = file.size();
        if offset >= size || dst.is_empty() {
            return Ok(0);
        }
        let want = dst.len().min((size - offset) as usize);
        // Trace root: every stage this call causes — pin misses, RPCs,
        // daemon chunks, wire hops — nests under this span. Errors drop
        // the guard without emitting.
        let root = self.tracer.root("gread");
        let t_entry = blk.now();
        let ps = self.config.page_size as u64;
        // With readahead off the stream table is dead weight: skip it so
        // window 1 is bit-for-bit the paper's on-demand paging hot path.
        let sequential =
            self.config.readahead_pages > 1 && file.note_sequential(offset, offset + want as u64);
        let last_page = (offset + want as u64 - 1) / ps;
        let mut done = 0usize;
        while done < want {
            let off = offset + done as u64;
            let (page_idx, in_page) = (off / ps, (off % ps) as usize);
            // A sequential scan opens the full readahead window; a random
            // access batches at most the pages this request itself spans,
            // so no byte is ever fetched that the caller did not ask for.
            let window = if sequential {
                self.config.readahead_pages
            } else {
                ((last_page - page_idx) as usize + 1).min(self.config.readahead_pages)
            };
            let pin = self.pin_page_windowed(blk, file, page_idx, window, last_page)?;
            let n = (self.config.page_size - in_page).min(want - done);
            self.gpu.global().read(
                self.frames.frame_ptr(pin.frame()) + in_page,
                &mut dst[done..done + n],
            );
            blk.advance(
                self.timings.gpu_mem_latency_ns + bw_time_ns(n as u64, self.timings.gpu_mem_mb_s),
            );
            done += n;
        }
        root.finish_attrs(
            t_entry,
            blk.now(),
            &[("offset", offset), ("bytes", done as u64)],
        );
        Ok(done)
    }

    /// `gwrite`: write `src` at the explicit `offset`, extending the file
    /// locally. Data stays in the GPU buffer cache until `gfsync`,
    /// `gmsync`, or eviction propagates it (paper §3.1–3.2). Ends with a
    /// system memory fence as the paper's implementation does (§4.1).
    ///
    /// # Errors
    ///
    /// Fails for read-only descriptors or on host errors while faulting
    /// pages in.
    pub fn write(
        &self,
        blk: &mut BlockCtx<'_>,
        fd: &GFd,
        offset: u64,
        src: &[u8],
    ) -> GpufsResult<usize> {
        let file = fd.file();
        if !file.mode().writable() {
            return Err(GpufsError::ReadOnly(file.path().to_owned()));
        }
        let root = self.tracer.root("gwrite");
        let t_entry = blk.now();
        // Async write-back throttle: above the high watermark, stall
        // until the background flusher drains the cache to the low one
        // (checked once per call — a single gwrite spans few pages).
        self.throttle_dirty(blk, file);
        let ps = self.config.page_size as u64;
        let mut done = 0usize;
        while done < src.len() {
            let off = offset + done as u64;
            let (page_idx, in_page) = (off / ps, (off % ps) as usize);
            let pin = self.pin_page(blk, file, page_idx)?;
            let n = (self.config.page_size - in_page).min(src.len() - done);
            self.gpu.global().write(
                self.frames.frame_ptr(pin.frame()) + in_page,
                &src[done..done + n],
            );
            blk.advance(
                self.timings.gpu_mem_latency_ns + bw_time_ns(n as u64, self.timings.gpu_mem_mb_s),
            );
            let pf = self.frames.pframe(pin.frame());
            pf.data_size.fetch_max(in_page + n, Ordering::AcqRel);
            if !pf.dirty.swap(true, Ordering::AcqRel) {
                self.dirty.pages.fetch_add(1, Ordering::AcqRel);
            }
            done += n;
        }
        file.grow_to(offset + src.len() as u64);
        blk.threadfence_system();
        root.finish_attrs(
            t_entry,
            blk.now(),
            &[("offset", offset), ("bytes", done as u64)],
        );
        Ok(done)
    }

    // ==================================================================
    // gmmap / gmsync
    // ==================================================================

    /// `gmmap`: map a read window starting at `offset`. As in the paper,
    /// the mapping may cover only a prefix of the request — at most to
    /// the end of the containing buffer-cache page — and points directly
    /// into cache memory with zero copies. Sequential mapping of
    /// consecutive windows triggers the same readahead as [`Self::read`].
    ///
    /// # Errors
    ///
    /// Fails on zero-length requests, offsets at or beyond end of file,
    /// write-once files, or host errors while faulting the page in.
    pub fn mmap<'m>(
        &'m self,
        blk: &mut BlockCtx<'_>,
        fd: &GFd,
        offset: u64,
        len: usize,
    ) -> GpufsResult<GMap<'m>> {
        let file = fd.file();
        if !file.mode().readable() {
            return Err(GpufsError::WriteOnce(file.path().to_owned()));
        }
        let size = file.size();
        if len == 0 || offset >= size {
            return Err(GpufsError::EmptyMapping);
        }
        // Trace root: like gread, every fault this mapping triggers —
        // pin misses, RPCs, daemon chunks, wire hops — nests under it.
        let root = self.tracer.root("gmmap");
        let t_entry = blk.now();
        let ps = self.config.page_size as u64;
        let (page_idx, in_page) = (offset / ps, (offset % ps) as usize);
        let avail = (self.config.page_size - in_page)
            .min(len)
            .min((size - offset) as usize);
        let window = if self.config.readahead_pages > 1
            && file.note_sequential(offset, offset + avail as u64)
        {
            self.config.readahead_pages
        } else {
            1
        };
        let pin = self.pin_page_windowed(blk, file, page_idx, window, page_idx)?;
        root.finish_attrs(
            t_entry,
            blk.now(),
            &[("offset", offset), ("bytes", avail as u64)],
        );
        let frame_base = self.frames.frame_ptr(pin.frame());
        let ptr = frame_base + in_page;
        // The single-page contract of `GMap` (see its docs): the mapped
        // span must end within the pinned frame, because the next file
        // page lives in an unrelated frame of the raw data array — a
        // span past the frame boundary would read a stranger's bytes.
        // Checked against the actual pointer arithmetic, not the length
        // computation above, so a future change to either side of the
        // math trips it.
        debug_assert!(
            ptr + avail <= frame_base + self.config.page_size,
            "gmmap window [{in_page}, {}) escapes its {}-byte frame; \
             multi-page ranges must go through gread/readahead",
            in_page + avail,
            self.config.page_size
        );
        // SAFETY: the pin blocks eviction and re-initialization; readers
        // of an immutable mapping tolerate concurrent gwrites to other
        // bytes exactly as the paper's relaxed gmmap does.
        let bytes = unsafe { self.gpu.global().slice(ptr, avail) };
        Ok(GMap {
            // One clone per mapping, not per hit: the map may outlive `fd`.
            file: Arc::clone(file),
            fp: pin.into_fpage(),
            ptr: bytes.as_ptr(),
            len: avail,
            file_offset: offset,
            mount: self,
        })
    }

    /// `gmunmap`: release a mapping. Equivalent to dropping it.
    pub fn munmap(&self, blk: &mut BlockCtx<'_>, map: GMap<'_>) {
        blk.advance(self.timings.gpufs_page_op_ns);
        drop(map);
    }

    /// `gmsync`: write one page's modifications back to the host. The
    /// application must coordinate with concurrent updates by other
    /// threadblocks (paper Table 1).
    ///
    /// # Errors
    ///
    /// Fails for modes that never sync, or on host write errors.
    pub fn msync(&self, blk: &mut BlockCtx<'_>, fd: &GFd, offset: u64) -> GpufsResult<()> {
        let file = fd.file();
        if !file.mode().syncs_to_host() {
            return Err(GpufsError::InvalidMode("gmsync on a non-syncing open mode"));
        }
        let page_idx = offset / self.config.page_size as u64;
        let pin = self.pin_page(blk, file, page_idx)?;
        self.writeback_frame(blk, file, page_idx, pin.frame())?;
        Ok(())
    }

    // ==================================================================
    // gfsync / gunlink / gftruncate / gfstat
    // ==================================================================

    /// `gfsync`: write every dirty cached page of the file back to the
    /// host page cache. Pages pinned by concurrent accesses are skipped,
    /// as in the paper (Table 1). With the background flusher on, this is
    /// *wait-for-drain*: it ships the residual dirty pages itself (so
    /// host errors surface on this call), waits out any flusher batches
    /// still in flight for the file, and synchronizes the caller's clock
    /// to the last shipment — returning only once nothing dirty remains.
    ///
    /// # Errors
    ///
    /// Fails on host write errors.
    pub fn fsync(&self, blk: &mut BlockCtx<'_>, fd: &GFd) -> GpufsResult<()> {
        let file = fd.file();
        if !file.mode().syncs_to_host() {
            return Ok(()); // read-only and O_NOSYNC files have nothing to sync
        }
        let root = self.tracer.root("gfsync");
        let t_entry = blk.now();
        if self.config.dirty_high_pages == 0 {
            // Synchronous write-back: one pass, the paper prototype's
            // semantics (and virtual times) exactly. Every in-flight
            // batch belongs to some foreground caller who awaits its own
            // RPC, so there is no invisible shipment to drain.
            self.flush_dirty(blk, file)?;
            root.finish(t_entry, blk.now());
            return Ok(());
        }
        loop {
            let found = self.flush_dirty(blk, file)?;
            if found == 0 && file.wb_inflight() == 0 {
                break;
            }
            // A flusher batch still in flight may fail and re-arm its
            // pages; wait it out, then rescan so those pages get this
            // call's own (error-surfacing) shipment attempt.
            while file.wb_inflight() > 0 {
                self.waits.wait(blk.now(), || file.wb_inflight() == 0);
            }
        }
        blk.wait_until(file.flush_horizon());
        root.finish(t_entry, blk.now());
        Ok(())
    }

    /// `gfsync` followed by a host `fsync(2)`: force the file to stable
    /// storage, the durability level of CPU `fsync` (paper §3.3).
    ///
    /// # Errors
    ///
    /// Fails on host write errors.
    pub fn fsync_durable(&self, blk: &mut BlockCtx<'_>, fd: &GFd) -> GpufsResult<()> {
        self.fsync(blk, fd)?;
        if fd.file().mode().syncs_to_host() {
            self.rpc(
                blk,
                Request::Fsync {
                    fd: fd.file().host_fd(),
                },
            )?;
        }
        Ok(())
    }

    /// `gunlink`: remove the file on the host; any local buffer-cache
    /// space is reclaimed immediately (paper Table 1).
    ///
    /// # Errors
    ///
    /// Fails if the host cannot resolve or unlink the path.
    pub fn unlink(&self, blk: &mut BlockCtx<'_>, path: &str) -> GpufsResult<()> {
        let resp = self.rpc(
            blk,
            Request::Stat {
                path: path.to_owned(),
            },
        )?;
        let RespOk::Stat { ino, .. } = resp else {
            unreachable!("stat answers Stat")
        };
        self.rpc(
            blk,
            Request::Unlink {
                path: path.to_owned(),
            },
        )?;
        if let Some(open) = self.tables.get_open(path) {
            self.discard_file_cache(blk.block_id(), &open);
        }
        if let Some(parked) = self.tables.take_closed(ino) {
            self.retire_file_cache(blk.block_id(), &parked);
            let _ = self.rpc(
                blk,
                Request::Close {
                    fd: parked.host_fd(),
                },
            )?;
        }
        Ok(())
    }

    /// `gftruncate`: truncate to `size` on the host and drop any cached
    /// pages beyond the new end.
    ///
    /// # Errors
    ///
    /// Fails for read-only descriptors or on host errors.
    pub fn ftruncate(&self, blk: &mut BlockCtx<'_>, fd: &GFd, size: u64) -> GpufsResult<()> {
        let file = fd.file();
        if !file.mode().writable() {
            return Err(GpufsError::ReadOnly(file.path().to_owned()));
        }
        self.rpc(
            blk,
            Request::Truncate {
                fd: file.host_fd(),
                size,
            },
        )?;
        file.set_size(size);
        let ps = self.config.page_size as u64;
        let first_dropped = size.div_ceil(ps);
        file.tree().for_each_page(|idx, fp| {
            if idx >= first_dropped {
                self.try_discard_page(blk.block_id(), fp);
            } else if idx == size / ps && !size.is_multiple_of(ps) {
                // Boundary page: clamp valid data and zero the tail so
                // re-extension reads zeros.
                if let Some(frame) = fp.frame() {
                    let keep = (size % ps) as usize;
                    let pf = self.frames.pframe(frame);
                    let ds = pf.data_size.load(Ordering::Acquire);
                    if ds > keep {
                        self.gpu.global().zero(
                            self.frames.frame_ptr(frame) + keep,
                            self.config.page_size - keep,
                        );
                        pf.data_size.store(keep, Ordering::Release);
                    }
                }
            }
        });
        Ok(())
    }

    /// `gfstat`: file metadata. The size reflects the file size at the
    /// time of the first `gopen` (paper Table 1).
    #[must_use]
    pub fn fstat(&self, blk: &mut BlockCtx<'_>, fd: &GFd) -> GStat {
        blk.advance(self.timings.gpufs_page_op_ns);
        GStat {
            size: fd.file().open_size(),
            ino: fd.file().ino(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpufsConfig;
    use crate::testrig::{rig, run_block};
    use gpusim::{Gpu, Grid};
    use std::sync::Arc;

    #[test]
    fn read_spanning_pages() {
        let r = rig(1);
        let content: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        r.fs.create("/f", &content).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap(); // 4K pages
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/f", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 20_000];
            let n = mount.read(blk, &fd, 0, &mut buf).unwrap();
            assert_eq!(n, 20_000);
            assert_eq!(buf, content);
            // Offset read crossing a page boundary.
            let mut small = vec![0u8; 100];
            let n = mount.read(blk, &fd, 4096 - 50, &mut small).unwrap();
            assert_eq!(n, 100);
            assert_eq!(small, content[4096 - 50..4096 + 50]);
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn read_past_eof_is_short() {
        let r = rig(1);
        r.fs.create("/f", &[9u8; 100]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/f", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 64];
            assert_eq!(mount.read(blk, &fd, 80, &mut buf).unwrap(), 20);
            assert_eq!(mount.read(blk, &fd, 100, &mut buf).unwrap(), 0);
            assert_eq!(mount.read(blk, &fd, 5000, &mut buf).unwrap(), 0);
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn sequential_read_batches_rpcs_and_counts_readahead() {
        let r = rig(1);
        let content: Vec<u8> = (0..32 * 4096u32).map(|i| (i % 241) as u8).collect();
        r.fs.create("/seq", &content).unwrap();
        // 64 frames, window 8: a full sequential scan of 32 pages.
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_readahead(8);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/seq", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 4096];
            for page in 0..32u64 {
                let n = mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
                assert_eq!(n, 4096);
                assert_eq!(buf, content[(page * 4096) as usize..][..4096]);
            }
            mount.close(blk, fd).unwrap();
        });
        // The first access claims the stream (one unbatched miss at page
        // 0); the scan is sequential from the second read on, batching at
        // pages 1, 9, 17, and 25 (the last clamped by EOF to 7 pages).
        let c = mount.counters();
        assert_eq!(c.misses.get(), 32, "every page faulted exactly once");
        assert_eq!(c.batched_rpcs.get(), 4);
        assert_eq!(c.pages_per_rpc.get(), 8 + 8 + 8 + 7);
        assert_eq!(
            c.readahead_hits.get(),
            7 + 7 + 7 + 6,
            "every batched page beyond its miss's own read was a readahead hit"
        );
        // The daemon saw the same four batches.
        assert_eq!(r.host.stats().batched_rpcs.get(), 4);
        assert_eq!(r.host.stats().pages_per_rpc.get(), 31);
        assert_eq!(r.host.stats().bytes_h2d.get(), 32 * 4096);
    }

    #[test]
    fn random_reads_do_not_widen_the_window() {
        let r = rig(1);
        r.fs.create("/rand", &[7u8; 32 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_readahead(8);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/rand", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 512];
            // Stride backwards so no access continues the previous one.
            for page in (0..32u64).rev().step_by(3) {
                let n = mount.read(blk, &fd, page * 4096 + 128, &mut buf).unwrap();
                assert_eq!(n, 512);
            }
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(c.batched_rpcs.get(), 0, "single-page random misses");
        assert_eq!(c.readahead_hits.get(), 0);
        assert_eq!(c.misses.get(), 11, "exactly the pages touched");
    }

    #[test]
    fn multi_page_random_read_batches_without_counting_readahead() {
        // A random 32 KB read spans 8 pages: those pages may ride one
        // batched RPC (fewer round-trips, same bytes) but they are demand
        // bytes of that same read — not readahead hits — and the batch
        // must never extend past the request.
        let r = rig(1);
        r.fs.create("/span", &[5u8; 64 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_readahead(8);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/span", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 8 * 4096];
            // A non-zero, non-continuing offset: pure random access.
            let n = mount.read(blk, &fd, 40 * 4096, &mut buf).unwrap();
            assert_eq!(n, 8 * 4096);
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(c.misses.get(), 8, "exactly the request's pages");
        assert_eq!(c.batched_rpcs.get(), 1, "one RPC for the whole span");
        assert_eq!(c.pages_per_rpc.get(), 8);
        assert_eq!(
            c.readahead_hits.get(),
            0,
            "demand bytes of the same read are not readahead hits"
        );
    }

    #[test]
    fn readahead_window_one_is_strictly_on_demand() {
        let r = rig(1);
        r.fs.create("/w1", &[3u8; 16 * 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::new(4096, 64 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/w1", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 16 * 4096];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(c.misses.get(), 16);
        assert_eq!(c.batched_rpcs.get(), 0, "window 1 never batches");
        assert_eq!(c.readahead_hits.get(), 0);
        assert_eq!(
            r.host.stats().requests.get() as usize,
            1 + 16,
            "open + one RPC per page"
        );
    }

    #[test]
    fn close_is_decoupled_from_sync() {
        let r = rig(1);
        r.fs.create("/out", &[0u8; 64]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/out", GOpenMode::ReadWrite).unwrap();
            mount.write(blk, &fd, 0, b"dirty").unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/out", 0).unwrap();
        assert_eq!(&data[..5], &[0u8; 5], "gclose must not write back");

        run_block(&r, |blk| {
            let fd = mount.open(blk, "/out", GOpenMode::ReadWrite).unwrap();
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/out", 0).unwrap();
        assert_eq!(&data[..5], b"dirty", "gfsync propagates");
    }

    #[test]
    fn concurrent_gpu_writers_merge_disjoint_ranges() {
        // Two GPUs write disjoint halves of one page of a shared file via
        // the diff-and-merge protocol (the paper's §3.1 extension).
        let r = rig(2);
        r.fs.create("/shared", &[0u8; 4096]).unwrap();
        let m0 = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        let m1 = r.host.mount(1, GpufsConfig::small_test()).unwrap();
        let work = |mount: &Arc<GpuFsMount>, off: u64, byte: u8| {
            let mount = Arc::clone(mount);
            move |blk: &mut gpusim::BlockCtx<'_>| {
                let fd = mount.open(blk, "/shared", GOpenMode::ReadWrite).unwrap();
                mount.write(blk, &fd, off, &[byte; 1024]).unwrap();
                mount.fsync(blk, &fd).unwrap();
                mount.close(blk, fd).unwrap();
            }
        };
        std::thread::scope(|s| {
            let g0: &Arc<Gpu> = &r.gpus[0];
            let g1: &Arc<Gpu> = &r.gpus[1];
            let k0 = work(&m0, 0, 0xaa);
            let k1 = work(&m1, 2048, 0xbb);
            s.spawn(move || g0.launch(Grid::new(1, 32), 0, k0));
            s.spawn(move || g1.launch(Grid::new(1, 32), 0, k1));
        });
        let (data, _) = r.fs.read_whole("/shared", 0).unwrap();
        assert!(data[..1024].iter().all(|&b| b == 0xaa), "gpu0's half");
        assert!(data[2048..3072].iter().all(|&b| b == 0xbb), "gpu1's half");
        assert!(data[1024..2048].iter().all(|&b| b == 0), "untouched middle");
    }

    #[test]
    fn mmap_returns_prefix_of_page() {
        let r = rig(1);
        let content: Vec<u8> = (0..8192u32).map(|i| (i % 250) as u8).collect();
        r.fs.create("/m", &content).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/m", GOpenMode::ReadOnly).unwrap();
            // Request 8K starting 100 bytes into page 0: only the page
            // remainder maps.
            let map = mount.mmap(blk, &fd, 100, 8192).unwrap();
            assert_eq!(map.len(), 4096 - 100);
            assert_eq!(map.file_offset(), 100);
            assert_eq!(map.bytes(), &content[100..4096]);
            mount.munmap(blk, map);
            // Mapping beyond EOF fails.
            assert!(matches!(
                mount.mmap(blk, &fd, 10_000, 1),
                Err(GpufsError::EmptyMapping)
            ));
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn fstat_reports_size_at_open() {
        let r = rig(1);
        r.fs.create("/st", &[1u8; 1000]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/st", GOpenMode::ReadWrite).unwrap();
            assert_eq!(mount.fstat(blk, &fd).size, 1000);
            mount.write(blk, &fd, 2000, b"grow").unwrap();
            assert_eq!(mount.fstat(blk, &fd).size, 1000, "gfstat is size-at-open");
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn write_to_read_only_fd_errors() {
        let r = rig(1);
        r.fs.create("/ro", b"x").unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/ro", GOpenMode::ReadOnly).unwrap();
            assert!(matches!(
                mount.write(blk, &fd, 0, b"y"),
                Err(GpufsError::ReadOnly(_))
            ));
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn unlink_reclaims_cache_immediately() {
        let r = rig(1);
        r.fs.create("/gone", &[1u8; 8192]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/gone", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 8192];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            let free_before = mount.free_frames();
            mount.unlink(blk, "/gone").unwrap();
            assert!(
                mount.free_frames() > free_before,
                "buffer space reclaimed now"
            );
            mount.close(blk, fd).unwrap();
        });
        assert!(!r.fs.exists("/gone"));
    }

    #[test]
    fn ftruncate_drops_tail_pages() {
        let r = rig(1);
        r.fs.create("/tr", &[5u8; 12288]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/tr", GOpenMode::ReadWrite).unwrap();
            let mut buf = [0u8; 12288];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.ftruncate(blk, &fd, 6000).unwrap();
            let mut buf = [0u8; 12288];
            let n = mount.read(blk, &fd, 0, &mut buf).unwrap();
            assert_eq!(n, 6000);
            assert!(buf[..6000].iter().all(|&b| b == 5));
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(r.fs.stat("/tr").unwrap().size, 6000);
    }

    #[test]
    fn stress_mixed_readers_and_writers_over_multi_channel_pool() {
        // The same mixed workload as below, but served by 3 daemon
        // workers: results, accounting invariant, and file contents must
        // be indistinguishable from the single-worker rig (the worker
        // count changes scheduling, never bytes).
        use crate::testrig::rig_pool;
        let r = rig_pool(1, 3);
        let base: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 211) as u8).collect();
        r.fs.create("/mc", &base).unwrap();
        let cfg = GpufsConfig::new(4096, 8 * 4096).with_concurrency(4, 3);
        let mount = r.host.mount(0, cfg).unwrap();
        r.gpus[0].launch(Grid::new(8, 32), 0, |blk| {
            let fd = mount.open(blk, "/mc", GOpenMode::ReadWrite).unwrap();
            let my = blk.block_id() as u64;
            mount
                .write(blk, &fd, (8 + my) * 4096, &[my as u8 + 50; 4096])
                .unwrap();
            let mut buf = vec![0u8; 1024];
            for step in 0..6u64 {
                let off = ((my + step) % 8) * 4096 + 512;
                let n = mount.read(blk, &fd, off, &mut buf).unwrap();
                assert_eq!(n, 1024);
                assert_eq!(&buf[..], &base[off as usize..off as usize + 1024]);
            }
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(
            c.hits.get() + c.misses.get(),
            c.lockfree_accesses.get() + c.locked_accesses.get(),
            "page-lookup accounting must balance across workers"
        );
        let (data, _) = r.fs.read_whole("/mc", 0).unwrap();
        assert_eq!(&data[..8 * 4096], &base[..8 * 4096], "read half untouched");
        for b in 0..8usize {
            let off = (8 + b) * 4096;
            assert!(
                data[off..off + 4096].iter().all(|&x| x == b as u8 + 50),
                "region {b} lost under concurrent serves"
            );
        }
        assert!(c.write_rpcs.get() > 0, "writes went through WritePages");
    }

    #[test]
    fn stress_mixed_readers_and_writers_under_pressure() {
        let r = rig(1);
        // First half of the file is read-shared; second half is written,
        // one disjoint 4 KB region per block (concurrent access to
        // disjoint ranges is the documented contract, as on real GPUs).
        let base: Vec<u8> = (0..128 * 1024u32).map(|i| (i % 199) as u8).collect();
        r.fs.create("/mix", &base).unwrap();
        // 8 frames of 4 KB against a 128 KB file: constant eviction.
        let mount = r.host.mount(0, GpufsConfig::new(4096, 8 * 4096)).unwrap();
        r.gpus[0].launch(Grid::new(16, 32), 0, |blk| {
            let fd = mount.open(blk, "/mix", GOpenMode::ReadWrite).unwrap();
            let my = blk.block_id() as u64;
            mount
                .write(blk, &fd, (16 + my) * 4096, &[my as u8 + 100; 4096])
                .unwrap();
            let mut buf = vec![0u8; 2048];
            for step in 0..8u64 {
                let off = ((my + step) % 16) * 4096 + 1024;
                let n = mount.read(blk, &fd, off, &mut buf).unwrap();
                assert_eq!(n, 2048);
                assert_eq!(&buf[..], &base[off as usize..off as usize + 2048]);
            }
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/mix", 0).unwrap();
        for b in 0..16usize {
            let off = (16 + b) * 4096;
            assert!(
                data[off..off + 4096].iter().all(|&x| x == b as u8 + 100),
                "region {b} lost under eviction pressure"
            );
        }
        assert!(mount.counters().pages_reclaimed.get() > 0);
    }
}
