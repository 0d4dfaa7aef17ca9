//! The write-back layer: diff-based *bulk* propagation of dirty pages to
//! the host (paper §3.1, §4.3).
//!
//! GPUfs never ships whole dirty pages: it computes the modified byte
//! extents — against a pristine copy for read-write files, against zeros
//! for `O_GWRONCE` — and sends only those, which is what lets concurrent
//! writers of *disjoint* ranges of one page merge losslessly on the host.
//! `gfsync`, `gmsync`, eviction, and the stale-reopen flush all funnel
//! through here, and all of them gather the dirty pages of a file into
//! capped [`Request::WritePages`] batches — one daemon round-trip and one
//! scatter-gather D2H DMA charge per batch — symmetric with the read
//! path's batched `ReadPages`. A single-page sync is simply the batch of
//! one.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpusim::BlockCtx;
use parking_lot::Mutex;
use simtime::bw_time_ns;

use crate::cache::{diff_extents, nonzero_extents, Extents, FrameIdx, PageState};
use crate::config::{GOpenMode, WRITE_BATCH_PAGES};
use crate::error::GpufsResult;
use crate::mount::GpuFsMount;
use crate::rpc::{PageWrite, Request, RespOk};
use crate::table::GFile;

/// Identical-byte gap below which adjacent dirty extents are merged into
/// one host write.
pub(super) const DIFF_MERGE_GAP: usize = 64;

/// Page buffers for read-write snapshots, shared by every mount of the
/// process. A buffer is only parked after it was live, and only
/// allocated when none is parked, so parked plus live buffers never
/// exceed the most that were live at once; after warm-up a flush
/// allocates none.
static SNAPSHOT_BUFS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// A copy of a page's working bytes in a buffer taken from
/// [`SNAPSHOT_BUFS`], which the buffer rejoins when this drops.
struct Snapshot(Vec<u8>);

impl Snapshot {
    fn of(bytes: &[u8]) -> Self {
        let mut buf = SNAPSHOT_BUFS.lock().pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(bytes);
        Snapshot(buf)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        SNAPSHOT_BUFS.lock().push(std::mem::take(&mut self.0));
    }
}

/// One page whose modified extents have been computed (and whose dirty
/// flag has been cleared), awaiting shipment in a batch.
struct GatheredPage {
    page_idx: u64,
    frame: FrameIdx,
    extents: Extents,
    /// Snapshot of the working bytes the diff ran over, kept to refresh
    /// the pristine copy after a successful shipment (read-write mode).
    /// Its buffer comes from [`SNAPSHOT_BUFS`] and goes back when the
    /// batch drops its gathered pages: after the pristine refresh, or
    /// when a failed batch unwinds.
    snapshot: Option<Snapshot>,
    /// Valid data bytes at gather time.
    ds: usize,
}

impl GpuFsMount {
    /// Write back every dirty, unpinned page of `file`, gathered into
    /// capped multi-page `WritePages` batches. Returns the number of
    /// dirty pages the scan found (shipped or already drained by a
    /// concurrent pass) — `0` means the file had nothing left to flush,
    /// which is what `gfsync`'s drain loop terminates on.
    pub(crate) fn flush_dirty(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &Arc<GFile>,
    ) -> GpufsResult<usize> {
        let mut dirty_pages = Vec::new();
        file.tree().for_each_page(|idx, fp| {
            if fp.state() == PageState::Ready {
                if let Some(frame) = fp.frame() {
                    if self.frames.pframe(frame).dirty.load(Ordering::Acquire) {
                        dirty_pages.push(idx);
                    }
                }
            }
        });
        for chunk in dirty_pages.chunks(WRITE_BATCH_PAGES) {
            // Pin the chunk to hold its frames across the write-back; the
            // pins drop (and the pages become evictable again) batch by
            // batch, not at the end of the whole flush. The pins are
            // resident-only: a page evicted since the scan was already
            // written back by the evictor, and faulting it back in here —
            // while holding a batch of pins — could starve reclaim of the
            // very frames this flush is pinning (see `pin_page_resident`).
            let mut pinned = Vec::with_capacity(chunk.len());
            for &idx in chunk {
                if let Some(pin) = self.pin_page_resident(blk, file, idx) {
                    pinned.push((idx, pin));
                }
            }
            let pages: Vec<(u64, FrameIdx)> = pinned
                .iter()
                .map(|(idx, pin)| (*idx, pin.frame()))
                .collect();
            self.writeback_frames(blk, file, &pages)?;
        }
        Ok(dirty_pages.len())
    }

    /// Write back a single page (`gmsync`, and the batch-of-one case).
    pub(crate) fn writeback_frame(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &GFile,
        page_idx: u64,
        frame: FrameIdx,
    ) -> GpufsResult<usize> {
        self.writeback_frames(blk, file, &[(page_idx, frame)])
    }

    /// Write back a set of pages of one file, in `WritePages` batches of
    /// at most [`WRITE_BATCH_PAGES`]. The caller must hold each frame
    /// (pinned, or detached from its fpage by eviction). Pages found clean
    /// are skipped. Returns the bytes written.
    ///
    /// On a failed batch every page of that batch has its dirty flag
    /// re-armed (pages of earlier, successful batches stay propagated).
    pub(crate) fn writeback_frames(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &GFile,
        pages: &[(u64, FrameIdx)],
    ) -> GpufsResult<usize> {
        let mut written = 0;
        for chunk in pages.chunks(WRITE_BATCH_PAGES) {
            written += self.ship_batch(blk, file, chunk)?;
        }
        Ok(written)
    }

    /// Gather the dirty extents of `chunk` and ship them in one
    /// `WritePages` round-trip.
    fn ship_batch(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &GFile,
        chunk: &[(u64, FrameIdx)],
    ) -> GpufsResult<usize> {
        // Advertise the batch before gathering: `gather_page` clears
        // dirty bits, so from a syncer's point of view these pages look
        // clean the moment they are gathered — `wb_inflight` is what says
        // "but their bytes have not reached the host yet".
        file.wb_begin();
        let r = self.ship_batch_inner(blk, file, chunk);
        if let Ok(n) = r {
            if n > 0 {
                file.note_flush_horizon(blk.now());
            }
        }
        if file.wb_end() {
            self.waits.notify_all();
        }
        r
    }

    fn ship_batch_inner(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &GFile,
        chunk: &[(u64, FrameIdx)],
    ) -> GpufsResult<usize> {
        let mut gathered = Vec::with_capacity(chunk.len());
        for &(page_idx, frame) in chunk {
            if let Some(g) = self.gather_page(blk, file, page_idx, frame) {
                gathered.push(g);
            }
        }
        if gathered.is_empty() {
            return Ok(0);
        }
        let ps = self.config.page_size as u64;
        let pages: Vec<PageWrite> = gathered
            .iter()
            .map(|g| PageWrite {
                src: self.frames.frame_ptr(g.frame),
                page_offset: g.page_idx * ps,
                extents: g.extents.clone(),
            })
            .collect();
        self.count_for(blk.block_id(), |c| {
            c.write_rpcs.incr();
            c.pages_per_write_rpc.add(gathered.len() as u64);
        });
        let resp = self.rpc(
            blk,
            Request::WritePages {
                fd: file.host_fd(),
                pages,
                gpu: self.gpu.id(),
            },
        );
        let resp = match resp {
            Ok(ok) => ok,
            Err(e) => {
                // Nothing of this batch was shipped: re-arm every page's
                // dirty flag so a retried sync (or eviction) still knows
                // it holds unsynced data — otherwise one failed RPC
                // silently marks the whole batch clean and its bytes are
                // lost.
                for g in &gathered {
                    if !self
                        .frames
                        .pframe(g.frame)
                        .dirty
                        .swap(true, Ordering::AcqRel)
                    {
                        self.dirty.pages.fetch_add(1, Ordering::AcqRel);
                    }
                }
                return Err(e);
            }
        };
        let RespOk::Wrote { n, generation } = resp else {
            unreachable!("write answers Wrote")
        };
        // Our own propagated writes bumped the host generation; observe
        // it (and refresh this GPU's consistency registration, which is
        // monotonic, so a lagging batch can never regress it) so they do
        // not read as a foreign invalidation on reopen.
        file.observe_generation(generation);
        self.host_fs
            .consistency()
            .register_gpu_cache(file.ino(), self.coherence_id, generation);
        for g in &gathered {
            self.count_for(blk.block_id(), |c| c.writebacks.incr());
            file.mark_host_valid(g.page_idx * ps + g.ds as u64);
            if let Some(snapshot) = &g.snapshot {
                // Refresh the pristine copy: future diffs are relative to
                // the state just propagated — the snapshot the diff ran
                // over, not the live page, which concurrent writers may
                // have moved on from (their bytes must stay "different
                // from pristine" until their own sync sends them).
                if let Some(pristine_frame) = self.frames.pframe(g.frame).pristine_frame() {
                    self.gpu
                        .global()
                        .write(self.frames.frame_ptr(pristine_frame), &snapshot.0);
                    blk.advance(bw_time_ns(2 * g.ds as u64, self.timings.gpu_mem_mb_s));
                }
            }
        }
        Ok(n)
    }

    /// Compute the modified extents of one page: a byte diff against the
    /// pristine copy for read-write files, or against zeros for
    /// `O_GWRONCE` (paper §3.1). Returns `None` for clean pages and pages
    /// whose diff is empty. A read-write page's diff runs over a snapshot
    /// copied into a page buffer from the process-wide pool
    /// ([`SNAPSHOT_BUFS`]); the buffer returns to it when the snapshot
    /// drops, after the pristine refresh or a failed batch's unwind.
    fn gather_page(
        &self,
        blk: &mut BlockCtx<'_>,
        file: &GFile,
        page_idx: u64,
        frame: FrameIdx,
    ) -> Option<GatheredPage> {
        let pf = self.frames.pframe(frame);
        if !pf.dirty.load(Ordering::Acquire) {
            return None;
        }
        // Clear the dirty flag *before* reading the bytes this sync will
        // describe: a concurrent write landing afterwards re-arms the
        // flag, so its bytes — whether or not this pass happens to carry
        // them — are guaranteed a later write-back. Clearing after the
        // scan instead would let a write that slipped in between be
        // wiped from the flag without ever being shipped.
        if pf.dirty.swap(false, Ordering::AcqRel) {
            self.dirty.pages.fetch_sub(1, Ordering::AcqRel);
        } else {
            // A concurrent pass drained it between the check above and
            // the swap; the ledger entry was theirs to settle.
            return None;
        }
        let ds = pf.data_size.load(Ordering::Acquire);
        let ptr = self.frames.frame_ptr(frame);
        // SAFETY: the caller holds a pin (or has detached the frame from
        // its fpage), so the frame cannot be reused; concurrent writers
        // to the same page must coordinate with sync, per Table 1.
        let working = unsafe { self.gpu.global().slice(ptr, ds) };
        // Snapshot of the working bytes the diff was computed over, taken
        // for modes that refresh a pristine copy after shipment. The diff
        // and the pristine refresh must describe the *same instant*:
        // refreshing from live working memory would absorb a concurrent
        // writer's not-yet-synced bytes into the pristine copy, making
        // that writer's own sync diff them away — a lost update.
        let mut snapshot: Option<Snapshot> = None;
        let extents: Extents = match file.mode() {
            GOpenMode::WriteOnce => {
                blk.advance(bw_time_ns(ds as u64, self.timings.gpu_mem_mb_s));
                nonzero_extents(working, DIFF_MERGE_GAP)
            }
            GOpenMode::ReadWrite => match pf.pristine_frame() {
                Some(pristine_frame) => {
                    let snap = Snapshot::of(working);
                    let pptr = self.frames.frame_ptr(pristine_frame);
                    // SAFETY: pristine frames are only touched by sync
                    // paths, serialized by the page pin / detachment above.
                    let pristine = unsafe { self.gpu.global().slice(pptr, ds) };
                    blk.advance(bw_time_ns(2 * ds as u64, self.timings.gpu_mem_mb_s));
                    let extents = diff_extents(&snap.0, pristine, DIFF_MERGE_GAP);
                    snapshot = Some(snap);
                    extents
                }
                None => {
                    // A page that never existed on the host (beyond EOF at
                    // open) has an implicitly all-zero pristine copy.
                    blk.advance(bw_time_ns(ds as u64, self.timings.gpu_mem_mb_s));
                    nonzero_extents(working, DIFF_MERGE_GAP)
                }
            },
            // A spilled temporary page has no pristine copy and no
            // written-zeros hazard to exploit: ship the whole valid prefix.
            GOpenMode::Temp => vec![(0, ds as u32)],
            GOpenMode::ReadOnly => Vec::new(),
        };
        if extents.is_empty() {
            return None;
        }
        Some(GatheredPage {
            page_idx,
            frame,
            extents,
            snapshot,
            ds,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GOpenMode, GpufsConfig};
    use crate::error::GpufsError;
    use crate::testrig::{rig, run_block};
    use gpusim::Grid;

    #[test]
    fn write_once_diffs_against_zeros() {
        let r = rig(1);
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/wonce", GOpenMode::WriteOnce).unwrap();
            mount.write(blk, &fd, 10, b"abc").unwrap();
            mount.write(blk, &fd, 100, b"xyz").unwrap();
            // Reading a write-once file is forbidden.
            let mut buf = [0u8; 4];
            assert!(matches!(
                mount.read(blk, &fd, 0, &mut buf),
                Err(GpufsError::WriteOnce(_))
            ));
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/wonce", 0).unwrap();
        assert_eq!(&data[10..13], b"abc");
        assert_eq!(&data[100..103], b"xyz");
        assert!(data[..10].iter().all(|&b| b == 0));
    }

    #[test]
    fn gmsync_pushes_one_page() {
        let r = rig(1);
        r.fs.create("/ms", &[0u8; 8192]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/ms", GOpenMode::ReadWrite).unwrap();
            mount.write(blk, &fd, 0, &[1u8; 4096]).unwrap();
            mount.write(blk, &fd, 4096, &[2u8; 4096]).unwrap();
            mount.msync(blk, &fd, 0).unwrap(); // only page 0
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/ms", 0).unwrap();
        assert!(data[..4096].iter().all(|&b| b == 1), "page 0 synced");
        assert!(data[4096..].iter().all(|&b| b == 0), "page 1 not synced");
    }

    #[test]
    fn msync_rejects_temp_and_read_only_modes() {
        let r = rig(1);
        r.fs.create("/r", &[0u8; 64]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let ro = mount.open(blk, "/r", GOpenMode::ReadOnly).unwrap();
            assert!(matches!(
                mount.msync(blk, &ro, 0),
                Err(GpufsError::InvalidMode(_))
            ));
            mount.close(blk, ro).unwrap();
            let tmp = mount.open(blk, "/t", GOpenMode::Temp).unwrap();
            assert!(matches!(
                mount.msync(blk, &tmp, 0),
                Err(GpufsError::InvalidMode(_))
            ));
            mount.close(blk, tmp).unwrap();
        });
    }

    #[test]
    fn concurrent_blocks_write_disjoint_ranges_of_one_page() {
        // False sharing within one page: 8 blocks write disjoint 512-byte
        // slices of a single 4 KB page; the byte diff must merge all of
        // them on the host (paper §3.1's motivating case).
        let r = rig(1);
        r.fs.create("/false_share", &[0u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        r.gpus[0].launch(Grid::new(8, 32), 0, |blk| {
            let fd = mount
                .open(blk, "/false_share", GOpenMode::ReadWrite)
                .unwrap();
            let off = blk.block_id() as u64 * 512;
            mount
                .write(blk, &fd, off, &[blk.block_id() as u8 + 1; 512])
                .unwrap();
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/false_share", 0).unwrap();
        for b in 0..8usize {
            assert!(
                data[b * 512..(b + 1) * 512]
                    .iter()
                    .all(|&x| x == b as u8 + 1),
                "slice {b} lost to false sharing"
            );
        }
    }

    #[test]
    fn failed_writeback_rearms_dirty_for_retry() {
        let mut r = rig(1);
        r.fs.create("/rearm", &[0u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/rearm", GOpenMode::ReadWrite).unwrap();
            mount.write(blk, &fd, 0, b"keep me").unwrap();
            mount.close(blk, fd).unwrap();
        });
        // Kill the daemon: every write-back RPC now fails. The reopen
        // itself survives via closed-table revival (no RPC needed).
        r.host.shutdown();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/rearm", GOpenMode::ReadWrite).unwrap();
            assert!(mount.fsync(blk, &fd).is_err(), "daemon is down");
            assert!(
                mount.fsync(blk, &fd).is_err(),
                "a failed write-back must leave the page dirty: a retried \
                 fsync has to fail too, not silently report clean"
            );
        });
    }

    #[test]
    fn failed_chunked_batch_rearms_dirty_on_every_page() {
        // A multi-page batch that the pipelined engine would stream in
        // several chunks fails as a whole RPC: every page the batch
        // carried — not just the chunk that errored — must come back
        // dirty, or a retried sync would silently lose the rest.
        use std::sync::atomic::Ordering;
        let mut r = rig(1);
        r.fs.create("/rearm_batch", &[0u8; 6 * 4096]).unwrap();
        assert!(
            GpufsConfig::default().io_chunk_pages > 0 && GpufsConfig::default().io_chunk_pages < 6,
            "the 6-page batch must span several pipeline chunks"
        );
        let cfg = GpufsConfig::new(4096, 32 * 4096);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount
                .open(blk, "/rearm_batch", GOpenMode::ReadWrite)
                .unwrap();
            for page in 0..6u64 {
                mount
                    .write(blk, &fd, page * 4096, &[page as u8 + 1; 4096])
                    .unwrap();
            }
            // Keep the file open (and its pages resident) across the
            // daemon's death; no fsync yet.
            std::mem::forget(fd);
        });
        r.host.shutdown();
        let file = mount.tables.get_open("/rearm_batch").expect("still open");
        run_block(&r, |blk| {
            assert!(
                mount.flush_dirty(blk, &file).is_err(),
                "daemon is down: the whole batch must fail"
            );
        });
        let mut dirty = 0;
        file.tree().for_each_page(|_, fp| {
            if let Some(frame) = fp.frame() {
                if mount.frames.pframe(frame).dirty.load(Ordering::Acquire) {
                    dirty += 1;
                }
            }
        });
        assert_eq!(dirty, 6, "every page of the failed batch re-armed");
    }

    #[test]
    fn batched_fsync_gathers_pages_into_capped_write_rpcs() {
        // 40 dirty pages at the batch cap of 32: gfsync must ship them in
        // exactly two WritePages round-trips (32 + 8), with the client and
        // daemon write counters agreeing and the bytes landing exactly.
        const PAGES: usize = 40;
        let r = rig(1);
        r.fs.create("/batchy", &[0u8; PAGES * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/batchy", GOpenMode::ReadWrite).unwrap();
            for page in 0..PAGES as u64 {
                mount
                    .write(blk, &fd, page * 4096, &[page as u8 + 1; 4096])
                    .unwrap();
            }
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(c.write_rpcs.get(), 2, "ceil(40 / 32) round-trips");
        assert_eq!(c.pages_per_write_rpc.get(), PAGES as u64);
        assert_eq!(
            c.writebacks.get(),
            PAGES as u64,
            "every page individually counted"
        );
        // The daemon saw one multi-page batch of 32 and one of 8.
        assert_eq!(r.host.stats().batched_write_rpcs.get(), 2);
        assert_eq!(r.host.stats().pages_per_write_rpc.get(), PAGES as u64);
        assert_eq!(r.host.stats().bytes_d2h.get(), (PAGES * 4096) as u64);
        let (data, _) = r.fs.read_whole("/batchy", 0).unwrap();
        for page in 0..PAGES {
            assert!(
                data[page * 4096..(page + 1) * 4096]
                    .iter()
                    .all(|&b| b == page as u8 + 1),
                "page {page} bytes wrong"
            );
        }
    }

    #[test]
    fn write_batch_one_reproduces_per_page_rpcs() {
        // One dirty page is a batch of one: one RPC carrying one page.
        let r = rig(1);
        r.fs.create("/perpage", &[0u8; 6 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 32 * 4096);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/perpage", GOpenMode::ReadWrite).unwrap();
            mount.write(blk, &fd, 2 * 4096, &[7u8; 4096]).unwrap();
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(c.write_rpcs.get(), 1, "one RPC for the dirty page");
        assert_eq!(c.pages_per_write_rpc.get(), 1);
        assert_eq!(
            r.host.stats().batched_write_rpcs.get(),
            0,
            "batches of one are not batched writes"
        );
    }

    #[test]
    fn read_write_pristine_diff_preserves_concurrent_host_bytes() {
        // GPU writes bytes [0,4) of a page; meanwhile the host rewrites
        // bytes [100,104). The GPU's diff-based sync must not revert the
        // host's bytes with its stale pristine copy.
        let r = rig(1);
        r.fs.create("/fs_merge", &[0u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/fs_merge", GOpenMode::ReadWrite).unwrap();
            mount.write(blk, &fd, 0, &[7u8; 4]).unwrap();
            // Host writes concurrently (before the GPU syncs).
            let (hfd, t) =
                r.fs.open("/fs_merge", hostfs::OpenFlags::read_write(), 0)
                    .unwrap();
            r.fs.pwrite(hfd, 100, &[9u8; 4], t).unwrap();
            r.fs.close(hfd).unwrap();
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/fs_merge", 0).unwrap();
        assert_eq!(&data[0..4], &[7u8; 4], "gpu bytes written");
        assert_eq!(&data[100..104], &[9u8; 4], "host bytes preserved by diff");
    }
}
