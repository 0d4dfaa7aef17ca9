//! The dirty-page cap, drained inline by the writer that reaches it.
//!
//! The paper ships dirty data on the calling threadblock (§3.4
//! pay-as-you-go, §4.2 "hijacking the calling thread"): `gfsync`,
//! eviction and the stale-reopen flush all run on the caller. This
//! module adds one more caller. With
//! [`crate::GpufsConfig::dirty_high_pages`] > 0, a `gwrite` that finds
//! the mount's dirty-page ledger at or above that mark sweeps the
//! mount's syncable files on its own block, through the same
//! gather/diff/batch machinery ([`GpuFsMount::flush_dirty`]), until the
//! ledger is at or below [`crate::GpufsConfig::dirty_low_pages`]
//! (hysteresis, so one page of headroom doesn't re-trigger the sweep on
//! the next write). The block pays for the sweep in virtual time, like
//! any other write-back it runs. A failed batch re-arms its pages' dirty
//! bits, so its error surfaces on the next `gfsync`, per the failed-batch
//! contract.

use std::sync::atomic::Ordering;

use gpusim::BlockCtx;

use crate::mount::GpuFsMount;

impl GpuFsMount {
    /// Hold the mount's dirty pages to the cap: at or above the high
    /// mark, write back the syncable files on this block until the
    /// ledger is at or below the low mark (see module docs). No-op when
    /// the cap is off or the ledger is below the high mark.
    pub(crate) fn throttle_dirty(&self, blk: &mut BlockCtx<'_>) {
        let high = self.config.dirty_high_pages;
        if high == 0 || self.dirty.pages.load(Ordering::Acquire) < high {
            return;
        }
        let lane = blk.block_id();
        self.count_for(lane, |c| c.throttle_stalls.incr());
        // The sweep's RPCs and daemon spans nest under this child of the
        // writer's `gwrite` root.
        let sp = obs::span("flush_pass");
        let t_entry = blk.now();
        for file in self.tables.syncable_files() {
            let _ = self.flush_dirty(blk, &file);
            if self.dirty.pages.load(Ordering::Acquire) <= self.config.dirty_low_pages {
                break;
            }
        }
        self.count_for(lane, |c| c.flusher_passes.incr());
        sp.finish(t_entry, blk.now());
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GOpenMode, GpufsConfig};
    use crate::testrig::{rig, run_block};
    use gpusim::Grid;
    use std::sync::atomic::Ordering;

    #[test]
    fn writer_drains_dirty_pages_inline() {
        const HIGH: usize = 8;
        let r = rig(1);
        r.fs.create("/bg", &[0u8; 16 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(HIGH, 2);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/bg", GOpenMode::ReadWrite).unwrap();
            for page in 0..16u64 {
                mount
                    .write(blk, &fd, page * 4096, &[page as u8 + 1; 4096])
                    .unwrap();
                // A one-page write lands on a ledger below the cap, so
                // the cap is never exceeded.
                assert!(mount.dirty.pages.load(Ordering::Acquire) <= HIGH);
            }
            // The writer drained the cache itself, with no gfsync yet.
            assert!(mount.counters().flusher_passes.get() > 0);
            assert!(mount.counters().throttle_stalls.get() > 0);
            // gfsync now only has the residue to ship — and after it,
            // nothing dirty remains anywhere.
            mount.fsync(blk, &fd).unwrap();
            assert_eq!(mount.dirty.pages.load(Ordering::Acquire), 0);
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/bg", 0).unwrap();
        for page in 0..16usize {
            assert!(
                data[page * 4096..(page + 1) * 4096]
                    .iter()
                    .all(|&b| b == page as u8 + 1),
                "page {page} bytes wrong on host"
            );
        }
    }

    #[test]
    fn throttle_blocks_writers_above_high_watermark_only() {
        // Pages are faulted in first, so a write is a memcpy with no RPC
        // and the ledger counts exactly the pages written: the call that
        // finds it at the high mark is the fifth.
        const HIGH: usize = 4;
        let r = rig(1);
        r.fs.create("/thr", &[0u8; 32 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(HIGH, HIGH - 1);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/thr", GOpenMode::ReadWrite).unwrap();
            let mut page = [0u8; 4096];
            for p in 0..32u64 {
                mount.read(blk, &fd, p * 4096, &mut page).unwrap();
            }
            for p in 0..32u64 {
                mount.write(blk, &fd, p * 4096, &[0xAB; 4096]).unwrap();
                if p < HIGH as u64 {
                    // Calls 0..=3 saw the ledger at 0..=3: below the mark.
                    assert_eq!(mount.counters().throttle_stalls.get(), 0);
                }
            }
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        assert!(
            mount.counters().throttle_stalls.get() > 0,
            "32 dirty pages against a high mark of {HIGH} must stall"
        );
        let (data, _) = r.fs.read_whole("/thr", 0).unwrap();
        assert!(
            data.iter().all(|&b| b == 0xAB),
            "no bytes lost to throttling"
        );
    }

    #[test]
    fn fsync_waits_out_inflight_flusher_batches() {
        // Two writers of one file under a tight cap: either block's
        // sweep (or gfsync) may gather the other's pages, so a block's
        // gfsync can find its pages clean while another block's batch
        // still carries their bytes. gfsync must wait that batch out.
        let r = rig(1);
        r.fs.create("/drain", &[0u8; 24 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(6, 1);
        let mount = r.host.mount(0, cfg).unwrap();
        r.gpus[0].launch(Grid::new(2, 32), 0, |blk| {
            let b = blk.block_id();
            let fill = 0x50 + b as u8;
            let fd = mount.open(blk, "/drain", GOpenMode::ReadWrite).unwrap();
            for page in (b..24).step_by(2) {
                mount
                    .write(blk, &fd, page as u64 * 4096, &[fill; 4096])
                    .unwrap();
            }
            mount.fsync(blk, &fd).unwrap();
            let (data, _) = r.fs.read_whole("/drain", 0).unwrap();
            for page in (b..24).step_by(2) {
                assert!(
                    data[page * 4096..(page + 1) * 4096]
                        .iter()
                        .all(|&x| x == fill),
                    "block {b}: page {page} not on the host when gfsync returned"
                );
            }
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(mount.dirty.pages.load(Ordering::Acquire), 0);
    }

    #[test]
    fn the_throttle_replays_exactly() {
        // One writer crossing a cap of 4 pages again and again: every
        // modelled number of the run must come out the same each time.
        let run = || {
            let r = rig(1);
            r.fs.create("/replay", &[0u8; 32 * 4096]).unwrap();
            let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(4, 1);
            let mount = r.host.mount(0, cfg).unwrap();
            let elapsed = r.gpus[0]
                .launch(Grid::new(1, 32), 0, |blk| {
                    let fd = mount.open(blk, "/replay", GOpenMode::ReadWrite).unwrap();
                    for page in 0..32u64 {
                        mount
                            .write(blk, &fd, page * 4096, &[page as u8 + 1; 4096])
                            .unwrap();
                    }
                    mount.fsync(blk, &fd).unwrap();
                    mount.close(blk, fd).unwrap();
                })
                .elapsed();
            let c = mount.counters();
            let counts = [
                c.write_rpcs.get(),
                c.writebacks.get(),
                c.throttle_stalls.get(),
                c.flusher_passes.get(),
            ];
            let (image, _) = r.fs.read_whole("/replay", 0).unwrap();
            (elapsed, counts, image)
        };
        let (elapsed, counts, image) = run();
        for _ in 1..5 {
            let (e, c, i) = run();
            assert_eq!((e, c), (elapsed, counts), "a replay diverged");
            assert!(i == image, "a replay left another host image");
        }
    }
}
