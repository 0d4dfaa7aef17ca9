//! Asynchronous write-back: a per-mount background thread that drains
//! dirty pages behind a high/low-watermark throttle.
//!
//! The paper decouples synchronization from close (§3.2) but still ships
//! dirty data on the faulting threadblock — `gfsync`, eviction, and the
//! stale-reopen flush all hijack the caller. This module moves the bulk
//! of that work off the critical path: a host-side flusher thread sweeps
//! the mount's syncable files and ships their dirty pages through the
//! same gather/diff/batch machinery ([`GpuFsMount::flush_dirty`]),
//! generic over [`Lane`] so the shared code never knows which side is
//! driving it.
//!
//! Watermark semantics: writers run untouched below
//! [`crate::GpufsConfig::dirty_high_pages`]; a `gwrite` that observes the
//! ledger at or above it stalls until the flusher drains the cache to
//! [`crate::GpufsConfig::dirty_low_pages`] (hysteresis, so one page of
//! headroom doesn't unblock and immediately re-block the writer). The
//! stall is charged in virtual time too: the writer resumes no earlier
//! than the flusher's drain timestamp. If the flusher cannot make
//! progress (daemon dead, thread stopped), the writer falls back to a
//! synchronous flush of its own file — throttling degrades to the old
//! behavior instead of wedging (errors stay re-armed for `gfsync` to
//! surface, per the failed-batch contract).
//!
//! Virtual-time placement: the flusher is a real concurrent thread, but
//! measurements are virtual. Its lane clock starts at — and each file
//! sweep re-synchronizes to — the mount's `virtual_frontier` (the latest
//! time any threadblock has reached), so background traffic lands "now",
//! never in the virtual past where it could retroactively speed up a
//! recorded run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use gpusim::BlockCtx;
use simtime::{Clock, ClockBoard};

use crate::mount::{GpuFsMount, Lane};
use crate::table::GFile;

/// Consecutive fruitless throttle rounds (each a wait on the mount's
/// board, of one 50 µs quantum at most) before a stalled writer gives up
/// on the flusher and drains synchronously — roughly 0.2 s of real time.
const THROTTLE_GIVEUP_ROUNDS: usize = 4096;

/// The flusher's lane id: its RPCs are attributed to, and scheduled as,
/// the tenant of threadblock slot 0.
const FLUSHER_LANE: usize = 0;

/// The background flusher's execution lane: its own virtual clock on a
/// host thread (no threadblock is hijacked — this is the one deliberate
/// exception to §3.4 pay-as-you-go, and it pays with idle host cycles).
struct FlusherLane {
    clock: Clock,
}

impl Lane for FlusherLane {
    fn now(&self) -> u64 {
        self.clock.now()
    }
    fn advance(&mut self, dur: u64) {
        self.clock.advance(dur);
    }
    fn wait_until(&mut self, t: u64) {
        self.clock.wait_until(t);
    }
    fn lane_id(&self) -> usize {
        FLUSHER_LANE
    }
}

/// Start the mount's flusher thread if async write-back is configured
/// (`dirty_high_pages > 0`). Failing to spawn is a mount-time error:
/// with the watermarks armed but no flusher draining, writers would
/// throttle against a ledger nothing empties in the background.
pub(crate) fn spawn_if_configured(mount: &Arc<GpuFsMount>) -> crate::error::GpufsResult<()> {
    if mount.config.dirty_high_pages == 0 {
        return Ok(());
    }
    let weak = Arc::downgrade(mount);
    let stop = Arc::clone(&mount.flusher_stop);
    let handle = std::thread::Builder::new()
        .name(format!("gpufs-flusher-{}", mount.gpu().id()))
        .spawn(move || flusher_loop(&weak, &stop))
        .map_err(|_| {
            crate::error::GpufsError::HostResource("could not spawn the write-back flusher thread")
        })?;
    *mount.flusher.lock() = Some(handle);
    Ok(())
}

/// Stop and join the flusher (mount drop). Safe against the flusher
/// itself holding the mount's last strong reference: a thread must not
/// join itself, so that (unlikely) unwind path just detaches.
pub(crate) fn stop(mount: &GpuFsMount) {
    mount.flusher_stop.store(true, Ordering::Release);
    let handle = mount.flusher.lock().take();
    if let Some(h) = handle {
        if h.thread().id() != std::thread::current().id() {
            let _ = h.join();
        }
    }
}

fn flusher_loop(mount: &Weak<GpuFsMount>, stop: &AtomicBool) {
    // Nothing notifies the flusher: an idle round ends when there is
    // work, or after one quantum.
    let idle = ClockBoard::new(0);
    let stopped = || stop.load(Ordering::Acquire);
    let work = || mount.upgrade().is_some_and(|m| above_low(&m));
    loop {
        if stopped() {
            return;
        }
        // Upgrade per iteration (and drop before waiting) so this thread
        // never keeps a dying mount alive across a wait.
        let Some(m) = mount.upgrade() else { return };
        if !above_low(&m) {
            drop(m);
            idle.wait(0, || stopped() || work());
            continue;
        }
        let shipped_before = m.counters.writebacks.get();
        flush_pass(&m, stop);
        m.count_for(FLUSHER_LANE, |c| c.flusher_passes.incr());
        if m.counters.writebacks.get() == shipped_before {
            // Dirty pages it cannot ship (daemon down, everything
            // pinned): back off instead of spinning hot on failure.
            drop(m);
            idle.wait(0, stopped);
        }
    }
}

/// Whether the dirty ledger is above the low watermark: work for the
/// flusher, and a throttled writer still stalled.
fn above_low(m: &GpuFsMount) -> bool {
    m.dirty.pages.load(Ordering::Acquire) > m.config.dirty_low_pages
}

/// One sweep over the mount's syncable files, stopping early once the
/// ledger drops to the low watermark. Errors are not surfaced anywhere:
/// a failed batch re-arms its pages' dirty bits, and the foreground
/// `gfsync` contract is that errors show up on *its* shipment attempt.
fn flush_pass(m: &GpuFsMount, stop: &AtomicBool) {
    let mut lane = FlusherLane {
        clock: Clock::starting_at(m.virtual_frontier.load(Ordering::Acquire)),
    };
    // Each flusher pass is its own trace root: its WritePages RPCs and
    // their daemon spans nest here, not under any threadblock's trace.
    let root = m.tracer.root("flush_pass");
    let t_entry = lane.now();
    for file in m.tables.syncable_files() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Re-synchronize to the frontier: threadblocks kept running
        // while this sweep shipped the previous file.
        lane.wait_until(m.virtual_frontier.load(Ordering::Acquire));
        let _ = m.flush_dirty(&mut lane, &file);
        if !above_low(m) {
            break;
        }
    }
    if !above_low(m) {
        // Publish the drain time: throttled writers resume at this
        // virtual instant.
        m.dirty.flush_vtime.fetch_max(lane.now(), Ordering::AcqRel);
        m.waits.notify_all();
    }
    root.finish(t_entry, lane.now());
}

impl GpuFsMount {
    /// Stall a writer at the dirty-page high watermark until the
    /// background flusher drains the cache to the low one (see module
    /// docs for the fallback ladder). No-op when async write-back is
    /// off or the ledger is below the high mark.
    pub(crate) fn throttle_dirty(&self, blk: &mut BlockCtx<'_>, file: &Arc<GFile>) {
        let high = self.config.dirty_high_pages;
        if high == 0 || self.dirty.pages.load(Ordering::Acquire) < high {
            return;
        }
        self.count_for(blk.block_id(), |c| c.throttle_stalls.incr());
        // Make sure the flusher issues at (at least) this writer's time.
        self.note_frontier(Lane::now(blk));
        let mut fruitless = 0usize;
        while above_low(self) {
            let flusher_gone =
                self.flusher_stop.load(Ordering::Acquire) || self.flusher.lock().is_none();
            if flusher_gone || fruitless > THROTTLE_GIVEUP_ROUNDS {
                // Progress guarantee: no (working) flusher means the
                // writer drains its own file synchronously, exactly the
                // pre-async behavior. Errors stay re-armed for gfsync.
                let _ = self.flush_dirty(blk, file);
                break;
            }
            self.waits.wait(Lane::now(blk), || !above_low(self));
            fruitless += 1;
        }
        // The stall costs virtual time too: resume no earlier than the
        // flusher's drain timestamp.
        Lane::wait_until(blk, self.dirty.flush_vtime.load(Ordering::Acquire));
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GOpenMode, GpufsConfig};
    use crate::testrig::{rig, run_block};
    use std::sync::atomic::Ordering;

    #[test]
    fn flusher_drains_dirty_pages_in_background() {
        let r = rig(1);
        r.fs.create("/bg", &[0u8; 16 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(8, 2);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/bg", GOpenMode::ReadWrite).unwrap();
            for page in 0..16u64 {
                mount
                    .write(blk, &fd, page * 4096, &[page as u8 + 1; 4096])
                    .unwrap();
            }
            // Wait (in real time) for the flusher to drain to the low
            // watermark without any gfsync from this block.
            let t0 = std::time::Instant::now();
            while mount.dirty.pages.load(Ordering::Acquire) > 2 {
                std::thread::sleep(std::time::Duration::from_micros(50));
                assert!(t0.elapsed().as_secs() < 10, "flusher never drained");
            }
            // gfsync now only has the residue to ship — and after it,
            // nothing dirty remains anywhere.
            mount.fsync(blk, &fd).unwrap();
            assert_eq!(mount.dirty.pages.load(Ordering::Acquire), 0);
            mount.close(blk, fd).unwrap();
        });
        assert!(
            mount.counters().flusher_passes.get() > 0,
            "background flusher did the draining"
        );
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
        // The flusher is a real thread: with a low mark well under the
        // high one it may drain as fast as a faulting writer dirties, and
        // whether the ledger ever reaches the high mark is luck. So make
        // the crossing certain instead: pages are faulted in first (a
        // write is then a memcpy, no RPC), and low = high - 1 keeps the
        // flusher idle until the very write that reaches the high mark —
        // the writer's next call, nanoseconds later, must find it there.
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
        // Every page the flusher gathered but had not confirmed must be
        // on the host by the time gfsync returns.
        let r = rig(1);
        r.fs.create("/drain", &[0u8; 24 * 4096]).unwrap();
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(6, 1);
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/drain", GOpenMode::ReadWrite).unwrap();
            for page in 0..24u64 {
                mount.write(blk, &fd, page * 4096, &[0x5C; 4096]).unwrap();
            }
            // No real-time wait: fsync races the flusher mid-drain.
            mount.fsync(blk, &fd).unwrap();
            let file = fd.file();
            assert_eq!(
                file.wb_inflight(),
                0,
                "fsync returned with batches in flight"
            );
            assert_eq!(mount.dirty.pages.load(Ordering::Acquire), 0);
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/drain", 0).unwrap();
        assert!(data.iter().all(|&b| b == 0x5C));
    }

    #[test]
    fn mount_drop_stops_and_joins_the_flusher() {
        let r = rig(1);
        let cfg = GpufsConfig::new(4096, 64 * 4096).with_async_writeback(8, 2);
        let mount = r.host.mount(0, cfg).unwrap();
        let stop = std::sync::Arc::clone(&mount.flusher_stop);
        assert!(mount.flusher.lock().is_some(), "flusher spawned");
        drop(mount);
        assert!(stop.load(Ordering::Acquire), "drop signalled the flusher");
    }

    #[test]
    fn synchronous_config_spawns_no_flusher() {
        let r = rig(1);
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        assert!(mount.flusher.lock().is_none());
        assert_eq!(mount.config.dirty_high_pages, 0);
    }
}
