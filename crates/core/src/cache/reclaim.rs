//! The reclaim layer: frame allocation, eviction, and discard
//! (paper §4.2).
//!
//! There is no daemon thread on the GPU: when the raw data array runs
//! dry, the *calling* threadblock reclaims frames, preferring closed
//! files, then open read-only files, then writable ones. Dirty victims
//! are written back through [`crate::cache::writeback`] before their
//! frames are reused.
//!
//! Within a file the victims are chosen by a bounded GCLOCK (see the
//! "Replacement order" section of [`crate::cache::radix`]): the sweep
//! resumes where the last one stopped, passes over a page that was hit
//! since — spending one of its references — and detaches the first
//! unpinned pages it finds at zero.

use std::sync::atomic::{fence, Ordering};

use gpusim::BlockCtx;
use hostfs::FsError;

use crate::cache::{FPage, FrameIdx, PageState};
use crate::config::GOpenMode;
use crate::error::{GpufsError, GpufsResult};
use crate::mount::GpuFsMount;
use crate::rpc::{MetaOp, Request};
use crate::table::GFile;

/// Consecutive *zero-progress* reclaim rounds before a frame allocation
/// gives up. Transient exhaustion — every frame momentarily pinned by
/// concurrent faults, a convoy the OS scheduler can stretch out under
/// load — resolves as soon as any pin drops, so only rounds that free
/// nothing count toward giving up; genuinely wedged caches (all frames
/// pinned indefinitely) still error out promptly: each fruitless round
/// waits on the mount's board for at most one quantum, about 0.2 s in
/// all.
const RECLAIM_ROUNDS: usize = 4096;

/// Frames reclaimed per paging pass; small to keep the hijacked caller's
/// detour short. The paper turns clock down as "variable-work"
/// replacement; this sweep is a clock whose work is bounded instead: the
/// hand stops at the batch-th victim, travels one revolution at most, and
/// a page can make it pass at most `REFERENCE_CAP` times per hit — in
/// practice a handful of slots examined per frame freed (the
/// `reclaim_scanned` / `pages_reclaimed` counters).
const RECLAIM_BATCH: usize = 8;

/// One page detached from its fpage for eviction: the fpage is
/// `Initializing` (blocking new pins) and `frame` still holds the data.
/// It borrows the fpage from the victim file's radix tree.
struct Detached<'f> {
    page_idx: u64,
    frame: FrameIdx,
    fp: &'f FPage,
}

impl GpuFsMount {
    /// Allocate a frame, reclaiming pages when the raw data array is full.
    pub(crate) fn alloc_frame(&self, blk: &mut BlockCtx<'_>) -> GpufsResult<FrameIdx> {
        let (frame, _) = self.alloc_frames_reclaiming(blk, false)?;
        Ok(frame)
    }

    /// Allocate a working/pristine frame pair **atomically**: either both
    /// frames or neither. Read-write faults need two frames, and grabbing
    /// them one at a time is a textbook hold-and-wait deadlock — with N
    /// concurrent faults against N frames, every fault holds its working
    /// frame while spinning for a pristine one and reclaim can free
    /// nothing, so all of them starve out to `CacheExhausted`. Releasing
    /// the first frame whenever the second is unavailable breaks the
    /// circular wait: some fault always completes and its pages become
    /// evictable.
    pub(crate) fn alloc_frame_pair(
        &self,
        blk: &mut BlockCtx<'_>,
    ) -> GpufsResult<(FrameIdx, FrameIdx)> {
        match self.alloc_frames_reclaiming(blk, true)? {
            (frame, Some(pristine)) => Ok((frame, pristine)),
            (frame, None) => {
                // Unreachable by construction (`pair == true` only returns
                // with both frames), but losing `frame` here would leak it.
                self.release_frame(blk.block_id(), frame);
                Err(GpufsError::CacheExhausted { requested: 2 })
            }
        }
    }

    fn alloc_frames_reclaiming(
        &self,
        blk: &mut BlockCtx<'_>,
        pair: bool,
    ) -> GpufsResult<(FrameIdx, Option<FrameIdx>)> {
        let mut fruitless = 0usize;
        while fruitless < RECLAIM_ROUNDS {
            let shard = blk.block_id();
            let tenant = self.tenant_of(blk.block_id());
            if let Some(first) = self.frames.alloc_owned(shard, tenant) {
                if !pair {
                    return Ok((first, None));
                }
                if let Some(second) = self.frames.alloc_owned(shard, tenant) {
                    return Ok((first, Some(second)));
                }
                // All-or-nothing: never hold one frame while waiting for
                // another (see `alloc_frame_pair`).
                self.release_frame(shard, first);
            }
            if self.reclaim(blk, RECLAIM_BATCH)? == 0 {
                fruitless += 1;
                // Give in-flight faults (e.g. a readahead batch whose
                // frames are claimed across a host RPC) real time to
                // publish and become evictable before giving up. A freed
                // frame or a published page ends the wait early; nothing
                // left to notify, and it ends after one quantum.
                self.waits.wait(blk.now(), || false);
            } else {
                // Progress was made (even if a concurrent fault won the
                // race to the freed frame): keep going.
                fruitless = 0;
            }
        }
        Err(GpufsError::CacheExhausted {
            requested: if pair { 2 } else { 1 },
        })
    }

    /// Best-effort frame allocation for readahead: one reclaim attempt,
    /// then give up. Readahead must never stall (or fail) the demand miss
    /// it rides on, so it degrades to a narrower batch instead of spinning
    /// on a loaded cache.
    pub(crate) fn alloc_frame_opportunistic(&self, blk: &mut BlockCtx<'_>) -> Option<FrameIdx> {
        let shard = blk.block_id();
        let tenant = self.tenant_of(blk.block_id());
        if let Some(frame) = self.frames.alloc_owned(shard, tenant) {
            return Some(frame);
        }
        // A write-back error here surfaces later on the demand path that
        // touches the dirty page; readahead just narrows.
        let _ = self.reclaim(blk, RECLAIM_BATCH);
        self.frames.alloc_owned(shard, tenant)
    }

    /// Reclaim up to `want` frames, preferring closed files, then open
    /// read-only files, then writable ones (paper §4.2). The dirty pages
    /// of each victim file are written back in batched `WritePages` RPCs
    /// (shared with `gfsync`, see [`crate::cache::writeback`]) rather
    /// than one round-trip per page.
    ///
    /// With tenant quotas configured, eviction is steered in two passes:
    /// the first detaches only pages charged to the *preferred* victim
    /// tenant — the over-quota caller itself, else the first over-quota
    /// tenant — so a hot tenant evicts its own pages before anyone
    /// else's; the second pass (only if the first came up short) is
    /// unrestricted, keeping exhaustion semantics identical to the
    /// unpartitioned arena.
    pub(crate) fn reclaim(&self, blk: &mut BlockCtx<'_>, want: usize) -> GpufsResult<usize> {
        let prefer = if self.frames.has_quotas() {
            let caller = self.tenant_of(blk.block_id());
            if self.frames.over_quota(caller) {
                Some(caller)
            } else {
                (0..self.frames.num_tenants()).find(|&t| self.frames.over_quota(t))
            }
        } else {
            None
        };
        let mut freed = 0usize;
        if prefer.is_some() {
            freed = self.reclaim_pass(blk, want, prefer)?;
            if freed >= want {
                return Ok(freed);
            }
        }
        Ok(freed + self.reclaim_pass(blk, want - freed, None)?)
    }

    /// One eviction sweep over the victim files; `owner` restricts
    /// detachment to frames charged to that tenant (see
    /// [`GpuFsMount::reclaim`]).
    fn reclaim_pass(
        &self,
        blk: &mut BlockCtx<'_>,
        want: usize,
        owner: Option<usize>,
    ) -> GpufsResult<usize> {
        let mut freed = 0usize;
        let mut victims = self.tables.closed_files();
        let closed_count = victims.len();
        victims.extend(self.tables.open_files_by_eviction_priority());
        for (i, victim) in victims.iter().enumerate() {
            // Detach up to `want - freed` evictable pages: each leaves its
            // fpage `Initializing` (blocking new pins) with the frame
            // still holding the data, exactly as single-page eviction did.
            let mut detached: Vec<Detached<'_>> = Vec::new();
            let owner_ok = |f: FrameIdx| {
                owner.is_none_or(|t| self.frames.pframe(f).tenant.load(Ordering::Relaxed) == t)
            };
            let (mut scanned, mut spared) = (0u64, 0u64);
            victim.tree().for_each_reclaim_candidate(|idx, fp| {
                scanned += 1;
                // Pinned pages and other tenants' pages are passed
                // untouched; a page hit since the hand last came by
                // spends one reference and stays.
                if Self::looks_evictable(fp, &owner_ok) {
                    if fp.spend_reference() {
                        spared += 1;
                    } else if let Some(frame) = Self::try_detach_page(fp, &owner_ok) {
                        detached.push(Detached {
                            page_idx: idx,
                            frame,
                            fp,
                        });
                    }
                }
                freed + detached.len() < want
            });
            self.count_for(blk.block_id(), |c| {
                c.reclaim_scanned.add(scanned);
                c.second_chances.add(spared);
            });
            if !detached.is_empty() {
                // Everything except read-only data is written back before
                // the frames are reused — including O_NOSYNC temporaries,
                // which the paper spills to the host only "to reclaim GPU
                // buffer cache space" (§3.2) — as one batched write-back.
                if victim.mode() != GOpenMode::ReadOnly {
                    let dirty: Vec<(u64, FrameIdx)> = detached
                        .iter()
                        .filter(|d| self.frames.pframe(d.frame).dirty.load(Ordering::Acquire))
                        .map(|d| (d.page_idx, d.frame))
                        .collect();
                    if !dirty.is_empty() {
                        if let Err(e) = self.writeback_frames(blk, victim, &dirty) {
                            // A temporary closed under the sweep took its
                            // host descriptor and its data with it: its
                            // pages are freed like any written-back page.
                            let discarded = victim.mode() == GOpenMode::Temp
                                && matches!(e, GpufsError::Host(FsError::BadDescriptor(_)));
                            if !discarded {
                                // Restore every detached page rather than
                                // lose data: already-shipped batches are
                                // clean and simply stay cached; the failed
                                // batch keeps its re-armed dirty flags.
                                for d in &detached {
                                    Self::reattach_page(d.fp, d.frame);
                                }
                                self.waits.notify_all();
                                return Err(e);
                            }
                        }
                    }
                }
                for d in &detached {
                    let shard = blk.block_id();
                    let pf = self.frames.pframe(d.frame);
                    if let Some(pristine) = pf.pristine_frame() {
                        self.retire_frame(shard, pristine);
                    }
                    self.retire_frame(shard, d.frame);
                    let fp = d.fp;
                    fp.lock();
                    fp.begin_update();
                    fp.set_state(PageState::Empty);
                    fp.end_update();
                    fp.unlock();
                    self.count_for(blk.block_id(), |c| c.pages_reclaimed.incr());
                    freed += 1;
                }
                self.waits.notify_all();
            }
            // A closed file drained of pages can release its host fd and
            // its table slot entirely.
            if i < closed_count && victim.refcount() == 0 {
                let mut resident = false;
                victim.tree().for_each_page(|_, fp| {
                    resident |= fp.state() != PageState::Empty;
                });
                if !resident && self.tables.remove_closed(victim) {
                    let _ = self.rpc(
                        blk,
                        Request::Meta(MetaOp::Close {
                            fd: victim.host_fd(),
                        }),
                    )?;
                    // Nothing of the file is cached here any more.
                    self.host_fs
                        .consistency()
                        .unregister_gpu_cache(victim.ino(), self.coherence_id);
                }
            }
            if freed >= want {
                break;
            }
        }
        Ok(freed)
    }

    /// The unlocked filter in front of [`Self::claim_unpinned`]: Ready,
    /// unpinned, and charged to an acceptable tenant. Racy — good enough
    /// to decide whether a page is the sweep's business at all (and so
    /// whether the hand may spend one of its references); the claim
    /// re-checks everything under the fpage lock.
    fn looks_evictable(fp: &FPage, owner_ok: &impl Fn(FrameIdx) -> bool) -> bool {
        fp.state() == PageState::Ready && fp.refs() == 0 && fp.frame().is_some_and(owner_ok)
    }

    /// Claim a Ready, unpinned page for an update that takes its frame
    /// away. On `Some(frame)` the fpage is locked with an update section
    /// open — new lock-free pins retry, and none validated before it (see
    /// [`FPage::begin_update_if_unpinned`]) — and the caller must finish
    /// with `end_update` + `unlock`. On `None` nothing is held. `owner_ok`
    /// filters by the frame's charged tenant (checked under the fpage
    /// lock, so the owner cannot change underneath a positive answer).
    fn claim_unpinned(fp: &FPage, owner_ok: &impl Fn(FrameIdx) -> bool) -> Option<FrameIdx> {
        if !Self::looks_evictable(fp, owner_ok) {
            return None;
        }
        fp.lock();
        // A Ready page always has a frame; treat a violation as
        // not-claimable rather than tearing the daemon down.
        let frame = (fp.state() == PageState::Ready)
            .then(|| fp.frame())
            .flatten()
            .filter(|&f| owner_ok(f));
        if frame.is_none() || !fp.begin_update_if_unpinned() {
            fp.unlock();
            return None;
        }
        frame
    }

    /// Try to detach one Ready, unpinned page from its frame: the fpage
    /// moves to `Initializing` (blocking new pins) and the frame — data
    /// intact — is returned for write-back and release.
    fn try_detach_page(fp: &FPage, owner_ok: &impl Fn(FrameIdx) -> bool) -> Option<FrameIdx> {
        let frame = Self::claim_unpinned(fp, owner_ok)?;
        fp.set_state(PageState::Initializing); // blocks new pins
        fp.set_frame(None);
        fp.end_update();
        fp.unlock();
        Some(frame)
    }

    /// Undo [`Self::try_detach_page`] after a failed write-back.
    fn reattach_page(fp: &FPage, frame: FrameIdx) {
        fp.lock();
        fp.begin_update();
        fp.set_frame(Some(frame));
        fp.set_state(PageState::Ready);
        fp.end_update();
        fp.unlock();
    }

    /// Drop a page without write-back (stale cache, unlink, temp close),
    /// retiring its frames into freelist shard `shard` — the caller's, so
    /// the frames it frees are the ones its next faults find. Pinned
    /// pages are skipped.
    pub(crate) fn try_discard_page(&self, shard: usize, fp: &FPage) -> bool {
        let Some(frame) = Self::claim_unpinned(fp, &|_| true) else {
            return false;
        };
        fp.set_frame(None);
        fp.set_state(PageState::Empty);
        fp.end_update();
        fp.unlock();
        let pf = self.frames.pframe(frame);
        if let Some(pristine) = pf.pristine_frame() {
            self.retire_frame(shard, pristine);
        }
        self.retire_frame(shard, frame);
        true
    }

    /// Discard every unpinned cached page of `file` and unregister this
    /// GPU from the file's consistency-layer cache registry (a caller
    /// that keeps a newer copy of the same inode cached re-registers).
    /// The frames land in freelist shard `shard` (the calling block's).
    pub(crate) fn discard_file_cache(&self, shard: usize, file: &GFile) {
        file.tree().for_each_page(|_, fp| {
            self.try_discard_page(shard, fp);
        });
        self.host_fs
            .consistency()
            .unregister_gpu_cache(file.ino(), self.coherence_id);
    }

    /// [`Self::discard_file_cache`] for a file that has left both file
    /// tables, so that only a live map can still reach it. A page such a
    /// map pins is skipped by the discard; [`Self::release_map_pin`]
    /// discards it when the map goes, or its frames would be lost for
    /// the mount's life.
    pub(crate) fn retire_file_cache(&self, shard: usize, file: &GFile) {
        file.retire();
        // Pairs with the fence in `release_map_pin`: either this discard
        // sees the map's unpin, or the map sees the file retired.
        fence(Ordering::SeqCst);
        self.discard_file_cache(shard, file);
    }

    /// Drop a map's pin on `fp`, a page of `file`. If the file was
    /// retired while the page was pinned, discard the page (a no-op while
    /// another map still pins it, or when the retiring discard already
    /// took it). A map belongs to no threadblock, so the frames go to
    /// freelist shard 0.
    pub(crate) fn release_map_pin(&self, file: &GFile, fp: &FPage) {
        fp.unpin();
        fence(Ordering::SeqCst);
        if file.is_retired() {
            self.try_discard_page(0, fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};

    use gpusim::{Gpu, GpuSpec};
    use hostfs::{HostFs, HostFsConfig};

    use crate::cache::radix::race_hook::{self, Point};
    use crate::cache::{FPage, PageState, RadixTree, Snapshot, FANOUT, REFERENCE_CAP};
    use crate::config::{GOpenMode, GpufsConfig};
    use crate::daemon::GpufsHost;
    use crate::mount::GpuFsMount;
    use crate::testrig::{rig, run_block};
    use gpusim::Grid;

    fn ready_page(tree: &RadixTree, frame: u32) -> &FPage {
        let fp = tree.get_or_insert(0);
        fp.lock();
        fp.begin_update();
        fp.set_frame(Some(frame));
        fp.set_state(PageState::Ready);
        fp.end_update();
        fp.unlock();
        fp
    }

    /// Run `parked` on a second thread until it reaches `point`, run
    /// `other` on this thread while it is parked there, then let it
    /// finish. Returns both results.
    fn interleave<A: Send, B>(
        point: Point,
        parked: impl FnOnce() -> A + Send,
        other: impl FnOnce() -> B,
    ) -> (A, B) {
        let (reached_tx, reached_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let t = s.spawn(move || {
                race_hook::set(move |at| {
                    if at == point {
                        reached_tx.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    }
                });
                parked()
            });
            reached_rx
                .recv()
                .expect("parked side never reached the point");
            let b = other();
            resume_tx.send(()).unwrap();
            (t.join().unwrap(), b)
        })
    }

    #[test]
    fn eviction_parked_mid_claim_excludes_a_lockfree_pin() {
        // The dirty-page loss: eviction used to read `refs == 0` and only
        // then bump the version, so a complete lock-free pin fitted in
        // between and the frame was recycled under it. With the version
        // bumped first, the pin that runs inside the window must retry.
        let tree = RadixTree::new();
        let fp = ready_page(&tree, 9);
        let (detached, pin) = interleave(
            Point::EvictBetweenBumpAndRefs,
            || GpuFsMount::try_detach_page(fp, &|_| true),
            || fp.try_pin_lockfree(),
        );
        assert_eq!(pin, Err(()), "a pin inside the window must not validate");
        assert_eq!(detached, Some(9), "nothing pinned the page: it detaches");
        assert_eq!(fp.refs(), 0);
        assert_eq!(fp.try_pin_lockfree(), Ok(Snapshot::Initializing));
    }

    #[test]
    fn pin_parked_before_its_recheck_is_seen_by_eviction() {
        // The mirror interleaving: the pinner has raised `refs` and is
        // parked before re-reading the version. Eviction (and discard,
        // same claim) must see the pin and abandon; the page stays whole.
        let tree = RadixTree::new();
        let fp = ready_page(&tree, 9);
        let (pin, detached) = interleave(
            Point::PinBetweenIncrAndRecheck,
            || fp.try_pin_lockfree(),
            || GpuFsMount::try_detach_page(fp, &|_| true),
        );
        assert_eq!(detached, None, "a pinned page is never detached");
        assert_eq!(pin, Ok(Snapshot::Pinned(9)), "the pin it saw stands");
        assert_eq!((fp.state(), fp.frame()), (PageState::Ready, Some(9)));
        // Past the cheap unlocked filter the claim itself refuses too: it
        // opens the update, sees the pin, and closes it again.
        fp.lock();
        assert!(!fp.begin_update_if_unpinned());
        fp.unlock();
        assert_eq!(fp.refs(), 1);
        fp.unpin();
        assert_eq!(GpuFsMount::try_detach_page(fp, &|_| true), Some(9));
    }

    /// Look at the fpage of `page` of the open file at `path`.
    fn with_fpage<R>(mount: &GpuFsMount, path: &str, page: u64, f: impl Fn(&FPage) -> R) -> R {
        let file = mount.tables.get_open(path).expect("file is open");
        f(file.tree().lookup(page).expect("leaf exists"))
    }

    fn resident(mount: &GpuFsMount, path: &str, page: u64) -> bool {
        with_fpage(mount, path, page, |fp| fp.state() == PageState::Ready)
    }

    fn references(mount: &GpuFsMount, path: &str, page: u64) -> u8 {
        with_fpage(mount, path, page, FPage::references)
    }

    #[test]
    fn a_hit_since_the_last_sweep_buys_a_second_chance() {
        let r = rig(1);
        r.fs.create("/two", &[7u8; 2 * 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::new(4096, 8 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/two", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 4096];
            mount.read(blk, &fd, 0, &mut buf).unwrap(); // fault page 0
            mount.read(blk, &fd, 4096, &mut buf).unwrap(); // fault page 1
            mount.read(blk, &fd, 0, &mut buf).unwrap(); // hit page 0
            assert_eq!(references(&mount, "/two", 0), 1, "the hit counts");
            assert_eq!(references(&mount, "/two", 1), 0, "the fault does not");
            // The hand meets page 0 first, and passes it.
            assert_eq!(mount.reclaim(blk, 1).unwrap(), 1);
            assert!(resident(&mount, "/two", 0), "the hit page survives");
            assert!(!resident(&mount, "/two", 1), "its cold neighbour goes");
            assert_eq!(references(&mount, "/two", 0), 0, "the chance is spent");
            assert_eq!(mount.reclaim(blk, 1).unwrap(), 1);
            assert!(!resident(&mount, "/two", 0));
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        assert_eq!(c.second_chances.get(), 1);
        assert_eq!(c.pages_reclaimed.get(), 2);
        // Slots 0 and 1, then the rest of the revolution to slot 0 again.
        assert_eq!(c.reclaim_scanned.get(), 2 + FANOUT as u64 - 1);
    }

    #[test]
    fn a_saturated_count_survives_three_passes_and_goes_on_the_fourth() {
        let r = rig(1);
        r.fs.create("/hot", &[7u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::new(4096, 8 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/hot", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 4096];
            for _ in 0..10 {
                mount.read(blk, &fd, 0, &mut buf).unwrap();
            }
            assert_eq!(references(&mount, "/hot", 0), REFERENCE_CAP, "saturates");
            for pass in 1..=REFERENCE_CAP {
                assert_eq!(
                    mount.reclaim(blk, 1).unwrap(),
                    0,
                    "pass {pass} frees nothing"
                );
                assert!(resident(&mount, "/hot", 0));
                assert_eq!(references(&mount, "/hot", 0), REFERENCE_CAP - pass);
            }
            assert_eq!(mount.reclaim(blk, 1).unwrap(), 1, "the fourth takes it");
            assert!(!resident(&mount, "/hot", 0));
            // The refault starts cold again.
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            assert_eq!(references(&mount, "/hot", 0), 0);
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(
            mount.counters().second_chances.get(),
            u64::from(REFERENCE_CAP)
        );
    }

    #[test]
    fn the_last_slot_of_a_full_leaf_is_evicted_within_two_revolutions() {
        // A sweep that restarts at slot 0 evicts the low slots of a leaf
        // over and over — as fast as they refault — and never reaches the
        // high ones. The hand moves on, so slot 63's turn comes.
        let r = rig(1);
        let pages = FANOUT as u64;
        r.fs.create("/leaf", &vec![7u8; FANOUT * 4096]).unwrap();
        let mount = r
            .host
            .mount(0, GpufsConfig::new(4096, (FANOUT + 16) * 4096))
            .unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/leaf", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 4096];
            for page in 0..pages {
                mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
            }
            let mut last_slot_evicted = false;
            for _ in 0..2 * FANOUT / 8 {
                assert_eq!(mount.reclaim(blk, 8).unwrap(), 8);
                last_slot_evicted |= !resident(&mount, "/leaf", pages - 1);
                // Refault whatever went, so the leaf is full again.
                for page in 0..pages {
                    if !resident(&mount, "/leaf", page) {
                        mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
                    }
                }
            }
            assert!(last_slot_evicted, "slot 63 never came under the hand");
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn an_owner_restricted_pass_leaves_other_tenants_pages_alone() {
        // Tenant 0 (block 0) is over its quota of 2; tenant 1 (block 1)
        // has hit its page. The pass restricted to tenant 0 frees that
        // tenant's pages and neither evicts tenant 1's page nor spends
        // its reference.
        let cfg = GpufsConfig::new(4096, 16 * 4096).with_tenant_quotas(vec![2, 8]);
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &cfg);
        fs.create("/a", &[1u8; 4 * 4096]).unwrap();
        fs.create("/b", &[2u8; 4096]).unwrap();
        let mount = host.mount(0, cfg).unwrap();
        mount.set_tenant(1, 1);
        gpu.launch_seeded(Grid::new(2, 32), 0, 1, |blk| {
            let mut buf = [0u8; 4096];
            if blk.block_id() == 1 {
                let fd = mount.open(blk, "/b", GOpenMode::ReadOnly).unwrap();
                mount.read(blk, &fd, 0, &mut buf).unwrap();
                mount.read(blk, &fd, 0, &mut buf).unwrap();
                std::mem::forget(fd); // stays open for block 0 to sweep
            }
        });
        assert_eq!(references(&mount, "/b", 0), 1);
        gpu.launch_seeded(Grid::new(1, 32), 0, 1, |blk| {
            let mut buf = [0u8; 4096];
            let fd = mount.open(blk, "/a", GOpenMode::ReadOnly).unwrap();
            for page in 0..4u64 {
                mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
            }
            assert!(mount.frames.over_quota(0));
            // Ask for more than tenant 0 holds, so the restricted pass
            // sweeps every file whichever order it takes them in.
            assert_eq!(mount.reclaim_pass(blk, 8, Some(0)).unwrap(), 4);
            mount.close(blk, fd).unwrap();
        });
        assert!(resident(&mount, "/b", 0), "tenant 1's page is not evicted");
        assert_eq!(references(&mount, "/b", 0), 1, "nor its reference spent");
        assert_eq!(mount.counters().second_chances.get(), 0);
    }

    #[test]
    fn discarded_frames_land_in_the_callers_shard() {
        // 32 frames over the 8 shards, 4 each. Block 3 fills a temp file with
        // 16 pages — its own shard's 4 frames plus 12 stolen from shards
        // 4, 5 and 6 — and closes it, which discards the cache. All 16
        // frames retire into shard 3 (not shard 0), and the ledger holds.
        let r = rig(1);
        let cfg = GpufsConfig::new(4096, 32 * 4096);
        let mount = r.host.mount(0, cfg).unwrap();
        r.gpus[0].launch_seeded(Grid::new(4, 32), 0, 1, |blk| {
            if blk.block_id() != 3 {
                return;
            }
            let fd = mount.open(blk, "/scratch.tmp", GOpenMode::Temp).unwrap();
            for page in 0..16u64 {
                mount.write(blk, &fd, page * 4096, &[9u8; 4096]).unwrap();
            }
            assert_eq!(mount.frames.free_frames(), 16);
            mount.close(blk, fd).unwrap();
        });
        let frames = &mount.frames;
        assert_eq!(frames.shard_free(3), 16, "the caller's shard takes them");
        assert_eq!(frames.shard_free(0), 4, "shard 0 is not a dumping ground");
        assert_eq!(frames.free_frames(), frames.num_frames(), "conservation");
        assert_eq!(frames.tenant_held(0), 0);
        assert_eq!(
            mount.dirty.pages.load(std::sync::atomic::Ordering::Acquire),
            0,
            "discarded dirty pages settle"
        );
    }

    #[test]
    fn temp_files_spill_and_refetch_under_pressure() {
        let r = rig(1);
        // 8 frames of 4K: a 64K temp file cannot stay resident.
        let mount = r.host.mount(0, GpufsConfig::new(4096, 8 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/tmp_scratch", GOpenMode::Temp).unwrap();
            for page in 0..16u64 {
                let payload = [page as u8 + 1; 4096];
                mount.write(blk, &fd, page * 4096, &payload).unwrap();
            }
            // Read everything back: early pages were evicted to the host
            // and must be refetched transparently.
            for page in 0..16u64 {
                let mut buf = [0u8; 4096];
                let n = mount.read(blk, &fd, page * 4096, &mut buf).unwrap();
                assert_eq!(n, 4096);
                assert!(
                    buf.iter().all(|&b| b == page as u8 + 1),
                    "page {page} corrupted after spill/refetch"
                );
            }
            mount.close(blk, fd).unwrap();
        });
        assert!(
            mount.counters().pages_reclaimed.get() > 0,
            "pressure must evict"
        );
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let r = rig(1);
        let mount = r.host.mount(0, GpufsConfig::new(4096, 4 * 4096)).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/big_out", GOpenMode::WriteOnce).unwrap();
            for page in 0..12u64 {
                mount.write(blk, &fd, page * 4096, &[0x5au8; 4096]).unwrap();
            }
            mount.fsync(blk, &fd).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let (data, _) = r.fs.read_whole("/big_out", 0).unwrap();
        assert_eq!(data.len(), 12 * 4096);
        assert!(data.iter().all(|&b| b == 0x5a));
        assert!(mount.counters().pages_reclaimed.get() > 0);
    }

    #[test]
    fn eviction_prefers_closed_files_over_open_ones() {
        let r = rig(1);
        r.fs.create("/closed.bin", &[1u8; 16 * 4096]).unwrap();
        r.fs.create("/open.bin", &[2u8; 16 * 4096]).unwrap();
        // 48 frames: both files fit, plus some slack to burn.
        let mount = r.host.mount(0, GpufsConfig::new(4096, 48 * 4096)).unwrap();
        r.gpus[0].launch_seeded(Grid::new(1, 32), 0, 1, |blk| {
            // Cache and close the victim-to-be.
            let fd = mount.open(blk, "/closed.bin", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; 16 * 4096];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.close(blk, fd).unwrap();
            // Cache the protected open file.
            let fd_open = mount.open(blk, "/open.bin", GOpenMode::ReadOnly).unwrap();
            mount.read(blk, &fd_open, 0, &mut buf).unwrap();
            let misses_open = mount.counters().misses.get();
            // Exert pressure with a third file until reclaim kicks in.
            let fd_t = mount.open(blk, "/burn.tmp", GOpenMode::Temp).unwrap();
            for page in 0..24u64 {
                mount.write(blk, &fd_t, page * 4096, &[9u8; 4096]).unwrap();
            }
            assert!(
                mount.counters().pages_reclaimed.get() > 0,
                "pressure reclaimed"
            );
            // Re-read the still-open file: every page must still be
            // resident (closed file was sacrificed first).
            let before = mount.counters().misses.get();
            mount.read(blk, &fd_open, 0, &mut buf).unwrap();
            assert_eq!(
                mount.counters().misses.get(),
                before,
                "open file's pages must survive while a closed file exists"
            );
            let _ = misses_open;
            mount.close(blk, fd_t).unwrap();
            mount.close(blk, fd_open).unwrap();
        });
    }
}
