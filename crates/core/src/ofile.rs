//! Per-file open state: `gopen`/`gclose` and their interaction with the
//! open and closed file tables (paper §3.2 and §4.1).
//!
//! This layer sits between the API entry points and the buffer cache. It
//! owns the lifecycle decisions the paper's semantics hinge on: open
//! coalescing (descriptors name files, not opens), closed-file-table
//! revival with generation-based lazy invalidation, and the deliberate
//! decoupling of `gclose` from write-back.

use std::sync::Arc;

use gpusim::BlockCtx;

use crate::api::GFd;
use crate::config::GOpenMode;
use crate::error::{GpufsError, GpufsResult};
use crate::mount::GpuFsMount;
use crate::rpc::{MetaOk, MetaOp, Request, RespOk};
use crate::table::GFile;

impl GpuFsMount {
    /// `gopen`: open `path` in `mode`, coalescing with concurrent and
    /// prior opens of the same file.
    ///
    /// The first open forwards to the host; reopens of a file parked in
    /// the closed-file table revive its cached pages when the host's
    /// consistency generation still matches (lazy invalidation, §4.4).
    ///
    /// # Errors
    ///
    /// Fails if the host rejects the open, or if the file is already open
    /// on this GPU in a different mode.
    pub fn open(&self, blk: &mut BlockCtx<'_>, path: &str, mode: GOpenMode) -> GpufsResult<GFd> {
        blk.advance(self.timings.gpufs_page_op_ns);
        let plock = self.tables.path_lock(path);
        let r = {
            let _guard = plock.lock();
            self.open_locked(blk, path, mode)
        };
        drop(plock);
        self.tables.gc_path_lock(path);
        r
    }

    fn open_locked(&self, blk: &mut BlockCtx<'_>, path: &str, mode: GOpenMode) -> GpufsResult<GFd> {
        if let Some(f) = self.tables.get_open(path) {
            if f.mode() != mode {
                return Err(GpufsError::InvalidMode(
                    "file already open in a different mode",
                ));
            }
            f.add_ref();
            return Ok(GFd { file: f });
        }

        // Check the closed-file table *first* (paper §4.1): a parked cache
        // whose consistency generation still matches the host revives with
        // only a cheap staleness probe — crucially, no re-open and no
        // re-truncation of files other blocks just produced.
        if !self.config.disable_closed_table {
            if let Some(ino) = self.tables.closed_ino_for_path(path) {
                if let Some(parked) = self.tables.take_closed(ino) {
                    let fresh = if parked.mode() == mode {
                        // One read of the write-shared generation table: a
                        // PCIe access, not a daemon RPC. The decision is
                        // the *registry's* (the WRAPFS character-device
                        // query of §4.4), not the parked file's own
                        // belief: this GPU must still be registered, at
                        // exactly the current generation — so a foreign
                        // GPU's write-back (which bumped the generation)
                        // or a reclaim that drained and unregistered this
                        // cache behind the parked handle both refuse
                        // revival, even when the GPU-local generation
                        // happens to look current.
                        blk.advance(self.timings.rpc_complete_ns);
                        let cons = self.host_fs.consistency();
                        let current = cons.generation(ino);
                        cons.registered_generation(ino, self.coherence_id) == Some(current)
                            && parked.generation() == current
                    } else {
                        false
                    };
                    if fresh {
                        parked.revive();
                        self.tables.insert_open(Arc::clone(&parked));
                        return Ok(GFd { file: parked });
                    }
                    // Stale or mode-incompatible: hand it to the full-open
                    // path below, which flushes and discards it.
                    let _ = self.tables.park_closed(parked);
                }
            }
        }

        let create = matches!(mode, GOpenMode::WriteOnce | GOpenMode::Temp);
        // O_GWRONCE "creates a new write-only file" but must NOT truncate
        // an existing one: several GPUs co-producing disjoint ranges of
        // one output file is the paper's §3.1 merge case, and a truncating
        // reopen would destroy ranges other GPUs already synced.
        let resp = self.rpc(
            blk,
            Request::Meta(MetaOp::Open {
                path: path.to_owned(),
                write: mode.writable(),
                create,
                truncate: false,
            }),
        )?;
        let RespOk::Meta(MetaOk::Opened {
            fd: host_fd,
            ino,
            size,
            generation,
        }) = resp
        else {
            unreachable!("open must answer Opened");
        };

        if let Some(parked) = self.tables.take_closed(ino) {
            if parked.generation() == generation && parked.mode() == mode {
                // Cache revival: keep the parked file (and its host fd),
                // release the descriptor the probe open just created.
                // Re-register with the consistency layer — this path also
                // repairs a cache whose registration was dropped (e.g. by
                // drained-closed-file reclaim) while its pages survived.
                let _ = self.rpc(blk, Request::Meta(MetaOp::Close { fd: host_fd }))?;
                parked.revive();
                self.tables.insert_open(Arc::clone(&parked));
                self.host_fs
                    .consistency()
                    .register_gpu_cache(ino, self.coherence_id, generation);
                return Ok(GFd { file: parked });
            }
            // Stale (or mode-incompatible) cached copy: drop it lazily,
            // exactly at reopen time. Local writes that were never synced
            // are flushed first through the byte diff, so they merge with
            // whatever changed the file.
            self.flush_dirty(blk, &parked)?;
            self.retire_file_cache(blk.block_id(), &parked);
            let _ = self.rpc(
                blk,
                Request::Meta(MetaOp::Close {
                    fd: parked.host_fd(),
                }),
            )?;
        }

        let file = Arc::new(GFile::new(
            path.to_owned(),
            mode,
            host_fd,
            ino,
            size,
            generation,
        ));
        self.tables.insert_open(Arc::clone(&file));
        // This GPU now caches the file at `generation`: register with the
        // consistency layer so reopen-time staleness probes (and
        // multi-GPU audits via `cachers`) see it.
        self.host_fs
            .consistency()
            .register_gpu_cache(ino, self.coherence_id, generation);
        Ok(GFd { file })
    }

    /// `gclose`: drop this threadblock's reference. The last close parks
    /// the file in the closed-file table **without** writing anything
    /// back — synchronization is decoupled from close (paper §3.2) —
    /// except `O_NOSYNC` temporaries, whose cache is discarded.
    ///
    /// # Errors
    ///
    /// Fails only if a required host interaction fails (temp-file close).
    pub fn close(&self, blk: &mut BlockCtx<'_>, fd: GFd) -> GpufsResult<()> {
        blk.advance(self.timings.gpufs_page_op_ns);
        let file = fd.file;
        if !file.drop_ref() {
            return Ok(());
        }
        let plock = self.tables.path_lock(file.path());
        let r = {
            let _guard = plock.lock();
            self.close_locked(blk, &file)
        };
        drop(plock);
        self.tables.gc_path_lock(file.path());
        r
    }

    fn close_locked(&self, blk: &mut BlockCtx<'_>, file: &Arc<GFile>) -> GpufsResult<()> {
        let file = Arc::clone(file);
        if file.refcount() > 0 {
            return Ok(()); // a concurrent gopen revived it first
        }
        if !self.tables.remove_open(&file) {
            return Ok(()); // already superseded
        }
        if file.mode() == GOpenMode::Temp {
            self.retire_file_cache(blk.block_id(), &file);
            let _ = self.rpc(blk, Request::Meta(MetaOp::Close { fd: file.host_fd() }))?;
            return Ok(());
        }
        if self.config.sync_on_close {
            // POSIX-close ablation: propagate everything now, paying the
            // write-back storm the paper's decoupling avoids.
            self.flush_dirty(blk, &file)?;
        }
        if self.config.disable_closed_table {
            // No-closed-table ablation: the cache dies with the open.
            self.flush_dirty(blk, &file)?;
            self.retire_file_cache(blk.block_id(), &file);
            let _ = self.rpc(blk, Request::Meta(MetaOp::Close { fd: file.host_fd() }))?;
            return Ok(());
        }
        // Nothing else of the inode is parked: every park runs under the
        // path lock, a full open first takes the inode's parked copy, and
        // inode numbers are never reused.
        let displaced = self.tables.park_closed(Arc::clone(&file));
        debug_assert!(
            displaced.is_none_or(|d| Arc::ptr_eq(&d, &file)),
            "a close displaced another parked copy of its inode"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpufsConfig;
    use crate::testrig::{rig, run_block};
    use gpusim::Grid;

    #[test]
    fn closed_file_table_revives_cache_without_host_reads() {
        let r = rig(1);
        r.fs.create("/f", &[7u8; 8192]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/f", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 8192];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let h2d_before = r.host.stats().bytes_h2d.get();
        let misses_before = mount.counters().misses.get();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/f", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 8192];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 7));
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(
            r.host.stats().bytes_h2d.get(),
            h2d_before,
            "revived: no refetch"
        );
        assert_eq!(
            mount.counters().misses.get(),
            misses_before,
            "all hits after revival"
        );
    }

    #[test]
    fn host_write_invalidates_closed_cache_lazily() {
        let r = rig(1);
        r.fs.create("/f", &[1u8; 4096]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/f", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 16];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.close(blk, fd).unwrap();
        });
        // A CPU process rewrites the file (bumps the generation).
        let (hfd, t) = r.fs.open("/f", hostfs::OpenFlags::read_write(), 0).unwrap();
        r.fs.pwrite(hfd, 0, &[2u8; 4096], t).unwrap();
        r.fs.close(hfd).unwrap();
        // Reopen on the GPU: stale cache must be dropped, fresh data read.
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/f", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 16];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == 2),
                "stale page served after host write"
            );
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn consistency_registry_tracks_multi_mount_cachers() {
        // Two GPUs mount one host: the WRAPFS-like registry must track
        // exactly which GPUs cache the file, at which generation, across
        // open → host write → stale reopen → discard.
        let r = rig(2);
        r.fs.create("/audit", &[7u8; 4096]).unwrap();
        let ino = r.fs.ino_of("/audit").unwrap();
        let m0 = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        let m1 = r.host.mount(1, GpufsConfig::small_test()).unwrap();
        assert!(r.fs.consistency().cachers(ino).is_empty());
        let touch = |mount: &std::sync::Arc<crate::mount::GpuFsMount>,
                     gpu: &std::sync::Arc<gpusim::Gpu>| {
            let mount = std::sync::Arc::clone(mount);
            gpu.launch(gpusim::Grid::new(1, 32), 0, move |blk| {
                let fd = mount.open(blk, "/audit", GOpenMode::ReadOnly).unwrap();
                let mut buf = [0u8; 64];
                mount.read(blk, &fd, 0, &mut buf).unwrap();
                mount.close(blk, fd).unwrap();
            });
        };
        touch(&m0, &r.gpus[0]);
        touch(&m1, &r.gpus[1]);
        assert_eq!(
            r.fs.consistency().cachers(ino),
            [0, 1].into_iter().collect(),
            "both GPUs hold cached (parked) copies"
        );
        assert!(!r.fs.consistency().is_stale(ino, 0));
        assert!(!r.fs.consistency().is_stale(ino, 1));

        // A host write lazily invalidates both registered copies.
        let (hfd, t) =
            r.fs.open("/audit", hostfs::OpenFlags::read_write(), 0)
                .unwrap();
        r.fs.pwrite(hfd, 0, &[9u8; 64], t).unwrap();
        r.fs.close(hfd).unwrap();
        assert!(r.fs.consistency().is_stale(ino, 0));
        assert!(r.fs.consistency().is_stale(ino, 1));

        // GPU 0 reopens: the stale cache is dropped and refetched, and
        // its registration moves to the new generation; GPU 1's parked
        // copy stays registered — and stale — until *it* reopens.
        touch(&m0, &r.gpus[0]);
        assert_eq!(
            r.fs.consistency().cachers(ino),
            [0, 1].into_iter().collect()
        );
        assert!(!r.fs.consistency().is_stale(ino, 0), "refetched fresh");
        assert!(r.fs.consistency().is_stale(ino, 1), "still lazily stale");

        // Unlink discards GPU 0's cache outright: it unregisters.
        r.gpus[0].launch(gpusim::Grid::new(1, 32), 0, {
            let m0 = std::sync::Arc::clone(&m0);
            move |blk| m0.unlink(blk, "/audit").unwrap()
        });
        assert!(
            !r.fs.consistency().cachers(ino).contains(&0),
            "discard unregisters the cacher"
        );
        drop(m1);
    }

    #[test]
    fn revival_probe_is_decided_by_the_registry_not_local_state() {
        // A parked cache whose consistency registration vanished (as
        // drained-closed-file reclaim does) must NOT revive on the cheap
        // generation probe alone: the registry no longer vouches for this
        // GPU. The reopen takes the full-open path — one host open — and
        // repairs the registration; the surviving pages still revive, so
        // nothing is refetched.
        let r = rig(1);
        r.fs.create("/reg", &[4u8; 8192]).unwrap();
        let ino = r.fs.ino_of("/reg").unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/reg", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 8192];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.close(blk, fd).unwrap();
        });
        let gen = r.fs.consistency().generation(ino);
        assert_eq!(r.fs.consistency().registered_generation(ino, 0), Some(gen));
        // The registration disappears behind the parked handle's back.
        r.fs.consistency().unregister_gpu_cache(ino, 0);
        let opens_before = r.host.stats().opens.get();
        let h2d_before = r.host.stats().bytes_h2d.get();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/reg", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 8192];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 4));
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(
            r.host.stats().opens.get(),
            opens_before + 1,
            "an unregistered cache must re-probe through a host open"
        );
        assert_eq!(
            r.host.stats().bytes_h2d.get(),
            h2d_before,
            "the surviving pages still revive: nothing refetched"
        );
        assert_eq!(
            r.fs.consistency().registered_generation(ino, 0),
            Some(gen),
            "the reopen repaired the registration"
        );
    }

    #[test]
    fn conflicting_open_modes_error() {
        let r = rig(1);
        r.fs.create("/c", b"x").unwrap();
        let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/c", GOpenMode::ReadOnly).unwrap();
            assert!(matches!(
                mount.open(blk, "/c", GOpenMode::ReadWrite),
                Err(GpufsError::InvalidMode(_))
            ));
            mount.close(blk, fd).unwrap();
        });
    }

    #[test]
    fn many_blocks_share_one_descriptor_and_refcount() {
        let r = rig(1);
        r.fs.create("/many", &[1u8; 65536]).unwrap();
        let mount = r.host.mount(0, GpufsConfig::new(4096, 64 * 4096)).unwrap();
        // 32 blocks open/read/close the same file concurrently.
        r.gpus[0].launch(Grid::new(32, 64), 0, |blk| {
            let fd = mount.open(blk, "/many", GOpenMode::ReadOnly).unwrap();
            let off = (blk.block_id() as u64 * 2048) % 65536;
            let mut buf = [0u8; 2048];
            let n = mount.read(blk, &fd, off, &mut buf).unwrap();
            assert_eq!(n, 2048);
            assert!(buf.iter().all(|&b| b == 1));
            mount.close(blk, fd).unwrap();
        });
        // All refs dropped: exactly one host open happened (coalescing),
        // unless close raced a reopen (allowed), in which case opens are
        // still far below the 32 a POSIX-per-thread model would issue.
        assert!(
            r.host.stats().opens.get() <= 4,
            "opens = {}",
            r.host.stats().opens.get()
        );
        assert!(mount.counters().lockfree_accesses.get() > 0);
    }

    #[test]
    fn ablation_sync_on_close_writes_back_eagerly() {
        let r = rig(1);
        r.fs.create("/posix.out", &[0u8; 64]).unwrap();
        let cfg = GpufsConfig {
            sync_on_close: true,
            ..GpufsConfig::small_test()
        };
        let mount = r.host.mount(0, cfg).unwrap();
        run_block(&r, |blk| {
            let fd = mount.open(blk, "/posix.out", GOpenMode::ReadWrite).unwrap();
            mount.write(blk, &fd, 0, b"eager").unwrap();
            mount.close(blk, fd).unwrap(); // no gfsync!
        });
        let (data, _) = r.fs.read_whole("/posix.out", 0).unwrap();
        assert_eq!(&data[..5], b"eager", "POSIX ablation must sync on close");
    }

    #[test]
    fn ablation_disable_closed_table_refetches() {
        let r = rig(1);
        r.fs.create("/nct.bin", &[3u8; 8192]).unwrap();
        let cfg = GpufsConfig {
            disable_closed_table: true,
            ..GpufsConfig::small_test()
        };
        let mount = r.host.mount(0, cfg).unwrap();
        let run = |start| {
            r.gpus[0].launch(Grid::new(1, 32), start, |blk| {
                let fd = mount.open(blk, "/nct.bin", GOpenMode::ReadOnly).unwrap();
                let mut buf = [0u8; 8192];
                mount.read(blk, &fd, 0, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 3));
                mount.close(blk, fd).unwrap();
            })
        };
        let k1 = run(0);
        let h2d = r.host.stats().bytes_h2d.get();
        run(k1.end);
        assert!(
            r.host.stats().bytes_h2d.get() > h2d,
            "without the closed-file table the reopen must refetch"
        );
    }

    /// A block that joins another block's open (`open_locked` finds the
    /// file in the open table) returns at its own virtual clock, so it
    /// can issue `ReadPages` on a host fd before, in virtual time, the
    /// host has opened it. Passes once a coalesced `gopen` waits until
    /// the open it joined completed; until then the joiners return after
    /// one `gpufs_page_op_ns` (3.5 µs) while the forwarded open takes
    /// 14 µs.
    #[test]
    #[ignore = "known program defect: a coalesced gopen returns before the open it joined has completed"]
    fn a_coalesced_open_returns_no_earlier_than_the_open_it_joined() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Eight blocks, one per MP slot of the small GPU, open one path at
        // virtual time 0 and hold their descriptors until all have
        // opened, so one block forwards the open and seven join it. Each
        // block is its own tenant, so the daemon's per-tenant sheets name
        // the one that forwarded.
        const BLOCKS: usize = 8;
        let config = GpufsConfig::small_test().with_tenant_quotas(vec![0; BLOCKS]);
        let fs = Arc::new(hostfs::HostFs::new(hostfs::HostFsConfig::default()));
        fs.create("/joined", &[5u8; 4096]).unwrap();
        let gpu = Arc::new(gpusim::Gpu::new(0, gpusim::GpuSpec::small_test()));
        assert_eq!(
            gpu.spec().concurrent_blocks(),
            BLOCKS,
            "every block resident"
        );
        let host = crate::GpufsHost::with_config(fs, vec![Arc::clone(&gpu)], &config);
        let mount = host.mount(0, config).unwrap();
        for b in 0..BLOCKS {
            mount.set_tenant(b, b);
        }
        let opened: Vec<AtomicU64> = (0..BLOCKS).map(|_| AtomicU64::new(0)).collect();
        let all_open = std::sync::Barrier::new(BLOCKS);
        gpu.launch(Grid::new(BLOCKS, 32), 0, |blk| {
            let fd = mount.open(blk, "/joined", GOpenMode::ReadOnly).unwrap();
            opened[blk.block_id()].store(blk.now(), Ordering::Relaxed);
            all_open.wait();
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(
            host.stats().opens.get(),
            1,
            "one open forwarded, the rest joined"
        );
        let forwarder = (0..BLOCKS)
            .find(|&t| host.stats_for_tenant(t).opens.get() == 1)
            .unwrap();
        let done = opened[forwarder].load(Ordering::Relaxed);
        for (b, at) in opened.iter().enumerate() {
            let at = at.load(Ordering::Relaxed);
            assert!(
                at >= done,
                "block {b}'s gopen returned at {at} ns, before block {forwarder}'s \
                 forwarded open completed at {done} ns"
            );
        }
    }
}
