//! Cross-GPU consistency-model tests: the locality-optimized weak
//! consistency of paper §3.1 — local reads after fetch, propagation only
//! on explicit sync, visibility to other GPUs only on reopen — plus the
//! K-GPU randomized close-to-open property over the cluster layer.

use std::sync::Arc;

use gpufs::cluster::{CoherenceOp, FleetBuilder, FleetView, HostFleet};
use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};
use proptest::prelude::*;

fn rig(n_gpus: usize) -> (Arc<HostFs>, GpufsHost, Vec<Arc<Gpu>>) {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let gpus: Vec<Arc<Gpu>> = (0..n_gpus)
        .map(|i| Arc::new(Gpu::new(i, GpuSpec::small_test())))
        .collect();
    let host = GpufsHost::new(Arc::clone(&fs), gpus.clone());
    (fs, host, gpus)
}

#[test]
fn writes_become_visible_to_other_gpus_only_on_reopen() {
    let (fs, host, gpus) = rig(2);
    fs.create("/wc.dat", &[0u8; 4096]).unwrap();
    let m0 = host.mount(0, GpufsConfig::small_test()).unwrap();
    let m1 = host.mount(1, GpufsConfig::small_test()).unwrap();

    // GPU 1 caches the original content.
    let k_read = gpus[1].launch(Grid::new(1, 32), 0, |blk| {
        let fd = m1.open(blk, "/wc.dat", GOpenMode::ReadOnly).unwrap();
        let mut b = [0u8; 16];
        m1.read(blk, &fd, 0, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
        m1.close(blk, fd).unwrap();
    });

    // GPU 0 writes and synchronizes.
    let k_write = gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = m0.open(blk, "/wc.dat", GOpenMode::ReadWrite).unwrap();
        m0.write(blk, &fd, 0, &[7u8; 16]).unwrap();
        m0.fsync(blk, &fd).unwrap();
        m0.close(blk, fd).unwrap();
    });

    // GPU 1 reopens: lazy invalidation must surface GPU 0's writes.
    gpus[1].launch(Grid::new(1, 32), k_read.end.max(k_write.end), |blk| {
        let fd = m1.open(blk, "/wc.dat", GOpenMode::ReadOnly).unwrap();
        let mut b = [0u8; 16];
        m1.read(blk, &fd, 0, &mut b).unwrap();
        assert!(
            b.iter().all(|&x| x == 7),
            "reopen after foreign sync must see the new content"
        );
        m1.close(blk, fd).unwrap();
    });
}

#[test]
fn unsynced_writes_stay_invisible_across_gpus() {
    let (fs, host, gpus) = rig(2);
    fs.create("/priv.dat", &[1u8; 1024]).unwrap();
    let m0 = host.mount(0, GpufsConfig::small_test()).unwrap();
    let m1 = host.mount(1, GpufsConfig::small_test()).unwrap();

    // GPU 0 writes but never syncs (close does not propagate, §3.2).
    let k0 = gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = m0.open(blk, "/priv.dat", GOpenMode::ReadWrite).unwrap();
        m0.write(blk, &fd, 0, &[9u8; 1024]).unwrap();
        m0.close(blk, fd).unwrap();
    });

    gpus[1].launch(Grid::new(1, 32), k0.end, |blk| {
        let fd = m1.open(blk, "/priv.dat", GOpenMode::ReadOnly).unwrap();
        let mut b = [0u8; 1024];
        m1.read(blk, &fd, 0, &mut b).unwrap();
        assert!(
            b.iter().all(|&x| x == 1),
            "unsynced foreign writes must not be visible"
        );
        m1.close(blk, fd).unwrap();
    });

    // The writer's own cache still sees its writes on reopen (revival).
    gpus[0].launch(Grid::new(1, 32), k0.end, |blk| {
        let fd = m0.open(blk, "/priv.dat", GOpenMode::ReadWrite).unwrap();
        let mut b = [0u8; 1024];
        m0.read(blk, &fd, 0, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 9), "own writes must survive reopen");
        m0.close(blk, fd).unwrap();
    });
}

#[test]
fn two_gpus_produce_one_write_once_file() {
    // The paper's "concurrent non-overlapping writes" common case: a
    // parallel task on several GPUs producing disjoint ranges of one
    // output file under O_GWRONCE.
    let (fs, host, gpus) = rig(2);
    let m: Vec<_> = (0..2)
        .map(|g| host.mount(g, GpufsConfig::new(4 << 10, 256 << 10)).unwrap())
        .collect();

    std::thread::scope(|s| {
        for g in 0..2usize {
            let mount = Arc::clone(&m[g]);
            let gpu = Arc::clone(&gpus[g]);
            s.spawn(move || {
                gpu.launch(Grid::new(4, 32), 0, |blk| {
                    let fd = mount
                        .open(blk, "/produced.out", GOpenMode::WriteOnce)
                        .unwrap();
                    let lane = (g * 4 + blk.block_id()) as u64;
                    let payload = vec![lane as u8 + 1; 1500];
                    mount.write(blk, &fd, lane * 1500, &payload).unwrap();
                    mount.fsync(blk, &fd).unwrap();
                    mount.close(blk, fd).unwrap();
                });
            });
        }
    });

    let (data, _) = fs.read_whole("/produced.out", 0).unwrap();
    assert_eq!(data.len(), 8 * 1500);
    for lane in 0..8usize {
        assert!(
            data[lane * 1500..(lane + 1) * 1500]
                .iter()
                .all(|&b| b == lane as u8 + 1),
            "lane {lane} merged incorrectly"
        );
    }
}

/// The close-to-open property both randomized schedules check, over any
/// [`FleetView`]: `steps` become a schedule of publications (`true`) and
/// reopens on the fleet's GPUs, every reopen must observe the latest
/// closed tag, and the registry audit may track neither a coherence id
/// outside the fleet nor a generation from the future.
fn close_to_open_holds<F: FleetView>(
    fleet: &F,
    path: &str,
    steps: &[(bool, prop::sample::Index)],
) -> TestCaseResult {
    let k = fleet.len();
    let mut tag = 0u64;
    let ops: Vec<CoherenceOp> = steps
        .iter()
        .map(|&(write, ref gpu)| {
            let gpu = gpu.index(k);
            if write {
                tag += 1;
                CoherenceOp::WriteClose { gpu, tag }
            } else {
                CoherenceOp::OpenCheck { gpu }
            }
        })
        .collect();
    let report = fleet
        .run_close_to_open_schedule(path, &ops)
        .expect("schedule runs clean");
    prop_assert_eq!(
        report.checks,
        ops.iter()
            .filter(|op| matches!(op, CoherenceOp::OpenCheck { .. }))
            .count()
    );
    prop_assert!(
        report.mismatches.is_empty(),
        "close-to-open violated: {:?} under schedule {:?}",
        report.mismatches,
        ops
    );
    for file in fleet.coherence_audit() {
        for &(cid, gen) in &file.cachers {
            prop_assert!(cid < k);
            prop_assert!(gen <= file.generation);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The §4.4 close-to-open property at fleet scale: K ≥ 4 GPUs
    /// interleave open→write→close→reopen on one shared file under a
    /// *randomized* schedule, and every reopen must observe the latest
    /// closed generation — whichever GPU wrote it, however the writers
    /// and readers alternate. Extends PR 4's deterministic 2-GPU walk.
    #[test]
    fn k_gpus_randomized_close_to_open_schedules(
        k in 4usize..7,
        steps in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 6..24),
    ) {
        let fleet = FleetBuilder::new(k)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::small_test())
            .build()
            .expect("fleet");
        close_to_open_holds(&fleet, "/prop_c2o", &steps)?;
    }

    /// The same close-to-open property *across hosts*: M×N GPUs behind
    /// per-host proxies (warm host page caches, non-zero network link)
    /// interleave open→write→close→reopen on one file served by a single
    /// storage server. Every reopen must observe the latest closed tag
    /// even when writer and reader sit on different hosts and the
    /// reader's host cache still holds the stale generation — and any
    /// invalidation the host caches perform must be *lazy*: entries die
    /// only when a later-generation read touches them, never by
    /// broadcast at publication time.
    #[test]
    fn cross_host_randomized_close_to_open_schedules(
        hosts in 2usize..4,
        gpus_per_host in 1usize..3,
        cached in any::<bool>(),
        steps in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 6..20),
    ) {
        let fleet = HostFleet::builder(hosts, gpus_per_host)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::small_test())
            .host_cache_pages(if cached { 64 } else { 0 })
            .build()
            .expect("host fleet");
        close_to_open_holds(&fleet, "/prop_xhost", &steps)?;
        // Lazy, never eager: a host cache entry is only ever invalidated
        // by a read that found it stale, so the lazy-invalidation count
        // can never exceed the misses that re-fetched (every
        // invalidation immediately becomes a miss). With the cache
        // disabled nothing is ever counted at all.
        for h in 0..hosts {
            let stats = fleet.proxy(h).cache().stats();
            if cached {
                prop_assert!(stats.lazy_invalidations.get() <= stats.misses.get());
            } else {
                prop_assert_eq!(stats.hits.get() + stats.misses.get(), 0);
            }
        }
    }
}

#[test]
fn generation_counters_line_up_with_registry() {
    let (fs, host, gpus) = rig(1);
    let ino = fs.create("/gen.dat", &[0u8; 64]).unwrap();
    let mount = host.mount(0, GpufsConfig::small_test()).unwrap();
    let g0 = fs.consistency().generation(ino);
    gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = mount.open(blk, "/gen.dat", GOpenMode::ReadWrite).unwrap();
        mount.write(blk, &fd, 0, &[5u8; 8]).unwrap();
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();
    });
    let g1 = fs.consistency().generation(ino);
    assert!(
        g1 > g0,
        "open-for-write and write-back must bump the generation"
    );
    // A further kernel that only reads does not bump it.
    gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = mount.open(blk, "/gen.dat", GOpenMode::ReadOnly).unwrap();
        let mut b = [0u8; 8];
        mount.read(blk, &fd, 0, &mut b).unwrap();
        assert_eq!(b, [5u8; 8]);
        mount.close(blk, fd).unwrap();
    });
    assert_eq!(fs.consistency().generation(ino), g1);
}
