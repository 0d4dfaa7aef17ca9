//! End-to-end integration tests spanning all crates: GPU kernels doing
//! real file work through GPUfs against the host substrate, exercising
//! the consistency model, multi-GPU sharing, durability, and paging.

use std::sync::Arc;

use gpufs::{GOpenMode, GpuFsMount, GpufsConfig, GpufsHost};
use gpusim::{launch_fleet, BlockCtx, Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig, OpenFlags};

struct Rig {
    fs: Arc<HostFs>,
    host: GpufsHost,
    gpus: Vec<Arc<Gpu>>,
}

fn rig(n_gpus: usize) -> Rig {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let gpus: Vec<Arc<Gpu>> = (0..n_gpus)
        .map(|i| Arc::new(Gpu::new(i, GpuSpec::small_test())))
        .collect();
    let host = GpufsHost::new(Arc::clone(&fs), gpus.clone());
    Rig { fs, host, gpus }
}

#[test]
fn gpu_processing_pipeline_composes_through_files() {
    // Stage 1 kernel writes a file; stage 2 kernel (a separate launch)
    // reads it back through the buffer cache — the "composition through
    // the file system" the paper's intro motivates.
    let r = rig(1);
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();

    let s1 = r.gpus[0].launch(Grid::new(4, 32), 0, |blk| {
        let fd = mount
            .open(blk, "/stage1.out", GOpenMode::WriteOnce)
            .unwrap();
        let data = vec![blk.block_id() as u8 + 1; 512];
        mount
            .write(blk, &fd, blk.block_id() as u64 * 512, &data)
            .unwrap();
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();
    });

    r.gpus[0].launch(Grid::new(4, 32), s1.end, |blk| {
        let fd = mount.open(blk, "/stage1.out", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; 512];
        let off = blk.block_id() as u64 * 512;
        assert_eq!(mount.read(blk, &fd, off, &mut buf).unwrap(), 512);
        assert!(buf.iter().all(|&b| b == blk.block_id() as u8 + 1));
        mount.close(blk, fd).unwrap();
    });
    // The host also sees the composed result (stage 1 synced it).
    let (data, _) = r.fs.read_whole("/stage1.out", 0).unwrap();
    assert_eq!(data.len(), 2048);
    for b in 0..4usize {
        assert!(data[b * 512..(b + 1) * 512]
            .iter()
            .all(|&x| x == b as u8 + 1));
    }
}

#[test]
fn cpu_writer_invalidates_gpu_cache_between_kernels() {
    let r = rig(1);
    r.fs.create("/shared.dat", &[1u8; 4096]).unwrap();
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();

    let k1 = r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = mount.open(blk, "/shared.dat", GOpenMode::ReadOnly).unwrap();
        let mut b = [0u8; 64];
        mount.read(blk, &fd, 0, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 1));
        mount.close(blk, fd).unwrap();
    });

    // A CPU process rewrites the file between kernels.
    let (fd, t) =
        r.fs.open("/shared.dat", OpenFlags::read_write(), k1.end)
            .unwrap();
    r.fs.pwrite(fd, 0, &[2u8; 4096], t).unwrap();
    r.fs.close(fd).unwrap();

    r.gpus[0].launch(Grid::new(1, 32), k1.end, |blk| {
        let fd = mount.open(blk, "/shared.dat", GOpenMode::ReadOnly).unwrap();
        let mut b = [0u8; 64];
        mount.read(blk, &fd, 0, &mut b).unwrap();
        assert!(
            b.iter().all(|&x| x == 2),
            "lazy invalidation must drop stale pages"
        );
        mount.close(blk, fd).unwrap();
    });
}

#[test]
fn four_gpus_write_disjoint_stripes_of_one_file() {
    let r = rig(4);
    r.fs.create("/striped.out", &[0u8; 16384]).unwrap();
    let mounts: Vec<_> = (0..4)
        .map(|g| r.host.mount(g, GpufsConfig::small_test()).unwrap())
        .collect();

    launch_fleet(&r.gpus, &[Grid::new(2, 32); 4], |g, blk| {
        let mount = &mounts[g];
        let fd = mount.open(blk, "/striped.out", GOpenMode::ReadWrite)?;
        // Each GPU writes two 2 KB stripes via its blocks.
        let stripe = (g * 2 + blk.block_id()) as u64 * 2048;
        let payload = vec![(g * 2 + blk.block_id()) as u8 + 10; 2048];
        mount.write(blk, &fd, stripe, &payload)?;
        mount.fsync(blk, &fd)?;
        mount.close(blk, fd)
    })
    .unwrap();

    let (data, _) = r.fs.read_whole("/striped.out", 0).unwrap();
    for stripe in 0..8usize {
        let expect = stripe as u8 + 10;
        assert!(
            data[stripe * 2048..(stripe + 1) * 2048]
                .iter()
                .all(|&b| b == expect),
            "stripe {stripe} corrupted by diff-and-merge"
        );
    }
}

#[test]
fn gfsync_durable_survives_host_crash() {
    let r = rig(1);
    r.fs.create("/durable.log", b"").unwrap();
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
    r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = mount
            .open(blk, "/durable.log", GOpenMode::ReadWrite)
            .unwrap();
        mount.write(blk, &fd, 0, b"committed").unwrap();
        mount.fsync_durable(blk, &fd).unwrap();
        mount.write(blk, &fd, 9, b" volatile").unwrap();
        mount.fsync(blk, &fd).unwrap(); // host page cache only
        mount.close(blk, fd).unwrap();
    });
    r.fs.crash();
    let (data, _) = r.fs.read_whole("/durable.log", 0).unwrap();
    assert_eq!(&data[..9], b"committed");
    assert!(
        !data.windows(8).any(|w| w == b"volatile"),
        "non-durable tail lost in crash"
    );
}

#[test]
fn streaming_read_larger_than_cache_is_exact() {
    let r = rig(1);
    let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 241) as u8).collect();
    r.fs.create("/big.bin", &payload).unwrap();
    // 16 frames of 4 KB = 64 KB cache; 256 KB file streams through it.
    let mount = r
        .host
        .mount(0, GpufsConfig::new(4 << 10, 64 << 10))
        .unwrap();
    let checksum = std::sync::atomic::AtomicU64::new(0);
    r.gpus[0].launch(Grid::new(8, 64), 0, |blk| {
        let fd = mount.open(blk, "/big.bin", GOpenMode::ReadOnly).unwrap();
        let span = payload.len() / 8;
        let off = blk.block_id() * span;
        let mut buf = vec![0u8; span];
        assert_eq!(mount.read(blk, &fd, off as u64, &mut buf).unwrap(), span);
        assert_eq!(
            &buf[..],
            &payload[off..off + span],
            "block {} data",
            blk.block_id()
        );
        let sum: u64 = buf.iter().map(|&b| u64::from(b)).sum();
        checksum.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
        mount.close(blk, fd).unwrap();
    });
    let expect: u64 = payload.iter().map(|&b| u64::from(b)).sum();
    assert_eq!(checksum.load(std::sync::atomic::Ordering::Relaxed), expect);
    assert!(
        mount.counters().pages_reclaimed.get() > 0,
        "must have streamed"
    );
}

#[test]
fn unlinked_file_is_gone_for_cpu_and_gpu() {
    let r = rig(1);
    r.fs.create("/doomed", &[9u8; 128]).unwrap();
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
    r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        mount.unlink(blk, "/doomed").unwrap();
        assert!(matches!(
            mount.open(blk, "/doomed", GOpenMode::ReadOnly),
            Err(gpufs::GpufsError::Host(hostfs::FsError::NotFound(_)))
        ));
    });
    assert!(!r.fs.exists("/doomed"));
}

#[test]
fn temp_files_never_reach_the_host_namespace_content() {
    let r = rig(1);
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
    r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = mount.open(blk, "/scratch.tmp", GOpenMode::Temp).unwrap();
        mount
            .write(blk, &fd, 0, b"gpu-private intermediate data")
            .unwrap();
        let mut buf = [0u8; 29];
        assert_eq!(mount.read(blk, &fd, 0, &mut buf).unwrap(), 29);
        assert_eq!(&buf, b"gpu-private intermediate data");
        // gfsync on O_NOSYNC is a no-op by design.
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();
    });
    // The host sees the (empty) namespace entry but none of the content:
    // it was never propagated except under memory pressure, which this
    // small file never triggered.
    let (data, _) = r.fs.read_whole("/scratch.tmp", 0).unwrap();
    assert!(data.is_empty(), "temp content must not be synced on close");
}

#[test]
fn reopen_between_kernels_revives_cache_without_host_traffic() {
    let r = rig(1);
    r.fs.create_synthetic("/warm.bin", 1 << 20, 5).unwrap();
    let mount = r
        .host
        .mount(0, GpufsConfig::new(16 << 10, 2 << 20))
        .unwrap();
    let k1 = r.gpus[0].launch(Grid::new(4, 64), 0, |blk| {
        let fd = mount.open(blk, "/warm.bin", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; 64 << 10];
        let off = blk.block_id() as u64 * (256 << 10);
        for i in 0..4u64 {
            mount
                .read(blk, &fd, off + i * (64 << 10), &mut buf)
                .unwrap();
        }
        mount.close(blk, fd).unwrap();
    });
    let h2d = r.host.stats().bytes_h2d.get();
    assert!(h2d >= 1 << 20, "first kernel fetched the file");
    // Second kernel, fresh launch: the closed-file table serves it fully.
    r.gpus[0].launch(Grid::new(4, 64), k1.end, |blk| {
        let fd = mount.open(blk, "/warm.bin", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; 64 << 10];
        let off = blk.block_id() as u64 * (256 << 10);
        for i in 0..4u64 {
            mount
                .read(blk, &fd, off + i * (64 << 10), &mut buf)
                .unwrap();
        }
        mount.close(blk, fd).unwrap();
    });
    assert_eq!(
        r.host.stats().bytes_h2d.get(),
        h2d,
        "revival must not refetch"
    );
}

#[test]
fn daemon_shutdown_fails_calls_cleanly() {
    let mut r = rig(1);
    let mount = r.host.mount(0, GpufsConfig::small_test()).unwrap();
    r.host.shutdown();
    r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        assert!(matches!(
            mount.open(blk, "/x", GOpenMode::ReadOnly),
            Err(gpufs::GpufsError::DaemonStopped)
        ));
    });
}

#[test]
fn cache_counters_attribute_per_tenant_and_sum_to_the_aggregate() {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let gpus: Vec<Arc<Gpu>> = vec![Arc::new(Gpu::new(0, GpuSpec::small_test()))];
    let cfg = GpufsConfig::small_test().with_tenant_weights(vec![1, 1]);
    let host = GpufsHost::with_config(Arc::clone(&fs), gpus.clone(), &cfg);
    let mount = host.mount(0, cfg).unwrap();
    for t in 0..2u8 {
        fs.create(&format!("/tenant{t}"), &vec![t + 1; 4096])
            .unwrap();
    }
    // Block slots map to tenants: block 0 serves tenant 0, block 1
    // serves tenant 1, so their cache work lands on separate sheets.
    mount.set_tenant(0, 0);
    mount.set_tenant(1, 1);
    gpus[0].launch(Grid::new(2, 32), 0, |blk| {
        let path = format!("/tenant{}", blk.block_id());
        let fd = mount.open(blk, &path, GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(mount.read(blk, &fd, 0, &mut buf).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == blk.block_id() as u8 + 1));
        mount.close(blk, fd).unwrap();
    });
    let (all, t0, t1) = (
        mount.counters(),
        mount.tenant_counters(0),
        mount.tenant_counters(1),
    );
    // Both tenants did real cache work on their own sheets.
    assert!(t0.misses.get() > 0, "tenant 0 faulted its file");
    assert!(t1.misses.get() > 0, "tenant 1 faulted its file");
    // Every counter row sums across tenant sheets to the aggregate —
    // iterated over the snapshot so a future counter can't escape.
    for (i, (name, total)) in all.snapshot().into_iter().enumerate() {
        assert_eq!(
            t0.snapshot()[i].1 + t1.snapshot()[i].1,
            total,
            "per-tenant cache sheets must sum to the aggregate for `{name}`"
        );
    }
}

#[test]
fn aliased_lane_stripes_still_reconcile_per_tenant() {
    // More blocks than counter stripes, so lanes `b` and `b + LANE_STRIPES`
    // share a leaf, across two tenants: a stripe's cells never mix
    // tenants, so each tenant's view still counts its own blocks alone.
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let gpus: Vec<Arc<Gpu>> = vec![Arc::new(Gpu::new(0, GpuSpec::small_test()))];
    let cfg = GpufsConfig::small_test().with_tenant_weights(vec![1, 1]);
    let host = GpufsHost::with_config(Arc::clone(&fs), gpus.clone(), &cfg);
    let mount = host.mount(0, cfg).unwrap();
    fs.create("/shared", &[9u8; 4096]).unwrap();
    let blocks = 2 * gpufs::LANE_STRIPES + 5;
    // Every third block serves tenant 1.
    let tenant = |b: usize| usize::from(b.is_multiple_of(3));
    for b in 0..blocks {
        mount.set_tenant(b, tenant(b));
    }
    // A block touches the page `b % 4 + 1` times, so the tenants' counts
    // differ from any even split of the lanes.
    let reads = |b: usize| (b % 4 + 1) as u64;
    gpus[0].launch(Grid::new(blocks, 32), 0, |blk| {
        let fd = mount.open(blk, "/shared", GOpenMode::ReadOnly).unwrap();
        let mut buf = [0u8; 512];
        for _ in 0..reads(blk.block_id()) {
            assert_eq!(mount.read(blk, &fd, 0, &mut buf).unwrap(), 512);
        }
        mount.close(blk, fd).unwrap();
    });
    let (all, t0, t1) = (
        mount.counters(),
        mount.tenant_counters(0),
        mount.tenant_counters(1),
    );
    for (i, (name, total)) in all.snapshot().into_iter().enumerate() {
        assert_eq!(
            t0.snapshot()[i].1 + t1.snapshot()[i].1,
            total,
            "aliased stripes must still sum to the aggregate for `{name}`"
        );
    }
    // One page, read by every block: each access is a hit or the one
    // miss, and it lands on the accessing block's own tenant.
    for (t, sheet) in [(0, t0), (1, t1)] {
        let accesses: u64 = (0..blocks).filter(|&b| tenant(b) == t).map(reads).sum();
        assert_eq!(
            sheet.hits.get() + sheet.misses.get(),
            accesses,
            "tenant {t}'s page accesses"
        );
    }
    assert_eq!(all.misses.get(), 1, "the page faults in once");
}

#[test]
fn a_map_outlives_the_close_of_its_fd() {
    // Four frames: /b's four pages fit only if the frame /a's map held
    // comes back once the map is gone. A parked /a gives it back to
    // reclaim; an /a that left both file tables while mapped gives it
    // back when the map is released, by `gmunmap` or by a plain drop.
    const PAGE: usize = 4096;
    type Between = fn(&GpuFsMount, &mut BlockCtx<'_>);
    let nothing: Between = |_, _| {};
    let reopen_rw: Between = |mount, blk| {
        // The parked copy is stale for a read-write open: dropped.
        let fd = mount.open(blk, "/a", GOpenMode::ReadWrite).unwrap();
        mount.close(blk, fd).unwrap();
    };
    let unlink: Between = |mount, blk| mount.unlink(blk, "/a").unwrap();
    let parked = GpufsConfig::new(PAGE, 4 * PAGE).with_readahead(1);
    let unparked = GpufsConfig {
        disable_closed_table: true,
        ..parked.clone()
    };
    // (config, /a's open mode, between close and release, munmap?, reclaims)
    let cases = [
        (&parked, GOpenMode::ReadOnly, nothing, true, 1),
        (&unparked, GOpenMode::ReadOnly, nothing, true, 0),
        (&unparked, GOpenMode::ReadOnly, nothing, false, 0),
        (&parked, GOpenMode::Temp, nothing, true, 0),
        (&parked, GOpenMode::Temp, nothing, false, 0),
        (&parked, GOpenMode::ReadOnly, reopen_rw, true, 0),
        (&parked, GOpenMode::ReadOnly, unlink, false, 0),
    ];
    for (case, &(cfg, mode, between, munmap, reclaims)) in cases.iter().enumerate() {
        let r = rig(1);
        let mount = r.host.mount(0, cfg.clone()).unwrap();
        r.fs.create("/a", &[0xA1; PAGE]).unwrap();
        let b: Vec<u8> = (0..4 * PAGE).map(|i| (i / PAGE) as u8 + 1).collect();
        r.fs.create("/b", &b).unwrap();
        let ledger = |mount: &GpuFsMount| mount.attached_frames().len() + mount.free_frames();
        r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
            let fd = mount.open(blk, "/a", mode).unwrap();
            let map = mount.mmap(blk, &fd, 0, PAGE).unwrap();
            mount.close(blk, fd).unwrap();
            between(&mount, blk);
            // The descriptor is gone; the map still holds its file and pin.
            assert_eq!(map.len(), PAGE);
            assert!(map.bytes().iter().all(|&x| x == 0xA1));
            if munmap {
                mount.munmap(blk, map);
            } else {
                drop(map);
            }
            assert_eq!(ledger(&mount), 4, "case {case}: a frame went missing");
            // Holding all four of /b's pages at once needs /a's frame.
            let fd = mount.open(blk, "/b", GOpenMode::ReadOnly).unwrap();
            let maps: Vec<_> = (0..4)
                .map(|p| mount.mmap(blk, &fd, (p * PAGE) as u64, PAGE).unwrap())
                .collect();
            for (p, m) in maps.iter().enumerate() {
                assert!(m.bytes().iter().all(|&x| x == p as u8 + 1), "page {p}");
            }
            drop(maps);
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(ledger(&mount), 4, "case {case}");
        assert_eq!(
            mount.counters().pages_reclaimed.get(),
            reclaims,
            "case {case}"
        );
    }
}

/// `n` page numbers drawn Zipf(0.9) over `pages` popularity ranks (by
/// inverse CDF), the ranks scattered over the file rather than clustered
/// at its head.
fn zipf_pages(rng: &mut rand::rngs::StdRng, pages: usize, n: usize) -> Vec<usize> {
    use rand::Rng;
    let weights: Vec<f64> = (1..=pages).map(|r| (r as f64).powf(-0.9)).collect();
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut u = rng.gen_range(0.0..total);
            let rank = weights.iter().position(|w| {
                u -= w;
                u < 0.0
            });
            rank.unwrap_or(pages - 1) * 67 % pages
        })
        .collect()
}

fn page_sum(page: &[u8]) -> u64 {
    page.iter()
        .fold(0u64, |h, &b| h.wrapping_mul(31) + u64::from(b))
}

#[test]
fn evict_random_miniature_stays_under_the_worker_bound() {
    // The benchmark's `evict_random` shape, small: 28 resident blocks
    // issue Zipf(0.9) page-aligned 16 KB reads of a 4 MB file through a
    // 1 MB buffer cache, host cache warm, default daemon (one worker). A
    // miss is a single-page `ReadPages`, and with 28 blocks missing at
    // once most find the DMA ring running and join it — which is only a
    // gain a real daemon could deliver if the CPU time the requests drew
    // fits in what one worker had.
    use rand::{rngs::StdRng, SeedableRng};
    use simtime::Timings;
    const PAGE: usize = 16 << 10;
    const PAGES: usize = 256;
    const READS: usize = 96;

    let t = Timings::default();
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let spec = GpuSpec {
        memory_bytes: 16 << 20,
        ..GpuSpec::tesla_c2075()
    };
    let gpu = Arc::new(Gpu::with_timings(0, spec, &t));
    let cfg = GpufsConfig::new(PAGE, PAGES * PAGE / 4);
    let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &cfg);
    let mount = host.mount(0, cfg).unwrap();
    fs.create_synthetic("/big.bin", (PAGES * PAGE) as u64, 11)
        .unwrap();
    let (data, _) = fs.read_whole("/big.bin", 0).unwrap();
    fs.reset_device_time();
    let page_sums: Vec<u64> = data.chunks(PAGE).map(page_sum).collect();

    let mut rng = StdRng::seed_from_u64(11);
    let blocks = gpu.spec().concurrent_blocks();
    let reads: Vec<Vec<usize>> = (0..blocks)
        .map(|_| zipf_pages(&mut rng, PAGES, READS))
        .collect();

    let res = gpu.launch(Grid::new(blocks, 256), 0, |blk| {
        let fd = mount.open(blk, "/big.bin", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; PAGE];
        for &page in &reads[blk.block_id()] {
            let off = (page * PAGE) as u64;
            assert_eq!(mount.read(blk, &fd, off, &mut buf).unwrap(), PAGE);
            assert_eq!(
                page_sum(&buf),
                page_sums[page],
                "page {page} came back wrong"
            );
        }
        mount.close(blk, fd).unwrap();
    });

    let snap = host.registry().snapshot();
    let row = |key: &str| snap.iter().find(|(k, _)| k == key).unwrap().1;
    let read_rpcs = mount.counters().read_rpcs.get();
    let stats = host.stats();
    assert!(
        read_rpcs > (PAGES / 4) as u64,
        "the working set must thrash"
    );
    assert_eq!(stats.read_dma_chunks.get(), read_rpcs, "one page a fault");
    assert_eq!(stats.bytes_h2d.get(), read_rpcs * PAGE as u64);
    assert!(
        stats.h2d_setups.get() < read_rpcs,
        "{} setups for {read_rpcs} faults: none joined",
        stats.h2d_setups.get()
    );
    let busy = row("daemon_worker_busy_ns");
    let copy = simtime::bw_time_ns(PAGE as u64, t.host_cached_mb_s);
    assert!(
        busy >= read_rpcs * (t.rpc_dispatch_ns + t.host_syscall_ns + copy),
        "every fault draws its dispatch, syscall and copy"
    );
    assert!(
        busy <= res.elapsed() * host.daemon_workers() as u64,
        "{busy} ns of worker CPU in {} ns on {} worker(s)",
        res.elapsed(),
        host.daemon_workers()
    );
    assert_eq!(row("pcie_h2d_busy_ns{gpu=0}"), gpu.dma().busy_ns().0);
}

#[test]
fn disk_and_link_busy_rows_read_the_devices() {
    // The registry's device rows are the devices' own busy accounts: the
    // disk's after a cold local read, and the link's two directions (and
    // the storage server's disk) after a cold proxied one.
    use gpufs::{HostProxy, StorageServer};
    const PAGE: usize = 64 << 10;
    let row = |host: &GpufsHost, key: &str| {
        let snap = host.registry().snapshot();
        snap.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    };
    let cold_read = |fs: &HostFs, host: &GpufsHost, gpu: &Gpu| {
        fs.create_synthetic("/cold.bin", 4 * PAGE as u64, 5)
            .unwrap();
        fs.drop_caches();
        let mount = host.mount(0, GpufsConfig::new(PAGE, 4 * PAGE)).unwrap();
        gpu.launch(Grid::new(1, 32), 0, |blk| {
            let fd = mount.open(blk, "/cold.bin", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; PAGE];
            assert_eq!(mount.read(blk, &fd, 0, &mut buf).unwrap(), PAGE);
            mount.close(blk, fd).unwrap();
        });
    };

    let r = rig(1);
    cold_read(&r.fs, &r.host, &r.gpus[0]);
    let disk = r.fs.disk_busy_ns();
    assert!(disk > 0, "a cold read seeks and streams");
    assert_eq!(row(&r.host, "disk_busy_ns"), Some(disk));
    assert_eq!(
        row(&r.host, "pcie_h2d_busy_ns{gpu=0}"),
        Some(r.gpus[0].dma().busy_ns().0)
    );
    assert_eq!(
        row(&r.host, "net_up_busy_ns"),
        None,
        "a local host has no link"
    );
    r.fs.reset_device_time();
    assert_eq!(row(&r.host, "disk_busy_ns"), Some(0));

    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let proxy = Arc::new(HostProxy::new(
        Arc::new(StorageServer::new(Arc::clone(&fs))),
        0,
    ));
    let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
    let host = GpufsHost::with_proxy(
        Arc::clone(&proxy),
        vec![Arc::clone(&gpu)],
        &GpufsConfig::default(),
    );
    cold_read(&fs, &host, &gpu);
    let (up, down) = proxy.link_busy_ns();
    assert!(up > 0 && down > 0, "requests go up, pages come down");
    assert_eq!(row(&host, "net_up_busy_ns"), Some(up));
    assert_eq!(row(&host, "net_down_busy_ns"), Some(down));
    assert!(fs.disk_busy_ns() > 0, "the server's disk served the read");
    assert_eq!(row(&host, "disk_busy_ns"), Some(fs.disk_busy_ns()));
}

#[test]
fn zipf_miniature_misses_a_fifth_less_than_the_restarting_sweep() {
    // One block, so the run is deterministic: 16 384 Zipf(0.9) page reads
    // of a 512-page file (eight leaves) through a 128-frame cache. The
    // sweep this replaced — restart at slot 0 of the next leaf, take the
    // first eight resident pages — missed `RESTARTING_SWEEP_MISSES` times
    // on this exact trace (recorded at the parent commit). The hand with
    // reference counts must miss at most four fifths of that, return
    // every byte right, and stay a bounded detour: no more than 16 slots
    // examined per frame freed.
    use rand::{rngs::StdRng, SeedableRng};
    const PAGE: usize = 4 << 10;
    const PAGES: usize = 512;
    const FRAMES: usize = 128;
    const READS: usize = 16_384;
    const RESTARTING_SWEEP_MISSES: u64 = 8157;

    let r = rig(1);
    r.fs.create_synthetic("/zipf.bin", (PAGES * PAGE) as u64, 23)
        .unwrap();
    let (data, _) = r.fs.read_whole("/zipf.bin", 0).unwrap();
    let page_sums: Vec<u64> = data.chunks(PAGE).map(page_sum).collect();
    let reads = zipf_pages(&mut StdRng::seed_from_u64(23), PAGES, READS);
    let mount = r
        .host
        .mount(0, GpufsConfig::new(PAGE, FRAMES * PAGE))
        .unwrap();
    r.gpus[0].launch(Grid::new(1, 32), 0, |blk| {
        let fd = mount.open(blk, "/zipf.bin", GOpenMode::ReadOnly).unwrap();
        let mut buf = vec![0u8; PAGE];
        for &page in &reads {
            let off = (page * PAGE) as u64;
            assert_eq!(mount.read(blk, &fd, off, &mut buf).unwrap(), PAGE);
            assert_eq!(
                page_sum(&buf),
                page_sums[page],
                "page {page} came back wrong"
            );
        }
        mount.close(blk, fd).unwrap();
    });
    let c = mount.counters();
    let (misses, reclaimed) = (c.misses.get(), c.pages_reclaimed.get());
    assert_eq!(c.hits.get() + misses, READS as u64);
    assert!(
        misses * 5 <= RESTARTING_SWEEP_MISSES * 4,
        "{misses} misses against {RESTARTING_SWEEP_MISSES} before"
    );
    assert!(reclaimed > 0, "the working set must not fit");
    assert!(
        c.reclaim_scanned.get() <= 16 * reclaimed,
        "{} slots examined to free {reclaimed} frames",
        c.reclaim_scanned.get()
    );
    assert!(c.second_chances.get() > 0 && c.second_chances.get() < c.reclaim_scanned.get());
}
