//! Concurrency stress (repeat-run target of `scripts/stress.sh`).
//!
//! Multiple threadblocks mix reads and writes of one shared file, each
//! serving its own RPCs through a multi-worker daemon, under constant
//! eviction pressure (the cache holds a third of the touched pages), with
//! batched write-back enabled. Each round asserts the paper's page-lookup
//! accounting invariant (`hits + misses == lockfree + locked`, Table 2's
//! columns) and byte-exact file contents; the test repeats the round ten
//! times so rare interleavings — block dispatch order, concurrent serves
//! on the host file system, eviction races — get fresh dice every time.
//! CI runs the whole binary repeatedly on top via `scripts/stress.sh`.

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};

/// Rounds per test-process run (each with a fresh rig and RNG seed from
/// the shuffled block dispatch).
const ROUNDS: usize = 10;

const BLOCKS: usize = 8;
const PAGE: usize = 4096;
/// Pages 0..8 are read-shared; pages 8..16 are written, one per block.
const READ_PAGES: usize = BLOCKS;

fn one_round(workers: usize) {
    one_round_wb(workers, 0, 0);
}

fn one_round_wb(workers: usize, dirty_high: usize, dirty_low: usize) {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let base: Vec<u8> = (0..(2 * READ_PAGES * PAGE) as u32)
        .map(|i| (i % 239) as u8)
        .collect();
    fs.create("/stress.bin", &base).unwrap();
    let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
    // 8 frames against 16+ touched pages: constant reclaim, so eviction's
    // batched write-back and the fault path race on every serve.
    let cfg = GpufsConfig::new(PAGE, 8 * PAGE)
        .with_concurrency(1, workers)
        .with_readahead(2)
        .with_async_writeback(dirty_high, dirty_low);
    let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &cfg);
    let mount = host.mount(0, cfg).unwrap();

    gpu.launch(Grid::new(BLOCKS, 64), 0, |blk| {
        let fd = mount
            .open(blk, "/stress.bin", GOpenMode::ReadWrite)
            .unwrap();
        let my = blk.block_id();
        // Write this block's private page in two halves (two dirtyings).
        let off = ((READ_PAGES + my) * PAGE) as u64;
        mount
            .write(blk, &fd, off, &[my as u8 + 1; PAGE / 2])
            .unwrap();
        mount
            .write(
                blk,
                &fd,
                off + (PAGE / 2) as u64,
                &[my as u8 + 101; PAGE / 2],
            )
            .unwrap();
        // Interleave shared reads across the read half.
        let mut buf = vec![0u8; PAGE / 2];
        for step in 0..8usize {
            let roff = (((my + step) % READ_PAGES) * PAGE + PAGE / 4) as u64;
            let n = mount.read(blk, &fd, roff, &mut buf).unwrap();
            assert_eq!(n, PAGE / 2);
            assert_eq!(&buf[..], &base[roff as usize..roff as usize + PAGE / 2]);
        }
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();
    });

    let c = mount.counters();
    assert_eq!(
        c.hits.get() + c.misses.get(),
        c.lockfree_accesses.get() + c.locked_accesses.get(),
        "page-lookup accounting invariant violated"
    );
    assert!(c.pages_reclaimed.get() > 0, "round must run under pressure");
    assert!(c.write_rpcs.get() > 0, "writes batched through WritePages");

    // Byte-exact contents: read half untouched, each written page holds
    // exactly its block's two half-page patterns.
    let (data, _) = fs.read_whole("/stress.bin", 0).unwrap();
    assert_eq!(
        &data[..READ_PAGES * PAGE],
        &base[..READ_PAGES * PAGE],
        "read-shared half corrupted"
    );
    for b in 0..BLOCKS {
        let off = (READ_PAGES + b) * PAGE;
        assert!(
            data[off..off + PAGE / 2].iter().all(|&x| x == b as u8 + 1),
            "block {b} first half lost"
        );
        assert!(
            data[off + PAGE / 2..off + PAGE]
                .iter()
                .all(|&x| x == b as u8 + 101),
            "block {b} second half lost"
        );
    }
}

#[test]
fn stress_cross_channel_mixed_read_write() {
    for round in 0..ROUNDS {
        one_round(3);
        let _ = round;
    }
}

#[test]
fn stress_single_fifo_baseline_matches() {
    // The same workload through the paper's single-worker shape: the
    // worker count must never change correctness, only scheduling.
    for _ in 0..ROUNDS {
        one_round(1);
    }
}

#[test]
fn stress_async_flusher_and_throttle_under_eviction() {
    // The same workload with the dirty-page cap squeezed (high = 4
    // against 8 written pages), so the writer blocks repeatedly trip it
    // while their inline sweeps, the fsync drain loop, and eviction's
    // write-back all gather from the same dirty set. The round's own
    // asserts carry the payload: the accounting identity `hits + misses
    // == lockfree + locked` must survive the extra write-back (a sweep
    // counts no page access), and the file must come out byte-exact even
    // when a page's shipment happened in another block's sweep instead
    // of its writer's fsync.
    for _ in 0..ROUNDS {
        one_round_wb(3, 4, 1);
    }
}

#[test]
fn stress_flusher_watermarks_wide_open() {
    // The cap armed but never reached (high above every dirty count this
    // workload can reach): results must be indistinguishable from the
    // uncapped rounds.
    for _ in 0..ROUNDS {
        one_round_wb(2, 64, 2);
    }
}

/// The multi-tenant mount: the victim (tenant 0) weighted 8:1 over the
/// hog, the hog admitted 4 requests at a time, and 56 of the 64 frames
/// the victim's quota.
fn isolating_config() -> GpufsConfig {
    GpufsConfig::new(PAGE, 64 * PAGE)
        .with_tenant_weights(vec![8, 1])
        .with_tenant_admission(vec![0, 4])
        .with_tenant_quotas(vec![56, 8])
}

/// One traffic replay of the two-tenant tail trace on a mount of
/// `config`, at the given hog intensity (scan sessions per hog block).
/// Returns the victim's p99 and the aggregate throughput in MB/s.
fn replay_tail_trace(config: GpufsConfig, hog_sessions: usize) -> (u64, f64) {
    use gpufs::cluster::FleetBuilder;
    use simtime::Timings;
    use workloads::traffic::{run_traffic, TenantClass, TenantLoad, TrafficConfig};

    let cfg = TrafficConfig {
        seed: 42,
        dir: "/tail".into(),
        n_files: 64,
        file_bytes: 64 << 10,
        zipf_s: 0.3,
        op_bytes: PAGE,
        pace_lag_ns: 200_000,
        tenants: vec![
            // The victim: point lookups over a 3-file (48-page) hot set
            // that fits its 56-frame quota. 800 sessions x 8 ops keeps
            // the 48 compulsory cold faults well under 1% of samples, so
            // its p99 sits in the cache-hit bucket whenever the hot set
            // stays resident.
            TenantLoad {
                class: TenantClass::PointLookup,
                blocks: 2,
                sessions: 800,
                arrival_gap_ns: 20_000,
                burst_sessions: 8,
                off_gap_ns: 100_000,
                ops_per_session: 8,
                hot_files: 3,
            },
            // The hog: streaming scans over the whole corpus.
            TenantLoad {
                class: TenantClass::Scan,
                blocks: 8,
                sessions: hog_sessions,
                arrival_gap_ns: 5_000,
                burst_sessions: 16,
                off_gap_ns: 50_000,
                ops_per_session: 16,
                hot_files: 0,
            },
        ],
    };
    let mut fleet = FleetBuilder::new(1)
        .config(config)
        .timings(Timings::default())
        .build()
        .expect("fleet");
    let out = run_traffic(&fleet, &cfg).expect("traffic");
    fleet.shutdown();
    (out.per_tenant[0].p99, out.throughput_mb_s)
}

#[test]
fn stress_tenant_isolation_bounds_victim_p99_under_10x_load() {
    // The multi-tenant isolation contract under overload: a hog pushing
    // 10x its baseline scan load must not move a quota-protected victim's
    // p99 by more than a small constant factor. The victim's hot set
    // stays resident inside its cache quota, so its p99 lives in the
    // cache-hit bucket at both intensities; without the quota the 10x hog
    // flushes the hot set continuously and the victim's p99 lands in the
    // disk bucket (`stress_tenant_isolation_beats_fifo_on_victim_p99`).
    // Each round replays the identical trace pair with fresh real-thread
    // interleavings (concurrent serves, freelist shards).
    for round in 0..3 {
        let (baseline, _) = replay_tail_trace(isolating_config(), 10);
        let (loaded, _) = replay_tail_trace(isolating_config(), 100);
        assert!(
            loaded <= baseline.saturating_mul(4),
            "round {round}: 10x hog load pushed the victim's p99 from \
             {baseline} ns to {loaded} ns (> 4x: isolation broken)"
        );
    }
}

#[test]
fn stress_tenant_isolation_beats_fifo_on_victim_p99() {
    // The same trace on a stock mount (one shared cache, first-come
    // dispatch) and on the isolating one. On the stock mount the hog's
    // scans keep evicting the victim's hot pages and its requests queue
    // behind the hog's; inside its quota the hot set stays resident after
    // the cold faults. Isolation must at least halve the victim's p99 and
    // keep nine tenths of the aggregate throughput. The stock leg's p99
    // sits near the knee of its latency curve, and the real-time
    // schedule now and then lands it below the knee, on the isolated
    // leg's value (1 replay of 36 on two cores), so the stock leg is the
    // median of five replays and the isolated leg the worst of five.
    const REPLAYS: usize = 5;
    let legs = |config: fn() -> GpufsConfig| -> Vec<(u64, f64)> {
        (0..REPLAYS)
            .map(|_| replay_tail_trace(config(), 96))
            .collect()
    };
    let fifo = legs(|| GpufsConfig::new(PAGE, 64 * PAGE));
    let isolated = legs(isolating_config);
    let mut fifo_p99: Vec<u64> = fifo.iter().map(|&(p99, _)| p99).collect();
    fifo_p99.sort_unstable();
    let fifo_p99 = fifo_p99[REPLAYS / 2];
    let isolated_p99 = isolated.iter().map(|&(p99, _)| p99).max().unwrap();
    assert!(
        isolated_p99.saturating_mul(2) <= fifo_p99,
        "victim p99: median {fifo_p99} ns FIFO vs worst {isolated_p99} ns isolated \
         ({fifo:?} vs {isolated:?})"
    );
    for (&(_, fifo_mb_s), &(_, isolated_mb_s)) in fifo.iter().zip(&isolated) {
        assert!(
            isolated_mb_s >= 0.9 * fifo_mb_s,
            "isolation cut throughput from {fifo_mb_s:.1} to {isolated_mb_s:.1} MB/s"
        );
    }
}

/// One replay of the benchmark's `tenant_mix` trace in the geometry its
/// `known_defects` test parks: 8-page logger sessions (two blocks, so 16
/// dirty `O_GWRONCE` pages in flight) against a logger quota of 8 frames
/// out of 64, so the logger's own pages are reclaimed while it writes
/// them. Returns how many log files differ from what was written after
/// their `gfsync` + `gclose`.
fn logger_files_lost_over_quota(seed: u64) -> usize {
    use gpufs::cluster::FleetBuilder;
    use gpusim::launch_fleet;
    use simtime::Timings;
    use workloads::traffic::{
        materialize_corpus, synthesize_trace, Op, TenantClass, TenantLoad, TrafficConfig,
    };

    const LOGGER_PAGES: usize = 8;
    let k = if cfg!(debug_assertions) { 1 } else { 4 };
    let load =
        |class, blocks, sessions, arrival_gap_ns, burst, off_gap_ns, ops, hot_files| TenantLoad {
            class,
            blocks,
            sessions,
            arrival_gap_ns,
            burst_sessions: burst,
            off_gap_ns,
            ops_per_session: ops,
            hot_files,
        };
    let traffic = TrafficConfig {
        seed,
        dir: "/mix".into(),
        n_files: 64,
        file_bytes: 64 << 10,
        zipf_s: 0.3,
        op_bytes: PAGE,
        pace_lag_ns: 200_000,
        // The benchmark's mix: at its session counts in a release build
        // (what `scripts/stress.sh` loops), a quarter of them under
        // plain `cargo test`, where a debug replay costs ten times more.
        tenants: vec![
            load(
                TenantClass::PointLookup,
                2,
                3200 * k,
                20_000,
                8,
                100_000,
                8,
                3,
            ),
            load(TenantClass::Scan, 8, 384 * k, 5_000, 16, 50_000, 16, 0),
            load(
                TenantClass::Logger,
                2,
                256 * k,
                100_000,
                4,
                400_000,
                LOGGER_PAGES,
                0,
            ),
        ],
    };
    let trace = synthesize_trace(&traffic, 1);
    // The benchmark's platform: paper timings, a warm host page cache.
    let timings = Timings::paper_platform();
    let fs = Arc::new(HostFs::new(HostFsConfig {
        timings: timings.clone(),
        host_mem_bytes: 8 << 30,
        cache_page_size: 64 << 10,
        readahead_pages: 8,
    }));
    let mut fleet = FleetBuilder::new(1)
        .spec(GpuSpec {
            memory_bytes: 256 << 20,
            ..GpuSpec::tesla_c2075()
        })
        .timings(timings)
        .config(
            GpufsConfig::new(PAGE, 64 * PAGE)
                .with_tenant_weights(vec![8, 1, 2])
                .with_tenant_admission(vec![0, 4, 0])
                .with_tenant_quotas(vec![48, 8, 8]),
        )
        .host_fs(Arc::clone(&fs))
        .build()
        .expect("fleet");
    materialize_corpus(&fleet, &trace).expect("corpus");
    for path in &trace.files {
        fs.read_whole(path, 0).expect("warm host cache");
    }
    fs.reset_device_time();
    // Nonzero everywhere, different in every page: a page that comes back
    // zeroed, stale or swapped shows.
    let payload: Vec<u8> = (0..LOGGER_PAGES * PAGE)
        .map(|i| (i / PAGE * 31 + i % 251 + 1) as u8)
        .collect();

    let mount = fleet.mount(0);
    let (sessions, tenant_of) = (&trace.blocks[0], &trace.tenant_of[0]);
    for (slot, &t) in tenant_of.iter().enumerate() {
        mount.set_tenant(slot, t);
    }
    let lag = traffic.pace_lag_ns;
    // The benchmark's pacing: no block runs more than `lag` of virtual
    // time ahead of the slowest live one, so virtually concurrent
    // sessions really do contend.
    let grid = Grid::new(sessions.len(), 128);
    launch_fleet(&fleet.gpus()[..1], &[grid], |_, blk| {
        let mut buf = vec![0u8; PAGE];
        for sess in &sessions[blk.block_id()] {
            blk.wait_until(sess.arrival);
            blk.pace(lag);
            let fd = mount.open(blk, &sess.path, sess.mode)?;
            for op in &sess.ops {
                blk.pace(lag);
                match *op {
                    Op::Read { offset, len } => {
                        mount.read(blk, &fd, offset, &mut buf[..len])?;
                    }
                    Op::Write { offset, len } => {
                        let src = &payload[offset as usize..offset as usize + len];
                        mount.write(blk, &fd, offset, src)?;
                    }
                }
            }
            if sess.fsync {
                mount.fsync(blk, &fd)?;
            }
            blk.pace(lag);
            mount.close(blk, fd)?;
        }
        Ok::<(), gpufs::GpufsError>(())
    })
    .expect("replay");

    let lost = sessions
        .iter()
        .flatten()
        .filter(|s| s.fsync)
        .filter(|s| {
            let img = fleet.fs().read_whole(&s.path, 0).map(|(img, _)| img).ok();
            img.as_deref() != Some(&payload[..s.ops.len() * PAGE])
        })
        .count();
    fleet.shutdown();
    lost
}

#[test]
fn stress_logger_over_quota_loses_no_dirty_pages() {
    // "Lossless diff-merge of disjoint writers" under frame quotas: the
    // evictor used to recycle a frame under a lock-free pin that had just
    // validated (`cache::reclaim` has the deterministic interleaving);
    // here the same race gets real threads and fresh dice. Before the
    // fix about one full-size replay in a hundred lost a page.
    for seed in [2, 3] {
        let lost = logger_files_lost_over_quota(seed);
        assert_eq!(
            lost, 0,
            "seed {seed}: {lost} log files do not hold what was written"
        );
    }
}

#[test]
fn stress_concurrent_sweeps_share_one_hand() {
    // Two blocks reclaim from the same tree at the same time. A parked
    // (closed) four-leaf file fills the cache, cold; then each block
    // zero-fills a temp file of its own, and every frame that takes beyond
    // the 32 spare ones comes out of the parked file, eight at a time,
    // under whichever block ran dry. The hand is shared: a slot is
    // examined by exactly one of the two sweeps, so each pass frees its
    // whole batch, no slot range is swept twice, and none is jumped over —
    // what is gone afterwards is one contiguous run of the ring from
    // where the hand started.
    const LEAF: usize = 64;
    const PARKED: usize = 4 * LEAF;
    const SPARE: usize = 32;
    const PER_BLOCK: usize = 100;
    for round in 0..ROUNDS {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        fs.create("/parked.bin", &vec![5u8; PARKED * PAGE]).unwrap();
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
        let mount = host
            .mount(0, GpufsConfig::new(PAGE, (PARKED + SPARE) * PAGE))
            .unwrap();
        let read_all = |blk: &mut gpusim::BlockCtx<'_>| -> Vec<bool> {
            let fd = mount.open(blk, "/parked.bin", GOpenMode::ReadOnly).unwrap();
            let mut buf = vec![0u8; PAGE];
            let missed = (0..PARKED)
                .map(|page| {
                    let before = mount.counters().misses.get();
                    let n = mount.read(blk, &fd, (page * PAGE) as u64, &mut buf);
                    assert_eq!(n.unwrap(), PAGE);
                    assert!(buf.iter().all(|&b| b == 5), "page {page} corrupted");
                    mount.counters().misses.get() > before
                })
                .collect();
            mount.close(blk, fd).unwrap();
            missed
        };
        let first = std::sync::OnceLock::new();
        gpu.launch(Grid::new(1, 32), 0, |blk| {
            first.set(read_all(blk)).unwrap();
        });
        assert!(first.get().unwrap().iter().all(|&m| m), "cold cache");
        assert_eq!(mount.free_frames(), SPARE);

        // Both blocks start together, and neither gives its frames back
        // (closing a temp file discards it) until both are done.
        let rendezvous = std::sync::Barrier::new(2);
        gpu.launch(Grid::new(2, 32), 0, |blk| {
            let path = format!("/fill{}.tmp", blk.block_id());
            let fd = mount.open(blk, &path, GOpenMode::Temp).unwrap();
            rendezvous.wait();
            for page in 0..PER_BLOCK {
                mount
                    .write(blk, &fd, (page * PAGE) as u64, &[9u8; PAGE])
                    .unwrap();
            }
            rendezvous.wait();
            mount.close(blk, fd).unwrap();
        });
        let c = mount.counters();
        let reclaimed = c.pages_reclaimed.get() as usize;
        assert!(
            reclaimed >= 2 * PER_BLOCK - SPARE && reclaimed.is_multiple_of(8),
            "round {round}: {reclaimed} frames freed — a pass came up short"
        );
        assert_eq!(
            c.reclaim_scanned.get() as usize,
            reclaimed,
            "round {round}: a slot was examined twice, or examined and not freed"
        );
        assert_eq!(c.second_chances.get(), 0);
        // The temp files are discarded; what is left of the parked file
        // is everything past the hand.
        assert_eq!(mount.free_frames(), SPARE + reclaimed);
        let second = std::sync::OnceLock::new();
        gpu.launch(Grid::new(1, 32), 0, |blk| {
            second.set(read_all(blk)).unwrap();
        });
        for (page, &missed) in second.get().unwrap().iter().enumerate() {
            assert_eq!(
                missed,
                page < reclaimed,
                "round {round}: page {page} of {PARKED}, hand at {reclaimed}"
            );
        }
    }
}
