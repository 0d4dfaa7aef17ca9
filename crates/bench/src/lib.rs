//! Shared plumbing for the experiment harnesses (`benches/`).
//!
//! Each `harness = false` bench target regenerates one figure or table of
//! the paper, printing the same rows/series the paper reports, side by
//! side with the paper's published numbers where useful. Dataset sizes are
//! scaled down by [`SCALE`] (documented in EXPERIMENTS.md): all cache
//! budgets and inputs shrink together, so crossover points land at the
//! same relative positions while keeping bench wall time in seconds.

use std::sync::Arc;

use gpufs::cluster::{FleetBuilder, HostFleet, ShardStrategy};
use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};
use simtime::{throughput_mb_s, Nanos, Timings};
use workloads::cluster::cluster_search;
use workloads::corpus::{gen_image_dataset, ImageDatasetConfig};

/// Dataset scale-down factor relative to the paper's testbed.
pub const SCALE: u64 = 16;

/// `io_chunk_pages` of the paper prototype's daemon: the serialized
/// engine, one one-shot scatter-gather transaction per RPC, worker CPU
/// counted but never queued for. The recorded paper baselines pin it
/// wherever concurrent single-page faults would otherwise be appended to
/// a running DMA ring — and stop paying the per-DMA setup the paper's
/// figures measure — or would ask one daemon worker for more CPU time
/// than it has.
pub const PROTOTYPE_DAEMON: usize = 0;

/// The page sizes swept in Figures 4–6 (16 KB – 16 MB).
pub const PAGE_SIZES: &[usize] = &[
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
    8 << 20,
    16 << 20,
];

/// A freshly assembled host + GPUs, ready to mount GPUfs on.
pub struct Rig {
    /// The host file system.
    pub fs: Arc<HostFs>,
    /// The GPUfs host daemon.
    pub host: GpufsHost,
    /// The GPUs.
    pub gpus: Vec<Arc<Gpu>>,
}

/// Build a rig with `n_gpus` GPUs of `gpu_mem_bytes` device memory each,
/// `host_mem_bytes` of host RAM (page cache + pinned pool), and `timings`.
#[must_use]
pub fn rig(n_gpus: usize, gpu_mem_bytes: usize, host_mem_bytes: u64, timings: &Timings) -> Rig {
    rig_cfg(
        n_gpus,
        gpu_mem_bytes,
        host_mem_bytes,
        timings,
        &GpufsConfig::default(),
    )
}

/// [`rig`] whose daemon takes *all* host-side knobs (channels, workers,
/// I/O-engine chunk size) from `config` — the config later passed to
/// `mount` must agree with it.
#[must_use]
pub fn rig_cfg(
    n_gpus: usize,
    gpu_mem_bytes: usize,
    host_mem_bytes: u64,
    timings: &Timings,
    config: &GpufsConfig,
) -> Rig {
    let fs = paper_host_fs(timings, host_mem_bytes);
    let spec = paper_gpu_spec(gpu_mem_bytes);
    let gpus: Vec<Arc<Gpu>> = (0..n_gpus)
        .map(|i| Arc::new(Gpu::with_timings(i, spec.clone(), timings)))
        .collect();
    let host = GpufsHost::with_config(Arc::clone(&fs), gpus.clone(), config);
    Rig { fs, host, gpus }
}

/// The paper-platform host file system every bench rig mounts over:
/// `host_mem_bytes` of RAM, 64 KB host-cache pages, host readahead 8.
/// One definition, so the fleet phases and the hand-assembled rigs can
/// never drift apart (the fleet-of-1 compat assertion depends on it).
fn paper_host_fs(timings: &Timings, host_mem_bytes: u64) -> Arc<HostFs> {
    Arc::new(HostFs::new(HostFsConfig {
        timings: timings.clone(),
        host_mem_bytes,
        cache_page_size: 64 << 10,
        readahead_pages: 8,
    }))
}

/// A TESLA C2075 with its memory budget pinned — the GPU every bench
/// rig and fleet simulates.
fn paper_gpu_spec(gpu_mem_bytes: usize) -> GpuSpec {
    GpuSpec {
        memory_bytes: gpu_mem_bytes,
        ..GpuSpec::tesla_c2075()
    }
}

/// The Figure 4 GPUfs phase: 28 threadblocks `gmmap` consecutive pages of
/// a 1.8 GB (scaled) file with a warm host page cache, at a given buffer
/// cache `page` size and readahead `window` (1 = the paper's strictly
/// on-demand paging). Returns the achieved throughput in MB/s.
///
/// Shared between the `fig4_seq_read` bench target and the `fig4_json`
/// perf-trajectory recorder so both measure the same thing.
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig4_gpufs_phase(file_bytes: u64, page: usize, window: usize) -> f64 {
    fig4_gpufs_phase_chunk(file_bytes, page, window, None)
}

/// [`fig4_gpufs_phase`] with the daemon's I/O-engine chunk size pinned:
/// `Some(0)` is the serialized engine (the PR-3 compat baseline), `None`
/// the config default.
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig4_gpufs_phase_chunk(
    file_bytes: u64,
    page: usize,
    window: usize,
    io_chunk: Option<usize>,
) -> f64 {
    let t = Timings::default();
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let mut cfg = GpufsConfig::new(page, cache).with_readahead(window);
    if let Some(chunk) = io_chunk {
        cfg = cfg.with_io_chunk(chunk);
    }
    let r = rig_cfg(1, cache + (64 << 20), 8 << 30, &t, &cfg);
    let mount = r.host.mount(0, cfg).unwrap();
    throughput_mb_s(
        file_bytes,
        fig4_drive(&r.fs, &r.gpus[0], &mount, file_bytes, page),
    )
}

/// The Figure-4 measurement proper, shared by every assembly of the rig
/// (hand-built single mount, daemon pool, fleet of one): create and
/// warm the synthetic input on `fs` (keep residency, reset time, as the
/// paper does), then run the paper's 28-threadblock sequential `gmmap`
/// walk on (`gpu`, `mount`). One body means the fleet-of-1 compat
/// assertion in `fig_scale_json` always compares identical workloads.
fn fig4_drive(
    fs: &Arc<HostFs>,
    gpu: &Arc<Gpu>,
    mount: &Arc<gpufs::GpuFsMount>,
    file_bytes: u64,
    page: usize,
) -> Nanos {
    fs.create_synthetic("/seq.bin", file_bytes, 4).unwrap();
    let _ = fs.read_whole("/seq.bin", 0).unwrap();
    fs.reset_device_time();
    let blocks = gpu.spec().concurrent_blocks(); // 28, as in the paper
    let per_block = file_bytes / blocks as u64;
    let res = gpu.launch(Grid::new(blocks, 256), 0, |blk| {
        let fd = mount.open(blk, "/seq.bin", GOpenMode::ReadOnly).unwrap();
        let base = blk.block_id() as u64 * per_block;
        let mut off = 0u64;
        // Map one page at a time until the block's range is fetched; the
        // data itself is not touched (paper §5.1.1).
        while off < per_block {
            let map = mount.mmap(blk, &fd, base + off, page).unwrap();
            let got = map.len() as u64;
            mount.munmap(blk, map);
            off += got;
        }
        mount.close(blk, fd).unwrap();
    });
    res.elapsed()
}

/// The Figure 5 workload: the Figure 4 sequential read re-run under a
/// daemon pool of `workers` threads over `channels` RPC channels, with
/// whatever timing components `timings` has surgically removed. Returns
/// the elapsed virtual time.
///
/// Figure 5 breaks down the paper prototype, so the phase pins the
/// prototype's daemon ([`PROTOTYPE_DAEMON`]): its 28 blocks fault single
/// pages concurrently, which on the default engine would join the
/// scatter-gather ring and stop paying the very per-DMA setup the
/// figure's `−DMA` column measures.
///
/// Shared between the `fig5_breakdown` bench target and the `fig5_json`
/// perf-trajectory recorder so both measure the same thing.
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig5_phase(
    file_bytes: u64,
    page: usize,
    timings: &Timings,
    channels: usize,
    workers: usize,
) -> Nanos {
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let cfg = GpufsConfig::new(page, cache)
        .with_concurrency(channels, workers)
        .with_io_chunk(PROTOTYPE_DAEMON);
    let r = rig_cfg(1, cache + (64 << 20), 8 << 30, timings, &cfg);
    let mount = r.host.mount(0, cfg).unwrap();
    // fig4_drive creates and warms the input itself.
    fig4_drive(&r.fs, &r.gpus[0], &mount, file_bytes, page)
}

/// The per-stream pipeline breakdown workload behind the fig5 JSONL
/// record's `pipe` sweep: **one** threadblock streams a file
/// sequentially at readahead `window`, so every `ReadPages` RPC is a
/// full batch and the measurement isolates what the daemon's I/O engine
/// does *inside* one RPC — with 28 saturating blocks the shared PCIe
/// direction hides it. `io_chunk` pins the engine (`Some(0)` =
/// serialized, `None` = default). Returns the elapsed virtual time; run
/// with component-excluded [`Timings`] copies for the breakdown.
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig5_pipe_phase(
    file_bytes: u64,
    page: usize,
    timings: &Timings,
    window: usize,
    io_chunk: Option<usize>,
) -> Nanos {
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let mut cfg = GpufsConfig::new(page, cache).with_readahead(window);
    if let Some(chunk) = io_chunk {
        cfg = cfg.with_io_chunk(chunk);
    }
    let r = rig_cfg(1, cache + (64 << 20), 8 << 30, timings, &cfg);
    r.fs.create_synthetic("/seq.bin", file_bytes, 4).unwrap();
    let _ = r.fs.read_whole("/seq.bin", 0).unwrap();
    r.fs.reset_device_time();

    let mount = r.host.mount(0, cfg).unwrap();
    let res = r.gpus[0].launch(Grid::new(1, 256), 0, |blk| {
        let fd = mount.open(blk, "/seq.bin", GOpenMode::ReadOnly).unwrap();
        let mut off = 0u64;
        while off < file_bytes {
            let map = mount.mmap(blk, &fd, off, page).unwrap();
            let got = map.len() as u64;
            mount.munmap(blk, map);
            off += got;
        }
        mount.close(blk, fd).unwrap();
    });
    res.elapsed()
}

/// [`fig5_pipe_phase`] with the daemon's read-staging depth also pinned
/// (`2` = double-buffering, the prior engine bit-for-bit; ≥ 3 = the
/// depth-k staging ring with early response and per-page ready times).
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig5_pipe_phase_depth(
    file_bytes: u64,
    page: usize,
    timings: &Timings,
    window: usize,
    io_chunk: Option<usize>,
    io_depth: usize,
) -> Nanos {
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let mut cfg = GpufsConfig::new(page, cache)
        .with_readahead(window)
        .with_io_depth(io_depth);
    if let Some(chunk) = io_chunk {
        cfg = cfg.with_io_chunk(chunk);
    }
    let r = rig_cfg(1, cache + (64 << 20), 8 << 30, timings, &cfg);
    r.fs.create_synthetic("/seq.bin", file_bytes, 4).unwrap();
    let _ = r.fs.read_whole("/seq.bin", 0).unwrap();
    r.fs.reset_device_time();

    let mount = r.host.mount(0, cfg).unwrap();
    let res = r.gpus[0].launch(Grid::new(1, 256), 0, |blk| {
        let fd = mount.open(blk, "/seq.bin", GOpenMode::ReadOnly).unwrap();
        let mut off = 0u64;
        while off < file_bytes {
            let map = mount.mmap(blk, &fd, off, page).unwrap();
            let got = map.len() as u64;
            mount.munmap(blk, map);
            off += got;
        }
        mount.close(blk, fd).unwrap();
    });
    res.elapsed()
}

/// Outcome of one [`fig7_phase`] run.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Outcome {
    /// Hit-path throughput: `blocks × file_bytes` / elapsed, MB/s.
    pub mb_s: f64,
    /// Accesses that completed purely lock-free (paper Table 2).
    pub lockfree: u64,
    /// Accesses that locked or retried (paper counts retries here too).
    pub locked: u64,
    /// Buffer-cache hits during the measured pass.
    pub hits: u64,
    /// Buffer-cache misses during the measured pass (0 once warm).
    pub misses: u64,
}

/// The Figure 7 / Table 2 workload: `blocks` threadblocks concurrently
/// re-walk one fully cached file (warmed by a prior pass whose counters
/// are discarded), so every access rides the buffer-cache hit path and
/// the lock-free vs. locked protocol is the only variable.
/// `force_locked` pins every lookup to the fpage lock — the paper's
/// "locked" ablation series, which pays the radix-lock convoy of all
/// concurrently resident blocks on each access.
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig7_phase(file_bytes: u64, page: usize, blocks: usize, force_locked: bool) -> Fig7Outcome {
    let t = Timings::default();
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let mut cfg = GpufsConfig::new(page, cache);
    cfg.force_locked = force_locked;
    let r = rig_cfg(1, cache + (64 << 20), 8 << 30, &t, &cfg);
    r.fs.create_synthetic("/hot.bin", file_bytes, 7).unwrap();
    let _ = r.fs.read_whole("/hot.bin", 0).unwrap();
    let mount = r.host.mount(0, cfg).unwrap();

    let walk = |blk: &mut gpusim::BlockCtx<'_>| {
        let fd = mount.open(blk, "/hot.bin", GOpenMode::ReadOnly).unwrap();
        let mut off = 0u64;
        while off < file_bytes {
            let map = mount.mmap(blk, &fd, off, page).unwrap();
            let got = map.len() as u64;
            mount.munmap(blk, map);
            off += got;
        }
        mount.close(blk, fd).unwrap();
    };
    // Warm pass: one block faults the whole file into the buffer cache.
    let warm = r.gpus[0].launch(Grid::new(1, 256), 0, |blk| walk(blk));
    mount.counters().reset();
    // Measured pass: `blocks` blocks hammer the same (Ready) pages. It
    // launches at the warm pass's virtual end so the pages' absolute
    // `ready_at` stamps are already in every block's past — measuring
    // the hit protocol, not an echo of the warm pass's miss schedule.
    let res = r.gpus[0].launch(Grid::new(blocks, 256), warm.end, |blk| walk(blk));
    let c = mount.counters();
    Fig7Outcome {
        mb_s: throughput_mb_s(blocks as u64 * file_bytes, res.elapsed()),
        lockfree: c.lockfree_accesses.get(),
        locked: c.locked_accesses.get(),
        hits: c.hits.get(),
        misses: c.misses.get(),
    }
}

/// Outcome of one [`write_phase`] run.
#[derive(Debug, Clone, Copy)]
pub struct WritePhase {
    /// Achieved write-back throughput in MB/s.
    pub mb_s: f64,
    /// `WritePages` round-trips the mount issued.
    pub write_rpcs: u64,
    /// Total pages those round-trips carried.
    pub pages_per_write_rpc: u64,
}

/// The write-throughput sweep workload: the Figure 4 geometry inverted —
/// 28 threadblocks `gwrite` disjoint regions of one fresh `O_GWRONCE`
/// output file, then `gfsync` it, at a given buffer-cache `page` size and
/// write-back batch cap (`write_batch = 1` is the original per-page
/// write-back RPC). Returns the achieved throughput and RPC counts.
///
/// # Panics
///
/// Panics if the rig cannot serve the workload.
#[must_use]
pub fn write_phase(
    file_bytes: u64,
    page: usize,
    write_batch: usize,
    channels: usize,
    workers: usize,
) -> WritePhase {
    write_phase_chunk(file_bytes, page, write_batch, channels, workers, None)
}

/// [`write_phase`] with the daemon's I/O-engine chunk size pinned
/// (`Some(0)` = the serialized engine, `None` = the config default).
///
/// # Panics
///
/// Panics if the rig cannot serve the workload.
#[must_use]
pub fn write_phase_chunk(
    file_bytes: u64,
    page: usize,
    write_batch: usize,
    channels: usize,
    workers: usize,
    io_chunk: Option<usize>,
) -> WritePhase {
    write_phase_cfg(
        file_bytes,
        page,
        write_batch,
        channels,
        workers,
        io_chunk,
        0,
        0,
    )
}

/// [`write_phase_chunk`] with asynchronous write-back enabled behind the
/// `dirty_high` / `dirty_low` watermark pair (`0, 0` = the synchronous
/// write-back of the plain phase): the mount's background flusher ships
/// dirty pages while the kernel keeps writing, so `gfsync` finds most of
/// the file already on the host.
///
/// # Panics
///
/// Panics if the rig cannot serve the workload.
#[must_use]
pub fn write_phase_async(
    file_bytes: u64,
    page: usize,
    write_batch: usize,
    channels: usize,
    workers: usize,
    dirty_high: usize,
    dirty_low: usize,
) -> WritePhase {
    write_phase_cfg(
        file_bytes,
        page,
        write_batch,
        channels,
        workers,
        None,
        dirty_high,
        dirty_low,
    )
}

#[allow(clippy::too_many_arguments)]
#[must_use]
fn write_phase_cfg(
    file_bytes: u64,
    page: usize,
    write_batch: usize,
    channels: usize,
    workers: usize,
    io_chunk: Option<usize>,
    dirty_high: usize,
    dirty_low: usize,
) -> WritePhase {
    let t = Timings::default();
    // Cache holds the whole file: this measures the write-back path, not
    // eviction.
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let mut cfg = GpufsConfig::new(page, cache)
        .with_concurrency(channels, workers)
        .with_write_batch(write_batch)
        .with_async_writeback(dirty_high, dirty_low);
    if let Some(chunk) = io_chunk {
        cfg = cfg.with_io_chunk(chunk);
    }
    let r = rig_cfg(1, cache + (64 << 20), 8 << 30, &t, &cfg);
    let mount = r.host.mount(0, cfg).unwrap();
    let blocks = r.gpus[0].spec().concurrent_blocks(); // 28, as in the paper
    let per_block = file_bytes / blocks as u64;
    let payload = vec![0xa5u8; page];
    let res = r.gpus[0].launch(Grid::new(blocks, 256), 0, |blk| {
        let fd = mount.open(blk, "/out.bin", GOpenMode::WriteOnce).unwrap();
        let base = blk.block_id() as u64 * per_block;
        let mut off = 0u64;
        while off < per_block {
            let n = (per_block - off).min(page as u64) as usize;
            mount.write(blk, &fd, base + off, &payload[..n]).unwrap();
            off += n as u64;
        }
        mount.fsync(blk, &fd).unwrap();
        mount.close(blk, fd).unwrap();
    });
    WritePhase {
        mb_s: throughput_mb_s(file_bytes, res.elapsed()),
        write_rpcs: mount.counters().write_rpcs.get(),
        pages_per_write_rpc: mount.counters().pages_per_write_rpc.get(),
    }
}

/// [`fig4_gpufs_phase_chunk`] run through a [`gpufs::cluster::GpuFleet`]
/// of **one** GPU instead of a hand-assembled rig: the cluster layer must
/// be a zero-cost composition — a fleet of size 1 is the recorded
/// single-mount configuration, so this must reproduce
/// `fig4_gpufs_phase_chunk`'s number to four digits (asserted by the
/// `fig_scale_json` recorder).
///
/// # Panics
///
/// Panics if the fleet cannot be built or the input file not created.
#[must_use]
pub fn fig4_fleet_phase(
    file_bytes: u64,
    page: usize,
    window: usize,
    io_chunk: Option<usize>,
) -> f64 {
    let t = Timings::default();
    let cache = (file_bytes as usize + 16 * page).next_power_of_two();
    let mut cfg = GpufsConfig::new(page, cache).with_readahead(window);
    if let Some(chunk) = io_chunk {
        cfg = cfg.with_io_chunk(chunk);
    }
    // The exact host FS and GPU the single-mount phase assembles.
    let fs = paper_host_fs(&t, 8 << 30);
    let fleet = FleetBuilder::new(1)
        .spec(paper_gpu_spec(cache + (64 << 20)))
        .timings(t)
        .config(cfg)
        .host_fs(Arc::clone(&fs))
        .build()
        .expect("fleet of one");
    throughput_mb_s(
        file_bytes,
        fig4_drive(&fs, fleet.gpu(0), fleet.mount(0), file_bytes, page),
    )
}

/// Outcome of one [`scale_phase`] fleet run.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Aggregate scan throughput, corpus bytes / fleet elapsed, MB/s.
    pub mb_s: f64,
    /// Fleet elapsed virtual time (slowest GPU).
    pub elapsed: Nanos,
    /// Work items migrated between shards.
    pub steals: u64,
    /// Database bytes scanned.
    pub bytes_scanned: u64,
}

/// Images per database file in the [`scale_phase`] corpora.
const SCALE_DB_IMAGES: usize = 384;
/// Vector elements per image (1 KB records).
const SCALE_DIM: usize = 256;
/// Queries matched against the corpus.
const SCALE_QUERIES: usize = 64;
/// Images per work-queue chunk.
const SCALE_CHUNK: usize = 16;

/// The multi-GPU image-search scaling workload behind `fig_scale_json`
/// (paper §6): `db_files` uniform databases (`weight[i]` scales file
/// `i`'s image count for skew experiments) are sharded across an
/// `n_gpus` fleet — 64 KB pages, 32 MB buffer cache per GPU, one shared
/// host FS with a warm page cache — and scanned exhaustively against
/// the query set under `strategy`. Like every recorded paper baseline
/// whose blocks fault single pages concurrently, it runs on the
/// prototype's daemon ([`PROTOTYPE_DAEMON`]).
///
/// # Panics
///
/// Panics if the fleet cannot be built or the search fails.
#[must_use]
pub fn scale_phase(
    n_gpus: usize,
    db_files: usize,
    weights: &[usize],
    strategy: ShardStrategy,
) -> ScaleOutcome {
    let t = Timings::default();
    let fs = paper_host_fs(&t, 8 << 30);
    let ds = gen_image_dataset(
        &fs,
        &ImageDatasetConfig {
            dir: "/scaledbs".into(),
            db_sizes: (0..db_files)
                .map(|f| SCALE_DB_IMAGES * weights.get(f).copied().unwrap_or(1))
                .collect(),
            n_queries: SCALE_QUERIES,
            dim: SCALE_DIM,
            match_fraction: 0.5,
            plant_in_first_db_prefix: false,
            seed: 1300,
        },
    );
    for path in ds.db_paths.iter().chain([&ds.query_path]) {
        let _ = fs.read_whole(path, 0).expect("warm host cache");
    }
    fs.reset_device_time();

    let fleet = FleetBuilder::new(n_gpus)
        .spec(paper_gpu_spec(256 << 20))
        .timings(t)
        .config(GpufsConfig::new(64 << 10, 32 << 20).with_io_chunk(PROTOTYPE_DAEMON))
        .host_fs(Arc::clone(&fs))
        .build()
        .expect("scale fleet");
    let out = cluster_search(&fleet, &ds, 0.5, SCALE_CHUNK, strategy).expect("cluster search");
    assert_eq!(
        out.matches, ds.planted,
        "sharding must never change results"
    );
    ScaleOutcome {
        mb_s: throughput_mb_s(out.bytes_scanned, out.elapsed),
        elapsed: out.elapsed,
        steals: out.steals,
        bytes_scanned: out.bytes_scanned,
    }
}

/// Outcome of one [`dist_phase`] cross-host fleet run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Aggregate scan throughput, corpus bytes / fleet elapsed, MB/s.
    pub mb_s: f64,
    /// Fleet elapsed virtual time (slowest GPU).
    pub elapsed: Nanos,
    /// Work items migrated between shards.
    pub steals: u64,
    /// Database bytes scanned.
    pub bytes_scanned: u64,
    /// Host-cache hits summed over every host proxy.
    pub host_hits: u64,
    /// Host-cache misses summed over every host proxy.
    pub host_misses: u64,
    /// `host_hits / (host_hits + host_misses)`, `0.0` when the caches
    /// saw no traffic (disabled, or a single host that never re-reads).
    pub hit_ratio: f64,
    /// Wire round-trips summed over every host proxy.
    pub wire_rpcs: u64,
}

/// The [`scale_phase`] image-search workload run across hosts: the same
/// corpus, queries, page/cache budgets, and work-stealing shard policy,
/// but the `hosts * gpus_per_host` GPUs sit behind per-host
/// [`gpufs::HostProxy`]s talking to one storage server over simulated
/// links (`net_rtt_ns` / `net_mb_s`; both zero = the time-transparent
/// link), each host fronted by a `cache_pages`-page host page cache
/// (0 = disabled).
///
/// With one host, zero network, and the cache off this must reproduce
/// [`scale_phase`] exactly — the recorder asserts that compat against
/// the recorded BENCH_scale strong-scaling numbers.
///
/// # Panics
///
/// Panics if the fleet cannot be built or the search fails.
#[must_use]
pub fn dist_phase(
    hosts: usize,
    gpus_per_host: usize,
    db_files: usize,
    net_rtt_ns: Nanos,
    net_mb_s: f64,
    cache_pages: usize,
) -> DistOutcome {
    let t = Timings {
        net_rtt_ns,
        net_mb_s,
        ..Timings::default()
    };
    let fs = paper_host_fs(&t, 8 << 30);
    let ds = gen_image_dataset(
        &fs,
        &ImageDatasetConfig {
            dir: "/scaledbs".into(),
            db_sizes: vec![SCALE_DB_IMAGES; db_files],
            n_queries: SCALE_QUERIES,
            dim: SCALE_DIM,
            match_fraction: 0.5,
            plant_in_first_db_prefix: false,
            seed: 1300,
        },
    );
    for path in ds.db_paths.iter().chain([&ds.query_path]) {
        let _ = fs.read_whole(path, 0).expect("warm host cache");
    }
    fs.reset_device_time();

    let fleet = HostFleet::builder(hosts, gpus_per_host)
        .spec(paper_gpu_spec(256 << 20))
        .timings(t)
        .config(GpufsConfig::new(64 << 10, 32 << 20).with_io_chunk(PROTOTYPE_DAEMON))
        .storage_fs(Arc::clone(&fs))
        .host_cache_pages(cache_pages)
        .build()
        .expect("dist fleet");
    let out = cluster_search(&fleet, &ds, 0.5, SCALE_CHUNK, ShardStrategy::WorkStealing)
        .expect("cluster search");
    assert_eq!(
        out.matches, ds.planted,
        "the host split must never change results"
    );
    let (mut hits, mut misses, mut wire_rpcs) = (0u64, 0u64, 0u64);
    for h in 0..hosts {
        let proxy = fleet.proxy(h);
        hits += proxy.cache().stats().hits.get();
        misses += proxy.cache().stats().misses.get();
        wire_rpcs += proxy.wire().wire_rpcs.get();
    }
    let looked_up = hits + misses;
    DistOutcome {
        mb_s: throughput_mb_s(out.bytes_scanned, out.elapsed),
        elapsed: out.elapsed,
        steals: out.steals,
        bytes_scanned: out.bytes_scanned,
        host_hits: hits,
        host_misses: misses,
        hit_ratio: if looked_up == 0 {
            0.0
        } else {
            hits as f64 / looked_up as f64
        },
        wire_rpcs,
    }
}

/// Virtual nanoseconds → seconds.
#[must_use]
pub fn secs(ns: Nanos) -> f64 {
    ns as f64 / 1e9
}

/// Virtual nanoseconds → milliseconds.
#[must_use]
pub fn millis(ns: Nanos) -> f64 {
    ns as f64 / 1e6
}

/// Human-readable byte size (KB/MB with power-of-two units).
#[must_use]
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else {
        format!("{}K", bytes >> 10)
    }
}

/// Print a bench banner.
pub fn banner(title: &str, notes: &str) {
    println!("\n=== {title} ===");
    if !notes.is_empty() {
        println!("{notes}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes_match_paper_axis() {
        assert_eq!(PAGE_SIZES.len(), 11);
        assert_eq!(PAGE_SIZES[0], 16 << 10);
        assert_eq!(*PAGE_SIZES.last().unwrap(), 16 << 20);
        assert!(PAGE_SIZES.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(16 << 10), "16K");
        assert_eq!(human_size(2 << 20), "2M");
    }

    #[test]
    fn rig_assembles() {
        let r = rig(2, 32 << 20, 1 << 30, &Timings::default());
        assert_eq!(r.gpus.len(), 2);
        assert!(r.fs.mem().capacity() == 1 << 30);
        assert_eq!(r.host.gpus().len(), 2);
    }
}
