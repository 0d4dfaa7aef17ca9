//! Shared plumbing for the experiment harnesses (`benches/`).
//!
//! Each `harness = false` bench target regenerates one figure or table of
//! the paper, printing the same rows/series the paper reports, side by
//! side with the paper's published numbers where useful. Dataset sizes are
//! scaled down by [`SCALE`] (documented in EXPERIMENTS.md): all cache
//! budgets and inputs shrink together, so crossover points land at the
//! same relative positions while keeping bench wall time in seconds.

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};
use simtime::{throughput_mb_s, Nanos, Timings};

/// Dataset scale-down factor relative to the paper's testbed.
pub const SCALE: u64 = 16;

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
/// `mount` must agree with it. The host file system has 64 KB host-cache
/// pages and host readahead 8; the GPUs are TESLA C2075s.
fn rig_cfg(
    n_gpus: usize,
    gpu_mem_bytes: usize,
    host_mem_bytes: u64,
    timings: &Timings,
    config: &GpufsConfig,
) -> Rig {
    let fs = Arc::new(HostFs::new(HostFsConfig {
        timings: timings.clone(),
        host_mem_bytes,
        cache_page_size: 64 << 10,
        readahead_pages: 8,
    }));
    let spec = GpuSpec {
        memory_bytes: gpu_mem_bytes,
        ..GpuSpec::tesla_c2075()
    };
    let gpus: Vec<Arc<Gpu>> = (0..n_gpus)
        .map(|i| Arc::new(Gpu::with_timings(i, spec.clone(), timings)))
        .collect();
    let host = GpufsHost::with_config(Arc::clone(&fs), gpus.clone(), config);
    Rig { fs, host, gpus }
}

/// The Figure 4 GPUfs phase: 28 threadblocks `gmmap` consecutive pages of
/// a 1.8 GB (scaled) file with a warm host page cache, at a given buffer
/// cache `page` size, readahead `window` (1 = the paper's strictly
/// on-demand paging) and daemon I/O-engine chunk size `io_chunk` (0 = the
/// paper prototype's one-DMA-per-RPC path). Returns the achieved
/// throughput in MB/s.
///
/// # Panics
///
/// Panics if the rig cannot create or read the synthetic input file.
#[must_use]
pub fn fig4_gpufs_phase(file_bytes: u64, page: usize, window: usize, io_chunk: usize) -> f64 {
    let cfg = seq_config(file_bytes, page)
        .with_readahead(window)
        .with_io_chunk(io_chunk);
    throughput_mb_s(
        file_bytes,
        seq_phase(file_bytes, &Timings::default(), cfg, None),
    )
}

/// The Figure 5 workload: the Figure 4 sequential read re-run on the
/// paper prototype's DMA path (`io_chunk_pages = 0`) under a daemon pool
/// of `workers` threads over `channels` RPC channels, with whatever timing
/// components `timings` has surgically removed. Returns the elapsed
/// virtual time.
///
/// The prototype path keeps every single-page fault its own DMA
/// transaction: on the default engine the 28 blocks' concurrent faults
/// would join the scatter-gather ring and stop paying the very per-DMA
/// setup the figure's `−DMA` column measures.
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
    let cfg = seq_config(file_bytes, page)
        .with_concurrency(channels, workers)
        .with_io_chunk(0);
    seq_phase(file_bytes, timings, cfg, None)
}

/// The per-stream pipeline breakdown workload: **one** threadblock
/// streams a file sequentially at readahead `window`, so every
/// `ReadPages` RPC is a full batch and the measurement isolates what the
/// daemon's I/O engine (chunk size `io_chunk`, 0 = serialized) does
/// *inside* one RPC — with 28 saturating blocks the shared PCIe direction
/// hides it. Returns the elapsed virtual time; run with
/// component-excluded [`Timings`] copies for the breakdown.
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
    io_chunk: usize,
) -> Nanos {
    let cfg = seq_config(file_bytes, page)
        .with_readahead(window)
        .with_io_chunk(io_chunk);
    seq_phase(file_bytes, timings, cfg, Some(1))
}

/// `page`-sized pages and a buffer cache that holds the whole file: the
/// sequential phases measure the miss path, never eviction.
fn seq_config(file_bytes: u64, page: usize) -> GpufsConfig {
    GpufsConfig::new(page, (file_bytes as usize + 16 * page).next_power_of_two())
}

/// The sequential read every Figure 4/5 phase measures, on a one-GPU rig
/// built from `cfg`: create and warm the synthetic input (keep residency,
/// reset time, as the paper does), then let `blocks` threadblocks (default:
/// all the GPU runs at once, 28 as in the paper) each `gmmap` their
/// disjoint slice of it page by page. Returns the elapsed virtual time.
fn seq_phase(file_bytes: u64, timings: &Timings, cfg: GpufsConfig, blocks: Option<usize>) -> Nanos {
    let page = cfg.page_size;
    let r = rig_cfg(1, cfg.cache_bytes + (64 << 20), 8 << 30, timings, &cfg);
    let mount = r.host.mount(0, cfg).unwrap();
    let gpu = &r.gpus[0];
    let blocks = blocks.unwrap_or_else(|| gpu.spec().concurrent_blocks());
    r.fs.create_synthetic("/seq.bin", file_bytes, 4).unwrap();
    let _ = r.fs.read_whole("/seq.bin", 0).unwrap();
    r.fs.reset_device_time();
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
