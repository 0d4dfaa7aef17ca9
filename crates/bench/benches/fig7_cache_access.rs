//! Figure 7: buffer-cache access performance with and without lock-free
//! radix-tree traversal, normalized to raw memory access time.
//!
//! 112 threadblocks read a fully cached file in 16 KB chunks from
//! randomized offsets, contending on the per-file radix tree. The
//! baseline reads the same bytes straight from GPU memory with no GPUfs
//! involvement. Lock-free lookups cost only their local work; the locked
//! traversal additionally serializes on the per-tree lock, which convoys
//! the hundreds of concurrently running warps of real hardware. That
//! convoy is not modelled as a queue here: every locked access charges
//! its block an analytic `radix_lock_hold_ns × concurrent_blocks`
//! (`gpufs` `cache/paging.rs`), whether or not another block wants the
//! lock, so both ratios come out the same at every page size. ROADMAP
//! item 19 replaces the multiplier with contention from the schedule.
//! The paper reports the lock-free protocol at 85–88% of raw memory
//! speed and ~3x the locked variant.

use gpufs::{GOpenMode, GpufsConfig};
use gpufs_bench::{banner, human_size, rig};
use gpusim::Grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtime::Timings;
use std::sync::atomic::{AtomicU64, Ordering};

const FILE_BYTES: u64 = 16 << 20;
const FILE_PATH: &str = "/cached.bin";
const CHUNK: usize = 16 << 10;
const BLOCKS: usize = 112;
const READS_PER_BLOCK: usize = 2_000;

/// Page sizes from the paper's Figure 7 x-axis.
const PAGES: &[usize] = &[64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20];

fn gpufs_phase(page: usize, force_locked: bool) -> (f64, u64, u64) {
    let t = Timings::default();
    let cache = 64 << 20;
    let r = rig(1, cache + (32 << 20), 8 << 30, &t);
    r.fs.create_synthetic(FILE_PATH, FILE_BYTES, 9).unwrap();
    let cfg = GpufsConfig {
        force_locked,
        ..GpufsConfig::new(page, cache)
    };
    let mount = r.host.mount(0, cfg).unwrap();

    // Prefetch the file into the GPU buffer cache with a separate kernel,
    // excluding transfer time from the measurement (paper §5.1.3).
    let prefetch = r.gpus[0].launch(Grid::new(8, 256), 0, |blk| {
        let fd = mount.open(blk, FILE_PATH, GOpenMode::ReadOnly).unwrap();
        let per = FILE_BYTES / 8;
        let base = blk.block_id() as u64 * per;
        let mut buf = vec![0u8; 64 << 10];
        let mut off = 0;
        while off < per {
            let n = mount.read(blk, &fd, base + off, &mut buf).unwrap();
            off += n as u64;
        }
        mount.close(blk, fd).unwrap();
    });
    mount.counters().reset();

    // Continue the virtual timeline from the prefetch: cached pages'
    // ready times are then in this kernel's past.
    let sink = AtomicU64::new(0);
    let res = r.gpus[0].launch(Grid::new(BLOCKS, 256), prefetch.end, |blk| {
        let fd = mount.open(blk, FILE_PATH, GOpenMode::ReadOnly).unwrap();
        let mut rng = StdRng::seed_from_u64(blk.block_id() as u64 * 31 + 7);
        let mut dst = [0u8; CHUNK];
        let mut local = 0u64;
        for _ in 0..READS_PER_BLOCK {
            // Randomized chunk offsets cause non-trivial contention on
            // the buffer-cache structures (paper §5.1.3).
            let off = rng.gen_range(0..(FILE_BYTES / CHUNK as u64)) * CHUNK as u64;
            let n = mount.read(blk, &fd, off, &mut dst).unwrap();
            local = local.wrapping_add(u64::from(dst[0]) + n as u64);
        }
        sink.fetch_add(local, Ordering::Relaxed);
        mount.close(blk, fd).unwrap();
    });
    let elapsed = res.elapsed() as f64 / 1e9;
    (
        elapsed,
        mount.counters().lockfree_accesses.get(),
        mount.counters().locked_accesses.get(),
    )
}

fn raw_memory_phase() -> f64 {
    let t = Timings::default();
    let r = rig(1, 96 << 20, 8 << 30, &t);
    let buf = r.gpus[0].global().alloc(FILE_BYTES as usize).unwrap();
    let t = Timings::default();
    let sink = AtomicU64::new(0);
    let res = r.gpus[0].launch(Grid::new(BLOCKS, 256), 0, |blk| {
        let mut rng = StdRng::seed_from_u64(blk.block_id() as u64 * 31 + 7);
        let mut dst = [0u8; CHUNK];
        let mut local = 0u64;
        for _ in 0..READS_PER_BLOCK {
            let off = rng.gen_range(0..(FILE_BYTES / CHUNK as u64)) * CHUNK as u64;
            blk.gpu().global().read(buf + off as usize, &mut dst);
            // The raw baseline pays the same memory latency + bandwidth
            // as a GPUfs copy of the chunk, and nothing else.
            blk.advance(t.gpu_mem_latency_ns + simtime::bw_time_ns(CHUNK as u64, t.gpu_mem_mb_s));
            local = local.wrapping_add(u64::from(dst[0]));
        }
        sink.fetch_add(local, Ordering::Relaxed);
    });
    res.elapsed() as f64 / 1e9
}

fn main() {
    banner(
        "Figure 7 — warm buffer-cache access: lock-free vs locked, normalized to raw memory",
        "modelled (virtual-time) access cost of the concurrent radix tree (112 blocks, 16 KB chunks,\n\
         randomized offsets, file fully resident). paper: lock-free reaches 85-88% of raw\n\
         memory bandwidth and ~3x the locked variant",
    );
    let raw = raw_memory_phase();
    println!("raw GPU memory baseline: {:.4}s virtual\n", raw);
    println!(
        "{:>10} {:>18} {:>16} {:>22} {:>22}",
        "page", "lock-free/raw", "locked/raw", "lock-free accesses", "locked accesses"
    );
    for &page in PAGES {
        let (t_free, free_cnt, locked_cnt_fast) = gpufs_phase(page, false);
        let (t_locked, _, locked_cnt) = gpufs_phase(page, true);
        println!(
            "{:>10} {:>17.0}% {:>15.0}% {:>22} {:>22}",
            human_size(page as u64),
            100.0 * raw / t_free,
            100.0 * raw / t_locked,
            free_cnt,
            locked_cnt + locked_cnt_fast,
        );
    }
}
