//! Figure 5: contribution of different factors to file I/O performance as
//! a function of page size.
//!
//! The sequential-read workload of Figure 4 is re-run with timing
//! components surgically removed, exactly as the paper does: total time,
//! time with CPU→GPU DMA excluded, time with CPU file I/O excluded, and
//! time with both excluded (leaving RPC traffic plus GPUfs buffer-cache
//! code). Lower is better.
//!
//! The workload runs on the paper prototype's DMA path (`io_chunk_pages =
//! 0`) under the daemon's worker pool (2 workers over 4 RPC channels, the
//! paper's §4.3 multi-channel design), so the `−DMA` leg is bound by the
//! two workers' `pread` CPU. The `overlap` column is
//! `total / (−DMA + −file I/O)` — strictly below 1 when host file I/O and
//! DMA pipeline instead of adding up, which is the Figure 5 claim.
//!
//! A second table isolates the daemon's *in-RPC* pipeline: one
//! threadblock streams at readahead window 8, so every `ReadPages` is a
//! real multi-page batch and the chunked engine's pread/DMA overlap is
//! the dominant term (the 28-block run hides it behind the saturated
//! PCIe direction). Compare the pipelined default against the
//! serialized engine (`io_chunk_pages = 0`).

use gpufs::GpufsConfig;
use gpufs_bench::{banner, fig5_phase, fig5_pipe_phase, human_size, millis, PAGE_SIZES, SCALE};
use simtime::Timings;

const FILE_BYTES: u64 = (1800 << 20) / SCALE;
const PIPE_BYTES: u64 = FILE_BYTES / 4;
const PIPE_WINDOW: usize = 8;

/// Pool shape for the breakdown (≥ 2 workers so one worker's pread can
/// overlap another's DMA in real time too).
const CHANNELS: usize = 4;
const WORKERS: usize = 2;

fn main() {
    banner(
        "Figure 5 — time breakdown of sequential read vs page size",
        &format!(
            "file = {} MB (scale 1/{SCALE}); daemon pool: {WORKERS} workers over {CHANNELS} channels\n\
             the paper's rightmost column (cache code only) falls from 792 ms at 16K to ~2 ms\n\
             at 16M, shrinking proportionally to page count",
            FILE_BYTES >> 20
        ),
    );
    let base = Timings::default();
    println!(
        "{:>10} {:>12} {:>14} {:>16} {:>22} {:>9}",
        "page", "total (ms)", "-DMA (ms)", "-file I/O (ms)", "-DMA & -file I/O (ms)", "overlap"
    );
    let mut cache_only_series = Vec::new();
    for &page in PAGE_SIZES {
        let total = fig5_phase(FILE_BYTES, page, &base, CHANNELS, WORKERS);
        let no_dma = fig5_phase(FILE_BYTES, page, &base.without_dma(), CHANNELS, WORKERS);
        let no_io = fig5_phase(FILE_BYTES, page, &base.without_host_io(), CHANNELS, WORKERS);
        let bare = fig5_phase(
            FILE_BYTES,
            page,
            &base.rpc_and_cache_only(),
            CHANNELS,
            WORKERS,
        );
        cache_only_series.push((page, bare));
        println!(
            "{:>10} {:>12.1} {:>14.1} {:>16.1} {:>22.2} {:>9.2}",
            human_size(page as u64),
            millis(total),
            millis(no_dma),
            millis(no_io),
            millis(bare),
            total as f64 / (no_dma + no_io) as f64,
        );
    }
    // The paper's headline observation: page-cache overhead shrinks
    // proportionally to the number of map requests.
    let (p0, t0) = cache_only_series[0];
    let (p_last, t_last) = *cache_only_series.last().unwrap();
    println!(
        "\ncache-code-only ratio {} : {} = {:.0}x (page-count ratio = {}x)",
        human_size(p0 as u64),
        human_size(p_last as u64),
        t0 as f64 / t_last.max(1) as f64,
        p_last / p0,
    );

    banner(
        "In-RPC pipeline — one stream at window 8, chunked vs serialized engine",
        &format!(
            "file = {} MB, 1 threadblock; `serialized` is io_chunk_pages = 0 (all preads,\n\
             then one DMA); overlap = time / (−DMA + −file I/O) — max(DMA, I/O)/sum is the\n\
             perfect-pipelining floor",
            PIPE_BYTES >> 20
        ),
    );
    println!(
        "{:>10} {:>13} {:>15} {:>9} {:>15} {:>9}",
        "page", "piped (ms)", "serialized (ms)", "speedup", "floor", "overlap"
    );
    let engine = GpufsConfig::default().io_chunk_pages;
    for &page in PAGE_SIZES.iter().filter(|&&p| p as u64 <= PIPE_BYTES / 8) {
        let pipe = |timings: &Timings, io_chunk| {
            fig5_pipe_phase(PIPE_BYTES, page, timings, PIPE_WINDOW, io_chunk)
        };
        let piped = pipe(&base, engine);
        let serial = pipe(&base, 0);
        let no_dma = pipe(&base.without_dma(), engine);
        let no_io = pipe(&base.without_host_io(), engine);
        let sum = (no_dma + no_io) as f64;
        println!(
            "{:>10} {:>13.2} {:>15.2} {:>8.2}x {:>15.3} {:>9.3}",
            human_size(page as u64),
            millis(piped),
            millis(serial),
            serial as f64 / piped as f64,
            no_dma.max(no_io) as f64 / sum,
            piped as f64 / sum,
        );
    }
}
