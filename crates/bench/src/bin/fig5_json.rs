//! Append one Figure-5 measurement record to `BENCH_fig5.json` (JSONL:
//! one JSON object per line, the same convention as `BENCH_fig4.json`),
//! so the repo carries its own breakdown + write-back perf trajectory
//! across commits.
//!
//! Run from the repository root (or anywhere — the output path can be
//! overridden):
//!
//! ```text
//! cargo run --release -p gpufs_bench --bin fig5_json [OUT_PATH]
//! ```
//!
//! Each record holds three sweeps:
//!
//! * `sweep` — the Figure-5 breakdown (total, −DMA, −file I/O, −both,
//!   in ms) of the 28-block window-1 workload under a 2-worker /
//!   4-channel pool: the PR-3 baseline, pinned by `fig5_phase` to the
//!   paper prototype's daemon (`io_chunk_pages = 0`: on the default
//!   engine its concurrent single-page faults would join the DMA ring),
//!   so every record doubles as the compat-reproduction proof. Its
//!   64 KB overlap is recorded as `compat_overlap_64k` (recorded
//!   baseline: 0.973).
//! * `pipe` — the per-RPC pipeline breakdown: **one** threadblock
//!   streams at readahead window 8, where a batch is a real multi-page
//!   RPC and the daemon engine's internal serialization is the dominant
//!   term (28 saturating blocks hide it behind the shared PCIe
//!   direction). Per page size: the deep-staged total (`io_depth` =
//!   [`PIPE_DEPTH`]), the double-buffered total (`io_depth = 2`, the
//!   prior engine bit-for-bit — recorded as `overlap_64k_depth2` and
//!   asserted against its 0.598 baseline), the serialized total
//!   (`io_chunk_pages = 0`), and the component-excluded times. Every
//!   `overlap` in this sweep uses the **same yardstick**: the
//!   depth-2-engine `−DMA + −file I/O` denominator, so deepening the
//!   staging ring can only move the numerator — the headline
//!   `overlap_64k` is the deep engine measured against the
//!   double-buffered ideal, and the tentpole claim is that it closes
//!   from 0.598 toward the max(DMA, I/O)/sum floor.
//! * `write` — the 64 KB write-back sweep (batched cap 32 vs per-page
//!   RPCs) under the default engine, the serialized-engine batched
//!   number for the pipeline's before/after, and the asynchronous
//!   write-back number (`mb_s_async`): the same workload with the
//!   background flusher on, which must never fall below the recorded
//!   synchronous baseline.
//!
//! Set `GPUFS_BENCH_SMOKE=1` for a tiny-scale CI smoke run (write the
//! record to a scratch path, never the repo's BENCH file).

use std::io::Write;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use gpufs::GpufsConfig;
use gpufs_bench::{
    fig5_phase, fig5_pipe_phase_depth, millis, write_phase, write_phase_async, write_phase_chunk,
    PAGE_SIZES, SCALE,
};
use simtime::Timings;

/// Paper file: 1.8 GB, scaled like the bench target.
const FILE_BYTES: u64 = (1800 << 20) / SCALE;
/// Write sweep file: 512 MB scaled, as in the `write_throughput` bench.
const WRITE_BYTES: u64 = (512 << 20) / SCALE;
/// Pipe sweep file: a quarter of the Figure-5 file — one block streams
/// it alone, so the sweep stays in seconds of wall time.
const PIPE_BYTES: u64 = FILE_BYTES / 4;
/// Readahead window of the pipe sweep (the fig4 w8 batching geometry).
const PIPE_WINDOW: usize = 8;
const CHANNELS: usize = 4;
const WORKERS: usize = 2;
const WRITE_BATCH: usize = 32;
/// Staging depth of the deep-engine pipe sweep (the headline series);
/// `2` is the double-buffered compat engine every denominator uses.
const PIPE_DEPTH: usize = 4;
/// Async write-back watermarks of the `mb_s_async` probe: the flusher
/// engages above 32 dirty pages; the high mark sits beyond the sweep
/// file's page count, so the probe measures background draining without
/// the throttle serializing the 28 writer blocks behind the one flusher
/// lane (the throttle's own semantics are covered by the stress suite).
const DIRTY_HIGH: usize = 1024;
const DIRTY_LOW: usize = 32;
/// Recorded depth-2 baselines (scale 16): the double-buffered engine's
/// 64 KB pipe overlap and the 28-block breakdown's compat overlap. A
/// non-smoke run asserts both still reproduce to these four digits.
const BASELINE_OVERLAP_64K_DEPTH2: &str = "0.598";
const BASELINE_COMPAT_OVERLAP_64K: &str = "0.973";

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Whether the working tree differs from HEAD — recorded so a
/// measurement of uncommitted code is never mistaken for the revision
/// it happens to sit on.
fn git_dirty() -> bool {
    Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_none_or(|o| !o.stdout.is_empty())
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fig5.json".to_owned());
    let smoke = std::env::var("GPUFS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (file_bytes, write_bytes, pipe_bytes) = if smoke {
        (FILE_BYTES / 16, WRITE_BYTES / 16, PIPE_BYTES / 16)
    } else {
        (FILE_BYTES, WRITE_BYTES, PIPE_BYTES)
    };
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let io_chunk_default = GpufsConfig::default().io_chunk_pages;

    // ---- Baseline breakdown (PR-3 compat): 28 blocks, window 1. -------
    let base = Timings::default();
    let mut rows = Vec::new();
    let mut compat_overlap_64k = 0.0f64;
    for &page in PAGE_SIZES
        .iter()
        .filter(|&&p| !smoke || p as u64 <= file_bytes / 8)
    {
        let total = fig5_phase(file_bytes, page, &base, CHANNELS, WORKERS);
        let no_dma = fig5_phase(file_bytes, page, &base.without_dma(), CHANNELS, WORKERS);
        let no_io = fig5_phase(file_bytes, page, &base.without_host_io(), CHANNELS, WORKERS);
        let bare = fig5_phase(
            file_bytes,
            page,
            &base.rpc_and_cache_only(),
            CHANNELS,
            WORKERS,
        );
        let overlap = total as f64 / (no_dma + no_io) as f64;
        if page == 64 << 10 {
            compat_overlap_64k = overlap;
        }
        eprintln!(
            "base page {page:>9}: total {:>8.1} ms, -dma {:>8.1}, -io {:>8.1}, bare {:>7.2}, overlap {overlap:.2}",
            millis(total),
            millis(no_dma),
            millis(no_io),
            millis(bare),
        );
        rows.push(format!(
            "{{\"page\":{page},\"total_ms\":{:.2},\"no_dma_ms\":{:.2},\"no_io_ms\":{:.2},\"bare_ms\":{:.2}}}",
            millis(total),
            millis(no_dma),
            millis(no_io),
            millis(bare),
        ));
    }

    // ---- Pipeline breakdown: 1 block, window 8, deep vs double-buffered
    // vs serialized. Every overlap shares the depth-2 denominator so the
    // series are comparable across engines (see the module docs).
    let mut pipe_rows = Vec::new();
    let mut overlap_64k = 0.0f64;
    let mut overlap_64k_depth2 = 0.0f64;
    let mut overlap_64k_serialized = 0.0f64;
    let mut pipe_speedup_64k = 0.0f64;
    for &page in PAGE_SIZES.iter().filter(|&&p| p as u64 <= pipe_bytes / 8) {
        let deep = fig5_pipe_phase_depth(pipe_bytes, page, &base, PIPE_WINDOW, None, PIPE_DEPTH);
        let piped = fig5_pipe_phase_depth(pipe_bytes, page, &base, PIPE_WINDOW, None, 2);
        let serial = fig5_pipe_phase_depth(pipe_bytes, page, &base, PIPE_WINDOW, Some(0), 2);
        let no_dma =
            fig5_pipe_phase_depth(pipe_bytes, page, &base.without_dma(), PIPE_WINDOW, None, 2);
        let no_io = fig5_pipe_phase_depth(
            pipe_bytes,
            page,
            &base.without_host_io(),
            PIPE_WINDOW,
            None,
            2,
        );
        let sum = (no_dma + no_io) as f64;
        let (o_deep, o_piped, o_serial) =
            (deep as f64 / sum, piped as f64 / sum, serial as f64 / sum);
        if page == 64 << 10 {
            overlap_64k = o_deep;
            overlap_64k_depth2 = o_piped;
            overlap_64k_serialized = o_serial;
            pipe_speedup_64k = serial as f64 / deep as f64;
        }
        eprintln!(
            "pipe page {page:>9}: depth-{PIPE_DEPTH} {:>7.2} ms (overlap {o_deep:.3}), depth-2 {:>7.2} ms ({o_piped:.3}), serialized {:>7.2} ms ({o_serial:.3})",
            millis(deep),
            millis(piped),
            millis(serial),
        );
        pipe_rows.push(format!(
            "{{\"page\":{page},\"deep_ms\":{:.2},\"piped_ms\":{:.2},\"serial_ms\":{:.2},\"no_dma_ms\":{:.2},\"no_io_ms\":{:.2},\
             \"overlap\":{o_deep:.3},\"overlap_depth2\":{o_piped:.3},\"overlap_serial\":{o_serial:.3}}}",
            millis(deep),
            millis(piped),
            millis(serial),
            millis(no_dma),
            millis(no_io),
        ));
    }

    // ---- Write-back sweep at 64 KB. -----------------------------------
    let wpage = 64 << 10;
    let w1 = write_phase(write_bytes, wpage, 1, CHANNELS, WORKERS);
    let wb = write_phase(write_bytes, wpage, WRITE_BATCH, CHANNELS, WORKERS);
    let wb_serial = write_phase_chunk(write_bytes, wpage, WRITE_BATCH, CHANNELS, WORKERS, Some(0));
    let wb_async = write_phase_async(
        write_bytes,
        wpage,
        WRITE_BATCH,
        CHANNELS,
        WORKERS,
        DIRTY_HIGH,
        DIRTY_LOW,
    );
    eprintln!(
        "write 64K: b=1 {:.0} MB/s / {} rpcs, b={WRITE_BATCH} {:.0} MB/s / {} rpcs (serialized engine: {:.0} MB/s, async flusher: {:.0} MB/s)",
        w1.mb_s, w1.write_rpcs, wb.mb_s, wb.write_rpcs, wb_serial.mb_s, wb_async.mb_s
    );

    if !smoke {
        // Equivalence guards, re-proved on every record: the compat
        // settings (double-buffered engine, synchronous write-back) must
        // keep reproducing the recorded baselines to four digits, and
        // the async flusher must never cost write throughput.
        assert_eq!(
            format!("{overlap_64k_depth2:.3}"),
            BASELINE_OVERLAP_64K_DEPTH2,
            "depth-2 pipe overlap @64K drifted from its recorded baseline"
        );
        assert_eq!(
            format!("{compat_overlap_64k:.3}"),
            BASELINE_COMPAT_OVERLAP_64K,
            "28-block compat overlap @64K drifted from its recorded baseline"
        );
        assert!(
            overlap_64k < overlap_64k_depth2,
            "the deep staging ring must close the overlap gap \
             ({overlap_64k:.3} vs depth-2 {overlap_64k_depth2:.3})"
        );
        // The write phase's 28 writer blocks race over 2 real daemon
        // workers, so both series jitter a few percent run to run; the
        // guard is relative. The repo's recorded non-smoke records hold
        // the absolute bar (mb_s_async >= the 5055 MB/s sync baseline).
        assert!(
            wb_async.mb_s >= wb.mb_s * 0.97,
            "async write-back fell below the synchronous path \
             ({:.1} vs {:.1} MB/s)",
            wb_async.mb_s,
            wb.mb_s
        );
    }

    let record = format!(
        "{{\"bench\":\"fig5_breakdown\",\"unix_time\":{unix_time},\"git\":\"{}\",\
         \"dirty\":{},\"scale\":{SCALE},\"file_bytes\":{file_bytes},\"smoke\":{smoke},\
         \"channels\":{CHANNELS},\"workers\":{WORKERS},\"io_chunk\":{io_chunk_default},\
         \"io_depth\":{PIPE_DEPTH},\"compat_overlap_64k\":{compat_overlap_64k:.3},\
         \"overlap_64k\":{overlap_64k:.3},\"overlap_64k_depth2\":{overlap_64k_depth2:.3},\
         \"overlap_64k_serialized\":{overlap_64k_serialized:.3},\
         \"pipe_speedup_64k\":{pipe_speedup_64k:.3},\
         \"write\":{{\"page\":{wpage},\"file_bytes\":{write_bytes},\
         \"mb_s_b1\":{:.1},\"rpcs_b1\":{},\"mb_s_b{WRITE_BATCH}\":{:.1},\"rpcs_b{WRITE_BATCH}\":{},\
         \"mb_s_b{WRITE_BATCH}_serialized\":{:.1},\
         \"mb_s_async\":{:.1},\"dirty_high\":{DIRTY_HIGH},\"dirty_low\":{DIRTY_LOW},\
         \"write_speedup_64k\":{:.3},\"write_rpc_ratio_64k\":{:.1}}},\
         \"pipe\":{{\"file_bytes\":{pipe_bytes},\"window\":{PIPE_WINDOW},\"blocks\":1,\
         \"io_depth\":{PIPE_DEPTH},\"sweep\":[{}]}},\
         \"sweep\":[{}]}}",
        git_head(),
        git_dirty(),
        w1.mb_s,
        w1.write_rpcs,
        wb.mb_s,
        wb.write_rpcs,
        wb_serial.mb_s,
        wb_async.mb_s,
        wb.mb_s / w1.mb_s,
        w1.write_rpcs as f64 / wb.write_rpcs.max(1) as f64,
        pipe_rows.join(","),
        rows.join(",")
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .unwrap_or_else(|e| panic!("cannot open {out_path}: {e}"));
    writeln!(f, "{record}").expect("write record");
    println!("{record}");
    eprintln!("appended to {out_path}");
}
