//! Append one multi-GPU scaling record to `BENCH_scale.json` (JSONL:
//! one JSON object per line), so the repo carries the cluster layer's
//! perf trajectory across commits (paper §6: the image search sharded
//! across up to 8 GPUs).
//!
//! Run from the repository root (or anywhere — the output path can be
//! overridden):
//!
//! ```text
//! cargo run --release -p gpufs_bench --bin fig_scale_json [OUT_PATH]
//! ```
//!
//! Each record holds:
//!
//! * the **strong-scaling** sweep — one fixed uniform corpus, 1→8 GPUs
//!   under work stealing, aggregate scan throughput per GPU count, and
//!   the headline `speedup_max` (must exceed 3x at 8 GPUs);
//! * the **weak-scaling** sweep — corpus grows with the fleet (2 files
//!   per GPU), reporting elapsed time and `weak_efficiency` =
//!   `t(1) / t(max)`;
//! * the **skew** experiment — a corpus whose first files are several
//!   times the rest, static sharding vs work stealing (stealing must
//!   win, with a nonzero steal count);
//! * the **fleet-of-1 compat** block — the Figure-4 sequential-read
//!   phase (w1/w8 at 64 KB pages, on the paper prototype's DMA path,
//!   `io_chunk_pages = 0`) measured through a `GpuFleet` of one GPU
//!   next to the hand-assembled single-mount rig. The cluster layer
//!   is pure composition, so the two must agree to four digits, and at
//!   full scale they must keep reproducing the recorded single-mount
//!   baseline (w1@64K 1798.2 MB/s, w8@64K 4378.2 MB/s at scale 16).
//!
//! Every fleet here runs the paper prototype's daemon
//! (`gpufs_bench::PROTOTYPE_DAEMON`), as the recorded trajectory did: the
//! sweeps put up to eight GPUs' concurrent single-page faults behind one
//! daemon worker, which the default engine would serve through the DMA
//! ring and bound by that worker's CPU time.
//!
//! Set `GPUFS_BENCH_SMOKE=1` for a tiny-scale run (2 GPUs, small
//! corpus, scaled-down fig4 file) — used by CI to keep this recorder
//! from rotting; smoke records go to a scratch path, never to the
//! repo's BENCH file. Every invariant above except the absolute
//! recorded-baseline check (which only holds at full scale) is asserted
//! in-process, so a regression fails the run instead of recording bad
//! numbers.

use std::io::Write;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use gpufs::cluster::ShardStrategy;
use gpufs_bench::{fig4_fleet_phase, fig4_gpufs_phase_chunk, scale_phase, SCALE};

/// Paper file for the fig4 compat probe: 1.8 GB, scaled.
const FILE_BYTES: u64 = (1800 << 20) / SCALE;
/// Recorded single-mount fig4 baseline at 64 KB pages (BENCH_fig4.json).
const BASELINE_W1_64K: f64 = 1798.2;
const BASELINE_W8_64K: f64 = 4378.2;

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn git_dirty() -> bool {
    Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_none_or(|o| !o.stdout.is_empty())
}

/// Four-significant-digit agreement, the repo's compat bar.
fn agree_4_digits(a: f64, b: f64) -> bool {
    (a - b).abs() <= b.abs() * 5e-4
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scale.json".to_owned());
    let smoke = std::env::var("GPUFS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let gpu_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let strong_files = if smoke { 4 } else { 16 };

    // Strong scaling: one fixed corpus, more GPUs.
    let mut strong_rows = Vec::new();
    let mut strong_mb_s = Vec::new();
    for &n in gpu_counts {
        let out = scale_phase(n, strong_files, &[], ShardStrategy::WorkStealing);
        eprintln!(
            "strong {n} gpu(s): {:>8.0} MB/s ({:.2} ms, {} steals)",
            out.mb_s,
            out.elapsed as f64 / 1e6,
            out.steals
        );
        strong_rows.push(format!(
            "{{\"gpus\":{n},\"mb_s\":{:.1},\"ms\":{:.3},\"steals\":{}}}",
            out.mb_s,
            out.elapsed as f64 / 1e6,
            out.steals
        ));
        strong_mb_s.push(out.mb_s);
    }
    let speedup_max = strong_mb_s.last().unwrap() / strong_mb_s[0];
    eprintln!(
        "strong speedup at {} GPUs: {speedup_max:.2}x",
        gpu_counts.last().unwrap()
    );
    if smoke {
        assert!(
            speedup_max > 1.2,
            "2-GPU smoke fleet must beat one GPU, got {speedup_max:.2}x"
        );
    } else {
        assert!(
            speedup_max > 3.0,
            "8-GPU fleet must exceed 3x aggregate throughput, got {speedup_max:.2}x"
        );
    }

    // Weak scaling: corpus grows with the fleet (2 files per GPU).
    let mut weak_rows = Vec::new();
    let mut weak_ms = Vec::new();
    for &n in gpu_counts {
        let out = scale_phase(n, 2 * n, &[], ShardStrategy::WorkStealing);
        let ms = out.elapsed as f64 / 1e6;
        eprintln!(
            "weak   {n} gpu(s): {ms:>8.2} ms ({:.0} MB/s aggregate)",
            out.mb_s
        );
        weak_rows.push(format!(
            "{{\"gpus\":{n},\"ms\":{ms:.3},\"mb_s\":{:.1}}}",
            out.mb_s
        ));
        weak_ms.push(ms);
    }
    let weak_efficiency = weak_ms[0] / weak_ms.last().unwrap();

    // Skew: the first quarter of the files carry several times the
    // images, so the contiguous file deal overloads the first shard(s).
    let skew_gpus = if smoke { 2 } else { 4 };
    let skew_files = 2 * skew_gpus;
    let weights: Vec<usize> = (0..skew_files).map(|f| if f < 2 { 6 } else { 1 }).collect();
    let skew_static = scale_phase(skew_gpus, skew_files, &weights, ShardStrategy::Static);
    let skew_steal = scale_phase(skew_gpus, skew_files, &weights, ShardStrategy::WorkStealing);
    let skew_speedup = skew_static.elapsed as f64 / skew_steal.elapsed as f64;
    eprintln!(
        "skew ({skew_gpus} gpus): static {:.2} ms vs stealing {:.2} ms = {skew_speedup:.2}x ({} steals)",
        skew_static.elapsed as f64 / 1e6,
        skew_steal.elapsed as f64 / 1e6,
        skew_steal.steals
    );
    assert_eq!(skew_static.steals, 0, "static sharding must never steal");
    assert!(
        skew_steal.steals > 0,
        "the skewed corpus must provoke steals"
    );
    assert!(
        skew_steal.elapsed < skew_static.elapsed,
        "work stealing must beat static sharding on a skewed corpus \
         ({} vs {} ns)",
        skew_steal.elapsed,
        skew_static.elapsed
    );

    // Fleet-of-1 fig4 compat: the cluster layer must be free. Pinned to
    // the paper prototype's DMA path (`io_chunk_pages = 0`), the engine
    // the recorded 1798.2 / 4378.2 baseline was measured on: on the
    // default chunked engine a window-8 batch's first chunk may join a
    // neighbour's open scatter-gather list, which both moves the figure
    // (that is `seq_read_cold`'s gain) and makes two runs of it differ by
    // which racing batch found the list open.
    let file_bytes = if smoke { FILE_BYTES / 16 } else { FILE_BYTES };
    let w1_single = fig4_gpufs_phase_chunk(file_bytes, 64 << 10, 1, Some(0));
    let w1_fleet = fig4_fleet_phase(file_bytes, 64 << 10, 1, Some(0));
    let w8_single = fig4_gpufs_phase_chunk(file_bytes, 64 << 10, 8, Some(0));
    let w8_fleet = fig4_fleet_phase(file_bytes, 64 << 10, 8, Some(0));
    eprintln!(
        "fleet-of-1 fig4 compat @64K: w1 {w1_fleet:.1} (single {w1_single:.1}), \
         w8 {w8_fleet:.1} (single {w8_single:.1}) MB/s"
    );
    if smoke {
        // The fig4 phases are only run-to-run deterministic at full
        // scale. The 7 MB smoke file is 14 window-8 batches for 28
        // blocks, so its w8 figure is dispatch luck (measured 2712–3401
        // MB/s between identical in-process runs, on either rig): smoke
        // holds window 1 to a coarse band around the single-mount number
        // and asks of window 8 only that readahead still pays on both.
        assert!(
            (w1_fleet - w1_single).abs() <= w1_single * 0.10
                && w8_fleet > w1_fleet
                && w8_single > w1_single,
            "fleet-of-1 ({w1_fleet:.1}/{w8_fleet:.1}) strays from the \
             single-mount rig ({w1_single:.1}/{w8_single:.1})"
        );
    } else {
        // Window 1 is the strict gate: measured run-to-run stable to
        // ~5e-5 relative, so four digits is a real invariant. Window 8's
        // readahead makes the phase scheduling-sensitive (racy stream-
        // slot claiming; even the two recorded BENCH_fig4.json entries
        // differ, 4378.2 vs 4377.0, and under machine load the spread
        // reaches ~0.3%), so it gets a band that catches a real
        // regression without flaking on jitter the single-mount rig
        // exhibits by itself.
        let w8_band = |a: f64, b: f64| (a - b).abs() <= b.abs() * 5e-3;
        assert!(
            agree_4_digits(w1_fleet, w1_single) && w8_band(w8_fleet, w8_single),
            "a fleet of one must reproduce the single-mount rig \
             ({w1_fleet:.1}/{w8_fleet:.1} vs {w1_single:.1}/{w8_single:.1})"
        );
        assert!(
            agree_4_digits(w1_fleet, BASELINE_W1_64K) && w8_band(w8_fleet, BASELINE_W8_64K),
            "fleet-of-1 must reproduce the recorded fig4 baseline \
             ({BASELINE_W1_64K}/{BASELINE_W8_64K}), got {w1_fleet:.1}/{w8_fleet:.1}"
        );
    }

    let record = format!(
        "{{\"bench\":\"scale_image_search\",\"unix_time\":{unix_time},\"git\":\"{}\",\
         \"dirty\":{},\"smoke\":{smoke},\"scale\":{SCALE},\
         \"speedup_max\":{speedup_max:.3},\"strong\":[{}],\
         \"weak_efficiency\":{weak_efficiency:.3},\"weak\":[{}],\
         \"skew\":{{\"gpus\":{skew_gpus},\"static_ms\":{:.3},\"steal_ms\":{:.3},\
         \"steal_speedup\":{skew_speedup:.3},\"steals\":{}}},\
         \"fleet1_fig4_compat\":{{\"page\":65536,\"file_bytes\":{file_bytes},\
         \"mb_s_w1_fleet\":{w1_fleet:.1},\"mb_s_w1_single\":{w1_single:.1},\
         \"mb_s_w8_fleet\":{w8_fleet:.1},\"mb_s_w8_single\":{w8_single:.1}}}}}",
        git_head(),
        git_dirty(),
        strong_rows.join(","),
        weak_rows.join(","),
        skew_static.elapsed as f64 / 1e6,
        skew_steal.elapsed as f64 / 1e6,
        skew_steal.steals,
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
