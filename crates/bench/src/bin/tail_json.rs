//! Append one multi-tenant tail-latency record to `BENCH_tail.json`
//! (JSONL: one JSON object per line), so the repo carries the tenant
//! layer's perf trajectory across commits.
//!
//! Run from the repository root (or anywhere — the output path can be
//! overridden):
//!
//! ```text
//! cargo run --release -p gpufs_bench --bin tail_json [OUT_PATH]
//! ```
//!
//! The experiment is a skewed two-tenant trace on a one-GPU fleet:
//! tenant 0 (the **victim**) issues modest point-lookup traffic over the
//! Zipf-popular corpus files; tenant 1 (the **hog**) floods the same
//! mount with an order of magnitude more sequential-scan traffic, whose
//! streaming misses both saturate the disk head and — unpartitioned —
//! evict the victim's hot pages. The trace is replayed twice:
//!
//! * `fifo` — stock single-tenant defaults: the fair FIFO hub and an
//!   unpartitioned frame arena, i.e. exactly yesterday's GPUfs.
//! * `weighted` — the tenant knobs on: victim-favoring weighted deficit
//!   round-robin dispatch (`tenant_weights`), an in-flight admission
//!   cap on the hog (`tenant_admission`), and soft per-tenant frame
//!   quotas (`tenant_frame_quotas`) so the hog's scans evict the hog's
//!   own pages first.
//!
//! The headline assertions, checked in-process so a regression fails
//! the run instead of recording bad numbers:
//!
//! * the victim's p99 fault latency improves by at least **2x** under
//!   `weighted` (`victim_p99_speedup`);
//! * aggregate data throughput gives up at most **10%**
//!   (`throughput_ratio >= 0.9`);
//! * the **compat leg**: the same binary re-measures the recorded
//!   single-tenant baselines through tenant-free configs (the fig4
//!   probes on the paper prototype's DMA path, `io_chunk_pages = 0`) —
//!   fig4 w1@64K must reproduce 1798.2 MB/s to four digits, w8@64K must
//!   stay within the recorded jitter band of 4378.2 MB/s, and the fig5
//!   breakdown's 64 KB overlap must reproduce 0.973 — proving the
//!   tenant layer costs nothing when unused.
//!
//! Set `GPUFS_BENCH_SMOKE=1` for a tiny-scale CI smoke run (smaller
//! trace, scaled-down compat files, coarse bands; the record goes to a
//! scratch path, never the repo's BENCH file).

use std::io::Write;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use gpufs::cluster::FleetBuilder;
use gpufs::GpufsConfig;
use gpufs_bench::{fig4_gpufs_phase_chunk, fig5_phase, SCALE};
use simtime::Timings;
use workloads::traffic::{run_traffic, TenantClass, TenantLoad, TrafficConfig, TrafficOutcome};

/// Paper file for the fig4 compat probe: 1.8 GB, scaled.
const FILE_BYTES: u64 = (1800 << 20) / SCALE;
/// Recorded single-mount fig4 baselines at 64 KB pages (BENCH_fig4.json).
const BASELINE_W1_64K: f64 = 1798.2;
const BASELINE_W8_64K: f64 = 4378.2;
/// Recorded fig5 28-block 64 KB overlap (BENCH_fig5.json).
const BASELINE_COMPAT_OVERLAP_64K: f64 = 0.973;
/// Fig5 compat pool geometry (the recorded baseline's).
const CHANNELS: usize = 4;
const WORKERS: usize = 2;

/// Buffer-cache page size of the tail experiment.
const PAGE: usize = 4 << 10;
/// Buffer cache: 64 frames — the victim's 48-page hot index plus
/// change, far below the hog's ~1000-page streaming footprint, so
/// unpartitioned scans cycle the whole arena between two victim
/// touches of the same page.
const CACHE: usize = 64 * PAGE;
/// Victim : hog dispatch weights under `weighted`.
const WEIGHTS: [u32; 2] = [8, 1];
/// Hog in-flight RPC cap under `weighted` (victim uncapped).
const ADMISSION: [usize; 2] = [0, 4];
/// Soft frame quotas under `weighted`: the victim keeps its hot set
/// resident; the hog is held to a stripe and steals only idle frames,
/// so its reclaims eat its own pages first.
const QUOTAS: [usize; 2] = [56, 8];

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

/// Four-significant-digit agreement, the repo's compat bar.
fn agree_4_digits(a: f64, b: f64) -> bool {
    (a - b).abs() <= b.abs() * 5e-4
}

/// The skewed two-tenant trace both legs replay: tenant 0 is the
/// point-lookup victim, tenant 1 the 10x scan hog.
/// The skewed two-tenant trace both legs replay (virtual-time cost is
/// milliseconds, so smoke runs the full trace and only scales the
/// compat files). The victim's point lookups hammer a 3-file hot index
/// (48 pages) whose re-reads a partition can keep resident; its session
/// count is sized so the unavoidable 48 cold faults stay under 1% of
/// its samples — the p99 then reports steady-state behavior, not
/// warmup. The hog streams the whole mildly-skewed corpus with 10x the
/// data volume.
fn trace_cfg() -> TrafficConfig {
    TrafficConfig {
        seed: 42,
        dir: "/tail".into(),
        n_files: 64,
        file_bytes: 64 << 10,
        zipf_s: 0.3,
        op_bytes: PAGE,
        // Let blocks run ~one burst apart: virtually-concurrent requests
        // then queue together at the hub, so dispatch order is a real
        // choice (strict lock-step would hand the daemon one request at
        // a time and make every policy look identical).
        pace_lag_ns: 200_000,
        tenants: vec![
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
            TenantLoad {
                class: TenantClass::Scan,
                blocks: 8,
                sessions: 96,
                arrival_gap_ns: 5_000,
                burst_sessions: 16,
                off_gap_ns: 50_000,
                ops_per_session: 16,
                hot_files: 0,
            },
        ],
    }
}

/// One leg's outcome plus the per-tenant cache miss counts (read off
/// the mount's tenant counter sheets before shutdown).
struct Leg {
    out: TrafficOutcome,
    misses: [u64; 2],
}

/// Replay the trace on a fresh one-GPU fleet mounted with `config`.
fn leg(config: GpufsConfig, cfg: &TrafficConfig) -> Leg {
    let mut fleet = FleetBuilder::new(1)
        .config(config)
        .timings(Timings::default())
        .build()
        .expect("fleet build");
    let out = run_traffic(&fleet, cfg).expect("traffic replay");
    let m = fleet.mount(0);
    let misses = [
        m.tenant_counters(0).misses.get(),
        m.tenant_counters(1).misses.get(),
    ];
    fleet.shutdown();
    Leg { out, misses }
}

fn tenant_json(l: &Leg, t: usize) -> String {
    let d = &l.out.per_tenant[t];
    // In the FIFO leg the mount has a single (aggregate) counter sheet,
    // so both tenants report the combined miss count there.
    format!(
        "{{\"ops\":{},\"bytes\":{},\"p50\":{},\"p99\":{},\"p999\":{},\
         \"mean\":{:.0},\"max\":{},\"cache_misses\":{}}}",
        d.ops, d.bytes, d.p50, d.p99, d.p999, d.mean, d.max, l.misses[t]
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_tail.json".to_owned());
    let smoke = std::env::var("GPUFS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cfg = trace_cfg();

    // ---- FIFO leg: stock defaults, the tenant layer dormant. ----------
    let fifo = leg(GpufsConfig::new(PAGE, CACHE), &cfg);
    // ---- Weighted leg: dispatch weights + admission cap + quotas. -----
    let weighted = leg(
        GpufsConfig::new(PAGE, CACHE)
            .with_tenant_weights(WEIGHTS.to_vec())
            .with_tenant_admission(ADMISSION.to_vec())
            .with_tenant_quotas(QUOTAS.to_vec()),
        &cfg,
    );
    for (name, l) in [("fifo", &fifo), ("weighted", &weighted)] {
        let o = &l.out;
        eprintln!(
            "{name:>8}: victim p50 {:>7} p99 {:>8} p999 {:>8} ns | hog p99 {:>9} ns | \
             victim misses {:>5} | {:>5.1} MB/s aggregate, fairness {:.3}",
            o.per_tenant[0].p50,
            o.per_tenant[0].p99,
            o.per_tenant[0].p999,
            o.per_tenant[1].p99,
            l.misses[0],
            o.throughput_mb_s,
            o.fairness,
        );
    }
    let victim_p99_speedup =
        fifo.out.per_tenant[0].p99 as f64 / weighted.out.per_tenant[0].p99 as f64;
    let throughput_ratio = weighted.out.throughput_mb_s / fifo.out.throughput_mb_s;
    eprintln!(
        "victim p99 speedup {victim_p99_speedup:.2}x, throughput ratio {throughput_ratio:.3}"
    );
    assert!(
        victim_p99_speedup >= 2.0,
        "weighted dispatch + quotas must cut the victim's p99 at least 2x \
         ({} -> {} ns is only {victim_p99_speedup:.2}x)",
        fifo.out.per_tenant[0].p99,
        weighted.out.per_tenant[0].p99
    );
    assert!(
        throughput_ratio >= 0.9,
        "isolation must cost at most 10% aggregate throughput \
         ({:.1} -> {:.1} MB/s is {throughput_ratio:.3})",
        fifo.out.throughput_mb_s,
        weighted.out.throughput_mb_s
    );

    // ---- Compat leg: tenancy off must still be yesterday's GPUfs. ----
    // The fig4 probes pin the paper prototype's DMA path
    // (`io_chunk_pages = 0`), on which the baseline was recorded: on the
    // default chunked engine a window-8 batch may now join a neighbour's
    // open scatter-gather transaction, which is a different (faster)
    // figure, not a tenancy regression.
    let file_bytes = if smoke { FILE_BYTES / 16 } else { FILE_BYTES };
    let w1 = fig4_gpufs_phase_chunk(file_bytes, 64 << 10, 1, Some(0));
    let w8 = fig4_gpufs_phase_chunk(file_bytes, 64 << 10, 8, Some(0));
    let base = Timings::default();
    let total = fig5_phase(file_bytes, 64 << 10, &base, CHANNELS, WORKERS);
    let no_dma = fig5_phase(file_bytes, 64 << 10, &base.without_dma(), CHANNELS, WORKERS);
    let no_io = fig5_phase(
        file_bytes,
        64 << 10,
        &base.without_host_io(),
        CHANNELS,
        WORKERS,
    );
    let overlap = total as f64 / (no_dma + no_io) as f64;
    eprintln!("compat @64K: w1 {w1:.1} MB/s, w8 {w8:.1} MB/s, fig5 overlap {overlap:.3}");
    if !smoke {
        // Window 1 and the 28-block overlap are run-to-run stable to four
        // digits; window 8's readahead carries the recorded ~0.3% jitter
        // band (see fig_scale_json for the measurement notes).
        let w8_band = |a: f64, b: f64| (a - b).abs() <= b.abs() * 5e-3;
        assert!(
            agree_4_digits(w1, BASELINE_W1_64K) && w8_band(w8, BASELINE_W8_64K),
            "single-tenant defaults must reproduce the recorded fig4 baseline \
             ({BASELINE_W1_64K}/{BASELINE_W8_64K}), got {w1:.1}/{w8:.1}"
        );
        assert!(
            agree_4_digits(overlap, BASELINE_COMPAT_OVERLAP_64K),
            "single-tenant defaults must reproduce the recorded fig5 overlap \
             ({BASELINE_COMPAT_OVERLAP_64K}), got {overlap:.4}"
        );
    }

    let record = format!(
        "{{\"bench\":\"tail_multi_tenant\",\"unix_time\":{unix_time},\"git\":\"{}\",\
         \"dirty\":{},\"smoke\":{smoke},\"scale\":{SCALE},\
         \"page\":{PAGE},\"cache\":{CACHE},\
         \"weights\":[{},{}],\"admission\":[{},{}],\"quotas\":[{},{}],\
         \"victim_p99_speedup\":{victim_p99_speedup:.3},\
         \"throughput_ratio\":{throughput_ratio:.3},\
         \"fifo\":{{\"victim\":{},\"hog\":{},\"fairness\":{:.3},\"mb_s\":{:.1},\"elapsed_ns\":{}}},\
         \"weighted\":{{\"victim\":{},\"hog\":{},\"fairness\":{:.3},\"mb_s\":{:.1},\"elapsed_ns\":{}}},\
         \"compat\":{{\"page\":65536,\"file_bytes\":{file_bytes},\"mb_s_w1\":{w1:.1},\
         \"mb_s_w8\":{w8:.1},\"fig5_overlap\":{overlap:.3}}}}}",
        git_head(),
        git_dirty(),
        WEIGHTS[0],
        WEIGHTS[1],
        ADMISSION[0],
        ADMISSION[1],
        QUOTAS[0],
        QUOTAS[1],
        tenant_json(&fifo, 0),
        tenant_json(&fifo, 1),
        fifo.out.fairness,
        fifo.out.throughput_mb_s,
        fifo.out.elapsed,
        tenant_json(&weighted, 0),
        tenant_json(&weighted, 1),
        weighted.out.fairness,
        weighted.out.throughput_mb_s,
        weighted.out.elapsed,
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
