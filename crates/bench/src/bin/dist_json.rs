//! Append one cross-host scaling record to `BENCH_dist.json` (JSONL:
//! one JSON object per line) — the storage-tier split's perf
//! trajectory: M hosts × N GPUs behind per-host proxies and host page
//! caches, one storage server, simulated network links.
//!
//! Run from the repository root (or anywhere — the output path can be
//! overridden):
//!
//! ```text
//! cargo run --release -p gpufs_bench --bin dist_json [OUT_PATH]
//! ```
//!
//! Each record holds:
//!
//! * the **compat** block — 1 host × {1,2,4,8} GPUs with a zero-latency,
//!   zero-bandwidth-cost link and the host cache off. The proxied tier
//!   is virtually time-transparent in that configuration, so these runs
//!   must reproduce the recorded BENCH_scale strong-scaling numbers
//!   (501.6 → 3262.9 MB/s, 6.5x at 8 GPUs) to four digits — asserted
//!   in-process, a regression fails the run instead of recording bad
//!   numbers;
//! * the **M×N sweep** — {1×8, 2×4, 4×2, 4×8} topologies under two link
//!   profiles (`lan`: 30 µs RTT / 11.6 GB/s, `slow`: 500 µs RTT /
//!   1.2 GB/s), each with a 4096-page host cache, reporting aggregate
//!   MB/s, the host-cache hit ratio, and wire round-trips. More hosts
//!   over the same corpus must not *increase* total wire traffic per
//!   byte scanned beyond the single-host baseline's cold faults — the
//!   host caches absorb re-reads, which is the point of the tier.
//!
//! Like the BENCH_scale sweeps it is held against, every fleet here
//! runs the paper prototype's daemon (`gpufs_bench::PROTOTYPE_DAEMON`).
//!
//! Set `GPUFS_BENCH_SMOKE=1` for a tiny-scale run (≤ 2×2, small corpus)
//! — used by CI to keep this recorder from rotting; smoke records go to
//! a scratch path, never to the repo's BENCH file. The smoke compat
//! check holds the proxied fleet to a coarse band (the small corpus is
//! scheduling-noisy, like the fig_scale smoke gate); full scale asserts
//! four digits.

use std::io::Write;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use gpufs::cluster::ShardStrategy;
use gpufs_bench::{dist_phase, scale_phase, SCALE};

/// Recorded BENCH_scale strong-scaling baseline (MB/s per GPU count).
const BASELINE_STRONG: &[(usize, f64)] = &[(1, 501.6), (2, 984.8), (4, 1734.8), (8, 3262.9)];

/// The M×N topologies the sweep measures.
const SWEEP_TOPOLOGIES: &[(usize, usize)] = &[(1, 8), (2, 4), (4, 2), (4, 8)];

/// Link profiles: (name, RTT ns, MB/s).
const LINKS: &[(&str, u64, f64)] = &[("lan", 30_000, 11_600.0), ("slow", 500_000, 1_200.0)];

/// Host-cache pages per proxy in the sweep (4096 × 64 KB = 256 MB).
const SWEEP_CACHE_PAGES: usize = 4096;

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
        .unwrap_or_else(|| "BENCH_dist.json".to_owned());
    let smoke = std::env::var("GPUFS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let files = if smoke { 4 } else { 16 };

    // Compat: 1 host, zero-net link, cache off — the proxied tier must
    // be invisible next to the local fleet.
    let compat_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut compat_rows = Vec::new();
    for &n in compat_counts {
        let dist = dist_phase(1, n, files, 0, 0.0, 0);
        let local = scale_phase(n, files, &[], ShardStrategy::WorkStealing);
        eprintln!(
            "compat 1x{n}: proxied {:>8.1} MB/s, local {:>8.1} MB/s ({} wire rpcs)",
            dist.mb_s, local.mb_s, dist.wire_rpcs
        );
        if smoke {
            assert!(
                (dist.mb_s - local.mb_s).abs() <= local.mb_s * 0.10,
                "zero-net proxied fleet ({:.1}) strays from the local fleet ({:.1})",
                dist.mb_s,
                local.mb_s
            );
        } else {
            assert!(
                agree_4_digits(dist.mb_s, local.mb_s),
                "zero-net proxied fleet must reproduce the local fleet to four \
                 digits ({:.1} vs {:.1} at {n} GPUs)",
                dist.mb_s,
                local.mb_s
            );
            let baseline = BASELINE_STRONG
                .iter()
                .find(|&&(g, _)| g == n)
                .map(|&(_, mb)| mb)
                .expect("baseline row");
            assert!(
                agree_4_digits(dist.mb_s, baseline),
                "zero-net proxied fleet must reproduce the recorded BENCH_scale \
                 baseline {baseline} MB/s at {n} GPUs, got {:.1}",
                dist.mb_s
            );
        }
        assert_eq!(
            dist.host_hits + dist.host_misses,
            0,
            "a disabled host cache must see no traffic"
        );
        compat_rows.push(format!(
            "{{\"gpus\":{n},\"mb_s\":{:.1},\"mb_s_local\":{:.1},\"wire_rpcs\":{}}}",
            dist.mb_s, local.mb_s, dist.wire_rpcs
        ));
    }
    if !smoke {
        let first: f64 = compat_rows
            .first()
            .and_then(|_| BASELINE_STRONG.first().map(|&(_, mb)| mb))
            .unwrap_or(1.0);
        let last = BASELINE_STRONG.last().map(|&(_, mb)| mb).unwrap_or(1.0);
        eprintln!("compat strong speedup: {:.2}x", last / first);
    }

    // The M×N sweep against net latency and bandwidth, host caches on.
    let sweep_topologies: &[(usize, usize)] = if smoke {
        &[(1, 2), (2, 2)]
    } else {
        SWEEP_TOPOLOGIES
    };
    let cache_pages = if smoke { 512 } else { SWEEP_CACHE_PAGES };
    let mut sweep_rows = Vec::new();
    for &(link, rtt_ns, mb_s) in LINKS {
        for &(m, n) in sweep_topologies {
            let out = dist_phase(m, n, files, rtt_ns, mb_s, cache_pages);
            eprintln!(
                "{link:>4} {m}x{n}: {:>8.1} MB/s, hit ratio {:.3} ({} hits / {} misses), \
                 {} wire rpcs, {} steals",
                out.mb_s, out.hit_ratio, out.host_hits, out.host_misses, out.wire_rpcs, out.steals
            );
            assert!(
                out.wire_rpcs > 0,
                "a proxied fleet cannot scan without crossing the wire"
            );
            assert!(
                (0.0..=1.0).contains(&out.hit_ratio),
                "hit ratio out of range: {}",
                out.hit_ratio
            );
            sweep_rows.push(format!(
                "{{\"link\":\"{link}\",\"rtt_ns\":{rtt_ns},\"net_mb_s\":{mb_s},\
                 \"hosts\":{m},\"gpus_per_host\":{n},\"mb_s\":{:.1},\
                 \"hit_ratio\":{:.4},\"host_hits\":{},\"host_misses\":{},\
                 \"wire_rpcs\":{},\"ms\":{:.3}}}",
                out.mb_s,
                out.hit_ratio,
                out.host_hits,
                out.host_misses,
                out.wire_rpcs,
                out.elapsed as f64 / 1e6,
            ));
        }
    }

    let record = format!(
        "{{\"bench\":\"dist_image_search\",\"unix_time\":{unix_time},\"git\":\"{}\",\
         \"dirty\":{},\"smoke\":{smoke},\"scale\":{SCALE},\"db_files\":{files},\
         \"cache_pages\":{cache_pages},\"compat\":[{}],\"sweep\":[{}]}}",
        git_head(),
        git_dirty(),
        compat_rows.join(","),
        sweep_rows.join(","),
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
