//! Matrix–vector product on a matrix larger than the GPU buffer cache
//! (paper §5.1.4, Figure 8).
//!
//! The GPUfs kernel is oblivious to the matrix not fitting: `gmmap` pages
//! stream through the cache under the FIFO-like replacement policy, with
//! no double-buffering code, no chunking logic, and no CPU-side pipeline.
//! The result is validated against a host-side reference.
//!
//! Write-path audit: the kernel syncs its output with **one `gfsync` per
//! block at the end of its band** (never `gmsync` per written region),
//! so batched write-back coalesces every dirty output page a block sees
//! into capped `WritePages` round-trips. Measured here the before/after
//! RPC counts are **equal (8 = 8)**: the 8 KB result vector fits in one
//! 16 KB page, each block's end-of-band `gfsync` re-ships that one page
//! after later rows re-dirty it, and a batch of one costs exactly the
//! old per-page RPC — the example prints the live counters to keep that
//! honest. The batching win needs multi-page dirty sets; see
//! `grep_search` (68 pages → 28 RPCs) and the benchmark's `write_back`
//! workload.
//!
//! Run with: `cargo run --release --example matvec_oom`

use std::sync::Arc;

use gpufs::{GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec};
use hostfs::{HostFs, HostFsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::matvec::{matvec_cpu_reference, matvec_cuda, matvec_gpufs};

const ROWS: u64 = 2048;
const COLS: u64 = 512;

fn main() {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    // A real (checkable) matrix: 4 MB, which we will stream through a
    // deliberately tiny 256 KB GPU buffer cache.
    let mut rng = StdRng::seed_from_u64(7);
    let mut mbytes = Vec::with_capacity((ROWS * COLS * 4) as usize);
    for _ in 0..ROWS * COLS {
        mbytes.extend_from_slice(&rng.gen_range(-1.0f32..1.0).to_le_bytes());
    }
    fs.create("/A", &mbytes).expect("matrix");
    let mut vbytes = Vec::with_capacity((COLS * 4) as usize);
    for _ in 0..COLS {
        vbytes.extend_from_slice(&rng.gen_range(-1.0f32..1.0).to_le_bytes());
    }
    fs.create("/x", &vbytes).expect("vector");

    let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
    let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
    let cache_bytes = 256 << 10; // far smaller than the 4 MB matrix
    let mount = host
        .mount(0, GpufsConfig::new(16 << 10, cache_bytes))
        .expect("mount");

    let g = matvec_gpufs(&mount, &gpu, "/A", "/x", "/y", ROWS, COLS).expect("gpufs matvec");
    println!(
        "GPUfs: {:.2} ms for a {} KB matrix through a {} KB cache ({} pages reclaimed)",
        g.elapsed as f64 / 1e6,
        (ROWS * COLS * 4) >> 10,
        cache_bytes >> 10,
        mount.counters().pages_reclaimed.get()
    );
    assert!(
        mount.counters().pages_reclaimed.get() > 0,
        "must have paged"
    );
    println!(
        "write-back: {} dirty pages shipped in {} WritePages RPC(s) \
         (per-page write-back would have issued {})",
        mount.counters().pages_per_write_rpc.get(),
        mount.counters().write_rpcs.get(),
        mount.counters().writebacks.get(),
    );

    let naive = matvec_cuda(&fs, &gpu, "/A", "/x", ROWS, COLS, None, 2).expect("cuda naive");
    println!(
        "CUDA double-buffering baseline: {:.2} ms",
        naive.elapsed as f64 / 1e6
    );

    // Validate against the host reference.
    let expected = matvec_cpu_reference(&fs, "/A", "/x", ROWS, COLS).expect("reference");
    let (ybytes, _) = fs.read_whole("/y", 0).expect("output");
    assert_eq!(ybytes.len() as u64, ROWS * 4);
    let mut worst = 0.0f32;
    for (r, want) in expected.iter().enumerate() {
        let got = f32::from_le_bytes(ybytes[r * 4..r * 4 + 4].try_into().unwrap());
        worst = worst.max((got - want).abs());
        assert!(
            (got - want).abs() <= want.abs() * 1e-4 + 1e-4,
            "row {r}: {got} vs {want}"
        );
    }
    println!("all {ROWS} rows match the host reference (worst abs err {worst:.2e})");
}
